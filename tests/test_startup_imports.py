"""A CLI run imports none of the modules that only its start-up would pay
for: ``dataclasses`` (with ``inspect``), ``typing`` and ``pathlib``.

Each subcommand runs in its own ``python -S`` child, so ``site`` (whose
``.pth`` files may import any of them) does not hide an import the package
makes.  The child runs ``preplay.cli.main()`` and then reports the package
modules it ran and which of the four it holds; between them, the children
run every submodule the package loads lazily."""

import subprocess
import sys
from pathlib import Path

import preplay

GAME = """{
  "schema": 1,
  "players": ["I", "II"],
  "strategies": [["C", "D"], ["C", "D"]],
  "payoffs": [[["4", "4"], ["0", "5"]], [["5", "0"], ["1", "1"]]]
}
"""
TARGET = GAME.replace('["0", "5"]', '["2", "3"]').replace('["5", "0"]', '["3", "2"]')
SEED = GAME.replace('["1", "1"]', "null")

FORBIDDEN = ("dataclasses", "inspect", "typing", "pathlib")

OFFERS = '{"schema": 1, "offers": [{"payer": "I", "payee": "II", "strategy": "C", "amount": "2"}]}'

COMMANDS = (
    ["apply", "game.json", "offers.json"],
    ["check", "game.json", "target.json"],
    ["synth", "game.json", "target.json"],
    ["complete", "game.json", "seed.json"],
    ["invert", "game.json", "offers.json"],
    ["dominate", "game.json", "--profile", "C,C"],
    ["analyze", "game.json"],
    ["demo", "pd"],
)

CHILD = """
import sys
sys.path.insert(0, sys.argv.pop(1))
import preplay.cli
try:
    preplay.cli.main()
finally:
    ran = [n for n, m in sys.modules.items() if n.startswith("preplay.") and type(m) is type(sys)]
    print(*sorted(ran))
    print(*(n for n in {forbidden!r} if n in sys.modules))
"""


def test_a_cli_run_imports_no_dataclasses_inspect_typing_or_pathlib(tmp_path):
    docs = {"game": GAME, "target": TARGET, "seed": SEED, "offers": OFFERS}
    for name, text in docs.items():
        (tmp_path / f"{name}.json").write_text(text)
    src = str(Path(preplay.__file__).resolve().parents[1])
    child = CHILD.format(forbidden=FORBIDDEN)
    ran = set()
    for argv in COMMANDS:
        result = subprocess.run(
            [sys.executable, "-S", "-c", child, src, *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            timeout=60,
        )
        assert result.returncode == 0, (argv, result.stderr)
        modules, loaded = result.stdout.splitlines()[-2:]
        assert loaded == "", argv
        ran.update(modules.split())
    submodules = ("analyze", "characterize", "cli", "complete", "core", "errors", "offers", "synth")
    assert ran == {f"preplay.{name}" for name in submodules}
