"""The README's quick tour runs as written, and every result its comments
state is what the library returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated_result(line: str):
    """The literal a ``# ...`` comment gives as a line's result (the part
    before any ``—`` remark), or None when the comment is prose."""
    if "#" not in line:
        return None
    claim = line.split("#", 1)[1].split("—", 1)[0].strip()
    try:
        return ast.literal_eval(claim)
    except (ValueError, SyntaxError):
        return None


def test_quick_tour_results_match_its_comments():
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        result = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        line = lines[statement.end_lineno - 1]
        stated = stated_result(line)
        if stated is None:
            continue
        if isinstance(stated, set):
            assert set(result) == stated, line
        else:
            assert type(result) is type(stated) and result == stated, line
        checked.append(stated)
    # three pure_nash sets and one reachability verdict
    assert sum(isinstance(s, set) for s in checked) == 3
    assert sum(s is True for s in checked) == 1
