"""``core`` is the package's one reader of ``Fraction``'s private slots.

``_fraction``, ``_sum``, ``_text`` and the kernels in ``core`` read and fill
``_numerator`` and ``_denominator`` directly; every other module goes
through them or the public ``numerator``/``denominator``.  This pins the
core module docstring's rule that no other module touches the slots.
"""

import ast
from pathlib import Path

import preplay

SOURCES = sorted(Path(preplay.__file__).parent.glob("*.py"))
SLOTS = {"_numerator", "_denominator"}


def _slot_uses(path):
    """Each attribute, or string naming one (as ``getattr`` would take it),
    that is one of ``Fraction``'s slots, with its line."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SLOTS:
            yield f"{path.name}:{node.lineno}: .{node.attr}"
        elif isinstance(node, ast.Constant) and node.value in SLOTS:
            yield f"{path.name}:{node.lineno}: {node.value!r}"


def test_only_core_reads_fraction_slots():
    assert len(SOURCES) > 5
    outside = [use for path in SOURCES if path.name != "core.py" for use in _slot_uses(path)]
    assert outside == []


def test_core_reads_fraction_slots():
    # the guard above is only worth its name while core does read them
    core = next(path for path in SOURCES if path.name == "core.py")
    assert len(list(_slot_uses(core))) > 10
