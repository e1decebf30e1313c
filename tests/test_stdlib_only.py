import ast
import sys
from pathlib import Path

import preplay

SOURCES = sorted(Path(preplay.__file__).parent.glob("*.py"))


def _foreign_imports(path):
    """Top-level names of absolute imports that are neither preplay nor stdlib."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "preplay" and top not in sys.stdlib_module_names:
                yield f"{path.name}:{node.lineno}: {name}"


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 5
    foreign = [hit for path in SOURCES for hit in _foreign_imports(path)]
    assert foreign == []
