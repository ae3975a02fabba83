"""Runtime checks in the library must raise, not assert: `python -O` strips
assert statements, so a check written as one silently disappears."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "duallearn"


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
