"""Every architecture is a stack of dense layers, so one forward and one
backward pass serve them all. A branch on an architecture class belongs only
where the classes really differ: the initial weights (`models.init_model`)
and the exact attack's corner signs (`robust._corner_signs`)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "duallearn"
ARCH_CLASSES = {"LinearArch", "LogisticArch", "MlpArch"}
ALLOWED = {"models.init_model", "robust._corner_signs"}


def _arch_isinstance_sites(path: Path) -> list[str]:
    """`module.function` (or `module.<top>`) of every isinstance check against
    an architecture class in the file at `path`."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(c, ast.Name) and c.id in ARCH_CLASSES for c in classes):
                sites.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.<top>")
    return sites


def test_only_init_and_corner_signs_branch_on_the_architecture_class():
    files = sorted(SRC.glob("*.py"))
    assert files
    sites = [site for path in files for site in _arch_isinstance_sites(path)]
    assert sites, "the allowed branches moved: update ALLOWED"
    assert [s for s in sites if s.split(":")[0] not in ALLOWED] == []


def test_the_guard_sees_a_branch_in_a_method(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("class M:\n    def f(self, a):\n"
                    "        return isinstance(a, (int, MlpArch))\n")
    assert _arch_isinstance_sites(path) == ["probe.f:3"]
