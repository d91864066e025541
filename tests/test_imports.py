"""Every module of the package except its __init__ (which re-exports) uses
each name it imports; a name left behind by a change fails here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nc2ent"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source (other than __future__ features)
    that no expression reads, quoted annotations included."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    quoted = [ast.parse(part.value, mode="eval") for node in ast.walk(tree) for annotation in annotations(node)
              for part in ast.walk(annotation) if isinstance(part, ast.Constant) and isinstance(part.value, str)]
    read = {node.id for root in [tree, *quoted] for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def annotations(node: ast.AST) -> list[ast.expr]:
    """The annotations that node carries itself, for a quoted one such as -> "StateVector"."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation] if node.annotation else []
    return []


def test_the_gate_sees_an_unused_import():
    source = "import math\nfrom x import a, b as c\n\ndef f() -> 'c':\n    return math.pi\n"
    assert unused_imports(source) == ["a"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
