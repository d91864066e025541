"""Every module of the package except its __init__ (which re-exports) uses
each name it imports, and the package reads every module-level private name
and every ALL_CAPS constant it defines; a name left behind by a change fails here."""

import ast
import re
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


def dead_names(sources: dict[str, str], wanted) -> list[str]:
    """Module-level names for which wanted(name) holds, that some module in
    sources defines and that no module reads, as a Name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                names = []
            dead += [f"{module}.{name}" for name in names if wanted(name) and name not in read]
    return dead


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (_name, not dunder) that no module reads."""
    return dead_names(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def dead_constants(sources: dict[str, str]) -> list[str]:
    """Module-level ALL_CAPS constants (NAME_TOL, not _NAME) that no module reads."""
    return dead_names(sources, lambda name: re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None)


def test_the_gate_sees_a_dead_private_helper():
    sources = {"a": "_LIMIT = 3\n_UNUSED = 4\n\ndef _used():\n    return _LIMIT\n\ndef _dead():\n    pass\n",
               "b": "from . import a\n\ndef f():\n    return a._used()\n"}
    assert dead_private_names(sources) == ["a._UNUSED", "a._dead"]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_the_gate_sees_an_unread_constant():
    sources = {"a": "CUT = 1e-12\nLEFT_BEHIND = 1e-12\nSHARED = 2\n_PRIVATE = 3\nlower = 4\n\n"
                    "def f(x):\n    return x > CUT\n",
               "b": "from . import a\n\ndef g():\n    return a.SHARED\n"}
    assert dead_constants(sources) == ["a.LEFT_BEHIND"]


def test_package_reads_every_constant():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_constants(sources) == []


def hidden_attributes(sources: dict[str, str]) -> set[str]:
    """The private attribute names (_name) that sources set through object.__setattr__ as a string literal."""
    return {call.args[1].value for source in sources.values() for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__" and len(call.args) == 3
            and isinstance(call.args[1], ast.Constant) and isinstance(call.args[1].value, str)
            and call.args[1].value.startswith("_")}


def test_the_gate_sees_a_hidden_attribute():
    source = ("def f(self, name, x):\n    object.__setattr__(self, '_cache', x)\n"
              "    object.__setattr__(self, 'field', x)\n    object.__setattr__(self, name, x)\n")
    assert hidden_attributes({"a": source}) == {"_cache"}


def test_the_package_keeps_one_hidden_per_instance_cache():
    """The one private attribute set on a value outside its fields is modesplit's _protocol_memo.
    A new per-instance cache is state no field shows; it needs a measured end-to-end gain first."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert hidden_attributes(sources) == {"_protocol_memo"}
