"""Every name the package re-exports has a caller outside the tests.

A name counts as called when a Name or Attribute node refers to it in
`src/twoweightlab` (outside `__init__.py` and outside the name's own
definition) or in `perfbench/`.  Imports and strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twoweightlab"


def exported_names(package: Path) -> set[str]:
    tree = ast.parse((package / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


class _Uses(ast.NodeVisitor):
    """Names that Name and Attribute nodes refer to, except inside a
    definition of the same name."""

    def __init__(self):
        self.names: set[str] = set()
        self.enclosing: list[str] = []

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def uncalled_exports(root: Path) -> list[str]:
    package = root / "src" / "twoweightlab"
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "perfbench").glob("*.py"))
    uses = _Uses()
    for path in sources:
        uses.visit(ast.parse(path.read_text(), str(path)))
    return sorted(exported_names(package) - uses.names)


def test_every_export_has_a_caller_outside_the_tests():
    assert uncalled_exports(ROOT) == []


def test_the_guard_sees_through_imports_strings_and_own_bodies(tmp_path):
    package = tmp_path / "src" / "twoweightlab"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text(
        "from .a import called, imported, named, recursive, traced\n")
    (package / "a.py").write_text(
        "def called(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def imported(): pass\n"
        "def named(): pass\n"
        "def traced(): pass\n"
        "TABLE = {'named': 1}\n")
    (package / "b.py").write_text(
        "from .a import called, imported\n"
        "value = called()\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "import twoweightlab.a as a\n"
        "hook = a.traced\n")
    assert uncalled_exports(tmp_path) == ["imported", "named", "recursive"]
