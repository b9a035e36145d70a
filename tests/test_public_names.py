"""Every name the package re-exports, and every member of its classes, has
a caller outside the tests.

A name counts as called when a Name or Attribute node refers to it in
`src/twoweightlab` (outside `__init__.py` and outside the name's own
definition) or in `perfbench/`.  Imports and strings do not count.  A class
member (a method, property or annotated field whose name is not a dunder)
counts as called when an Attribute node of that name does.  The match is on
names alone, so a member that shares its name with any other attribute
(`IntervalQ.contains`, `Enclosure.width`, `Path.parent`) passes unseen.
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
        self.attributes: set[str] = set()
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
        if node.attr not in self.enclosing:
            self.attributes.add(node.attr)
        self.generic_visit(node)


def _modules(package: Path) -> list[Path]:
    return [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]


def _uses(root: Path) -> _Uses:
    uses = _Uses()
    for path in _modules(root / "src" / "twoweightlab") + sorted((root / "perfbench").glob("*.py")):
        uses.visit(ast.parse(path.read_text(), str(path)))
    return uses


def uncalled_exports(root: Path) -> list[str]:
    return sorted(exported_names(root / "src" / "twoweightlab") - _uses(root).names)


def class_members(package: Path) -> set[tuple[str, str]]:
    """(class, member) for each method, property and annotated field of a
    class in the package whose name is not a dunder."""
    members = set()
    for path in _modules(package):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.add((cls.name, name))
    return members


def uncalled_members(root: Path) -> list[str]:
    attributes = _uses(root).attributes
    return sorted(f"{cls}.{name}" for cls, name in class_members(root / "src" / "twoweightlab")
                  if name not in attributes)


def test_every_export_has_a_caller_outside_the_tests():
    assert uncalled_exports(ROOT) == []


def test_every_class_member_has_a_caller_outside_the_tests():
    assert uncalled_members(ROOT) == []


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


def test_the_member_guard_reads_attributes_only(tmp_path):
    package = tmp_path / "src" / "twoweightlab"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Box:\n"
        "    read: int\n"
        "    unread: int\n"
        "    LIMIT = 3\n"
        "    def __len__(self): return 1\n"
        "    @property\n"
        "    def size(self): return self.read\n"
        "    def grow(self, n): return self.grow(n - 1) if n else self\n"
        "    def named(self): pass\n"
        "    def traced(self): pass\n"
        "def named(): pass\n"
        "value = Box(1, 2).size + named()\n"
        "TABLE = {'grow': 1}\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "import twoweightlab.a as a\n"
        "hook = a.Box.traced\n")
    assert uncalled_members(tmp_path) == ["Box.grow", "Box.named", "Box.unread"]
