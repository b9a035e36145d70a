"""Every name the package re-exports, every member of its classes and
every defaulted parameter of its functions has a caller outside the tests.

A name counts as called when a Name or Attribute node refers to it in
`src/twoweightlab` (outside `__init__.py` and outside the name's own
definition) or in `perfbench/`.  Imports and strings do not count.  A class
member (a method, property or annotated field whose name is not a dunder)
counts as called when an Attribute node of that name does.  The match is on
names alone, so a member that shares its name with any other attribute
(`IntervalQ.contains`, `Enclosure.width`, `Path.parent`) passes unseen.

A defaulted parameter counts as set when a call in the same files to a
function of that name (a class's name for `__init__`) passes it by keyword
or by position; `self` or `cls` is not counted as a position.  Exempt are
the `@criterion` checks, whose parameters scenario configs set, and the
parameters in `UNSET_DEFAULTS`.
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


# Defaulted parameters no call in src/ or perfbench/ sets, on purpose.
UNSET_DEFAULTS = {
    "cli.main(argv)",  # argparse reads sys.argv when it is None
    "sparse.testing_report(direction)",  # the dual direction, for ROADMAP item 3
}


def _defaulted_parameters(path: Path) -> list[tuple[str, str, str, int | None]]:
    """(label, callee, parameter, position) of each defaulted parameter of a
    function in `path`; position is None for a keyword-only parameter."""
    out = []

    def visit(node, prefix: str, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix, cls)
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in child.decorator_list]
            names = {d.id for d in decorators if isinstance(d, ast.Name)}
            qualname = f"{prefix}{child.name}"
            callee = cls if child.name == "__init__" else child.name
            skip = 1 if cls and "staticmethod" not in names else 0
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            if "criterion" not in names:
                out.extend((f"{path.stem}.{qualname}({a.arg})", callee, a.arg, i - skip)
                           for i, a in enumerate(positional) if i >= first)
                out.extend((f"{path.stem}.{qualname}({a.arg})", callee, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, f"{qualname}.", None)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return out


def unset_defaults(root: Path) -> list[str]:
    passed: dict[str, set] = {}
    for path in _modules(root / "src" / "twoweightlab") + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                seen = passed.setdefault(name, set())
                seen.update(range(len(node.args)))
                seen.update(k.arg for k in node.keywords if k.arg)
    return sorted(label
                  for path in _modules(root / "src" / "twoweightlab")
                  for label, callee, name, position in _defaulted_parameters(path)
                  if not {name, position} & passed.get(callee, set()))


def test_every_export_has_a_caller_outside_the_tests():
    assert uncalled_exports(ROOT) == []


def test_every_class_member_has_a_caller_outside_the_tests():
    assert uncalled_members(ROOT) == []


def test_every_defaulted_parameter_is_set_outside_the_tests():
    assert unset_defaults(ROOT) == sorted(UNSET_DEFAULTS)


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


def test_the_default_guard_reads_keywords_and_positions(tmp_path):
    package = tmp_path / "src" / "twoweightlab"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4): return a\n"
        "def g(x=0): return g(x - 1) if x else 0\n"
        "class Box:\n"
        "    def __init__(self, size=1, label='box'): self.size = size\n"
        "    def grow(self, by=1, twice=False): return Box(self.size + by)\n"
        "    @staticmethod\n"
        "    def make(n=0): return Box()\n"
        "@criterion('C1', 'name', 'scenario')\n"
        "def check(k=3): return k\n"
        "value = f(0, 5, d=6) + Box(2).grow(3).size\n"
        "TABLE = {'e': f, 'twice': 1}\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "import twoweightlab.a as a\n"
        "box = a.Box.make(1)\n")
    assert unset_defaults(tmp_path) == ["a.Box.__init__(label)", "a.Box.grow(twice)",
                                        "a.f(c)", "a.f(e)"]
