"""No module under ``src/psyslab`` computes a value that nothing reads,
or defines a private that only one other module reads.

The checker parses each module and reports these kinds of dead or
misplaced code:

- a local that a function assigns and that neither the function nor a
  scope nested in it reads (names starting with ``_`` are exempt, and
  so are parameters);
- a name imported at module level that the module never uses
  (``__init__.py``, ``__future__`` imports and import statements marked
  ``# noqa: F401`` are exempt);
- a private function, class or constant (``_name``, not a dunder)
  defined or assigned at module level that no module of the package
  reads, by name or as an attribute;
- a private function, class or constant defined or assigned at module
  level that its own module never reads and exactly one other module
  of the package reads: it belongs in that reader;
- an attribute that a class stores on ``self`` and that no module of
  the package reads, on any object;
- a defaulted parameter of a function that no call by the function's
  name, in ``src`` or ``perfbench`` outside a test module, passes: a
  knob that only tests turn holds its default in every program.
"""
import ast
import symtable
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "psyslab"


def _free_in_nested(table) -> set:
    """Names that scopes nested anywhere below ``table`` read from an
    enclosing function."""
    names = set()
    for child in table.get_children():
        names |= {s.get_name() for s in child.get_symbols() if s.is_free()}
        names |= _free_in_nested(child)
    return names


def _dead_locals(table, path: str) -> list:
    found = []
    if table.get_type() == "function":
        nested = _free_in_nested(table)
        for sym in table.get_symbols():
            name = sym.get_name()
            if (sym.is_local() and sym.is_assigned() and not sym.is_parameter()
                    and not sym.is_referenced() and name not in nested
                    and not name.startswith("_")):
                found.append(f"{path}: {table.get_name()} assigns {name}, "
                             f"never read")
    for child in table.get_children():
        found += _dead_locals(child, path)
    return found


def _unused_imports(source: str, path: str) -> list:
    lines = source.splitlines()
    tree = ast.parse(source)
    # ast, not symtable: under ``from __future__ import annotations`` the
    # symbol table does not see names read only in annotations
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                found.append(f"{path}: imports {name}, never used")
    return found


def dead_code(source: str, path: str = "<source>") -> list:
    """Every dead local and unused module-level import in ``source``."""
    module = symtable.symtable(source, path, "exec")
    found = _dead_locals(module, path)
    if Path(path).name != "__init__.py":
        found += _unused_imports(source, path)
    return found


def _module_names(node) -> list:
    """The names a module-level statement defines: a function's or a
    class's, or each plain name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def _read_names(trees) -> set:
    """Every name, and every attribute of any object, that ``trees`` read."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def unread_privates(sources: dict) -> list:
    """Every module-level private function, class or constant in
    ``sources`` (path to source) that no module of ``sources`` reads."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = _read_names(trees.values())
    return [f"{path}: defines {name}, never read"
            for path, tree in trees.items() for node in tree.body
            for name in _module_names(node)
            if _is_private(name) and name not in read]


def misplaced_privates(sources: dict) -> list:
    """Every module-level private function, class or constant in
    ``sources`` (path to source) that its own module never reads and
    exactly one other module of ``sources`` reads."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = {path: _read_names([tree]) for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        for name in (name for node in tree.body for name in _module_names(node)
                     if _is_private(name) and name not in read[path]):
            readers = [other for other in trees if name in read[other]]
            if len(readers) == 1:
                found.append(f"{path}: defines {name}, read only by "
                             f"{readers[0]}")
    return found


def unread_attributes(sources: dict) -> list:
    """Every attribute that a class in ``sources`` (path to source) stores
    on ``self`` and that no module of ``sources`` reads, on any object."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = _read_names(trees.values())
    found = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            stored = {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"}
            found += [f"{path}: {cls.name} stores self.{name}, never read"
                      for name in sorted(stored - read)]
    return found


def _defaulted(fn, method: bool) -> list:
    """(position, name) of each defaulted parameter of ``fn``, position
    None for a keyword-only one; a method's position leaves out self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    params = [(i - method, a.arg) for i, a in enumerate(positional)
              if i >= first]
    return params + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                   args.kw_defaults)
                     if d is not None]


def unpassed_defaults(sources: dict, callers: dict) -> list:
    """Every defaulted parameter of a function or method in ``sources``
    (path to source) that no call by the function's name in ``callers``
    (path to source) passes, by position or by keyword.  A call with
    ``*args`` or ``**kwargs`` passes every parameter, and a class's name
    calls its ``__init__``."""
    calls = {}
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    found = []
    for path, source in sources.items():
        tree = ast.parse(source)
        defs = [(node, False) for node in tree.body]
        for cls in (node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)):
            defs += [(node, cls.name) for node in cls.body]
        for fn, cls in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = cls if cls and fn.name == "__init__" else fn.name
            method = bool(cls) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            for position, param in _defaulted(fn, method):
                if not any(
                        any(isinstance(a, ast.Starred) for a in call.args)
                        or (position is not None and len(call.args) > position)
                        or any(k.arg in (None, param) for k in call.keywords)
                        for call in calls.get(name, [])):
                    found.append(f"{path}: {fn.name} defaults {param}, "
                                 f"never passed")
    return found


PLANTED = textwrap.dedent("""\
    import json
    import math

    def f(a):
        dead = a + 1
        kept = a * 2
        def g():
            return kept
        return g() + math.pi
""")


def test_checker_reports_exactly_the_planted_dead_code():
    # the gate below passes only if the checker can fail: the local read
    # only by a nested function is live, the other two are not
    assert dead_code(PLANTED) == ["<source>: f assigns dead, never read",
                                  "<source>: imports json, never used"]


PLANTED_MODULES = {
    "a.py": textwrap.dedent("""\
        import b

        def _read_here():
            return 1

        def _read_by_b():
            return 2

        def _unread():
            return 3

        class _Unread:
            pass

        def __getattr__(name):
            raise AttributeError(name)

        def f():
            return _read_here() + b.g()
    """),
    "b.py": textwrap.dedent("""\
        import a

        def g():
            a._unread = None
            return a._read_by_b()
    """),
}


def test_checker_reports_exactly_the_planted_unread_privates():
    # a private read only by the other module is live, and so is a
    # dunder; one only assigned through an attribute is not read
    assert unread_privates(PLANTED_MODULES) == [
        "a.py: defines _unread, never read",
        "a.py: defines _Unread, never read"]


PLANTED_CONSTANTS = {
    "a.py": textwrap.dedent("""\
        import b

        __all__ = ["f"]
        _READ_HERE = 1
        _READ_BY_B = 2
        _UNREAD: int = 3
        _PAIR_READ, _PAIR_UNREAD = 4, 5
        _TABLE = {}
        _TABLE["key"] = 6

        def f():
            return _READ_HERE + _PAIR_READ + b.g()
    """),
    "b.py": textwrap.dedent("""\
        import a

        def g():
            a._UNREAD = None
            return a._READ_BY_B
    """),
}


def test_checker_reports_exactly_the_planted_unread_constants():
    # as for functions: a constant read only by the other module is live,
    # and so is a dunder; an item assignment reads its table; a constant
    # only assigned, here or through an attribute, is not read
    assert unread_privates(PLANTED_CONSTANTS) == [
        "a.py: defines _UNREAD, never read",
        "a.py: defines _PAIR_UNREAD, never read"]


PLANTED_MISPLACED = {
    "a.py": textwrap.dedent("""\
        _READ_BY_B = 1

        def _read_here_and_by_b():
            return 2

        def _read_by_b_and_c():
            return 3

        class _ReadByC:
            pass

        def f():
            return _read_here_and_by_b()
    """),
    "b.py": textwrap.dedent("""\
        import a

        def g():
            return (a._READ_BY_B + a._read_here_and_by_b()
                    + a._read_by_b_and_c())
    """),
    "c.py": textwrap.dedent("""\
        from a import _ReadByC, _read_by_b_and_c

        def h():
            return _ReadByC(), _read_by_b_and_c()
    """),
}


def test_checker_reports_exactly_the_planted_misplaced_privates():
    # a private its own module reads stays, and so does one two other
    # modules read; one only a single other module reads, by attribute
    # or by an imported name, is not where it is read
    assert misplaced_privates(PLANTED_MISPLACED) == [
        "a.py: defines _READ_BY_B, read only by b.py",
        "a.py: defines _ReadByC, read only by c.py"]


PLANTED_ATTRIBUTES = {
    "a.py": textwrap.dedent("""\
        class Box:
            def __init__(self, x):
                self.read_here, self.read_by_b = x, 2 * x
                self.unread = 3 * x
                self.only_stored = None

            def total(self):
                return self.read_here

        def clear(box):
            box.only_stored = 0
    """),
    "b.py": textwrap.dedent("""\
        import a

        def g(box):
            return a.Box(1).read_by_b + box.total()
    """),
}


def test_checker_reports_exactly_the_planted_unread_attributes():
    # an attribute read only by the other module, on another name than
    # self, is live, and so is one stored in a tuple; one only stored,
    # on self or through another name, is not read
    assert unread_attributes(PLANTED_ATTRIBUTES) == [
        "a.py: Box stores self.only_stored, never read",
        "a.py: Box stores self.unread, never read"]


PLANTED_KNOBS = {
    "a.py": textwrap.dedent("""\
        def f(a, b=1, c=2, *, d=3, e=4):
            return a + b + c + d + e

        def g(a, b=1):
            return a + b

        def h(a=1):
            return a

        def k(a, b=1):
            return a + b

        class Box:
            def __init__(self, size=1, shape=2):
                self.size, self.shape = size, shape

            def grow(self, by=1, twice=False):
                return self.size + by

            @staticmethod
            def make(size=1):
                return Box(shape=size)
    """),
    "b.py": textwrap.dedent("""\
        import a

        def run(args, kwargs):
            a.f(0, 1, d=3)
            a.g(*args)
            a.h(**kwargs)
            a.Box(shape=3).grow(2)
            return a.Box.make
    """),
}


#: a test module that passes ``a.k``'s default, which no other module does
PLANTED_TEST_CALLER = {"test_a.py": "import a\n\na.k(0, b=2)\n"}


def test_checker_reports_exactly_the_planted_unpassed_defaults():
    # a parameter passed by position or keyword is live, and every one
    # is under *args or **kwargs; a method's position leaves out self,
    # a static method's does not, and a class's name calls __init__; a
    # parameter that only a module left out of the callers passes is not
    unpassed = [
        "a.py: f defaults c, never passed",
        "a.py: f defaults e, never passed",
        "a.py: k defaults b, never passed",
        "a.py: __init__ defaults size, never passed",
        "a.py: grow defaults twice, never passed",
        "a.py: make defaults size, never passed"]
    assert unpassed_defaults(PLANTED_KNOBS, PLANTED_KNOBS) == unpassed
    callers = {**PLANTED_KNOBS, **PLANTED_TEST_CALLER}
    assert unpassed_defaults(PLANTED_KNOBS, callers) == [
        entry for entry in unpassed if " k " not in entry]


def test_package_passes_every_defaulted_parameter():
    """A knob needs a caller that is not a test: a default that only tests
    pass is a setting no program turns, so calls count from ``src`` and
    ``perfbench`` only, and not from their test modules."""
    sources = {str(path): path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    callers = {str(path): path.read_text(encoding="utf-8")
               for top in ("src", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))
               if not path.name.startswith("test_")}
    assert unpassed_defaults(sources, callers) == []


def test_package_reads_every_attribute_it_stores():
    assert unread_attributes({str(path): path.read_text(encoding="utf-8")
                              for path in sorted(SRC.glob("*.py"))}) == []


def test_package_reads_every_private_it_defines():
    assert unread_privates({str(path): path.read_text(encoding="utf-8")
                            for path in sorted(SRC.glob("*.py"))}) == []


def test_package_defines_each_private_where_it_is_read():
    assert misplaced_privates({str(path): path.read_text(encoding="utf-8")
                               for path in sorted(SRC.glob("*.py"))}) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_dead_code(path):
    assert dead_code(path.read_text(encoding="utf-8"), str(path)) == []
