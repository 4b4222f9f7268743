"""No module under ``src/psyslab`` computes a value that nothing reads.

The checker parses each module and reports two kinds of dead code:

- a local that a function assigns and that neither the function nor a
  scope nested in it reads (names starting with ``_`` are exempt, and
  so are parameters);
- a name imported at module level that the module never uses
  (``__init__.py``, ``__future__`` imports and import statements marked
  ``# noqa: F401`` are exempt).
"""
import ast
import symtable
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "psyslab"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_dead_code(path):
    assert dead_code(path.read_text(encoding="utf-8"), str(path)) == []
