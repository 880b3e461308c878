"""Every import in the library modules is used.

No linter runs over the sources, so this walks each module of
src/cactiq (the package's __init__, which imports to re-export, aside)
with the standard library's ast: a name an import binds must be read
somewhere in its module.  An import on a line marked `# noqa: F401` is
kept on purpose and skipped.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cactiq"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every name bound by an import and never read, in
    line order; `from __future__` imports and marked lines are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for line, name in bound if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a import (b,\n"
              "               c as d)\n"
              "from e import f  # noqa: F401\n"
              "import g.h\n"
              "x: d = sys.argv\n"
              "g.h.run()\n")
    assert unused_imports(source) == [(2, "os"), (3, "b")]
    assert {"spectra.py", "verify.py"} <= {p.name for p in MODULES}
