"""No module imports a name that it never reads.

Each module of the package, the tests, the benchmarks and the demos is
parsed with ``ast``; a name bound by an import statement must appear as a
name somewhere in the module.  ``__init__.py`` files, which re-export, and
``from __future__`` imports are skipped."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/darbouxlie", "tests", "benchmarks", "demos")
                 for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported.items()
              if name not in read]
    assert not unused, f"{path.name} never reads " + ", ".join(unused)
