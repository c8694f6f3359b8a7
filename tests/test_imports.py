"""Every name a module imports is read there or re-exported in ``__all__``."""

import ast
from pathlib import Path

import pytest

import stochpop

_MODULES = sorted(p for p in Path(stochpop.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_the_scan_finds_an_unused_import_and_no_used_one():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import inf, nan, pi\n__all__ = ['pi']\nx = np.zeros(1)\ninf = 1\n")
    assert _unused_imports(source) == ["inf", "nan", "os"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(path.read_text()) == []
