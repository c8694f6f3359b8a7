"""Static scans of the package's modules: every name a module imports is
read there or re-exported in ``__all__``, every ``__all__`` entry is bound
in its module, every module-level private name is read somewhere in the
package, only ``engine`` makes estimates, only ``engine._open_streams``
opens a stream, only ``cli.run_config`` and ``engine._open_streams`` check
an environment, only ``persist._call`` and ``persist._objective`` read
the 3-SE rule's ``_SIGMAS``, and no module rebinds a module-level name
from a function with ``global``."""

import ast
from pathlib import Path

import pytest

import stochpop

_ALL_MODULES = sorted(Path(stochpop.__file__).parent.glob("*.py"))
_MODULES = [p for p in _ALL_MODULES if p.name != "__init__.py"]


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _bound(tree) -> set:
    """Names the module binds at its top level."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            bound |= {n.id for t in targets if t is not None for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return bound


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read - _exported(tree))


def _unbound_exports(source: str) -> list:
    """``__all__`` entries the module does not bind at its top level, which
    ``from module import *`` would fail on."""
    tree = ast.parse(source)
    return sorted(_exported(tree) - _bound(tree))


def _unread_privates(sources: dict) -> list:
    """``(module, name)`` of each private name (one leading underscore) a
    module binds at its top level that no module of ``sources`` reads, by
    name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted((module, name) for module, tree in trees.items() for name in _bound(tree) - read
                  if name.startswith("_") and not name.startswith("__"))


def test_the_scan_finds_an_unused_import_and_no_used_one():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import inf, nan, pi\n__all__ = ['pi']\nx = np.zeros(1)\ninf = 1\n")
    assert _unused_imports(source) == ["inf", "nan", "os"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unbound_export_and_no_bound_one():
    source = ("import os.path\nfrom m import a as b\n"
              "__all__ = ['f', 'C', 'x', 'y', 'z', 'w', 'b', 'os', 'gone', 'a']\n"
              "def f():\n    gone = 1\nclass C:\n    pass\nx, (y, z) = 1, (2, 3)\nw: int = 0\n")
    assert _unbound_exports(source) == ["a", "gone"]


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_every_export_is_bound_in_its_module(path):
    assert _unbound_exports(path.read_text()) == []


def test_the_scan_finds_an_unread_private_name_and_no_read_one():
    sources = {
        "a": "_x = 1\n_y = 2\n__z = 3\ndef _f():\n    return _x\nclass _C:\n    pass\n",
        "b": "import a\nfrom a import _f\n_g = a._C\ndef _h(_y):\n    return _g\n_h(1)\n",
    }
    assert _unread_privates(sources) == [("a", "_f"), ("a", "_y"), ("b", "_f")]


def test_every_private_module_level_name_is_read_in_the_package():
    assert _unread_privates({p.name: p.read_text() for p in _ALL_MODULES}) == []


# the exact large-density limit scalar_classify states, which is no estimate
_STATED_LIMIT = "RateEstimate(limit, 0.0, 0, 0)"


def _estimates_made(source: str) -> list:
    """The source of each call in ``source`` that builds a ``RateEstimate``
    or takes a ``.std`` or ``.var``, other than ``_STATED_LIMIT``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "RateEstimate" or (isinstance(func, ast.Attribute) and name in ("std", "var")):
            text = ast.get_source_segment(source, node)
            if text != _STATED_LIMIT:
                found.append(text)
    return found


def test_the_scan_finds_an_estimate_made_and_no_stated_limit():
    source = ("from engine import RateEstimate\nimport engine, numpy as np\n"
              "def f(x, limit) -> RateEstimate:\n    s = x.std\n    std(x)\n"
              "    RateEstimate(limit, 0.0, 0, 0)\n    engine.RateEstimate(1.0, 0.0, 1, 1)\n"
              "    return RateEstimate(x.mean(), x.std(ddof=1), 1, np.var(x).size)\n")
    assert _estimates_made(source) == [
        "engine.RateEstimate(1.0, 0.0, 1, 1)",
        "RateEstimate(x.mean(), x.std(ddof=1), 1, np.var(x).size)",
        "x.std(ddof=1)",
        "np.var(x)",
    ]


@pytest.mark.parametrize("path", [p for p in _ALL_MODULES if p.name != "engine.py"],
                         ids=lambda p: p.name)
def test_only_engine_makes_an_estimate(path):
    assert _estimates_made(path.read_text()) == []


def _where(source: str, hit) -> list:
    """``(function, line)`` of each node of ``source`` that ``hit`` accepts,
    with the innermost function it lies in (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def _read_name(node) -> str:
    """The name a node reads, by name or as an attribute, or None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _streams_opened(source: str) -> list:
    """``(function, line)`` of each ``make_stream(`` call in ``source``, by
    name or as an attribute."""
    return _where(source, lambda n: isinstance(n, ast.Call) and _read_name(n.func) == "make_stream")


def test_the_scan_finds_every_stream_opened_and_its_function():
    source = ("from env import make_stream\nimport env\ns = make_stream(1, 2)\n"
              "def _open_streams(seed, ids):\n    return [make_stream(seed, i) for i in ids]\n"
              "def f(seed):\n    def g():\n        return env.make_stream(seed, 0)\n"
              "    return make_stream, g\n")
    assert _streams_opened(source) == [(None, 3), ("_open_streams", 5), ("g", 8)]


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_only_the_stream_opener_opens_a_stream(path):
    want = ["_open_streams"] if path.name == "engine.py" else []
    assert [function for function, _ in _streams_opened(path.read_text())] == want


def _env_checks(source: str) -> list:
    """``(function, line)`` of each ``check_env(`` call in ``source``, by
    name or as an attribute."""
    return _where(source, lambda n: isinstance(n, ast.Call) and _read_name(n.func) == "check_env")


def test_the_scan_finds_every_env_check_and_its_function():
    source = ("import models\nm = models.Hassell()\nm.check_env(None)\n"
              "def run_config(model, envspec):\n    model.check_env(envspec)\n"
              "def f(model):\n    def g(env):\n        return check_env(env)\n"
              "    return model.check_env, g\n")
    assert _env_checks(source) == [(None, 3), ("run_config", 5), ("g", 8)]


# the functions of each module that call check_env: the runner checks once
# before any task (a task may compute before its first stream opens), the
# stream opener before every draw, and an override extends the base check
_ENV_CHECKERS = {"cli.py": ["run_config"], "engine.py": ["_open_streams"],
                 "models.py": ["check_env"]}


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_only_the_runner_and_the_stream_opener_check_the_environment(path):
    functions = [function for function, _ in _env_checks(path.read_text())]
    assert functions == _ENV_CHECKERS.get(path.name, [])


def _sigmas_read(source: str) -> list:
    """``(function, line)`` of each read of ``_SIGMAS`` in ``source``, by
    name or as an attribute."""
    return _where(source, lambda n: _read_name(n) == "_SIGMAS")


def test_the_scan_finds_every_read_of_sigmas_and_its_function():
    source = ("import persist\n_SIGMAS = 3.0\nk = _SIGMAS\ndef _call(est):\n"
              "    return est.mean - _SIGMAS * est.se\n"
              "def g(se):\n    _SIGMAS = 2.0\n    return persist._SIGMAS * se\n")
    assert _sigmas_read(source) == [(None, 3), ("_call", 5), ("g", 8)]


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_only_the_3_se_call_and_the_weights_guard_read_sigmas(path):
    # so every verdict follows the 3-SE rule by construction
    functions = {function for function, _ in _sigmas_read(path.read_text())}
    assert functions == ({"_call", "_objective"} if path.name == "persist.py" else set())


def _globals_declared(source: str) -> list:
    """``(function, line)`` of each ``global`` statement in ``source``."""
    return _where(source, lambda n: isinstance(n, ast.Global))


def test_the_scan_finds_every_global_statement_and_no_nonlocal_one():
    source = ("_pool = None\ndef f():\n    global _pool\n    _pool = 1\n"
              "def g():\n    n = 0\n    def h():\n        nonlocal n\n        global _a, _b\n"
              "    return h\n")
    assert _globals_declared(source) == [("f", 3), ("h", 9)]


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_no_module_declares_a_global(path):
    # module-level state that a call rebinds is process-wide state: it
    # outlives the call and is copied into a forked child
    assert _globals_declared(path.read_text()) == []
