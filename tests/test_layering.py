"""The closed forms and their spectral checker stay apart, and the package keeps
one cache.

The exact layers must not reach the spectral oracle, the diagnostics, the
CLI or mpmath, so that the oracle stays an independent check of what they
compute; the oracle, in turn, reads none of the exact layers.  Imports are
read from the source with ``ast``, lazy ones inside functions included.

No function writes into module-level state, except the tangent table that
``exactnum._extend_tangent`` rebinds: a result reused across requests must
earn its place by measured traffic, and reuse within one request lives in
that request (``cli._plan`` shares a repeated atom's series).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heattrace"

EXACT_LAYERS = ("exactnum", "seedpolys", "series", "rank1", "plancherel")
CHECKERS = ("oracle", "growth", "verify", "cli", "mpmath")


def imported(module: str) -> set[str]:
    """The package modules and top-level third-party packages ``module`` imports."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:  # from mpmath.libmp import ..., from .oracle import ...
                names.add(node.module.split(".")[0])
            else:  # from . import oracle, ...
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", EXACT_LAYERS)
def test_exact_layers_import_no_checker(module):
    assert not imported(module) & set(CHECKERS)


def test_oracle_imports_no_exact_layer():
    assert not imported("oracle") & set(EXACT_LAYERS)


def test_the_reader_sees_lazy_imports():
    # cli imports mpmath only inside functions, oracle under TYPE_CHECKING
    assert {"mpmath", "rank1", "series"} <= imported("cli")
    assert "oracle" in imported("verify") and "mpmath" in imported("oracle")


# Methods that change a list, dict or set in place.
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "update", "setdefault",
            "popitem", "add", "discard", "sort", "reverse"}


def _root(node: ast.expr) -> str | None:
    """The name an attribute or subscript chain starts from, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """The names a function binds itself: its parameters and every name it stores."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    return names | {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Store)}


def state_writes(source: str) -> list[tuple[str, str]]:
    """(function, name) of each write inside a function into a module-level name:
    an assignment or deletion through a subscript or attribute of it, a mutating
    method call on it, or a ``global`` statement."""
    tree = ast.parse(source)
    top = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        top |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    found = []

    def visit(node: ast.AST, fn: str, local: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            fn, local = getattr(node, "name", fn), local | _bound(node)
        if isinstance(node, ast.Global):
            found.extend((fn, name) for name in node.names)
        written = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            written = [t for t in targets if isinstance(t, (ast.Subscript, ast.Attribute))]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            written = [node.func.value]
        for target in written:
            name = _root(target)
            if name in top and name not in local:
                found.append((fn, name))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, local)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            visit(node, node.name, set())
    return found


def test_the_tangent_table_is_the_one_module_level_state():
    writes = {path.stem: state_writes(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {m: w for m, w in writes.items() if w} == {
        "exactnum": [("_extend_tangent", "_tangent")]}


def test_the_state_reader_sees_each_kind_of_write():
    source = """
_cache = {}
_seen: list = []
LIMIT = 3


def f(key, value):
    _cache[key] = value
    _seen.append(key)
    del _cache[key]
    _cache.setdefault(key, value)


def g(_cache):
    _cache[1] = 2  # a parameter that shadows the module name


def h():
    _seen = []
    _seen.append(LIMIT)  # a local that shadows it
    return [x for x in _seen]


class C:
    def m(self):
        global LIMIT
        LIMIT = 4
        self.items.append(1)
"""
    assert state_writes(source) == [("f", "_cache"), ("f", "_seen"), ("f", "_cache"),
                                    ("f", "_cache"), ("m", "LIMIT")]
