"""The closed forms and their spectral checker stay apart.

The exact layers must not reach the spectral oracle, the diagnostics, the
CLI or mpmath, so that the oracle stays an independent check of what they
compute; the oracle, in turn, reads none of the exact layers.  Imports are
read from the source with ``ast``, lazy ones inside functions included.
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
