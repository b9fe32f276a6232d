"""Generating-polynomial coefficient tables for the rank-one closed forms.

Each table lists the even-power coefficients of a product of exact monic
quadratics (s^2 - j^2) over a family-specific set of integer or half-integer
roots j, expanded in Python ints over the doubled roots 2j.  The tables obey
strict alternating-sign laws that the downstream no-cancellation arguments
rely on; :func:`expected_signs` exposes those laws so both the evaluators and
the test suite can assert them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from ._value import Frozen

Family = Literal["beta", "gamma", "delta", "eta"]

__all__ = [
    "SignedTable",
    "beta_table",
    "gamma_table",
    "delta_table",
    "eta_table",
    "expected_signs",
]


class SignedTable(Frozen):
    """Coefficients c_k of an even polynomial sum_k c_k s^{2k}."""

    _fields = ("values", "family", "param")

    def __init__(self, values: tuple[Fraction, ...], family: Family,
                 param: int | None = None) -> None:
        super().__init__(values=values, family=family, param=param)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def eval_at(self, s: Fraction) -> Fraction:
        """Evaluate the even polynomial at the point s."""
        s2 = s * s
        acc = Fraction(0)
        for c in reversed(self.values):
            acc = acc * s2 + c
        return acc


def _table(doubled_roots: list[int], family: Family, mbar: int) -> SignedTable:
    """The coefficients c_k of prod_i (s^2 - (i/2)^2) over the doubled roots i.

    With y = 4 s^2 the product is 4^-K prod_i (y - i^2), K = len(doubled_roots),
    so c_k = e_k / 4^(K-k) where prod_i (y - i^2) = sum_k e_k y^k is expanded
    in Python ints.
    """
    e = [1]
    for i in doubled_roots:
        out = [0] + e  # y * e
        for k, c in enumerate(e):
            out[k] -= i * i * c
        e = out
    top = len(doubled_roots)
    return SignedTable(tuple(Fraction(c, 4 ** (top - k)) for k, c in enumerate(e)), family, mbar)


def beta_table(mbar: int) -> SignedTable:
    """Coefficients of prod_{j in {1/2,...,mbar-3/2}} (s^2 - j^2).

    The product runs over the mbar-1 smallest positive non-integer
    half-integers (empty for mbar = 1, where the table is [1]).  The list has
    length mbar and is monic: beta[mbar-1] = 1.
    """
    if mbar < 1:
        raise ValueError("beta_table requires mbar >= 1")
    return _table(list(range(1, 2 * mbar - 2, 2)), "beta", mbar)


def gamma_table(mbar: int) -> SignedTable:
    """Coefficients of the squared shifted-index multiplicity product.

    This is prod_{k=1}^{mbar-1} (s + k - mbar/2)^2, whose linear factors pair
    into the quadratics (s^2 - (k - mbar/2)^2).  For odd mbar it is
    prod_{j in {1/2,...,mbar/2-1}} (s^2 - j^2)^2 (the j run over
    half-integers); for even mbar the shifted linear product picks up the root
    0, and its square is s^2 * prod_{j=1}^{mbar/2-1} (s^2 - j^2)^2, so
    gamma[0] = 0.  Both cases have degree 2(mbar-1), hence a table of length
    mbar.
    """
    if mbar < 2:
        raise ValueError("gamma_table requires mbar >= 2")
    return _table([abs(2 * k - mbar) for k in range(1, mbar)], "gamma", mbar)


def delta_table(mbar: int) -> SignedTable:
    """Coefficients of the two-range half-integer product.

    prod_{j in {1/2,...,mbar-3/2}} (s^2-j^2) * prod_{j in {1/2,...,mbar-5/2}}
    (s^2-j^2); the second product is empty for mbar = 2.  Length 2*mbar - 2,
    monic top coefficient.
    """
    if mbar < 2:
        raise ValueError("delta_table requires mbar >= 2")
    return _table(list(range(1, 2 * mbar - 2, 2)) + list(range(1, 2 * mbar - 4, 2)),
                  "delta", mbar)


_ETA = (
    Fraction(-8037225, 16384),
    Fraction(18455239, 4096),
    Fraction(-13020525, 1024),
    Fraction(2858418, 256),
    Fraction(-262075, 64),
    Fraction(10437, 16),
    Fraction(-170, 4),
    Fraction(1),
)


def eta_table() -> SignedTable:
    """The fixed eight-entry coefficient table of the Cayley-plane closed form."""
    return SignedTable(_ETA, "eta", None)


def expected_signs(table: SignedTable) -> list[int]:
    """The sign law each table obeys: +1, -1 per entry, or 0 where it vanishes.

    beta:  sign(beta_j)  = (-1)^(j + mbar - 1), all entries nonzero;
    gamma: odd mbar  -> sign(gamma_l) = (-1)^l, all entries nonzero;
           even mbar -> gamma_0 = 0 and sign(gamma_l) = (-1)^(l-1) for l >= 1;
    delta: sign(delta_k) = (-1)^(k+1);
    eta:   sign(eta_i) = (-1)^(i+1) with |eta_i| >= 1.
    """
    n = len(table)
    if table.family == "beta":
        assert table.param is not None
        return [(-1) ** (j + table.param - 1) for j in range(n)]
    if table.family == "gamma":
        assert table.param is not None
        if table.param % 2 == 1:
            return [(-1) ** l for l in range(n)]
        return [0] + [(-1) ** (l - 1) for l in range(1, n)]
    if table.family == "delta":
        return [(-1) ** (k + 1) for k in range(n)]
    return [(-1) ** (i + 1) for i in range(n)]
