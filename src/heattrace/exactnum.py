"""Exact rational arithmetic kernel.

Provides Bernoulli numbers, the tail coefficients of the half-integer and
integer Gaussian lattice sums, half-integer Gamma moments, and an
overflow-safe natural log for rationals whose numerators can reach ~10^5
digits.

Everything except :func:`log_abs` returns :class:`fractions.Fraction`
(always in lowest terms with positive denominator) and is computed exactly,
with no floating point anywhere on the value path.  Caches only grow and
entries are immutable, so concurrent readers are safe; at worst two threads
compute the same entry redundantly and store identical values.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["bernoulli", "c_coeff", "d_coeff", "gauss_moment", "log_abs"]


# --- Bernoulli numbers ------------------------------------------------------

# Tangent numbers T_1, T_2, ... computed by the integer triangle recurrence.
# Pure integer arithmetic; B_{2n} is recovered as a single exact division.
_tangent: list[int] = [0]


def _extend_tangent(n: int) -> None:
    """Rebuild the tangent-number table as exactly T_1..T_n, unless it already
    reaches T_n."""
    if len(_tangent) > n:
        return
    T = [0] * (n + 1)
    T[1] = 1
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    _tangent[:] = T


_bernoulli_cache: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k as an exact Fraction (B_1 = -1/2 convention).

    Only even indices (and k = 0, 1) are meaningful here; odd ``k > 1`` is
    rejected rather than returning the trivial zero, since such a request
    always signals an index bug in a caller.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k % 2 == 1:
        if k == 1:
            return _bernoulli_cache[1]
        raise ValueError(f"odd Bernoulli index {k} rejected (value would be 0)")
    hit = _bernoulli_cache.get(k)
    if hit is not None:
        return hit
    n = k // 2
    if len(_tangent) <= n:
        # past the table, ask for twice its depth: rising calls rebuild O(log n) times
        _extend_tangent(max(n, 2 * (len(_tangent) - 1)))
    four_n = 1 << (2 * n)
    value = Fraction((-1) ** (n - 1) * 2 * n * _tangent[n], four_n * (four_n - 1))
    _bernoulli_cache[k] = value
    return value


# --- lattice-sum tail coefficients ------------------------------------------


_c_cache: list[Fraction] = []
_d_cache: list[Fraction] = []


def c_coeff(n: int) -> Fraction:
    """Tail coefficient of the half-integer lattice heat sum.

    These are the exact coefficients in the small-t expansion

        sum_{s in N0+1/2} s e^{-t s^2}  ~  1/(2t) + (1/2) sum_n c_n t^n / n!,

    namely c_n = (-1)^n B_{2n+2} (1 - 2^{-2n-1}) / (n+1).  All c_n > 0.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if len(_c_cache) <= n:
        _extend_tangent(n + 1)  # B_2..B_(2n+2) from one triangle, not one per doubling
    while len(_c_cache) <= n:
        i = len(_c_cache)
        value = (
            Fraction((-1) ** i, i + 1)
            * bernoulli(2 * i + 2)
            * (1 - Fraction(1, 1 << (2 * i + 1)))
        )
        _c_cache.append(value)
    return _c_cache[n]


def d_coeff(n: int) -> Fraction:
    """Tail coefficient of the integer lattice heat sum.

    Exact coefficients in

        sum_{s >= 1} s e^{-t s^2}  ~  1/(2t) - (1/2) sum_n d_n t^n / n!,

    namely d_n = (-1)^n B_{2n+2} / (n+1).  All d_n > 0.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if len(_d_cache) <= n:
        _extend_tangent(n + 1)  # B_2..B_(2n+2) from one triangle, not one per doubling
    while len(_d_cache) <= n:
        i = len(_d_cache)
        _d_cache.append(Fraction((-1) ** i, i + 1) * bernoulli(2 * i + 2))
    return _d_cache[n]


def gauss_moment(h: int) -> Fraction:
    """Gamma(h + 1/2) / sqrt(pi) as an exact rational, i.e. (2h)!/(4^h h!).

    The common sqrt(pi) factor is tracked by callers; it cancels whenever a
    moment ratio is formed.
    """
    if h < 0:
        raise ValueError("moment order must be nonnegative")
    return Fraction(math.factorial(2 * h), (1 << (2 * h)) * math.factorial(h))


# --- overflow-safe logarithms -----------------------------------------------

# ln 2 split into a 33-bit head (exact when multiplied by shifts < 2^20) and
# a correction tail; the fsum keeps the total error near one ulp of the
# result instead of accumulating shift-proportional error.
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def _log_pos_int(n: int) -> float:
    """Natural log of a positive integer of arbitrary size."""
    bits = n.bit_length()
    if bits <= 512:
        return math.log(n)
    shift = bits - 64
    return math.fsum([math.log(n >> shift), shift * _LN2_HI, shift * _LN2_LO])


def log_abs(x: Fraction | int) -> float:
    """Natural log of ``|x|``, accurate to >= 12 significant digits.

    Works on rationals with numerators and denominators of essentially
    unbounded size (the growth analysis feeds in values with ~10^5-digit
    numerators).  The value is assembled from bit lengths and 64-bit leading
    mantissas; the full rational is never converted to a float, so nothing
    can overflow.  Results whose magnitude falls below the smallest positive
    float underflow to 0.0.
    """
    if isinstance(x, int):
        x = Fraction(x)
    num = abs(x.numerator)
    den = x.denominator
    if num == 0:
        raise ValueError("log_abs(0) is undefined")
    bn, bd = num.bit_length(), den.bit_length()
    if abs(bn - bd) <= 128:
        # Near-cancellation regime: align both operands to a common shift and
        # take the log of the (exactly computed) aligned ratio.
        shift = max(bn, bd) - 256
        if shift > 0:
            a, b = num >> shift, den >> shift
        else:
            a, b = num << -shift, den << -shift
        if b <= a <= 2 * b:
            return math.log1p(float(Fraction(a - b, b)))
        return math.log(float(Fraction(a, b)))
    return _log_pos_int(num) - _log_pos_int(den)
