"""Exact rational arithmetic kernel.

Provides Bernoulli numbers, the tail coefficients of the half-integer and
integer Gaussian lattice sums, and an overflow-safe natural log for
rationals whose numerators can reach ~10^5 digits.

Everything except :func:`log_abs` returns :class:`fractions.Fraction`
(always in lowest terms with positive denominator) and is computed exactly,
with no floating point anywhere on the value path.  All of it is read from
one table, the tangent numbers T_1..T_n, which :func:`_extend_tangent` builds
to exactly the depth asked and which the readers take whole: a Bernoulli
number is one exact division of a table entry, and :func:`c_coeffs` and
:func:`d_coeffs` return a whole prefix in one pass.  A rebuild replaces the
module's list instead of editing it, and every reader reads the list its own
:func:`_extend_tangent` call returned, so concurrent readers stay exact; at
worst two threads build a table twice, or the cache keeps the shallower of
two racing builds.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["bernoulli", "c_coeffs", "d_coeffs", "log_abs"]


# --- Bernoulli numbers ------------------------------------------------------

# Tangent numbers T_1, T_2, ... computed by the integer triangle recurrence.
# Pure integer arithmetic; B_{2n} is recovered as a single exact division.
_tangent: list[int] = [0]


def _extend_tangent(n: int) -> list[int]:
    """The tangent-number table T_0..T_m with m >= n: the cached one if it reaches
    T_n, else one rebuilt as exactly T_0..T_n."""
    global _tangent
    if len(_tangent) > n:
        return _tangent
    T = [0] * (n + 1)
    T[1] = 1
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    _tangent = T
    return T


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
            return Fraction(-1, 2)
        raise ValueError(f"odd Bernoulli index {k} rejected (value would be 0)")
    if k == 0:
        return Fraction(1)
    n = k // 2
    four_n = 1 << (2 * n)
    return Fraction((-1) ** (n - 1) * 2 * n * _extend_tangent(n)[n], four_n * (four_n - 1))


# --- lattice-sum tail coefficients ------------------------------------------


def c_coeffs(n: int) -> list[Fraction]:
    """Tail coefficients c_0..c_n of the half-integer lattice heat sum.

    These are the exact coefficients in the small-t expansion

        sum_{s in N0+1/2} s e^{-t s^2}  ~  1/(2t) + (1/2) sum_n c_n t^n / n!,

    namely c_n = (-1)^n B_{2n+2} (1 - 2^{-2n-1}) / (n+1) = d_n (1 - 2^{-2n-1}).
    All c_n > 0.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    halves = [1 << (2 * i + 1) for i in range(n + 1)]  # 2^(2i+1), so 4^(i+1) = 2 * half
    return [Fraction(t * (h - 1), h * h * (2 * h - 1))
            for t, h in zip(_extend_tangent(n + 1)[1:], halves)]


def d_coeffs(n: int) -> list[Fraction]:
    """Tail coefficients d_0..d_n of the integer lattice heat sum.

    Exact coefficients in

        sum_{s >= 1} s e^{-t s^2}  ~  1/(2t) - (1/2) sum_n d_n t^n / n!,

    namely d_n = (-1)^n B_{2n+2} / (n+1).  All d_n > 0.  With
    B_{2m} = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) this is the one exact
    division d_n = 2 T_{n+1} / (4^(n+1) (4^(n+1) - 1)) of a tangent number.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    fours = [1 << (2 * i + 2) for i in range(n + 1)]  # 4^(i+1)
    return [Fraction(2 * t, f * (f - 1)) for t, f in zip(_extend_tangent(n + 1)[1:], fours)]


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
