"""Exact rational arithmetic kernel.

Provides Bernoulli numbers, the tail coefficients of the half-integer and
integer Gaussian lattice sums, an overflow-safe natural log for
rationals whose numerators can reach ~10^5 digits, and
:func:`parse_rational`, which reads a rational given as text and refuses one
too large to compute with before building it.

Everything except :func:`log_abs` and the integer forms of the lattice
coefficients returns :class:`fractions.Fraction` (always in lowest terms with
positive denominator), and all of it is computed exactly, with no floating
point anywhere on the value path.  All of it is read from one table, the
tangent numbers T_1..T_n, which is the package's one cache: every factor of a
rank-one product reads it, so the second factor's read is a hit when the
first asked as deep.  :func:`_extend_tangent` builds it to exactly the depth
asked, and the readers take it whole: a Bernoulli number is one exact
division of a table entry, and :func:`c_numerators` and :func:`d_numerators`
return a whole prefix in one pass, as integers over one denominator (the
rank-one tails read these), which :func:`c_coeffs` and :func:`d_coeffs`
return as reduced Fractions.  A rebuild replaces the
module's list instead of editing it, and every reader reads the list its own
:func:`_extend_tangent` call returned, so concurrent readers stay exact; at
worst two threads build a table twice, or the cache keeps the shallower of
two racing builds.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["bernoulli", "c_coeffs", "d_coeffs", "c_numerators", "d_numerators", "log_abs",
           "MAX_DIGITS", "DigitLimitError", "parse_rational"]


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


def _lattice_terms(n: int, half_integer: bool) -> tuple[list[int], list[int]]:
    """c_0..c_n (``half_integer``) or d_0..d_n as lowest-terms numerators and
    denominators.

    With k = i + 1 and T_k a tangent number, d_i = 2 T_k / (4^k (4^k - 1)) and
    c_i = T_k (2^(2k-1) - 1) / (2^(4k-2) (4^k - 1)).  The factor 2^(2k-1) - 1
    is prime to 4^k - 1, so each entry is reduced by one gcd of T_k with the
    2k-bit odd part 4^k - 1 and a shift for the power of two.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    nums, dens = [], []
    for k, t in enumerate(_extend_tangent(n + 1)[1 : n + 2], 1):
        odd = (1 << (2 * k)) - 1  # 4^k - 1
        g = math.gcd(t, odd)
        if half_integer:
            num, twos = t // g * ((1 << (2 * k - 1)) - 1), 4 * k - 2
        else:
            num, twos = 2 * t // g, 2 * k
        shift = min((num & -num).bit_length() - 1, twos)
        nums.append(num >> shift)
        dens.append(odd // g << (twos - shift))
    return nums, dens


def _over_lcm(terms: tuple[list[int], list[int]]) -> tuple[list[int], int]:
    nums, dens = terms
    den = math.lcm(*dens)
    return [x * (den // d) for x, d in zip(nums, dens)], den


def c_numerators(n: int) -> tuple[list[int], int]:
    """Integers ``nums`` and one ``den`` with c_i = nums[i] / den for i <= n, den
    the least such (see :func:`c_coeffs`)."""
    return _over_lcm(_lattice_terms(n, True))


def d_numerators(n: int) -> tuple[list[int], int]:
    """Integers ``nums`` and one ``den`` with d_i = nums[i] / den for i <= n, den
    the least such (see :func:`d_coeffs`)."""
    return _over_lcm(_lattice_terms(n, False))


def c_coeffs(n: int) -> list[Fraction]:
    """Tail coefficients c_0..c_n of the half-integer lattice heat sum.

    These are the exact coefficients in the small-t expansion

        sum_{s in N0+1/2} s e^{-t s^2}  ~  1/(2t) + (1/2) sum_n c_n t^n / n!,

    namely c_n = (-1)^n B_{2n+2} (1 - 2^{-2n-1}) / (n+1) = d_n (1 - 2^{-2n-1}).
    All c_n > 0.
    """
    return list(map(Fraction, *_lattice_terms(n, True)))


def d_coeffs(n: int) -> list[Fraction]:
    """Tail coefficients d_0..d_n of the integer lattice heat sum.

    Exact coefficients in

        sum_{s >= 1} s e^{-t s^2}  ~  1/(2t) - (1/2) sum_n d_n t^n / n!,

    namely d_n = (-1)^n B_{2n+2} / (n+1).  All d_n > 0.  With
    B_{2m} = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) this is the one exact
    division d_n = 2 T_{n+1} / (4^(n+1) (4^(n+1) - 1)) of a tangent number.
    """
    return list(map(Fraction, *_lattice_terms(n, False)))


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


# --- rationals read from text ----------------------------------------------

MAX_DIGITS = 4300  # the interpreter's default limit on int <-> str conversion


class DigitLimitError(ValueError):
    """A rational read from text has more than MAX_DIGITS digits in its reduced
    numerator or denominator."""


def parse_rational(text: str) -> Fraction:
    """The rational ``text`` spells, as ``Fraction(text)`` reads it.

    Raises ``ValueError`` when it spells none (a zero denominator included),
    and :class:`DigitLimitError` past MAX_DIGITS digits in its reduced
    numerator or denominator.  ``Fraction`` refuses a mantissa of more than
    2 * MAX_DIGITS digits, so a nonzero value with an exponent past
    3 * MAX_DIGITS is refused before its power of ten is built.
    """
    mantissa, _, exp = text.lower().partition("e")
    digits = exp.strip().lstrip("+-").replace("_", "")
    huge = digits.isdigit() and abs(int(exp)) > 3 * MAX_DIGITS
    try:
        value = Fraction(mantissa if huge else text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    if value and (huge or max(value.numerator, value.denominator) >= 10 ** MAX_DIGITS):
        raise DigitLimitError(f"{text!r} has more than {MAX_DIGITS} digits "
                              "in its numerator or denominator")
    return value
