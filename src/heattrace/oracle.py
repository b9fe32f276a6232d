"""Independent spectral verification oracle.

Everything here is deliberately disjoint from the closed-form machinery: the
heat trace is summed directly over the exact unit-sphere spectrum, and
asymptotic coefficients are recovered by a least-squares fit on a geometric
time ladder.  Agreement between these fits and the exact closed forms is the
package's primary end-to-end validation.

Every trace goes through one summation loop, run in integer fixed point.
Each weight is measured relative to level 0's Boltzmann factor and held as a
Python int on the running total's scale; whenever a weight would keep fewer
than B bits, the weight, the total and the previous term are shifted up
together, so every term carries B significant bits however small the weights
get.  B holds precision + 25 decimal digits plus 64 bits, which keeps the
rounding of up to 2,000,000 levels far below the result's precision + 15
digits (see :func:`_sum_levels`).  mpmath computes only the seed exponentials
and the final conversion, and is imported only when a trace or fit is asked
for.

The loop stops at the first level past the peak whose term, with
r = term/prev < 1, satisfies term/(1 - r) < 10^-(precision + 10) * partial
sum: for a convex spectrum with polynomial multiplicities the term ratio only
falls past the peak, so term/(1 - r) bounds everything after it.  Inputs whose
Boltzmann factor, relative to level 0's, has not fallen below that cutoff by
the level limit are refused before summing.

The one target is the unit round sphere S^m (m >= 2), whose spectrum and
volume are elementary and unimpeachable; :func:`_sphere_levels` is the one
place that spectrum is spelled.

The fit's design matrix does not depend on the sphere or the precision.  The
ladder is t_j = 2^(-3-j), and column i is scaled by max_j t_j^i = 2^(-3i), so
the scaled matrix is exactly A[j, i] = 2^(-ij), j < orders + 12,
i <= orders + 6.  Whether a fit of a given order can be trusted at a given
precision is therefore fixed once, in :data:`_MIN_PRECISION`, by two rules
evaluated on A:

* the condition rule: refuse when cond(A) > 10^(precision + 10).  cond(A)
  runs from 1.13e6 at order 0 to 6.17e47 at order 12;
* the solver rule: mpmath's Householder QR, run at precision + 30 digits
  plus its own 10 bits, stops with "matrix is numerically singular" when a
  reduced column's squared norm is not above its absolute eps.  That check
  reads only A, never the right-hand side, so it too is fixed by the order
  and the precision.

The table holds the larger minimum per order, and a fit below it is refused
before any trace is summed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .errors import IllConditionedFitError, SafetyLimitError

if TYPE_CHECKING:
    import mpmath as mp

__all__ = [
    "MAX_ORDERS",
    "MAX_PRECISION",
    "sphere_volume",
    "heat_trace",
    "default_grid",
    "require_fit",
    "fit_coefficients",
]

_MAX_TERMS = 2_000_000
_GUARD_TERMS = 6  # extra fit columns that absorb the truncated orders
# The fit's ladder has orders + 12 points, and a stable fit needs at least
# 2 * orders of them, so the fit spans at most 12 orders.
MAX_ORDERS = 12
# A trace or fit is summed to a precision of 1..MAX_PRECISION decimal digits.
MAX_PRECISION = 500
# The least precision (decimal digits) at which a fit to each order 0..12 is
# trusted: the larger of the condition rule's minimum, 1 1 1 3 6 9 12 16 20 24
# 28 33 38, and the solver rule's, 1 1 1 1 1 1 8 15 23 31 40 50 60.
_MIN_PRECISION = (1, 1, 1, 3, 6, 9, 12, 16, 23, 31, 40, 50, 60)

Eigenvalue = Callable[[int], "Fraction | int"]
Multiplicity = Callable[[int], int]


def _sphere_levels(m: int) -> tuple[Eigenvalue, Multiplicity]:
    """Eigenvalue k(k+m-1) and harmonic dimension C(k+m, m) - C(k+m-2, m) of S^m."""
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    return (lambda k: k * (k + m - 1)), (lambda k: math.comb(k + m, m) - math.comb(k + m - 2, m))


def sphere_volume(m: int) -> tuple[Fraction, int]:
    """Volume of the unit sphere S^m as (rational, pi_power): rational * pi^pi_power."""
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    if m % 2 == 0:
        k = m // 2
        return Fraction(2 * 4 ** k * math.factorial(k), math.factorial(2 * k)), k
    q = (m + 1) // 2
    return Fraction(2, math.factorial(q - 1)), q


def _sum_levels(eigenvalue: Eigenvalue, multiplicity: Multiplicity, t: Fraction,
                digits: int) -> mp.mpf:
    """Sum mult * exp(-t * eig) over the levels until the tail is negligible.

    Each weight is the previous one times step = exp(-t * gap), and step is
    updated by ratio = exp(-t * (gap_k - gap_{k-1})), recomputed only when that
    second difference changes: a quadratic spectrum costs two multiplications
    a level.  Step and ratio are B-bit int mantissas with binary exponents.
    The weight, relative to level 0's Boltzmann factor, is an int on the
    total's scale 2^-scale; when a product would leave it under B bits, the
    weight, the total and prev are shifted up together first.  Terms are then
    exact int multiples of B-bit weights, and the sum is exact.

    Error bound: every seed and every truncation errs by at most u = 2^(2-B)
    relative, step_k by at most 2k*u and weight_k by at most (k+1)^2 * u.  The
    level limit caps k below 2^21, so the total errs by less than 2^(44-B).
    With B = ceil((digits + 15) * log2 10) + 64 that is under
    2^-20 * 10^-(digits + 15), far below the digits + 5 the result keeps.
    """
    import mpmath as mp

    # The 64 bits past the working precision absorb the (k+1)^2 * 2^(2-B)
    # rounding bound above for every k below the 2^21 level limit.
    bits = math.ceil((digits + 15) * math.log2(10)) + 64

    def exp_neg(x: Fraction) -> tuple[int, int]:
        # exp(-x) as a bits-bit mantissa and its binary exponent
        with mp.workprec(bits + 16 + (x.numerator // x.denominator).bit_length()):
            _, man, exp, bc = mp.exp(-mp.mpf(x.numerator) / x.denominator)._mpf_
        lift = bits - bc
        return (man << lift if lift >= 0 else man >> -lift), exp - lift

    tens = 10 ** digits
    tens_bits = tens.bit_length() - 3
    eig0 = eig = eigenvalue(0)
    gap, d2 = 0, None
    step, step_exp = 1 << (bits - 1), 1 - bits
    weight = 1 << bits
    scale = bits
    total = prev = multiplicity(0) * weight
    for k in range(1, _MAX_TERMS + 1):
        eig_k = eigenvalue(k)
        new_gap = eig_k - eig
        if new_gap - gap != d2:
            d2 = new_gap - gap
            ratio, ratio_exp = exp_neg(t * d2)
        step = (step * ratio) >> (bits - 1)
        step_exp += ratio_exp + bits - 1
        if step >> bits:
            step >>= 1
            step_exp += 1
        product = weight * step
        shift = -step_exp
        lift = bits + shift - product.bit_length()
        if lift > 0:
            total <<= lift
            prev <<= lift
            scale += lift
            shift -= lift
        weight = product >> shift if shift >= 0 else product << -shift
        eig, gap = eig_k, new_gap
        term = multiplicity(k) * weight
        total += term
        # Past the peak, the term ratio r = term/prev of a convex spectrum with
        # polynomial multiplicities only falls, so the tail after this term is
        # at most term * r/(1 - r) < term/(1 - r) = term*prev/(prev - term).
        # Bit lengths first: positive a, b, c give a*b*c >= 2^(bl(a)+bl(b)+bl(c)-3)
        # and d*e < 2^(bl(d)+bl(e)), so the products are formed only when the
        # lengths leave the comparison open.  A zero term always gets there:
        # total, once positive, has at least B bits, more than tens.
        if (term < prev
                and term.bit_length() + prev.bit_length() + tens_bits
                < total.bit_length() + (prev - term).bit_length()
                and term * prev * tens < total * (prev - term)):
            boltzmann0, exp0 = exp_neg(t * eig0)
            with mp.workdps(digits + 5):
                return mp.ldexp(mp.mpf(total * boltzmann0), exp0 - scale)
        prev = term
    raise SafetyLimitError(f"heat trace at t={float(t)} needs more than {_MAX_TERMS} terms")


def heat_trace(m: int, t: Fraction | int, precision: int = 50) -> mp.mpf:
    """Tr e^{-t Laplacian} of the unit sphere S^m, summed to ``precision`` decimal digits.

    ``t`` is an exact rational (kept exact until the multiprecision
    exponentials); the truncation tail is pushed below 10^-(precision + 10)
    relative.  Refuses with :class:`SafetyLimitError`, before summing, when
    the Boltzmann factor at the level limit, relative to level 0's, is still
    above that cutoff; that probe reads only eigenvalues.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must lie in [1, {MAX_PRECISION}]")
    eigenvalue, multiplicity = _sphere_levels(m)
    digits = precision + 10
    if t * (eigenvalue(_MAX_TERMS) - eigenvalue(0)) < digits * math.log(10):
        raise SafetyLimitError(
            f"heat trace at t={float(t)} needs more than {_MAX_TERMS} terms"
        )
    return _sum_levels(eigenvalue, multiplicity, t, digits)


def default_grid(orders: int) -> list[Fraction]:
    """Geometric ladder 1/8, 1/16, ... of orders + 12 points for a degree-`orders` fit."""
    return [Fraction(1, 8) / 2 ** j for j in range(orders + MAX_ORDERS)]


def require_fit(orders: int, precision: int) -> None:
    """Refuse a fit to ``orders`` at ``precision`` digits that cannot be trusted:
    ``ValueError`` outside the fit's ranges, :class:`IllConditionedFitError`
    below the order's least precision in :data:`_MIN_PRECISION` (see the
    module docstring).  It reads only that table, so it runs before any trace."""
    if orders < 0:
        raise ValueError("orders must be nonnegative")
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must lie in [1, {MAX_PRECISION}]")
    if orders > MAX_ORDERS:
        raise ValueError(f"the spectral fit spans at most {MAX_ORDERS} orders, not {orders}")
    need = _MIN_PRECISION[orders]
    if precision < need:
        raise IllConditionedFitError(
            f"a spectral fit to order {orders} needs at least {need} digits "
            f"(--oracle-precision {need}), not {precision}: below that its ladder "
            "system is too ill-conditioned to solve"
        )


def fit_coefficients(m: int, orders: int, precision: int = 50) -> list[mp.mpf]:
    """Least-squares estimates of the normalized coefficients A_0..A_orders of S^m.

    Samples R(t) = (4 pi t)^{m/2} * trace(t) / Vol on the ladder of
    :func:`default_grid` and fits a polynomial of degree orders + _GUARD_TERMS
    with column scaling; the guard terms absorb the truncated high-order
    behavior so the reported coefficients are clean.  A fit that
    :func:`require_fit` refuses is refused before any trace is summed.
    """
    require_fit(orders, precision)
    import mpmath as mp

    ncols = orders + _GUARD_TERMS + 1
    ladder = default_grid(orders)
    with mp.workdps(precision + 30):
        ts = [mp.mpf(t.numerator) / t.denominator for t in ladder]
        scales = [max(abs(tt ** i) for tt in ts) for i in range(ncols)]
        A = mp.matrix(len(ts), ncols)
        for j, tt in enumerate(ts):
            for i in range(ncols):
                A[j, i] = tt ** i / scales[i]
        rational, pi_power = sphere_volume(m)
        vol = mp.mpf(rational.numerator) / rational.denominator * mp.pi ** pi_power
        b = mp.matrix([(4 * mp.pi * tt) ** (mp.mpf(m) / 2) * heat_trace(m, t, precision) / vol
                       for t, tt in zip(ladder, ts)])
        x, _ = mp.qr_solve(A, b)
        return [x[i] / scales[i] for i in range(orders + 1)]
