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
    "sphere_volume",
    "heat_trace",
    "default_grid",
    "fit_coefficients",
]

_MAX_TERMS = 2_000_000
_GUARD_TERMS = 6  # extra fit columns that absorb the truncated orders
# The fit's ladder has orders + 12 points, and a stable fit needs at least
# 2 * orders of them, so the fit spans at most 12 orders.
MAX_ORDERS = 12

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
        if term < prev and term * prev * tens < total * (prev - term):
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
    if not 1 <= precision <= 500:
        raise ValueError("precision must lie in [1, 500]")
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


def fit_coefficients(m: int, orders: int, precision: int = 50):
    """Least-squares estimates of the normalized coefficients A_0..A_orders of S^m.

    Samples R(t) = (4 pi t)^{m/2} * trace(t) / Vol on the ladder of
    :func:`default_grid` and fits a polynomial of degree orders + _GUARD_TERMS
    with column scaling; the guard terms absorb the truncated high-order
    behavior so the reported coefficients are clean.  Returns
    ``(values, errors)`` where ``errors`` are residual-based per-coefficient
    estimates.  Refuses with ``ValueError`` an order past :data:`MAX_ORDERS`,
    and with :class:`IllConditionedFitError`, before summing any trace, a
    scaled system whose condition number would eat the working precision.
    """
    import mpmath as mp

    if orders < 0:
        raise ValueError("orders must be nonnegative")
    if not 1 <= precision <= 500:  # before the SVD at precision + 30 digits
        raise ValueError("precision must lie in [1, 500]")
    if orders > MAX_ORDERS:
        raise ValueError(f"the spectral fit spans at most {MAX_ORDERS} orders, not {orders}")
    ncols = orders + _GUARD_TERMS + 1
    ladder = default_grid(orders)
    with mp.workdps(precision + 30):
        ts = [mp.mpf(t.numerator) / t.denominator for t in ladder]
        scales = [max(abs(tt ** i) for tt in ts) for i in range(ncols)]
        A = mp.matrix(len(ts), ncols)
        for j, tt in enumerate(ts):
            for i in range(ncols):
                A[j, i] = tt ** i / scales[i]
        sing = mp.svd_r(A, compute_uv=False)
        smax, smin = sing[0], sing[len(sing) - 1]
        if smin <= 0 or smax / smin > mp.mpf(10) ** (precision + 10):
            raise IllConditionedFitError(
                f"fit condition number {mp.nstr(smax / (smin or mp.mpf('1e-999')), 5)} "
                "exceeds the working precision; refusing to return garbage"
            )
        rational, pi_power = sphere_volume(m)
        vol = mp.mpf(rational.numerator) / rational.denominator * mp.pi ** pi_power
        b = mp.matrix([(4 * mp.pi * tt) ** (mp.mpf(m) / 2) * heat_trace(m, t, precision) / vol
                       for t, tt in zip(ladder, ts)])
        x, _ = mp.qr_solve(A, b)
        rnorm = mp.norm(A * x - b)
        values = [x[i] / scales[i] for i in range(ncols)]
        # the residual misses truncation bias at the largest t; inflate by 10
        errors = [10 * max(rnorm / smin, mp.mpf(10) ** (-(precision - 2))) / scales[i]
                  for i in range(ncols)]
    return values[: orders + 1], errors[: orders + 1]
