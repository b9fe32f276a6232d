"""Independent spectral verification oracle.

Everything here is deliberately disjoint from the closed-form machinery: the
heat trace is summed directly over the exact unit-sphere spectrum, and
asymptotic coefficients are recovered by a least-squares fit on a geometric
time ladder.  Agreement between these fits and the exact closed forms is the
package's primary end-to-end validation.

Every trace, sphere or custom, goes through one summation loop, run in integer
fixed point.  Each weight is measured relative to level 0's Boltzmann factor
and held as a Python int on the running total's scale; whenever a weight would
keep fewer than B bits, the weight, the total and the previous term are
shifted up together, so every term carries B significant bits however small
the weights get.  B holds precision + 25 decimal digits plus 64 bits, which
keeps the rounding of up to 2,000,000 levels far below the result's
precision + 15 digits (see :func:`_sum_levels`).  mpmath computes only the
seed exponentials and the final conversion, and is imported only when a trace
or fit is asked for.

The loop stops at the first level past the peak whose term, with
r = term/prev < 1, satisfies term/(1 - r) < 10^-(precision + 10) * partial
sum: for a convex spectrum with polynomial multiplicities the term ratio only
falls past the peak, so term/(1 - r) bounds everything after it.  Inputs whose
Boltzmann factor, relative to level 0's, has not fallen below that cutoff by
the level limit are refused before summing.

Built-in targets are the unit round spheres S^m (m >= 2), whose spectra and
volumes are elementary and unimpeachable.  Other spaces can be probed through
the ``eigenvalue`` and ``multiplicity`` hooks of :func:`heat_trace` and
:func:`fit_coefficients`, but no non-sphere target is endorsed as an oracle:
the projective families' homothety normalization is not pinned by anything
this package computes, so those comparisons are calibration-and-report only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from ._value import Frozen
from .errors import IllConditionedFitError, SafetyLimitError

if TYPE_CHECKING:
    import mpmath as mp

__all__ = [
    "ScaledRational",
    "sphere_volume",
    "heat_trace",
    "default_grid",
    "fit_coefficients",
]

_MAX_TERMS = 2_000_000
_GUARD_TERMS = 6  # extra fit columns that absorb the truncated orders

Eigenvalue = Callable[[int], "Fraction | int"]
Multiplicity = Callable[[int], int]


class ScaledRational(Frozen):
    """An exact value rational * pi^pi_power; zero carries pi^0."""

    _fields = ("rational", "pi_power")

    def __init__(self, rational: Fraction, pi_power: int = 0) -> None:
        rational = Fraction(rational)
        super().__init__(rational=rational, pi_power=pi_power if rational else 0)

    def __float__(self) -> float:
        return float(self.rational) * math.pi ** self.pi_power


def _sphere_levels(m: int) -> tuple[Eigenvalue, Multiplicity]:
    """Eigenvalue k(k+m-1) and harmonic dimension C(k+m, m) - C(k+m-2, m) of S^m."""
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    return (lambda k: k * (k + m - 1)), (lambda k: math.comb(k + m, m) - math.comb(k + m - 2, m))


def sphere_volume(m: int) -> ScaledRational:
    """Volume of the unit sphere S^m as an exact rational times a pi power."""
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    if m % 2 == 0:
        k = m // 2
        return ScaledRational(Fraction(2 * 4 ** k * math.factorial(k), math.factorial(2 * k)), k)
    q = (m + 1) // 2
    return ScaledRational(Fraction(2, math.factorial(q - 1)), q)


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


def heat_trace(m: int, t: Fraction | int, precision: int = 50,
               eigenvalue: Eigenvalue | None = None,
               multiplicity: Multiplicity | None = None) -> mp.mpf:
    """Tr e^{-t Laplacian} summed to ``precision`` decimal digits.

    ``t`` is an exact rational (kept exact until the multiprecision
    exponentials); the truncation tail is pushed below 10^-(precision + 10)
    relative.  Pass ``eigenvalue(k)`` (an int or Fraction) and
    ``multiplicity(k)`` (an int) to sum a custom discrete spectrum instead of
    the unit-sphere one; the tail bound holds once the terms fall past their
    peak, as they do for a convex spectrum.  Refuses with
    :class:`SafetyLimitError`, before summing, when the Boltzmann factor at the
    level limit, relative to level 0's, is still above that cutoff; that probe
    reads only eigenvalues.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if not 1 <= precision <= 500:
        raise ValueError("precision must lie in [1, 500]")
    if eigenvalue is None and multiplicity is None:
        eigenvalue, multiplicity = _sphere_levels(m)
    elif eigenvalue is None or multiplicity is None:
        raise ValueError("pass eigenvalue and multiplicity together")
    digits = precision + 10
    if t * (eigenvalue(_MAX_TERMS) - eigenvalue(0)) < digits * math.log(10):
        raise SafetyLimitError(
            f"heat trace at t={float(t)} needs more than {_MAX_TERMS} terms"
        )
    return _sum_levels(eigenvalue, multiplicity, t, digits)


def default_grid(orders: int, t0: Fraction = Fraction(1, 8), points: int | None = None) -> list[Fraction]:
    """Geometric ladder t0, t0/2, t0/4, ... sized for a degree-`orders` fit."""
    if points is None:
        points = orders + 12
    return [t0 / 2 ** j for j in range(points)]


def fit_coefficients(m: int, orders: int, t_grid: list[Fraction] | None = None,
                     precision: int = 50,
                     eigenvalue: Eigenvalue | None = None,
                     multiplicity: Multiplicity | None = None):
    """Least-squares estimates of the normalized coefficients A_0..A_orders.

    Samples R(t) = (4 pi t)^{m/2} * trace(t) / Vol on a geometric ladder and
    fits a polynomial of degree orders + _GUARD_TERMS with column scaling; the
    guard terms absorb the truncated high-order behavior so the reported
    coefficients are clean.  Returns ``(values, errors)`` where ``errors``
    are residual-based per-coefficient estimates.  Refuses with
    :class:`IllConditionedFitError`, before summing any trace, when the scaled
    system's condition number would eat the working precision.

    For a custom spectrum (``eigenvalue`` and ``multiplicity``, as in
    :func:`heat_trace`) the volume is unknown, so the coefficients are
    normalized by the fitted leading coefficient instead (A_0 = 1 by fiat).
    """
    import mpmath as mp

    if orders < 0:
        raise ValueError("orders must be nonnegative")
    if not 1 <= precision <= 500:  # before the SVD at precision + 30 digits
        raise ValueError("precision must lie in [1, 500]")
    if t_grid is None:
        t_grid = default_grid(orders)
    if len(t_grid) < max(2 * orders, orders + _GUARD_TERMS + 2):
        raise ValueError("t_grid has too few points for a stable fit")
    ncols = orders + _GUARD_TERMS + 1
    t_grid = [Fraction(t) for t in t_grid]
    with mp.workdps(precision + 30):
        ts = [mp.mpf(t.numerator) / t.denominator for t in t_grid]
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
        if eigenvalue is None:
            sv = sphere_volume(m)
            vol = mp.mpf(sv.rational.numerator) / sv.rational.denominator * mp.pi ** sv.pi_power
        else:
            vol = mp.mpf(1)
        b = mp.matrix([(4 * mp.pi * tt) ** (mp.mpf(m) / 2)
                       * heat_trace(m, t, precision, eigenvalue, multiplicity) / vol
                       for t, tt in zip(t_grid, ts)])
        x, _ = mp.qr_solve(A, b)
        rnorm = mp.norm(A * x - b)
        values = [x[i] / scales[i] for i in range(ncols)]
        # the residual misses truncation bias at the largest t; inflate by 10
        errors = [10 * max(rnorm / smin, mp.mpf(10) ** (-(precision - 2))) / scales[i]
                  for i in range(ncols)]
        if eigenvalue is not None:
            lead = values[0]
            values = [v / lead for v in values]
            errors = [e / abs(lead) for e in errors]
    return values[: orders + 1], errors[: orders + 1]
