"""Independent spectral verification oracle.

Everything here is deliberately disjoint from the closed-form machinery: the
heat trace is summed directly over the exact unit-sphere spectrum with
multiprecision exponentials, and asymptotic coefficients are recovered by a
least-squares fit on a geometric time ladder.  Agreement between these fits
and the exact closed forms is the package's primary end-to-end validation.

Every trace, sphere or custom, goes through one summation loop.  It stops at
the first level past the peak whose term, with r = term/prev < 1, satisfies
term/(1 - r) < 10^-(precision + 10) * partial sum: for a convex spectrum with
polynomial multiplicities the term ratio only falls past the peak, so
term/(1 - r) bounds everything after it.  Inputs whose Boltzmann factor has
not fallen below that cutoff by the level limit are refused before summing.

Built-in targets are the unit round spheres S^m (m >= 2), whose spectra and
volumes are elementary and unimpeachable.  Other spaces can be probed through
the ``spectrum`` extension hook of :func:`heat_trace` and
:func:`fit_coefficients`, but no non-sphere target is endorsed as an oracle:
the projective families' homothety normalization is not pinned by anything
this package computes, so those comparisons are calibration-and-report only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

from .errors import IllConditionedFitError, SafetyLimitError
from .rank1 import ScaledRational

__all__ = [
    "SpectrumLine",
    "sphere_spectrum",
    "sphere_volume",
    "heat_trace",
    "default_grid",
    "fit_coefficients",
]

_MAX_TERMS = 2_000_000
_GUARD_TERMS = 6  # extra fit columns that absorb the truncated orders


@dataclass(frozen=True)
class SpectrumLine:
    """One Laplace eigenvalue with its multiplicity."""

    eigenvalue: Fraction
    multiplicity: int


def sphere_spectrum(m: int, k: int) -> SpectrumLine:
    """Level k of the unit sphere S^m: eigenvalue k(k+m-1), harmonic dimension.

    The multiplicity is the dimension of the degree-k spherical harmonics,
    C(k+m, m) - C(k+m-2, m).
    """
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    if k < 0:
        raise ValueError("level must be nonnegative")
    if k == 0:
        mult = 1
    else:
        mult = math.comb(k + m, m) - math.comb(k + m - 2, m)
    return SpectrumLine(Fraction(k * (k + m - 1)), mult)


def sphere_volume(m: int) -> ScaledRational:
    """Volume of the unit sphere S^m as an exact rational times a pi power."""
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    if m % 2 == 0:
        k = m // 2
        return ScaledRational(Fraction(2 * 4 ** k * math.factorial(k), math.factorial(2 * k)), k)
    q = (m + 1) // 2
    return ScaledRational(Fraction(2, math.factorial(q - 1)), q)


def _boltzmann(t: mp.mpf, eig: Fraction) -> mp.mpf:
    return mp.exp(-t * mp.mpf(eig.numerator) / eig.denominator)


def _sum_levels(spectrum: Callable[[int], SpectrumLine], t: mp.mpf, digits: int) -> mp.mpf:
    """Sum mult * exp(-t * eig) over the levels until the tail is negligible.

    Each weight is the previous one times step = exp(-t * gap), and step is
    updated by exp(-t * (gap_k - gap_{k-1})), recomputed only when that second
    difference changes: a quadratic spectrum costs two multiplications a level.
    """
    cutoff = mp.mpf(10) ** (-digits)
    line = spectrum(0)
    eig, gap, d2 = line.eigenvalue, Fraction(0), None
    weight, step = _boltzmann(t, eig), mp.mpf(1)
    total = prev = line.multiplicity * weight
    for k in range(1, _MAX_TERMS + 1):
        line = spectrum(k)
        new_gap = line.eigenvalue - eig
        if new_gap - gap != d2:
            d2 = new_gap - gap
            ratio = _boltzmann(t, d2)
        step *= ratio
        weight *= step
        eig, gap = line.eigenvalue, new_gap
        term = line.multiplicity * weight
        total += term
        # Past the peak, the term ratio r = term/prev of a convex spectrum with
        # polynomial multiplicities only falls, so the tail after this term is
        # at most term * r/(1 - r) < term/(1 - r) = term*prev/(prev - term).
        if term < prev and term * prev < cutoff * total * (prev - term):
            return total
        prev = term
    raise SafetyLimitError(f"heat trace at t={float(t)} needs more than {_MAX_TERMS} terms")


def heat_trace(m: int, t: Fraction | int, precision: int = 50,
               spectrum: Callable[[int], SpectrumLine] | None = None) -> mp.mpf:
    """Tr e^{-t Laplacian} summed to ``precision`` decimal digits.

    ``t`` is an exact rational (kept exact until the multiprecision
    exponentials); the truncation tail is pushed below 10^-(precision + 10)
    relative.  Pass ``spectrum`` to sum a custom discrete spectrum instead of
    the unit-sphere one.  Refuses with :class:`SafetyLimitError`, before
    summing, when exp(-t * eig) at the level limit is still above that cutoff.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if not 1 <= precision <= 500:
        raise ValueError("precision must lie in [1, 500]")
    if spectrum is None:
        spectrum = lambda k: sphere_spectrum(m, k)
    digits = precision + 10
    if t * spectrum(_MAX_TERMS).eigenvalue < digits * math.log(10):
        raise SafetyLimitError(
            f"heat trace at t={float(t)} needs more than {_MAX_TERMS} terms"
        )
    with mp.workdps(precision + 15):
        tt = mp.mpf(t.numerator) / t.denominator
        return _sum_levels(spectrum, tt, digits)


def default_grid(orders: int, t0: Fraction = Fraction(1, 8), points: int | None = None) -> list[Fraction]:
    """Geometric ladder t0, t0/2, t0/4, ... sized for a degree-`orders` fit."""
    if points is None:
        points = orders + 12
    return [t0 / 2 ** j for j in range(points)]


def fit_coefficients(m: int, orders: int, t_grid: list[Fraction] | None = None,
                     precision: int = 50,
                     spectrum: Callable[[int], SpectrumLine] | None = None):
    """Least-squares estimates of the normalized coefficients A_0..A_orders.

    Samples R(t) = (4 pi t)^{m/2} * trace(t) / Vol on a geometric ladder and
    fits a polynomial of degree orders + _GUARD_TERMS with column scaling; the
    guard terms absorb the truncated high-order behavior so the reported
    coefficients are clean.  Returns ``(values, errors)`` where ``errors``
    are residual-based per-coefficient estimates.  Refuses with
    :class:`IllConditionedFitError`, before summing any trace, when the scaled
    system's condition number would eat the working precision.

    For a custom ``spectrum`` the volume is unknown, so the coefficients are
    normalized by the fitted leading coefficient instead (A_0 = 1 by fiat).
    """
    if orders < 0:
        raise ValueError("orders must be nonnegative")
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
        if spectrum is None:
            sv = sphere_volume(m)
            vol = mp.mpf(sv.rational.numerator) / sv.rational.denominator * mp.pi ** sv.pi_power
        else:
            vol = mp.mpf(1)
        b = mp.matrix([(4 * mp.pi * tt) ** (mp.mpf(m) / 2) * heat_trace(m, t, precision, spectrum) / vol
                       for t, tt in zip(t_grid, ts)])
        x, _ = mp.qr_solve(A, b)
        rnorm = mp.norm(A * x - b)
        values = [x[i] / scales[i] for i in range(ncols)]
        # the residual misses truncation bias at the largest t; inflate by 10
        errors = [10 * max(rnorm / smin, mp.mpf(10) ** (-(precision - 2))) / scales[i]
                  for i in range(ncols)]
        if spectrum is not None:
            lead = values[0]
            values = [v / lead for v in values]
            errors = [e / abs(lead) for e in errors]
    return values[: orders + 1], errors[: orders + 1]
