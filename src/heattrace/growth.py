"""Growth-law diagnostics for coefficient series.

Classifies a series as factorially growing, factorially decaying, vanishing,
or other; estimates the growth constant C in |A_n| ~ C^n n!; and checks the
two-sided band

    (C (1 - eps))^n n!  <  |A_n|  <  (C (1 + eps))^n n!      for nonzero A_n, n >= N,

the equivalence notion under which polynomial prefactors and multiplicative
constants are invisible.  All magnitude comparisons happen in log space via
:func:`heattrace.exactnum.log_abs`, since the exact coefficients reach
10^5-digit numerators long before n = 300.  The rules of the window
[n_min, n_max] live in :func:`check_window` alone, which the diagnostics ask
after a build and the CLI before one.  A series vanishes only by its rule:
its closed form is a polynomial, or it ends in exact zeros.  Every
diagnostic skips an exact zero inside the window, so X x X* of a rank-one X,
whose odd coefficients are zero, is read from its even ones.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value
from .exactnum import log_abs
from .series import HeatSeries

__all__ = [
    "GrowthReport",
    "check_window",
    "estimate_growth_constant",
    "find_band_start",
    "factorial_bound_witness",
    "classify",
    "growth_report",
]


def _log_ratios(s: HeatSeries, n_min: int) -> list[tuple[int, float]]:
    """(n, log(|A_n| / n!)) for each nonzero A_n with n in [n_min, n_max]."""
    return [(n, log_abs(c) - math.lgamma(n + 1))
            for n, c in enumerate(s.coeffs[n_min:], n_min) if c != 0]


def _require_unit_eps(eps: float) -> None:
    if not 0 < eps < 1:  # also false for nan
        raise ValueError(f"eps must be in (0, 1), got {eps}")


def _root(lr: float, n: int) -> float:
    """(|A_n| / n!)^(1/n) from lr = log(|A_n| / n!), refused past the float range."""
    try:
        return math.exp(lr / n)
    except OverflowError:
        raise ValueError(f"(|A_n|/n!)^(1/n) = e^{lr / n:.6g} at n = {n} "
                         "is past the float range") from None


def _vanishes(s: HeatSeries, n_min: int) -> bool:
    """:func:`check_window` on a built series, whose zero run is the exact zeros
    it ends in (its gap holds none), or, for a closed form e^{0 t} P(t), a
    polynomial, inf, as :func:`check_window` counts it before the build."""
    zero_run = math.inf if s.exppoly and not s.exppoly[0] else s.n_max - next(
        (n for n in range(s.n_max, len(s.gap), -1) if s.coeffs[n]), len(s.gap))
    return check_window(n_min, s.n_max, s.gap, s.flag, zero_run)


def check_window(n_min: int, n_max: int, gap: range, flag: str, zero_run: int = 0,
                 exppoly: tuple[Fraction, int] | None = None) -> bool:
    """Refuse a window [n_min, n_max] that the diagnostics cannot read; return
    whether the series vanishes.  ``gap``, flagged ``flag``, is its inexact run.

    n_min must lie in [1, n_max] and outside the gap.  A series ending in
    more than max(10, n_max // 10) exact zeros (``zero_run``; 0 for one that
    cannot vanish) vanishes, and one that does not needs n_max >= n_min + 50.
    A series e^{kappa t} P(t) not yet built passes ``exppoly`` = (kappa, a
    bound on deg P) instead: with kappa != 0, A_n = kappa^n / n! Q(n) for a
    nonzero Q of degree deg P, so at most deg P coefficients vanish; with
    kappa = 0 the series is P, a polynomial, and vanishes.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"n_min must lie in [1, {n_max}], got {n_min}")
    if n_min in gap:
        raise ValueError(f"A_{n_min} is {flag}: growth diagnostics need exact coefficients "
                         f"on [n_min, n_max] = [{n_min}, {n_max}]")
    if exppoly is not None:  # (kappa, deg P bound)
        zero_run = exppoly[1] if exppoly[0] else math.inf
    vanishing = zero_run > max(10, n_max // 10)
    if not vanishing and n_max < n_min + 50:
        raise ValueError("need n_max >= n_min + 50 to classify a non-vanishing series")
    return vanishing


def estimate_growth_constant(s: HeatSeries, n_min: int) -> float:
    """Estimate C in |A_n| ~ C^n n! as (|A_n|/n!)^(1/n) at the last nonzero A_n.

    Raises ValueError on a window that :func:`check_window` refuses, on a
    series that it calls vanishing, and on a window of zeros.
    """
    if _vanishes(s, n_min):
        raise ValueError("the series vanishes; it has no growth constant")
    ratios = _log_ratios(s, n_min)
    if not ratios:
        raise ValueError(f"A_n is zero for every n in [{n_min}, {s.n_max}]")
    return _root(ratios[-1][1], ratios[-1][0])


def find_band_start(s: HeatSeries, C: float, eps: float, n_min: int = 1) -> int | None:
    """Smallest N >= n_min with the band holding on [N, n_max], or None.

    The band is read on the nonzero A_n alone: it holds on all of
    [n_min, n_max] exactly when this returns n_min, and a series that
    :func:`check_window` calls vanishing, or a window of zeros, has no band
    (None).  Raises ValueError unless eps lies in (0, 1), C > 0 and
    :func:`check_window` accepts the window.
    """
    _require_unit_eps(eps)
    if C <= 0:
        raise ValueError("C must be positive")
    if _vanishes(s, n_min):
        return None
    ratios = _log_ratios(s, n_min)
    if not ratios:
        return None
    lo = math.log(C * (1.0 - eps))
    hi = math.log(C * (1.0 + eps))
    bad = [n for n, lr in ratios if not n * lo < lr < n * hi]
    if not bad:
        return n_min
    return None if bad[-1] == ratios[-1][0] else bad[-1] + 1


def factorial_bound_witness(s: HeatSeries) -> float:
    """Minimal C1 with |A_n| <= C1^n n! over the computed range (indices >= 1).

    Finite for every series with nonzero length; by construction the bound
    then holds at every index for the returned witness.
    """
    return max((_root(lr, n) for n, lr in _log_ratios(s, 1)), default=0.0)


def _classify(s: HeatSeries, n_min: int) -> tuple[str, float]:
    """The classification of :func:`classify`, and the estimate of C when it is
    'factorial_growth' (0.0 otherwise)."""
    if _vanishes(s, n_min):
        return "vanishing", 0.0
    # the n-th roots over the last 20% of the window; the last is the estimate
    tail_start = s.n_max - max(1, (s.n_max - n_min) // 5)
    tail = [_root(lr, n) for n, lr in _log_ratios(s, tail_start)]
    if not tail:
        raise ValueError(f"A_n is zero for every n in [{tail_start}, {s.n_max}], the last "
                         "fifth of the window, yet the series does not vanish")
    c_est = tail[-1]
    if c_est < 1e-3 and all(b <= a for a, b in zip(tail, tail[1:])):
        return "factorial_decay", 0.0
    if all(abs(g / c_est - 1.0) < 0.05 for g in tail):
        return "factorial_growth", c_est
    return "polynomial_exponential", 0.0


def classify(s: HeatSeries, n_min: int = 50) -> str:
    """One of 'vanishing', 'factorial_decay', 'factorial_growth', 'polynomial_exponential'.

    Raises ValueError on a window that :func:`check_window` refuses, and on
    a last 20% of the window that holds only zeros of a series that does not
    vanish.  A series is vanishing when :func:`check_window` says so, that
    is, when its closed form is a polynomial (``exppoly`` with kappa = 0) or
    it ends in more than max(10, n_max // 10) exact zeros; exact zeros inside
    the window are skipped.  It is factorially decaying when the n-th root
    ratio of its nonzero coefficients drops below 1e-3 by n_max; factorially
    growing when that ratio stabilizes within 5% over the last 20% of the
    window.  Anything else reports polynomial_exponential.
    """
    return _classify(s, n_min)[0]


class GrowthReport(Value):
    """Summary of the growth diagnostics of one series."""

    _fields = ("classification", "C_estimate", "epsilon_band", "C1_min")

    def __init__(self, classification: str, C_estimate: float,
                 epsilon_band: list[tuple[float, int]] | None = None,
                 C1_min: float = 0.0) -> None:
        self.classification = classification
        self.C_estimate = C_estimate
        self.epsilon_band = [] if epsilon_band is None else epsilon_band
        self.C1_min = C1_min


def growth_report(s: HeatSeries, n_min: int = 50, epsilons: tuple[float, ...] = (0.2,)) -> GrowthReport:
    """Full growth report: classification, C estimate, verified (eps, N) pairs, C1.

    Raises ValueError unless every epsilon lies in (0, 1) and
    :func:`check_window` accepts the window.
    """
    for eps in epsilons:
        _require_unit_eps(eps)
    cls, c_est = _classify(s, n_min)
    bands = []
    if cls == "factorial_growth":
        for eps in epsilons:
            start = find_band_start(s, c_est, eps, n_min)
            if start is not None:
                bands.append((eps, start))
    return GrowthReport(cls, c_est, bands, factorial_bound_witness(s))
