"""Growth-law diagnostics for coefficient series.

Classifies a series as factorially growing, factorially decaying, vanishing,
or other; estimates the growth constant C in |A_n| ~ C^n n!; and checks the
two-sided band

    (C (1 - eps))^n n!  <  |A_n|  <  (C (1 + eps))^n n!      for n >= N,

the equivalence notion under which polynomial prefactors and multiplicative
constants are invisible.  All magnitude comparisons happen in log space via
:func:`heattrace.exactnum.log_abs`, since the exact coefficients reach
10^5-digit numerators long before n = 300.
"""

from __future__ import annotations

import math

from ._value import Value
from .exactnum import log_abs
from .series import EXACT, HeatSeries

__all__ = [
    "GrowthReport",
    "estimate_growth_constant",
    "equiv_check",
    "find_band_start",
    "factorial_bound_witness",
    "classify",
    "growth_report",
]


def _log_ratio(s: HeatSeries, n: int) -> float:
    """log(|A_n| / n!), or -inf for a zero coefficient."""
    if s.coeffs[n] == 0:
        return float("-inf")
    return log_abs(s.coeffs[n]) - math.lgamma(n + 1)


def _nth_root_seq(s: HeatSeries, n_min: int, n_max: int) -> list[tuple[int, float]]:
    out = []
    for n in range(n_min, n_max + 1):
        if s.coeffs[n] == 0:
            raise ValueError(f"zero coefficient at n={n}; series looks vanishing, not growing")
        out.append((n, math.exp(_log_ratio(s, n) / n)))
    return out


def estimate_growth_constant(s: HeatSeries, n_min: int, with_diagnostics: bool = False):
    """Estimate C in |A_n| ~ C^n n! as the n_max value of (|A_n|/n!)^(1/n).

    Requires exact coefficients on [n_min, n_max] with a window of at least
    50 indices.  Raises ValueError on a zero coefficient in the window (that
    signals the vanishing classification instead).  With
    ``with_diagnostics=True`` also returns the tail of the n-th root sequence
    and a stabilization flag (within 5% over the last 20% of the window).
    """
    n_max = s.n_max
    if n_max < n_min + 50:
        raise ValueError("need n_max >= n_min + 50 for a growth estimate")
    if not s.is_exact_on(n_min, n_max):
        raise ValueError("growth estimation requires exact coefficients on the window")
    seq = _nth_root_seq(s, n_min, n_max)
    c_est = seq[-1][1]
    if not with_diagnostics:
        return c_est
    tail_start = n_max - max(1, (n_max - n_min) // 5)
    tail = [(n, g) for n, g in seq if n >= tail_start]
    stabilized = all(abs(g / c_est - 1.0) < 0.05 for _, g in tail)
    return c_est, {"tail": tail, "stabilized": stabilized}


def _require_unit_eps(eps: float) -> None:
    if not 0 < eps < 1:  # also false for nan
        raise ValueError(f"eps must be in (0, 1), got {eps}")


def equiv_check(s: HeatSeries, C: float, eps: float, N: int):
    """Two-sided factorial band check on [N, n_max]; returns (ok, report).

    True iff (C(1-eps))^n n! < |A_n| < (C(1+eps))^n n! at every n in range,
    evaluated in log space.  A zero coefficient in range fails the band.
    """
    _require_unit_eps(eps)
    if C <= 0:
        raise ValueError("C must be positive")
    if N < 1 or N > s.n_max:
        raise ValueError(f"N must lie in [1, {s.n_max}]")
    if not s.is_exact_on(N, s.n_max):
        raise ValueError("equiv_check requires exact coefficients on [N, n_max]")
    lo = math.log(C * (1.0 - eps))
    hi = math.log(C * (1.0 + eps))
    first_violation = None
    for n in range(N, s.n_max + 1):
        lr = _log_ratio(s, n)
        if not (n * lo < lr < n * hi):
            first_violation = n
            break
    ok = first_violation is None
    report = {
        "C": C,
        "eps": eps,
        "N": N,
        "n_max": s.n_max,
        "ok": ok,
        "first_violation": first_violation,
        "g_at_n_max": math.exp(_log_ratio(s, s.n_max) / s.n_max)
        if s.coeffs[s.n_max] != 0
        else 0.0,
    }
    return ok, report


def find_band_start(s: HeatSeries, C: float, eps: float, n_min: int = 1) -> int | None:
    """Smallest N >= n_min with the band holding on [N, n_max], or None."""
    lo = math.log(C * (1.0 - eps))
    hi = math.log(C * (1.0 + eps))
    last_bad = None
    for n in range(n_min, s.n_max + 1):
        if s.coeffs[n] == 0:
            last_bad = n
            continue
        lr = _log_ratio(s, n)
        if not (n * lo < lr < n * hi):
            last_bad = n
    if last_bad == s.n_max:
        return None
    return n_min if last_bad is None else last_bad + 1


def factorial_bound_witness(s: HeatSeries) -> float:
    """Minimal C1 with |A_n| <= C1^n n! over the computed range (indices >= 1).

    Finite for every series with nonzero length; by construction the bound
    then holds at every index for the returned witness.
    """
    best = 0.0
    for n in range(1, s.n_max + 1):
        if s.coeffs[n] == 0:
            continue
        best = max(best, math.exp(_log_ratio(s, n) / n))
    return best


def _require_exact_window(s: HeatSeries, n_min: int) -> None:
    """Raise ValueError unless n_min >= 1 and A_{n_min}..A_{n_max} are all exact."""
    if n_min < 1:
        raise ValueError(f"n_min must be at least 1, got {n_min}")
    if not s.is_exact_on(n_min, s.n_max):
        n = next(n for n in range(n_min, s.n_max + 1) if s.validity[n] != EXACT)
        raise ValueError(
            f"A_{n} is {s.validity[n]}: growth diagnostics need exact coefficients "
            f"on [n_min, n_max] = [{n_min}, {s.n_max}]")


def classify(s: HeatSeries, n_min: int = 50) -> str:
    """One of 'vanishing', 'factorial_decay', 'factorial_growth', 'polynomial_exponential'.

    Raises ValueError unless every coefficient on [n_min, n_max] is exact.
    A series is vanishing when all coefficients beyond some index, or one
    inside the window, are exactly zero (the zero placeholder of a
    non-exact entry does not count); factorially decaying when the n-th
    root ratio drops below 1e-3 by n_max; factorially growing when that
    ratio stabilizes within 5% over the last 20% of the window.  Anything
    else reports polynomial_exponential.
    """
    _require_exact_window(s, n_min)
    last_nonzero = 0
    for n, (c, flag) in enumerate(zip(s.coeffs, s.validity)):
        if c != 0 or flag != EXACT:
            last_nonzero = n
    if last_nonzero < s.n_max - max(10, s.n_max // 10):
        return "vanishing"
    if s.n_max < n_min + 50:
        raise ValueError("need n_max >= n_min + 50 to classify a non-vanishing series")
    if any(s.coeffs[n] == 0 for n in range(n_min, s.n_max + 1)):
        return "vanishing"
    c_est, diag = estimate_growth_constant(s, n_min, with_diagnostics=True)
    if c_est < 1e-3:
        tail = diag["tail"]
        if all(tail[i + 1][1] <= tail[i][1] for i in range(len(tail) - 1)):
            return "factorial_decay"
    if diag["stabilized"]:
        return "factorial_growth"
    return "polynomial_exponential"


class GrowthReport(Value):
    """Summary of the growth diagnostics of one series."""

    _fields = ("classification", "C_estimate", "epsilon_band", "C1_min", "diagnostics")

    def __init__(self, classification: str, C_estimate: float,
                 epsilon_band: list[tuple[float, int]] | None = None, C1_min: float = 0.0,
                 diagnostics: dict | None = None) -> None:
        self.classification = classification
        self.C_estimate = C_estimate
        self.epsilon_band = [] if epsilon_band is None else epsilon_band
        self.C1_min = C1_min
        self.diagnostics = {} if diagnostics is None else diagnostics


def growth_report(s: HeatSeries, n_min: int = 50, epsilons: tuple[float, ...] = (0.2,)) -> GrowthReport:
    """Full growth report: classification, C estimate, verified (eps, N) pairs, C1.

    Raises ValueError unless every epsilon lies in (0, 1) and every
    coefficient on [n_min, n_max] is exact.
    """
    for eps in epsilons:
        _require_unit_eps(eps)
    cls = classify(s, n_min)
    c1 = factorial_bound_witness(s)
    if cls == "factorial_growth":
        c_est, diag = estimate_growth_constant(s, n_min, with_diagnostics=True)
        bands = []
        for eps in epsilons:
            start = find_band_start(s, c_est, eps, n_min)
            if start is not None:
                bands.append((eps, start))
        return GrowthReport(cls, c_est, bands, c1, diag)
    return GrowthReport(cls, 0.0, [], c1, {})
