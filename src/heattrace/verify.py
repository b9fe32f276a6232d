"""Named verification suites shared by the CLI and the acceptance tests.

Each check returns a :class:`CheckResult`; a suite is a list of checks.  The
growth-law suite checks the two-sided factorial band at eps = 0.2 against the
reference constants of :data:`GROWTH_LAW_TABLE`, each at its own band depth:
300 for every family except the Cayley plane, whose polynomial prefactor
(about n^14) keeps it outside the band until n = 311, so it is checked to
n = 360.  See the README testing notes for the sphere constant and the
Cayley-plane depth.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import growth, oracle, plancherel, rank1, seedpolys, series
from ._value import Value
from .exactnum import bernoulli, c_coeffs, d_coeffs, log_abs

__all__ = [
    "CheckResult", "run_suite", "SUITE_NAMES", "reference_series",
    "GROWTH_LAW_TABLE",
]


class CheckResult(Value):
    _fields = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = "") -> None:
        self.name = name
        self.ok = ok
        self.detail = detail


# (series key, growth constant C, expected coefficient sign for 50 <= n <= 300,
#  band depth: the n_max up to which the eps = 0.2 band is checked)
#
# Unit spheres S^{2M}: C = 1/pi^2 for every M.  With j = k + M - 1/2 the
# eigenvalue k(k + 2M - 1) is j^2 - (M - 1/2)^2 and the multiplicity an odd
# polynomial in j, so the trace is e^{(M-1/2)^2 t} times a sum over the
# half-integers j of that polynomial times e^{-t j^2}.  Every A_n is then a
# finite rational combination of zeta_H(1-2q, 1/2) = (1 - 2^{1-2q}) B_{2q}/(2q),
# and |B_{2q}| ~ 2 (2q)!/(2 pi)^{2q} makes A_n grow like (1/pi^2)^n n! times
# a polynomial in n.
#
# Cayley plane: the polynomial prefactor (about n^14) keeps (|A_n|/n!)^(1/n)
# above 1.2/pi^2 until n = 311 (1.2055/pi^2 at n = 300), so its band is
# checked to n = 360.
GROWTH_LAW_TABLE = [
    ("sphere:1", 1 / math.pi ** 2, +1, 300),
    ("sphere:2", 1 / math.pi ** 2, -1, 300),
    ("cp:2", 3 / math.pi ** 2, -1, 300),
    ("cp:3", 4 / math.pi ** 2, +1, 300),
    ("hp:2", 1 / math.pi ** 2, -1, 300),
    ("op2", 1 / math.pi ** 2, -1, 360),
]


def reference_series(key: str, n_max: int) -> series.HeatSeries:
    """The exact coefficient series of one reference space to n_max."""
    name, _, param = key.partition(":")
    return rank1.rank1_series(rank1.atom_model(name, param), n_max)


def _references(depth: int | None = None) -> dict[str, series.HeatSeries]:
    """Each table row's series, to ``depth`` or else to the row's band depth."""
    return {key: reference_series(key, depth or band) for key, _, _, band in GROWTH_LAW_TABLE}


# --- criterion checks ---------------------------------------------------------


def check_corollary_vanishing() -> list[CheckResult]:
    """Product of the rank-one hyperbolic model with its dual vanishes exactly.

    The closed-form product gives e^0 * 1 by construction, so the product of
    generator-free copies, which runs the general convolution, is checked
    too, as an independent numeric check of the corollary.
    """
    form = plancherel.closed_form(plancherel.build_family("hyperbolic_odd", 1))
    s = plancherel.to_series(form, 100)
    dual = series.dualize(s)
    plain = [series.HeatSeries(x.coeffs, provenance=x.provenance) for x in (s, dual)]
    out = []
    for name, (a, b) in (("product-vanishes", (s, dual)),
                         ("schoolbook-product-vanishes", plain)):
        prod = series.product(a, b)
        bad = [n for n in range(1, 101) if prod[n] != 0]
        out.append(CheckResult(
            f"corollary-1.7/{name}",
            not bad and prod[0] == 1,
            "A_n = 0 exactly for 1 <= n <= 100" if not bad else f"nonzero at {bad[:5]}",
        ))
    return out


def check_anchors() -> list[CheckResult]:
    """The rank-one hyperbolic closed form and its dual exponential series."""
    out = []
    form = plancherel.closed_form(plancherel.build_family("hyperbolic_odd", 1))
    ok1 = form.kappa == Fraction(-1, 4) and form.poly[0] == 1 and form.degree == 0
    out.append(CheckResult("anchors/h3-closed-form", ok1,
                           f"kappa={form.kappa}, P=1 (degree 0)"))
    dual = series.dualize(plancherel.to_series(form, 40))
    ok2 = all(dual[n] == Fraction(1, 4 ** n * math.factorial(n)) for n in range(41))
    out.append(CheckResult("anchors/s3-dual-series", ok2, "A_n = (1/4)^n / n! exactly"))
    return out


def _fit_rel_errors(mbar: int, precision: int = 50):
    import mpmath as mp

    m = 2 * mbar
    thr = mbar
    exact_series = rank1.rank1_series(rank1.SpaceModel("sphere", mbar), 5)
    fitted = oracle.fit_coefficients(m, orders=5, precision=precision)
    rel = []
    for n in range(thr, 6):
        exact = exact_series[n]
        with mp.workdps(40):
            e = mp.mpf(exact.numerator) / exact.denominator
            rel.append(float(abs((fitted[n] - e) / e)))
    return rel


def check_oracle_spheres() -> list[CheckResult]:
    """Closed-form A_n vs spectral fit for the 2- and 4-sphere at 50 digits."""
    out = []
    for mbar in (1, 2):
        rel = _fit_rel_errors(mbar)
        worst = max(rel)
        out.append(
            CheckResult(
                f"oracle-spheres/S{2 * mbar}",
                worst < 1e-6,
                f"worst relative deviation {worst:.2e} over n = {mbar}..5",
            )
        )
    return out


def check_unit_s3_chain() -> list[CheckResult]:
    """Spectral fit on the unit 3-sphere against the exact exponential chain."""
    import mpmath as mp

    out = []
    fitted = oracle.fit_coefficients(3, orders=5, precision=50)
    worst = 0.0
    for n in range(6):
        with mp.workdps(40):
            e = mp.mpf(1) / math.factorial(n)
            worst = max(worst, float(abs((fitted[n] - e) / e)))
    out.append(CheckResult("unit-s3-chain/fit", worst < 1e-6,
                           f"worst relative deviation {worst:.2e} vs 1/n!, n <= 5"))
    form = plancherel.closed_form(plancherel.build_family("hyperbolic_odd", 1))
    chain = series.rescale(series.dualize(plancherel.to_series(form, 20)), 4)
    ok = all(chain[n] == Fraction(1, math.factorial(n)) for n in range(21))
    out.append(CheckResult("unit-s3-chain/exact-rescale", ok,
                           "rescale(dual(series), 4) = 1/n! exactly"))
    return out


def check_growth_laws(references: dict[str, series.HeatSeries] | None = None
                      ) -> list[CheckResult]:
    """Two-sided factorial band at eps = 0.2 from N >= 50 up to each table row's
    band depth, and the eventual sign for 50 <= n <= 300; ``references`` are
    the rows' series to their band depths, built here if not given."""
    references = references or _references()
    out = []
    for key, C, sign, depth in GROWTH_LAW_TABLE:
        s = references[key]
        start = growth.find_band_start(s, C, 0.2, 50)
        ok = start is not None
        measured = growth.estimate_growth_constant(s, 100)
        out.append(
            CheckResult(
                f"growth-laws/{key}/band",
                ok,
                f"C={C:.6f}, measured (|A_n|/n!)^(1/n) at {depth} = {measured:.6f}"
                + (f", band holds from N={start} to {depth}" if ok
                   else f", band never holds by n={depth}"),
            )
        )
        bad_sign = [n for n in range(50, 301)
                    if s[n] != 0 and (1 if s[n] > 0 else -1) != sign]
        out.append(
            CheckResult(
                f"growth-laws/{key}/sign",
                not bad_sign,
                f"sign {'+' if sign > 0 else '-'} for all 50 <= n <= 300"
                if not bad_sign else f"unexpected sign at n={bad_sign[:5]}",
            )
        )
    return out


_STRUCTURE_FAMILIES = (
    [("hyperbolic_odd", k) for k in range(1, 6)]
    + [("complex_group", "A1"), ("complex_group", "A2"), ("complex_group", "A3"),
       ("complex_group", "B2"), ("su_star", 2), ("su_star", 3), ("e6_f4", None)]
)


def check_structure() -> list[CheckResult]:
    """Structural facts of every built closed form (degree bound, P(0), t power)."""
    out = []
    for family, param in _STRUCTURE_FAMILIES:
        model = plancherel.build_family(family, param)
        form = plancherel.closed_form(model)
        bound = form.degree_bound
        ok = (
            form.poly[0] == 1
            and form.degree <= bound
            and len(form.poly) == bound + 1
            and form.leading_t_exponent == -Fraction(model.m, 2)
            and (model.m - model.r) % 2 == 0
        )
        out.append(
            CheckResult(
                f"structure/{model.label}",
                ok,
                f"deg P = {form.degree} (bound (m-r)/2 = {bound}), P(0) = {form.poly[0]}, "
                f"leading power t^({form.leading_t_exponent})",
            )
        )
    return out


def check_cross_family() -> list[CheckResult]:
    """The rank-one hyperbolic model and the rank-one complex group coincide."""
    a = plancherel.closed_form(plancherel.build_family("hyperbolic_odd", 1))
    b = plancherel.closed_form(plancherel.build_family("complex_group", "A1"))
    ok = a.kappa == b.kappa and tuple(a.poly) == tuple(b.poly)
    pa = "[" + ", ".join(str(c) for c in a.poly) + "]"
    pb = "[" + ", ".join(str(c) for c in b.poly) + "]"
    return [CheckResult("cross-family/h3-vs-A1", ok,
                        f"kappa {a.kappa} vs {b.kappa}; P {pa} vs {pb}")]


def check_factorial_bound(references: dict[str, series.HeatSeries] | None = None
                          ) -> list[CheckResult]:
    """Finite factorial bound witness, verified index by index to n = 300;
    ``references`` are the table rows' series to at least 300, built here if
    not given."""
    references = references or _references(300)
    out = []
    for key, *_ in GROWTH_LAW_TABLE:
        full = references[key]
        s = series.HeatSeries(full.coeffs[:301], full.gap, full.flag, full.provenance)
        c1 = growth.factorial_bound_witness(s)
        ok = math.isfinite(c1) and c1 > 0
        slack = 1e-9
        for n in range(1, s.n_max + 1):
            if s[n] == 0:
                continue
            if log_abs(s[n]) > n * math.log(c1) + math.lgamma(n + 1) + slack:
                ok = False
                break
        out.append(CheckResult(f"factorial-bound/{key}", ok, f"witness C1 = {c1:.6g}"))
    for mbar in (1, 2):
        form = plancherel.closed_form(plancherel.build_family("hyperbolic_odd", mbar))
        s = plancherel.to_series(form, 300)
        c1 = growth.factorial_bound_witness(s)
        ok = math.isfinite(c1) and c1 <= float(abs(form.kappa)) * 1.5 + 1.0
        out.append(CheckResult(f"factorial-bound/hyperbolic_odd:{mbar}", ok,
                               f"witness C1 = {c1:.6g} (|kappa| = {float(abs(form.kappa))})"))
    return out


def check_kernel() -> list[CheckResult]:
    """Exact-kernel cross-checks: zeta identity, positivity, table sign laws."""
    import mpmath as mp

    out = []
    cd = c_coeffs(300) + d_coeffs(300)  # the one table build: T_301 also covers B_80
    with mp.workdps(40):
        worst = 0.0
        for n in range(1, 41):
            b = bernoulli(2 * n)
            ref = (-1) ** (n + 1) * 2 * mp.zeta(2 * n) * mp.factorial(2 * n) / (2 * mp.pi) ** (2 * n)
            exact = mp.mpf(b.numerator) / b.denominator
            worst = max(worst, float(abs((exact - ref) / ref)))
    out.append(CheckResult("kernel/bernoulli-zeta", worst < 1e-10,
                           f"worst relative deviation {worst:.2e} for n <= 40"))
    pos = all(c > 0 for c in cd)
    out.append(CheckResult("kernel/cd-positivity", pos, "c_n > 0 and d_n > 0 for n <= 300"))

    sign_ok = True
    root_ok = True
    for mbar in range(1, 21):
        tables = [seedpolys.beta_table(mbar)]
        if mbar >= 2:
            tables += [seedpolys.gamma_table(mbar), seedpolys.delta_table(mbar)]
        for t in tables:
            for v, sgn in zip(t.values, seedpolys.expected_signs(t)):
                if sgn == 0:
                    sign_ok = sign_ok and v == 0
                else:
                    sign_ok = sign_ok and v != 0 and (v > 0) == (sgn > 0)
        beta = seedpolys.beta_table(mbar)
        for i in range(mbar - 1):
            root_ok = root_ok and beta.eval_at(Fraction(2 * i + 1, 2)) == 0
    eta = seedpolys.eta_table()
    for v, sgn in zip(eta.values, seedpolys.expected_signs(eta)):
        sign_ok = sign_ok and abs(v) >= 1 and (v > 0) == (sgn > 0)
    out.append(CheckResult("kernel/table-sign-laws", sign_ok, "sign laws hold for mbar <= 20"))
    out.append(CheckResult("kernel/beta-roots", root_ok, "generating products vanish at their roots"))
    return out


_SUITES = {
    "corollary-1.7": check_corollary_vanishing,
    "anchors": check_anchors,
    "oracle-spheres": check_oracle_spheres,
    "unit-s3-chain": check_unit_s3_chain,
    "growth-laws": check_growth_laws,
    "structure": check_structure,
    "cross-family": check_cross_family,
    "factorial-bound": check_factorial_bound,
    "kernel": check_kernel,
}


# The suite names, "all" last: --suite's help text reads them without a call.
SUITE_NAMES = (*_SUITES, "all")

# The suites that read the table rows' series; "all" builds them once for both.
_TABLE_SUITES = (check_growth_laws, check_factorial_bound)


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns the individual check results."""
    if name == "all":
        references = _references()
        results = []
        for fn in _SUITES.values():
            results.extend(fn(references) if fn in _TABLE_SUITES else fn())
        return results
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return fn()
