import math
from fractions import Fraction
from itertools import count

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heattrace import oracle, rank1
from heattrace.errors import IllConditionedFitError, SafetyLimitError
from heattrace.oracle import default_grid, fit_coefficients, heat_trace, sphere_volume
from heattrace.rank1 import SpaceModel, rank1_series

from _oracles import (
    direct_heat_trace,
    harmonic_dimension,
    rank1_prefactor,
    sum_levels_reference,
)


def _sphere(m):
    eigenvalue, multiplicity = oracle._sphere_levels(m)
    return {"eigenvalue": eigenvalue, "multiplicity": multiplicity}


# Spectra other than the sphere's reach the summation loop as oracle._sum_levels's
# arguments, or through the one seam heat_trace reads, oracle._sphere_levels.

# eigenvalues k^2 with multiplicity 2 for k >= 1
_flat_circle = {"eigenvalue": lambda k: Fraction(k * k),
                "multiplicity": lambda k: 1 if k == 0 else 2}
# second difference 6k: a new step ratio at every level
_cubic = {"eigenvalue": lambda k: Fraction(k ** 3), "multiplicity": lambda k: k + 1}
# k^2 + k/2: half-integers at odd k
_half_integer = {"eigenvalue": lambda k: Fraction(2 * k * k + k, 2),
                 "multiplicity": lambda k: 2 * k + 1}
# k^2 + 5: level 0 has a nonzero eigenvalue
_shifted_square = {"eigenvalue": lambda k: k * k + 5, "multiplicity": lambda k: 2 * k + 1}
# (k - 10)^2: eigenvalues fall until level 10, so the first steps exceed 1
_valley = {"eigenvalue": lambda k: (k - 10) ** 2, "multiplicity": lambda k: 1}


class TestSpectrum:
    def test_constants_level(self):
        for m in range(2, 9):
            eigenvalue, multiplicity = oracle._sphere_levels(m)
            assert eigenvalue(0) == 0 and multiplicity(0) == 1

    def test_s2_s3_closed_forms(self):
        (eig2, mult2), (eig3, mult3) = oracle._sphere_levels(2), oracle._sphere_levels(3)
        for k in range(12):
            assert eig2(k) == k * (k + 1)
            assert mult2(k) == 2 * k + 1
            assert eig3(k) == k * (k + 2)
            assert mult3(k) == (k + 1) ** 2

    def test_multiplicities_by_harmonic_kernel(self):
        # exact nullspace of the Laplacian on homogeneous polynomials
        for m in (2, 3, 4):
            _eigenvalue, multiplicity = oracle._sphere_levels(m)
            for k in range(7):
                assert multiplicity(k) == harmonic_dimension(m + 1, k)

    def test_eigenvalues_increase(self):
        for m in (2, 5):
            eigenvalue, multiplicity = oracle._sphere_levels(m)
            eigs = [eigenvalue(k) for k in range(50)]
            assert all(a < b for a, b in zip(eigs, eigs[1:]))
            assert all(multiplicity(k) > 0 for k in range(50))

    def test_rejects_bad_args(self):
        for m in (1, 0):
            with pytest.raises(ValueError):
                oracle._sphere_levels(m)


def _seam(monkeypatch, eigenvalue, multiplicity):
    """Make heat_trace sum the given levels in place of the sphere's."""
    monkeypatch.setattr(oracle, "_sphere_levels", lambda m: (eigenvalue, multiplicity))


def _summed(spec, t, precision):
    return oracle._sum_levels(spec["eigenvalue"], spec["multiplicity"], Fraction(t),
                              precision + 10)


class TestVolume:
    def test_textbook_values(self):
        assert sphere_volume(2) == (Fraction(4), 1)
        assert sphere_volume(3) == (Fraction(2), 2)
        assert sphere_volume(4) == (Fraction(8, 3), 2)
        assert sphere_volume(6) == (Fraction(16, 15), 3)

    def test_matches_rank1_calibration(self):
        # dual route: the closed-form volume constant = the textbook volume
        for mbar in (1, 2, 3, 4):
            row = rank1._row("sphere", mbar)
            pref, pi_power = rank1_prefactor("sphere", mbar)
            constant = pref * rank1._boundary_at_zero(row, row.table())
            assert (constant, pi_power) == sphere_volume(2 * mbar)


class TestHeatTrace:
    def test_large_t_is_dominated_by_constants(self):
        v = heat_trace(2, 5, precision=30)
        with mp.workdps(40):
            expected = 1 + 3 * mp.exp(-10) + 5 * mp.exp(-30)
            assert abs(v - expected) < 1e-25

    def test_two_precisions_agree(self):
        lo = heat_trace(2, 1, precision=50)
        hi = heat_trace(2, 1, precision=80)
        with mp.workdps(90):
            assert abs(lo - hi) < mp.mpf(10) ** (-50) * hi

    def test_tail_bound_audit(self):
        # summing far past the stopping level changes nothing at the requested precision
        t = Fraction(1, 10)
        prec = 40
        base = heat_trace(3, t, precision=prec)
        total = direct_heat_trace(_sphere(3), t, prec)
        with mp.workdps(prec + 20):
            assert abs(base - total) < mp.mpf(10) ** (-prec) * total

    def test_custom_spectrum_hook(self, monkeypatch):
        _seam(monkeypatch, _flat_circle["eigenvalue"], _flat_circle["multiplicity"])
        v = heat_trace(2, 1, precision=30)
        with mp.workdps(40):
            theta = 1 + 2 * mp.nsum(lambda k: mp.exp(-k * k), [1, mp.inf])
            assert abs(v - theta) < 1e-28

    def test_fast_ladder_matches_generic_path(self):
        # the weight recurrence and tail bound against a per-level exp sum
        cases = [(lambda t, m=m: heat_trace(m, t, precision=40), _sphere(m)) for m in (2, 3, 5)]
        cases += [(lambda t, spec=spec: _summed(spec, t, 40), spec)
                  for spec in (_flat_circle, _cubic, _half_integer)]
        for summed, spec in cases:
            for t in (Fraction(1, 3), Fraction(1, 64), Fraction(1, 4096)):
                got = summed(t)
                ref = direct_heat_trace(spec, t, 40)
                with mp.workdps(60):
                    assert abs(got - ref) < mp.mpf(10) ** (-40) * ref
        # about 8,600 levels: the longest ladder the default fit grids sum
        t = Fraction(1, 2 ** 19)
        got = heat_trace(3, t, precision=50)
        ref = direct_heat_trace(_sphere(3), t, 50)
        with mp.workdps(70):
            assert abs(got - ref) < mp.mpf(10) ** (-50) * ref

    @pytest.mark.parametrize("m, t, precision, spec", [
        # multiplicities near 10^80 at the peak: weights fall far below level 0's
        (200, Fraction(1, 64), 50, None),
        # level 0 alone is exp(-250) and exp(-500); the rest is relative to it
        (1, Fraction(50), 50, _shifted_square),
        (1, Fraction(100), 50, _shifted_square),
        (3, Fraction(1, 2 ** 12), 1, None),
        (3, Fraction(1, 2 ** 12), 500, None),
        (1, Fraction(20), 50, _valley),
    ], ids=["S200", "k2+5-t50", "k2+5-t100", "S3-precision1", "S3-precision500", "valley-t20"])
    def test_fixed_point_edge_cases(self, m, t, precision, spec):
        got = heat_trace(m, t, precision) if spec is None else _summed(spec, t, precision)
        ref = direct_heat_trace(spec or _sphere(m), t, precision)
        with mp.workdps(precision + 20):
            assert abs(got - ref) < mp.mpf(10) ** (-precision) * ref

    def test_small_t_sums_few_levels(self, monkeypatch):
        # S^3 at t = 2^-19: sqrt(60 ln 10 / t) ~ 8500 levels reach 60 digits
        levels = []
        eigenvalue, multiplicity = oracle._sphere_levels(3)

        def counted(k):
            levels.append(k)
            return eigenvalue(k)

        _seam(monkeypatch, counted, multiplicity)
        heat_trace(3, Fraction(1, 2 ** 19), precision=50)
        assert max(k for k in levels if k != oracle._MAX_TERMS) <= 10_000

    def test_unreachable_truncation_refused_up_front(self, monkeypatch):
        calls = []

        def counted(hook):
            return lambda k: calls.append(k) or hook(k)

        eigenvalue, multiplicity = oracle._sphere_levels(2)
        _seam(monkeypatch, counted(eigenvalue), counted(multiplicity))
        with pytest.raises(SafetyLimitError):
            heat_trace(2, Fraction(1, 10 ** 15), 30)
        assert len(calls) <= 2
        # the factor that must fall is relative to level 0's, however large that is
        levels = []
        _seam(monkeypatch, lambda k: k + 10 ** 9, lambda k: levels.append(k) or 1)
        with pytest.raises(SafetyLimitError):
            heat_trace(2, Fraction(1, 10 ** 5), 30)
        assert levels == []

    def test_level_limit_probe_reads_only_the_eigenvalue(self, monkeypatch):
        eigenvalue, multiplicity = [], []

        def eig(k):
            eigenvalue.append(k)
            return k * (k + 2)

        def mult(k):
            multiplicity.append(k)
            return (k + 1) ** 2

        _seam(monkeypatch, eig, mult)
        heat_trace(3, Fraction(1, 64), 30)
        with pytest.raises(SafetyLimitError):
            heat_trace(3, Fraction(1, 10 ** 15), 30)
        assert oracle._MAX_TERMS in eigenvalue
        assert oracle._MAX_TERMS not in multiplicity
        assert max(multiplicity) < 1000

    def test_default_grids_are_never_refused(self, monkeypatch):
        # S^2 has the smallest eigenvalue at the level limit; the summation is stubbed
        monkeypatch.setattr(oracle, "_sum_levels", lambda *args: mp.mpf(1))
        for orders in range(9):
            for t in default_grid(orders):
                for precision in (1, 50, 80):
                    heat_trace(2, t, precision)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            heat_trace(2, 0, 30)
        with pytest.raises(ValueError):
            heat_trace(2, 1, 501)
        with pytest.raises(SafetyLimitError):
            heat_trace(2, Fraction(1, 10 ** 15), precision=30)
        with pytest.raises(ValueError, match="sphere dimension must be >= 2"):
            heat_trace(1, 1, 30)


class TestFit:
    def test_s2_known_coefficients(self):
        vals = fit_coefficients(2, orders=5, precision=50)
        exact_series = rank1_series(SpaceModel("sphere", 1), 5)
        assert abs(vals[0] - 1) < 1e-8
        for n in range(1, 6):
            exact = exact_series[n]
            with mp.workdps(40):
                e = mp.mpf(exact.numerator) / exact.denominator
                assert abs((vals[n] - e) / e) < 1e-6

    def test_volume_self_consistency(self):
        for m in range(2, 9):
            vals = fit_coefficients(m, orders=2, precision=40)
            assert abs(vals[0] - 1) < 1e-8

    def test_unit_s3_is_exponential(self):
        vals = fit_coefficients(3, orders=5, precision=50)
        for n in range(6):
            with mp.workdps(40):
                e = mp.mpf(1) / math.factorial(n)
                assert abs((vals[n] - e) / e) < 1e-6

    def test_refinement_within_error_estimates(self, monkeypatch):
        # The bounds are the residual-based error estimates the fit used to
        # return, max over the two fits: 7.6e-16 at A_0 to 3.1e-12 at A_4.
        # Both fits actually lie 1e-16 to 1e-35 from the exact values.
        bounds = [7.7e-16, 6.2e-15, 4.9e-14, 4.0e-13, 3.2e-12]
        vals1 = fit_coefficients(2, orders=4, precision=40)
        finer = [t / 2 for t in default_grid(4)]  # the ladder from 1/16
        monkeypatch.setattr(oracle, "default_grid", lambda orders: finer)
        vals2 = fit_coefficients(2, orders=4, precision=60)
        exact = rank1_series(SpaceModel("sphere", 1), 4)
        with mp.workdps(80):
            for n in range(5):
                e = mp.mpf(exact[n].numerator) / exact[n].denominator
                assert abs(vals1[n] - e) <= bounds[n]
                assert abs(vals2[n] - e) <= bounds[n]

    def test_duality_chain_through_three_modules(self):
        from heattrace.plancherel import build_family, closed_form, to_series
        from heattrace.series import dualize, rescale

        form = closed_form(build_family("hyperbolic_odd", 1))
        chain = rescale(dualize(to_series(form, 5)), 4)
        vals = fit_coefficients(3, orders=5, precision=50)
        for n in range(6):
            with mp.workdps(40):
                e = mp.mpf(chain[n].numerator) / chain[n].denominator
                assert abs((vals[n] - e) / e) < 1e-6

    def test_grid_validation(self, monkeypatch):
        # a ladder of orders + 12 points spans at most 12 orders
        assert [len(default_grid(orders)) for orders in (0, 5, 12)] == [12, 17, 24]
        assert oracle.MAX_ORDERS == 12
        monkeypatch.setattr(oracle, "heat_trace", None)  # refused before any trace
        with pytest.raises(ValueError, match="spans at most 12 orders, not 13"):
            fit_coefficients(2, orders=13)

    def test_ill_conditioned_fit_refuses(self):
        from heattrace.errors import IllConditionedFitError

        # at 1-digit working precision the scaled ladder system is hopeless
        with pytest.raises(IllConditionedFitError):
            fit_coefficients(2, orders=8, precision=1)

    def test_ill_conditioned_fit_refuses_before_summing(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return heat_trace(*args)

        monkeypatch.setattr(oracle, "heat_trace", counted)
        with pytest.raises(IllConditionedFitError):
            fit_coefficients(2, orders=8, precision=1)
        assert calls == []

    @pytest.mark.parametrize("precision", [0, 501, 3000, 100_000])
    def test_precision_refused_before_the_svd(self, monkeypatch, precision):
        # an out-of-range precision is refused before any work: no trace is summed
        monkeypatch.setattr(oracle, "heat_trace", _no_trace)
        with pytest.raises(ValueError, match=r"precision must lie in \[1, 500\]"):
            fit_coefficients(6, orders=2, precision=precision)


def _no_trace(*args):
    raise AssertionError("a heat trace was summed")


# The least precision at which mpmath's Householder QR, run at precision + 30
# digits like the fit, solves the scaled ladder system of each order 0..12;
# one digit less stops it with "matrix is numerically singular".
_SOLVER_MIN = (1, 1, 1, 1, 1, 1, 8, 15, 23, 31, 40, 50, 60)


def _design(orders):
    """The fit's scaled design matrix from the exact ladder: t_j^i / max_j t_j^i."""
    ladder = default_grid(orders)
    ncols = orders + oracle._GUARD_TERMS + 1
    rows = [[t ** i / max(s ** i for s in ladder) for i in range(ncols)] for t in ladder]
    assert rows == [[Fraction(1, 2 ** (i * j)) for i in range(ncols)] for j in range(len(ladder))]
    return mp.matrix([[mp.ldexp(1, -i * j) for i in range(ncols)] for j in range(len(ladder))])


def _solves(A, precision):
    with mp.workdps(precision + 30):
        try:
            mp.qr_solve(A, mp.matrix([1] * A.rows))
        except ValueError:
            return False
    return True


class TestMinimumPrecision:
    """The per-order table is the larger of the condition rule's and the solver
    rule's minimum, both recomputed here on A = 2^(-ij)."""

    @pytest.mark.parametrize("orders", range(oracle.MAX_ORDERS + 1))
    def test_table_is_the_larger_of_the_two_rules(self, orders):
        A = _design(orders)
        with mp.workdps(110):
            sing = mp.svd_r(A, compute_uv=False)
            cond = sing[0] / sing[len(sing) - 1]
            cond_min = next(p for p in count(1) if cond <= mp.mpf(10) ** (p + 10))
        solver_min = _SOLVER_MIN[orders]
        assert _solves(A, solver_min)
        assert solver_min == 1 or not _solves(A, solver_min - 1)
        assert oracle._MIN_PRECISION[orders] == max(cond_min, solver_min)

    @pytest.mark.parametrize("orders", range(oracle.MAX_ORDERS + 1))
    def test_refused_below_the_table_before_any_trace(self, monkeypatch, orders):
        need = oracle._MIN_PRECISION[orders]
        m = 2 * orders + 2
        monkeypatch.setattr(oracle, "heat_trace", _no_trace)
        if need > 1:
            with pytest.raises(IllConditionedFitError,
                               match=rf"order {orders} needs at least {need} digits "
                                     rf"\(--oracle-precision {need}\), not {need - 1}"):
                fit_coefficients(m, orders, need - 1)
        with pytest.raises(AssertionError, match="a heat trace was summed"):
            fit_coefficients(m, orders, need)  # accepted: it goes on to the traces
        monkeypatch.setattr(oracle, "heat_trace", lambda m, t, precision: mp.mpf(1))
        assert len(fit_coefficients(m, orders, need)) == orders + 1


# The spectra of TestHeatTrace.test_fixed_point_edge_cases and of
# test_fast_ladder_matches_generic_path, as (spectrum, t) pairs.
_EDGE_SPECTRA = [
    (_sphere(200), Fraction(1, 64)),
    (_shifted_square, Fraction(50)),
    (_shifted_square, Fraction(100)),
    (_sphere(3), Fraction(1, 2 ** 12)),
    (_valley, Fraction(20)),
    (_flat_circle, Fraction(1, 3)),
    (_cubic, Fraction(1, 64)),
    (_half_integer, Fraction(1, 64)),
]


class TestStopRulePretest:
    """The bit-length pretest of the stop rule changes no total and no stopping
    level: the loop equals the loop without it, bit for bit."""

    @pytest.mark.parametrize("digits", [11, 40, 60])
    def test_spheres_on_the_ladder(self, digits):
        for m in (2, 3, 6, 10):
            eigenvalue, multiplicity = oracle._sphere_levels(m)
            for t in default_grid(5):
                args = eigenvalue, multiplicity, t, digits
                assert oracle._sum_levels(*args)._mpf_ == sum_levels_reference(*args)._mpf_

    @pytest.mark.parametrize("digits", [11, 40, 60])
    def test_edge_spectra(self, digits):
        for spec, t in _EDGE_SPECTRA:
            args = spec["eigenvalue"], spec["multiplicity"], t, digits
            assert oracle._sum_levels(*args)._mpf_ == sum_levels_reference(*args)._mpf_

    @given(st.lists(st.integers(1, 2 ** 300), min_size=5, max_size=5))
    def test_bit_lengths_decide_the_skipped_comparisons(self, xs):
        a, b, c, d, e = xs
        bl = int.bit_length
        if bl(a) + bl(b) + bl(c) - 3 >= bl(d) + bl(e):
            assert not a * b * c < d * e
