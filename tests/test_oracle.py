import math
from fractions import Fraction

import mpmath as mp
import pytest

from heattrace import oracle
from heattrace.errors import IllConditionedFitError, SafetyLimitError
from heattrace.oracle import (
    SpectrumLine,
    default_grid,
    fit_coefficients,
    heat_trace,
    sphere_spectrum,
    sphere_volume,
)
from heattrace.rank1 import ScaledRational, SpaceModel, coefficient

from _oracles import direct_heat_trace, harmonic_dimension


def _flat_circle(k):
    # eigenvalues k^2 with multiplicity 2 for k >= 1
    return SpectrumLine(Fraction(k * k), 1 if k == 0 else 2)


def _cubic(k):
    # second difference 6k: a new step ratio at every level
    return SpectrumLine(Fraction(k ** 3), k + 1)


def _half_integer(k):
    # k^2 + k/2: half-integers at odd k
    return SpectrumLine(Fraction(2 * k * k + k, 2), 2 * k + 1)


class TestSpectrum:
    def test_constants_level(self):
        for m in range(2, 9):
            line = sphere_spectrum(m, 0)
            assert line.eigenvalue == 0 and line.multiplicity == 1

    def test_s2_s3_closed_forms(self):
        for k in range(12):
            assert sphere_spectrum(2, k).eigenvalue == k * (k + 1)
            assert sphere_spectrum(2, k).multiplicity == 2 * k + 1
            assert sphere_spectrum(3, k).eigenvalue == k * (k + 2)
            assert sphere_spectrum(3, k).multiplicity == (k + 1) ** 2

    def test_multiplicities_by_harmonic_kernel(self):
        # exact nullspace of the Laplacian on homogeneous polynomials
        for m in (2, 3, 4):
            for k in range(7):
                assert sphere_spectrum(m, k).multiplicity == harmonic_dimension(m + 1, k)

    def test_eigenvalues_increase(self):
        for m in (2, 5):
            eigs = [sphere_spectrum(m, k).eigenvalue for k in range(50)]
            assert all(a < b for a, b in zip(eigs, eigs[1:]))
            assert all(sphere_spectrum(m, k).multiplicity > 0 for k in range(50))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sphere_spectrum(1, 0)
        with pytest.raises(ValueError):
            sphere_spectrum(2, -1)


class TestVolume:
    def test_textbook_values(self):
        assert sphere_volume(2) == ScaledRational(Fraction(4), 1)
        assert sphere_volume(3) == ScaledRational(Fraction(2), 2)
        assert sphere_volume(4) == ScaledRational(Fraction(8, 3), 2)
        assert sphere_volume(6) == ScaledRational(Fraction(16, 15), 3)

    def test_matches_rank1_calibration(self):
        # dual route: the closed-form volume constant = the textbook volume
        from heattrace.rank1 import volume

        for mbar in (1, 2, 3, 4):
            assert volume("sphere", mbar) == sphere_volume(2 * mbar)


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
        total = direct_heat_trace(lambda k: sphere_spectrum(3, k), t, prec)
        with mp.workdps(prec + 20):
            assert abs(base - total) < mp.mpf(10) ** (-prec) * total

    def test_custom_spectrum_hook(self):
        def flat_circle(k):
            # eigenvalues k^2 with multiplicity 2 for k >= 1
            return (
                sphere_spectrum(2, 0)
                if k == 0
                else __import__("heattrace.oracle", fromlist=["SpectrumLine"]).SpectrumLine(
                    Fraction(k * k), 2
                )
            )

        v = heat_trace(1, 1, precision=30, spectrum=flat_circle)
        with mp.workdps(40):
            theta = 1 + 2 * mp.nsum(lambda k: mp.exp(-k * k), [1, mp.inf])
            assert abs(v - theta) < 1e-28

    def test_fast_ladder_matches_generic_path(self):
        # the weight recurrence and tail bound against a per-level exp sum
        cases = [(m, None, lambda k, m=m: sphere_spectrum(m, k)) for m in (2, 3, 5)]
        cases += [(1, spec, spec) for spec in (_flat_circle, _cubic, _half_integer)]
        for m, hook, spec in cases:
            for t in (Fraction(1, 3), Fraction(1, 64), Fraction(1, 4096)):
                got = heat_trace(m, t, precision=40, spectrum=hook)
                ref = direct_heat_trace(spec, t, 40)
                with mp.workdps(60):
                    assert abs(got - ref) < mp.mpf(10) ** (-40) * ref

    def test_small_t_sums_few_levels(self):
        # S^3 at t = 2^-19: sqrt(60 ln 10 / t) ~ 8500 levels reach 60 digits
        levels = []

        def counted(k):
            levels.append(k)
            return sphere_spectrum(3, k)

        heat_trace(3, Fraction(1, 2 ** 19), precision=50, spectrum=counted)
        assert max(k for k in levels if k != oracle._MAX_TERMS) <= 10_000

    def test_unreachable_truncation_refused_up_front(self):
        calls = []

        def counted(k):
            calls.append(k)
            return sphere_spectrum(2, k)

        with pytest.raises(SafetyLimitError):
            heat_trace(2, Fraction(1, 10 ** 15), 30, spectrum=counted)
        assert len(calls) <= 2

    def test_default_grids_are_never_refused(self, monkeypatch):
        # S^2 has the smallest eigenvalue at the level limit; the summation is stubbed
        monkeypatch.setattr(oracle, "_sum_levels", lambda spectrum, t, digits: mp.mpf(1))
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


class TestFit:
    def test_s2_known_coefficients(self):
        vals, errs = fit_coefficients(2, orders=5, precision=50)
        model = SpaceModel("sphere", 1)
        assert abs(vals[0] - 1) < 1e-8
        for n in range(1, 6):
            exact = coefficient(model, n)
            with mp.workdps(40):
                e = mp.mpf(exact.numerator) / exact.denominator
                assert abs((vals[n] - e) / e) < 1e-6

    def test_volume_self_consistency(self):
        for m in range(2, 9):
            vals, _ = fit_coefficients(m, orders=2, precision=40)
            assert abs(vals[0] - 1) < 1e-8

    def test_unit_s3_is_exponential(self):
        vals, _ = fit_coefficients(3, orders=5, precision=50)
        for n in range(6):
            with mp.workdps(40):
                e = mp.mpf(1) / math.factorial(n)
                assert abs((vals[n] - e) / e) < 1e-6

    def test_refinement_within_error_estimates(self):
        vals1, errs1 = fit_coefficients(2, orders=4, precision=40)
        grid = default_grid(4, t0=Fraction(1, 16))
        vals2, errs2 = fit_coefficients(2, orders=4, precision=60, t_grid=grid)
        for n in range(5):
            assert abs(vals1[n] - vals2[n]) <= max(errs1[n], errs2[n])

    def test_duality_chain_through_three_modules(self):
        from heattrace.plancherel import build_family, closed_form, to_series
        from heattrace.series import dualize, rescale

        form = closed_form(build_family("hyperbolic_odd", 1))
        chain = rescale(dualize(to_series(form, 5)), 4)
        vals, _ = fit_coefficients(3, orders=5, precision=50)
        for n in range(6):
            with mp.workdps(40):
                e = mp.mpf(chain[n].numerator) / chain[n].denominator
                assert abs((vals[n] - e) / e) < 1e-6

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_coefficients(2, orders=4, t_grid=[Fraction(1, 8)] * 3)

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
