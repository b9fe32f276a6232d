import math
from fractions import Fraction

import pytest

from heattrace.growth import (
    classify,
    estimate_growth_constant,
    factorial_bound_witness,
    find_band_start,
    growth_report,
)
from heattrace.plancherel import build_family, closed_form, to_series
from heattrace.series import HeatSeries, dualize, product, rescale


def factorial_series(C, n_max, prefactor=lambda n: Fraction(1)):
    return HeatSeries([prefactor(n) * Fraction(C) ** n * math.factorial(n)
                       for n in range(n_max + 1)])


class TestEstimate:
    def test_exact_factorial_sequence(self):
        s = factorial_series(Fraction(1, 7), 200)
        c = estimate_growth_constant(s, 100)
        assert abs(c - 1 / 7) < 1e-12

    def test_polynomial_prefactor_absorbed(self):
        s = factorial_series(Fraction(1, 7), 300, lambda n: Fraction(14 * n * n + 1))
        c = estimate_growth_constant(s, 100)
        assert abs(c / (1 / 7) - 1) < 0.06  # (14 n^2)^{1/n} -> 1 slowly

    def test_killing_sphere_series_decays(self):
        form = closed_form(build_family("hyperbolic_odd", 1))
        s = dualize(to_series(form, 300))  # A_n = (1/4)^n / n!
        c = estimate_growth_constant(s, 50)
        assert c < 1e-3
        assert classify(s) == "factorial_decay"

    def test_needs_window(self):
        s = factorial_series(Fraction(1, 2), 60)
        with pytest.raises(ValueError):
            estimate_growth_constant(s, 30)

    def test_exact_zeros_inside_the_window_are_skipped(self):
        s = factorial_series(Fraction(1, 7), 200)
        s.coeffs[100] = Fraction(0)
        assert abs(estimate_growth_constant(s, 50) - 1 / 7) < 1e-12
        s.coeffs[200] = Fraction(0)  # the last nonzero coefficient, A_199, gives it
        s.coeffs[199] *= 2 ** 199
        assert abs(estimate_growth_constant(s, 50) - 2 / 7) < 1e-12

    def test_vanishing_series_raises(self):
        s = factorial_series(Fraction(1, 7), 200)
        s.coeffs[150:] = [Fraction(0)] * 51
        with pytest.raises(ValueError, match="vanishes"):
            estimate_growth_constant(s, 50)

    def test_window_of_zeros_raises(self):
        # 60 trailing zeros are not more than n_max // 10, so the series does
        # not vanish, yet no coefficient in the window is nonzero
        s = factorial_series(Fraction(1), 600)
        s.coeffs[541:] = [Fraction(0)] * 60
        with pytest.raises(ValueError, match=r"A_n is zero for every n in \[541, 600\]"):
            estimate_growth_constant(s, 541)


class TestEquivCheck:
    """The band relation through find_band_start: it holds on [N, n_max] exactly
    when find_band_start(s, C, eps, N) == N."""

    def test_reflexive(self):
        s = factorial_series(Fraction(2, 5), 150)
        for eps in (0.5, 0.2, 0.01):
            assert find_band_start(s, 0.4, eps, 10) == 10

    def test_polynomial_prefactors_are_absorbed(self):
        # {14 n^2 n!} ~ {n!} under the band relation once N is large enough
        s = factorial_series(Fraction(1), 300, lambda n: Fraction(14 * n * n))
        start = find_band_start(s, 1.0, 0.1, 2)
        assert start is not None and start > 10  # absorbed, but only eventually
        assert find_band_start(s, 1.0, 0.1, start) == start
        assert find_band_start(s, 1.0, 0.1, 10) == start

    def test_band_fails_off_constant(self):
        s = factorial_series(Fraction(1, 2), 150)
        assert find_band_start(s, 0.25, 0.2, 50) is None

    def test_parameter_validation(self):
        s = factorial_series(Fraction(1, 2), 120)
        for eps in (1.5, 1.0, 0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
                find_band_start(s, 0.5, eps, 10)
        for C in (-1.0, 0.0):
            with pytest.raises(ValueError, match="C must be positive"):
                find_band_start(s, C, 0.2, 10)
        for N in (0, 121, 500):
            with pytest.raises(ValueError, match=r"n_min must lie in \[1, 120\]"):
                find_band_start(s, 0.5, 0.2, N)

    def test_requires_exact_flags(self):
        s = factorial_series(Fraction(1, 2), 120)
        s = HeatSeries(s.coeffs, range(1, 61), "approximate")
        for n_min in (50, 60):
            with pytest.raises(ValueError, match=f"A_{n_min} is approximate"):
                find_band_start(s, 0.5, 0.2, n_min)
        assert find_band_start(s, 0.5, 0.2, 61) == 61

    def test_zero_placeholder_is_refused_not_skipped(self):
        s = factorial_series(Fraction(1, 3), 210)
        assert find_band_start(s, 1 / 3, 0.2, 50) == 50
        s = HeatSeries([Fraction(1)] + [Fraction(0)] * 150 + s.coeffs[151:], range(1, 151))
        with pytest.raises(ValueError, match="A_150 is unavailable"):
            find_band_start(s, 1 / 3, 0.2, 150)
        assert find_band_start(s, 1 / 3, 0.2, 151) == 151

    def test_exact_zero_is_skipped_by_the_band(self):
        s = factorial_series(Fraction(1, 3), 200)
        s.coeffs[150] = Fraction(0)
        assert find_band_start(s, 1 / 3, 0.2, 50) == 50
        # the last nonzero coefficient is out of the band: the zeros after it
        # hold no band
        s.coeffs[199] *= 10 ** 40
        s.coeffs[200] = Fraction(0)
        assert find_band_start(s, 1 / 3, 0.2, 50) is None

    def test_vanishing_series_has_no_band(self):
        s = factorial_series(Fraction(1, 3), 200)
        s.coeffs[150:] = [Fraction(0)] * 51
        assert find_band_start(s, 1 / 3, 0.2, 50) is None
        s = factorial_series(Fraction(1), 600)
        s.coeffs[541:] = [Fraction(0)] * 60
        assert find_band_start(s, 1.0, 0.2, 541) is None


class TestWitness:
    def test_decaying_series_small_witness(self):
        form = closed_form(build_family("hyperbolic_odd", 1))
        s = dualize(to_series(form, 200))
        w = factorial_bound_witness(s)
        assert 0 < w <= 0.25  # |A_n| = (1/4)^n/n! <= (1/4)^n n!

    def test_exppoly_witness_near_kappa(self):
        form = closed_form(build_family("hyperbolic_odd", 3))
        s = to_series(form, 200)
        w = factorial_bound_witness(s)
        assert 0 < w < float(abs(form.kappa)) * 1.5 + 1.0

    def test_bound_holds_everywhere(self, series300):
        from heattrace.exactnum import log_abs

        s = series300("sphere:1")
        w = factorial_bound_witness(s)
        for n in range(1, 301):
            if s[n] == 0:
                continue
            assert log_abs(s[n]) <= n * math.log(w) + math.lgamma(n + 1) + 1e-9

    def test_witness_dominated_by_low_order_transient(self, series300):
        # the minimal witness is a max over the whole range, so the low-order
        # coefficients set it: for the 2-sphere it is exactly |A_1| = 1/3,
        # well above the tail's growth constant 1/pi^2
        s = series300("sphere:1")
        w = factorial_bound_witness(s)
        assert w == pytest.approx(1 / 3, rel=1e-12)
        assert w > estimate_growth_constant(s, 100)


class TestClassifyAndReport:
    def test_vanishing_product(self):
        form = closed_form(build_family("hyperbolic_odd", 2))
        s = to_series(form, 200)
        prod = product(s, dualize(s))
        assert classify(prod) == "vanishing"
        rep = growth_report(prod)
        assert rep.classification == "vanishing"
        assert rep.C_estimate == 0.0

    @pytest.mark.parametrize("n_max, n_min", [(300, 50), (305, 50), (320, 305)])
    def test_a_polynomial_closed_form_vanishes(self, n_max, n_min):
        # P(t) P(-t) of degree 300 is even: its odd coefficients are exact
        # zeros, yet it ends in no zero run at n_max = 300, in one of 5 at
        # 305 and in one of 20 at 320, too short to vanish by its run (so the
        # window [305, 320] would need n_max >= n_min + 50); its closed form,
        # kappa = 0, says it is a polynomial
        s = to_series(closed_form(build_family("hyperbolic_odd", 150)), n_max)
        prod = product(s, dualize(s))
        assert prod.exppoly[0] == 0
        rep = growth_report(prod, n_min=n_min)
        assert (rep.classification, rep.C_estimate, rep.epsilon_band) == ("vanishing", 0.0, [])

    def test_last_fifth_of_zeros_is_refused(self):
        # 21 trailing zeros are not more than n_max // 10: the series does not
        # vanish, and the last fifth of its window holds nothing to read
        s = factorial_series(Fraction(1), 600)
        s.coeffs[580:] = [Fraction(0)] * 21
        with pytest.raises(ValueError, match=r"A_n is zero for every n in \[580, 600\]"):
            classify(s, n_min=500)
        assert classify(s, n_min=400) == "factorial_growth"

    def test_factorial_growth_report(self, series300):
        rep = growth_report(series300("sphere:1"), n_min=50, epsilons=(0.2, 0.5))
        assert rep.classification == "factorial_growth"
        assert abs(rep.C_estimate - 1 / math.pi ** 2) / (1 / math.pi ** 2) < 0.02
        assert rep.C1_min > 0
        assert all(n >= 50 for _, n in rep.epsilon_band)


def test_roots_past_the_float_range_refused():
    huge = factorial_series(Fraction(10 ** 400), 120)
    for fn in (lambda s: estimate_growth_constant(s, 50), classify, growth_report,
               factorial_bound_witness):
        with pytest.raises(ValueError, match="past the float range"):
            fn(huge)
    # only A_1 is past it: the window reads, the witness over all n >= 1 does not
    early = HeatSeries([1, 10 ** 400] + factorial_series(Fraction(1, 3), 120).coeffs[2:])
    assert classify(early, n_min=50) == "factorial_growth"
    with pytest.raises(ValueError, match="at n = 1 "):
        factorial_bound_witness(early)


class TestExactWindow:
    """classify and growth_report read only exact coefficients on [n_min, n_max]."""

    def unavailable_tail(self, n_max=300):
        # the shape of a product with an unavailable factor: zero placeholders past A_0
        return HeatSeries([Fraction(1)] + [Fraction(0)] * n_max, range(1, n_max + 1))

    def test_placeholders_are_not_vanishing(self):
        for fn in (classify, growth_report):
            with pytest.raises(ValueError, match="A_50 is unavailable"):
                fn(self.unavailable_tail())
        # the exact zeros past the gap are 5, too few to vanish: the gap's
        # zero placeholders must not lengthen their run
        s = HeatSeries([Fraction(1)] + [Fraction(0)] * 100, range(1, 96))
        with pytest.raises(ValueError, match="need n_max >= n_min"):
            classify(s, n_min=96)

    def test_first_non_exact_index_is_named(self):
        coeffs = factorial_series(Fraction(1, 3), 300).coeffs
        s = HeatSeries(coeffs, range(1, 3), "unavailable")
        assert classify(s, n_min=50) == "factorial_growth"
        assert classify(s, n_min=3) == "factorial_growth"
        for n_min in (1, 2):
            with pytest.raises(ValueError, match=f"A_{n_min} is unavailable"):
                classify(s, n_min=n_min)
        s = HeatSeries(coeffs, range(1, 121), "approximate")
        with pytest.raises(ValueError, match="A_50 is approximate"):
            growth_report(s, n_min=50)
        assert growth_report(s, n_min=121).classification == "factorial_growth"

    def test_non_positive_n_min_refused(self):
        s = factorial_series(Fraction(1, 3), 120)
        for n_min in (0, -40):
            with pytest.raises(ValueError, match="n_min"):
                classify(s, n_min=n_min)

    def test_n_min_past_n_max_refused(self):
        s = factorial_series(Fraction(1, 3), 120)
        for n_min in (121, 400):
            with pytest.raises(ValueError, match=r"n_min must lie in \[1, 120\]"):
                classify(s, n_min=n_min)
        vanishing = HeatSeries([Fraction(1)] + [Fraction(0)] * 120)
        with pytest.raises(ValueError, match="n_min"):
            growth_report(vanishing, n_min=400)

    def test_exact_zero_tail_still_vanishes(self):
        s = HeatSeries([Fraction(1), Fraction(1, 2)] + [Fraction(0)] * 100, range(1, 2))
        assert classify(s) == "vanishing"

    @pytest.mark.parametrize("eps", [1.5, 1.0, 0.0, -0.5, float("nan")])
    def test_epsilon_outside_unit_interval_refused(self, eps):
        s = factorial_series(Fraction(1, 3), 300)
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
            growth_report(s, epsilons=(0.2, eps))


class TestInvariances:
    def test_scale_equivariance(self, series300):
        s = series300("sphere:1")
        c = estimate_growth_constant(s, 100)
        c4 = estimate_growth_constant(rescale(s, 4), 100)
        assert abs(c4 - 4 * c) < 1e-9

    def test_duality_invariance(self, series300):
        s = series300("sphere:2")
        assert estimate_growth_constant(s, 100) == estimate_growth_constant(dualize(s), 100)
