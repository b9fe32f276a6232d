import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heattrace import exactnum, verify
from heattrace.exactnum import (bernoulli, c_coeffs, c_numerators, d_coeffs, d_numerators,
                                log_abs)

from _oracles import bernoulli_recurrence


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_binomial_recurrence():
    ref = bernoulli_recurrence(60)
    for k in range(0, 61, 2):
        assert bernoulli(k) == ref[k]


def test_bernoulli_rejects_odd_and_negative():
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_bernoulli_sign_alternation():
    for n in range(1, 80):
        assert (-1) ** (n + 1) * bernoulli(2 * n) > 0


def test_bernoulli_zeta_cross_check():
    with mp.workdps(40):
        for n in range(1, 41):
            b = bernoulli(2 * n)
            ref = (-1) ** (n + 1) * 2 * mp.zeta(2 * n) * mp.factorial(2 * n) / (2 * mp.pi) ** (2 * n)
            exact = mp.mpf(b.numerator) / b.denominator
            assert abs((exact - ref) / ref) < 1e-10


def test_c_coeff_values():
    assert c_coeffs(0) == [Fraction(1, 12)]
    assert c_coeffs(1) == [Fraction(1, 12), Fraction(7, 480)]


def test_c_coeff_asymptotics_at_30():
    # c_n = 4 (2n+1)! zeta(2n+2) (1 - 2^{-2n-1}) / (2 pi)^{2n+2}; at n = 30 the
    # zeta and dyadic tails are ~2^-61, far below the 1e-15 target band.
    v = c_coeffs(30)[30]
    with mp.workdps(40):
        ratio = (
            mp.mpf(v.numerator) / v.denominator
            * (2 * mp.pi) ** 62
            / (4 * mp.factorial(61))
        )
        assert abs(ratio - 1) < 1e-15


def test_d_coeff_values():
    assert d_coeffs(0) == [Fraction(1, 6)]
    assert d_coeffs(1) == [Fraction(1, 6), Fraction(1, 60)]


def test_negative_index_refused():
    for coeffs in (c_coeffs, d_coeffs):
        with pytest.raises(ValueError, match="nonnegative"):
            coeffs(-1)


def test_cd_equal_their_bernoulli_definitions_to_100():
    ref = bernoulli_recurrence(202)
    cs, ds = c_coeffs(100), d_coeffs(100)
    for n in range(101):
        d = Fraction((-1) ** n, n + 1) * ref[2 * n + 2]
        assert ds[n] == d
        assert cs[n] == d * (1 - Fraction(1, 2 ** (2 * n + 1)))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 310])
def test_integer_vectors_are_the_coefficients_over_their_least_denominator(n):
    for numerators, coeffs in ((c_numerators, c_coeffs), (d_numerators, d_coeffs)):
        nums, den = numerators(n)
        values = coeffs(n)
        assert den == math.lcm(*(v.denominator for v in values))
        assert [Fraction(x, den) for x in nums] == values


def test_negative_index_refused_by_the_integer_vectors():
    for numerators in (c_numerators, d_numerators):
        with pytest.raises(ValueError, match="nonnegative"):
            numerators(-1)


def test_cd_positivity_to_300():
    cs, ds = c_coeffs(300), d_coeffs(300)
    assert len(cs) == len(ds) == 301
    for n in range(301):
        assert cs[n] > 0
        assert ds[n] > 0


@pytest.fixture
def cold_tables(monkeypatch):
    """An empty tangent table for this test, whose builds are listed by depth;
    the shared table is restored."""
    monkeypatch.setattr(exactnum, "_tangent", [0])
    builds = []
    extend = exactnum._extend_tangent

    def counting(n):
        before = exactnum._tangent
        table = extend(n)
        if table is not before:
            builds.append(len(table) - 1)
        return table

    monkeypatch.setattr(exactnum, "_extend_tangent", counting)
    return builds


def test_tangent_table_sized_to_request(cold_tables):
    c_coeffs(307)
    first = list(exactnum._tangent)
    assert len(first) == 309  # T_0..T_308
    assert c_coeffs(367)[367] > 0
    assert len(exactnum._tangent) == 369  # not doubled to T_616
    assert exactnum._tangent[:309] == first
    assert d_coeffs(367)[:308] == d_coeffs(307)
    assert cold_tables == [308, 368]


def test_bernoulli_builds_the_table_to_exactly_its_index(cold_tables):
    assert bernoulli(600) < 0  # B_600 reads T_300
    assert cold_tables == [300]
    for n in range(1, 301):  # shallower reads share that table
        assert (-1) ** (n + 1) * bernoulli(2 * n) > 0
    assert bernoulli(0) == 1 and bernoulli(1) == Fraction(-1, 2)
    assert cold_tables == [300]
    assert bernoulli(602) > 0
    assert cold_tables == [300, 301]  # one deeper, not doubled


def test_kernel_check_builds_the_table_once(cold_tables):
    assert all(check.ok for check in verify.check_kernel())
    assert cold_tables == [301]


def test_log_abs_basics():
    assert log_abs(Fraction(1)) == 0.0
    assert log_abs(Fraction(1, 2)) == pytest.approx(-math.log(2), rel=1e-15)
    assert log_abs(Fraction(-3, 7)) == pytest.approx(math.log(3 / 7), rel=1e-14)
    with pytest.raises(ValueError):
        log_abs(Fraction(0))


def test_log_abs_factorial_100():
    got = log_abs(Fraction(math.factorial(100)))
    assert got == pytest.approx(363.73937555556347, rel=1e-13)


@pytest.mark.parametrize(
    "x",
    [
        Fraction(math.factorial(300)),
        Fraction(10 ** 5000 + 12345, 7 ** 4000),
        Fraction(2 ** 100000 + 1, 3 ** 60000),
        Fraction(2 ** 1000 + 2 ** 700, 2 ** 1000),  # near-cancellation, log ~ 2^-300
        Fraction(-(10 ** 2000), 10 ** 2000 - 1),
    ],
)
def test_log_abs_huge_against_mpmath(x):
    with mp.workdps(60):
        ref = float(mp.log(abs(mp.mpf(x.numerator))) - mp.log(mp.mpf(x.denominator)))
    got = log_abs(x)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-280)


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
)
def test_log_abs_is_additive(a, b):
    assert log_abs(a * b) == pytest.approx(log_abs(a) + log_abs(b), abs=1e-11)
