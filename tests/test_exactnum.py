import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heattrace import exactnum
from heattrace.exactnum import bernoulli, c_coeff, d_coeff, gauss_moment, log_abs

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
    assert c_coeff(0) == Fraction(1, 12)
    assert c_coeff(1) == Fraction(7, 480)


def test_c_coeff_asymptotics_at_30():
    # c_n = 4 (2n+1)! zeta(2n+2) (1 - 2^{-2n-1}) / (2 pi)^{2n+2}; at n = 30 the
    # zeta and dyadic tails are ~2^-61, far below the 1e-15 target band.
    v = c_coeff(30)
    with mp.workdps(40):
        ratio = (
            mp.mpf(v.numerator) / v.denominator
            * (2 * mp.pi) ** 62
            / (4 * mp.factorial(61))
        )
        assert abs(ratio - 1) < 1e-15


def test_d_coeff_values():
    assert d_coeff(0) == Fraction(1, 6)
    assert d_coeff(1) == Fraction(1, 60)


def test_cd_positivity_to_300():
    for n in range(301):
        assert c_coeff(n) > 0
        assert d_coeff(n) > 0


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty Bernoulli/tangent caches for this test; the shared ones are restored."""
    monkeypatch.setattr(exactnum, "_tangent", [0])
    monkeypatch.setattr(exactnum, "_bernoulli_cache", {0: Fraction(1), 1: Fraction(-1, 2)})
    monkeypatch.setattr(exactnum, "_c_cache", [])
    monkeypatch.setattr(exactnum, "_d_cache", [])


def test_tangent_table_sized_to_request(cold_tables):
    c_coeff(307)
    first = list(exactnum._tangent)
    assert len(first) == 309  # T_0..T_308
    assert c_coeff(367) > 0
    assert len(exactnum._tangent) == 369  # not doubled to T_616
    assert exactnum._tangent[:309] == first


def test_rising_bernoulli_calls_rebuild_logarithmically(cold_tables):
    depths = set()
    for n in range(1, 301):
        assert (-1) ** (n + 1) * bernoulli(2 * n) > 0
        depths.add(len(exactnum._tangent))
    assert len(depths) <= math.ceil(math.log2(300)) + 2


def test_gauss_moment_values():
    assert gauss_moment(0) == 1
    assert gauss_moment(1) == Fraction(1, 2)
    assert gauss_moment(4) == Fraction(105, 16)


def test_gauss_moment_recurrence():
    for h in range(1, 200):
        assert gauss_moment(h) == gauss_moment(h - 1) * Fraction(2 * h - 1, 2)


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
