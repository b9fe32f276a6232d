import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import schoolbook_convolve
from heattrace.series import (
    _LEAF,
    APPROXIMATE,
    EXACT,
    UNAVAILABLE,
    HeatSeries,
    convolve,
    dualize,
    exp_times,
    product,
    rescale,
)

frac = st.fractions(min_value=-10, max_value=10, max_denominator=60)


def hseries(draw_coeffs):
    return HeatSeries(list(draw_coeffs), provenance="t")


series_strategy = st.lists(frac, min_size=1, max_size=8).map(hseries)


def exp_series(kappa, n_max):
    return HeatSeries([Fraction(kappa) ** n / math.factorial(n) for n in range(n_max + 1)])


def test_product_identity():
    a = HeatSeries([Fraction(3), Fraction(1, 2), Fraction(-7)])
    one = HeatSeries([Fraction(1), Fraction(0), Fraction(0)])
    assert product(a, one).coeffs == a.coeffs


def test_product_of_dual_exponentials_vanishes():
    h3 = exp_series(Fraction(-1, 4), 100)
    s3 = dualize(h3)
    prod = product(h3, s3)
    assert prod[0] == 1
    assert all(prod[n] == 0 for n in range(1, 101))


def test_dualize_values():
    h3 = exp_series(Fraction(-1, 4), 10)
    s3 = dualize(h3)
    for n in range(11):
        assert s3[n] == Fraction(1, 4) ** n / math.factorial(n)


def test_rescale_values_and_errors():
    h3 = exp_series(Fraction(-1, 4), 10)
    unit = rescale(dualize(h3), 4)
    for n in range(11):
        assert unit[n] == Fraction(1, math.factorial(n))
    with pytest.raises(ValueError):
        rescale(h3, 0)
    with pytest.raises(ValueError):
        rescale(h3, Fraction(-1, 2))


def test_rescale_identity_and_composition():
    a = HeatSeries([Fraction(1), Fraction(2), Fraction(3)])
    assert rescale(a, 1).coeffs == a.coeffs
    assert rescale(rescale(a, Fraction(2, 3)), Fraction(9, 2)).coeffs == rescale(a, 3).coeffs


@given(series_strategy, series_strategy)
def test_product_commutes(a, b):
    assert product(a, b).coeffs == product(b, a).coeffs


@given(series_strategy, series_strategy, series_strategy)
def test_product_associates(a, b, c):
    assert product(product(a, b), c).coeffs == product(a, product(b, c)).coeffs


@given(series_strategy, series_strategy, st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=40))
def test_rescale_is_ring_homomorphism(a, b, c2):
    lhs = rescale(product(a, b), c2)
    rhs = product(rescale(a, c2), rescale(b, c2))
    assert lhs.coeffs == rhs.coeffs


@given(series_strategy)
def test_dualize_is_involution(a):
    assert dualize(dualize(a)).coeffs == a.coeffs


@given(series_strategy)
def test_product_with_dual_is_even(a):
    p = product(a, dualize(a))
    assert all(p[n] == 0 for n in range(1, p.n_max + 1, 2))


def test_validity_propagates_pessimistically():
    a = HeatSeries([Fraction(1), Fraction(2), Fraction(3), Fraction(4)], range(1, 2), APPROXIMATE)
    b = HeatSeries([Fraction(1), Fraction(5), Fraction(7)], range(1, 3), UNAVAILABLE)
    exact = HeatSeries([Fraction(1)] * 4)
    assert a.validity == [EXACT, APPROXIMATE, EXACT, EXACT]
    assert product(a, b).validity == [EXACT, UNAVAILABLE, UNAVAILABLE]
    assert product(a, exact).validity == [EXACT, APPROXIMATE, APPROXIMATE, APPROXIMATE]
    assert product(exact, exact).validity == [EXACT] * 4
    # an operand shorter than the other's gap cuts the gap with the product
    assert product(b, HeatSeries([Fraction(1), Fraction(1)])).validity == [EXACT, UNAVAILABLE]
    assert product(b, HeatSeries([Fraction(3)])).validity == [EXACT]
    for op in (dualize, lambda s: rescale(s, 2)):
        assert (op(a).gap, op(a).flag, op(a).validity) == (a.gap, a.flag, a.validity)


@pytest.mark.parametrize("gap, flag", [
    (range(0, 2), UNAVAILABLE),       # does not start at 1
    (range(2, 3), UNAVAILABLE),
    (range(1, 4), APPROXIMATE),       # past n_max = 2
    (range(1, 4, 2), UNAVAILABLE),    # a step other than 1
    ([EXACT, UNAVAILABLE, EXACT], UNAVAILABLE),  # a per-index list is not a gap
    (range(1, 2), "bogus"),
    (range(1, 2), EXACT),
    (range(0), EXACT),
])
def test_flags_validated(gap, flag):
    with pytest.raises(ValueError):
        HeatSeries([Fraction(1)] * 3, gap, flag)


def test_empty_series_refused():
    with pytest.raises(ValueError):
        HeatSeries([])


def naive_product(a, b):
    """Per-index Fraction Cauchy product with the pairwise flag minimum."""
    order = [UNAVAILABLE, APPROXIMATE, EXACT]
    n_max = min(a.n_max, b.n_max)
    coeffs, flags = [], []
    for n in range(n_max + 1):
        coeffs.append(sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)))
        pair_flags = [f for i in range(n + 1) for f in (a.validity[i], b.validity[n - i])]
        flags.append(min(pair_flags, key=order.index))
    return coeffs, flags


@st.composite
def flagged_series(draw):
    """A series of 1 to 10 entries with a gap of any length it can hold, of either flag."""
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), frac), min_size=1, max_size=10))
    gap = range(1, draw(st.integers(1, len(coeffs))))
    return HeatSeries(coeffs, gap, draw(st.sampled_from([APPROXIMATE, UNAVAILABLE])), "t")


@given(flagged_series(), flagged_series())
def test_product_equals_naive_cauchy_sum(a, b):
    p = product(a, b)
    assert (p.coeffs, p.validity) == naive_product(a, b)


def test_product_with_zero_operand():
    z = HeatSeries([Fraction(0)] * 8)
    a = HeatSeries([Fraction(k - 3, k + 1) for k in range(10)])
    assert product(a, z).coeffs == [0] * 8
    assert product(z, a).coeffs == [0] * 8


def naive_exp_times(b, ys, n_max):
    return [sum((ys[k] * b ** (n - k) / math.factorial(n - k)
                 for k in range(min(n, len(ys) - 1) + 1)), Fraction(0))
            for n in range(n_max + 1)]


@given(st.one_of(frac, st.integers(-6, 6)),
       st.lists(st.one_of(st.just(Fraction(0)), frac), min_size=1, max_size=8),
       st.integers(0, 14))
def test_exp_times_equals_naive_sum(b, ys, n_max):
    assert exp_times(b, ys, n_max) == naive_exp_times(b, ys, n_max)


# The rank-one generators carry 1/k! (or 1/i! for i = k - shift) in entry k,
# the factorials that the exponential form of exp_times cancels.
factorial_generator = st.builds(
    lambda ys, shift: [y / math.factorial(max(0, k - shift)) for k, y in enumerate(ys)],
    st.lists(st.one_of(st.just(Fraction(0)), frac,
                       st.fractions(min_value=-10 ** 30, max_value=10 ** 30,
                                    max_denominator=10 ** 6)), min_size=1, max_size=30),
    st.integers(0, 8))


@settings(max_examples=60)
@given(st.one_of(st.just(Fraction(0)), frac.map(lambda x: -abs(x) - Fraction(1, 7)), frac),
       factorial_generator, st.integers(0, 40))
def test_exp_times_with_factorial_denominators(b, ys, n_max):
    assert exp_times(b, ys, n_max) == naive_exp_times(b, ys, n_max)


def test_exp_times_of_one_is_the_exponential():
    assert exp_times(Fraction(-1, 4), [Fraction(1)], 30) == exp_series(Fraction(-1, 4), 30).coeffs
    with pytest.raises(ValueError):
        exp_times(1, [Fraction(1)], -1)


# --- series that carry their closed form e^{kappa t} P(t) ----------------------

def closed_form_series(kappa, poly, n_max):
    return HeatSeries(exp_times(kappa, poly, n_max), provenance="e",
                      exppoly=(Fraction(kappa), tuple(Fraction(c) for c in poly)))


def plain(s):
    """The generator-free copy of s: same values, gap and provenance, no exppoly."""
    return HeatSeries(s.coeffs, s.gap, s.flag, s.provenance)


def assert_generator_holds(s):
    if s.exppoly is not None:
        kappa, poly = s.exppoly
        assert s.coeffs == exp_times(kappa, list(poly), s.n_max)


closed_form_strategy = st.builds(
    closed_form_series, frac, st.lists(frac, min_size=1, max_size=4), st.integers(0, 10))
any_series = st.one_of(closed_form_strategy, flagged_series())


@given(any_series, any_series,
       st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=40))
def test_closed_form_algebra_equals_naive_product(a, b, c2):
    for op in (lambda s: s, dualize, lambda s: rescale(s, c2)):
        x = op(a)
        assert (x.coeffs, x.validity) == (op(plain(a)).coeffs, op(plain(a)).validity)
        assert_generator_holds(x)
        for p, q in ((x, b), (b, x)):
            out = product(p, q)
            assert (out.coeffs, out.validity) == naive_product(plain(p), plain(q))
            assert out.provenance == product(plain(p), plain(q)).provenance
            assert_generator_holds(out)


@given(closed_form_strategy, closed_form_strategy, closed_form_strategy)
def test_closed_form_products_keep_their_generator(a, b, c):
    out = product(product(a, dualize(b)), rescale(c, 3))
    assert out.exppoly is not None
    assert_generator_holds(out)
    assert out == product(product(plain(a), dualize(plain(b))), rescale(plain(c), 3))


def test_closed_form_product_of_dual_pair_is_finite():
    h3 = closed_form_series(Fraction(-1, 4), [1], 100)
    prod = product(h3, dualize(h3))
    assert prod.exppoly == (0, (1,))
    assert prod.coeffs == [1] + [0] * 100


def test_one_closed_form_operand_skips_the_full_convolution(monkeypatch):
    import heattrace.series as series_mod

    a = HeatSeries([Fraction(k + 1, k + 2) for k in range(40)], range(1, 30), APPROXIMATE)
    b = closed_form_series(Fraction(5, 3), [1, Fraction(-2, 7), Fraction(1, 9)], 50)
    expected = naive_product(a, plain(b))
    convolve = series_mod.convolve

    def short_only(xs, ys, n_max):
        assert min(len(xs), len(ys)) <= 3, "two full series were convolved"
        return convolve(xs, ys, n_max)

    monkeypatch.setattr(series_mod, "convolve", short_only)
    for p, q in ((a, b), (b, a)):
        out = product(p, q)
        assert (out.coeffs, out.validity) == expected
        assert out.exppoly is None


# --- the one convolution: Toom-3 on the coefficient index ---------------------

big = st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 6)
# runs of nonzero entries of both signs and runs of zeros, up to about 80 entries
runs = st.lists(st.one_of(st.lists(st.one_of(frac, big), min_size=1, max_size=12),
                          st.integers(1, 20).map(lambda k: [Fraction(0)] * k)),
                min_size=1, max_size=12)
operand = runs.map(lambda parts: [x for part in parts for x in part][:81])


def naive_cauchy(xs, ys, n_max):
    return [sum((xs[i] * ys[n - i] for i in range(n + 1) if i < len(xs) and n - i < len(ys)),
                Fraction(0)) for n in range(n_max + 1)]


@settings(max_examples=60)
@given(operand, operand, st.integers(0, 170))
def test_convolve_equals_naive_cauchy_sum(xs, ys, n_max):
    assert convolve(xs, ys, n_max) == naive_cauchy(xs, ys, n_max)


# Toom-3 splits at h = ceil(len / 3): lengths 3k - 1, 3k and 3k + 1 put one, none or
# two entries short in the top third, and _LEAF +- 1 straddles the schoolbook branch.
_TOOM_SHAPES = [(la, lb) for k in (7, 27) for la in (3 * k - 1, 3 * k, 3 * k + 1)
                for lb in (la, 3 * k - 1)]
_LEAF_SHAPES = [(la, lb) for la in (_LEAF - 1, _LEAF, _LEAF + 1, _LEAF + 2)
                for lb in (_LEAF - 1, _LEAF, _LEAF + 1)]


@pytest.mark.parametrize("la, lb", [(1, 80), (5, 5), (5, 6), (9, 80), (40, 81), (79, 80),
                                    (81, 81), (33, 17), (21, 13), (82, 50), *_TOOM_SHAPES,
                                    *_LEAF_SHAPES])
def test_convolve_split_shapes(la, lb):
    xs = [Fraction((-1) ** k * (k * k + 1), k + 3) for k in range(la)]
    ys = [Fraction((-3) ** k, 2 * k + 1) for k in range(lb)]
    h = -(-max(la, lb) // 3)
    full = la + lb - 2  # the last index of the product
    for n_max in {0, 1, h - 1, h, 2 * h, min(la, lb) - 1, max(la, lb) - 1, full - 1, full,
                  full + 3}:
        assert convolve(xs, ys, n_max) == naive_cauchy(xs, ys, n_max)


@pytest.fixture(scope="module")
def rank1_product_operands():
    """The operands of the benchmark's rank-one products to n = 300."""
    from heattrace.cli import _plan, parse_space

    def evaluate(spec):
        return _plan(parse_space(spec), 300)[0]()

    return evaluate("cp:2"), {m: evaluate(f"dual(sphere:{m})") for m in (1, 2, 3)}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rank1_products_equal_the_schoolbook_loop(rank1_product_operands, m):
    cp2, duals = rank1_product_operands
    assert product(cp2, duals[m]).coeffs == schoolbook_convolve(cp2.coeffs, duals[m].coeffs, 300)


def test_full_product_makes_under_half_the_schoolbook_multiplies(rank1_product_operands,
                                                                  monkeypatch):
    import heattrace.series as series_mod

    count = 0

    def counting_mul(x, y):
        nonlocal count
        count += 1
        return x * y

    cp2, duals = rank1_product_operands
    monkeypatch.setattr(series_mod, "mul", counting_mul)
    product(cp2, duals[2])
    # the schoolbook loop makes 301 * 302 / 2 = 45,451 and a Karatsuba split 15,108
    assert 0 < count <= 9_493
