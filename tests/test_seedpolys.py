from fractions import Fraction

import pytest

from heattrace.seedpolys import (
    beta_table,
    delta_table,
    eta_table,
    expected_signs,
    gamma_table,
)

from _oracles import even_part, expand_linear_product


def test_beta_small_tables():
    assert beta_table(1).values == (Fraction(1),)
    assert beta_table(2).values == (Fraction(-1, 4), Fraction(1))
    assert beta_table(3).values == (Fraction(9, 16), Fraction(-5, 2), Fraction(1))


def test_beta_roots():
    t = beta_table(3)
    assert t.eval_at(Fraction(3, 2)) == 0
    assert t.eval_at(Fraction(1, 2)) == 0
    assert t.eval_at(Fraction(5, 2)) != 0


def test_beta_rejects_bad_param():
    with pytest.raises(ValueError):
        beta_table(0)


def test_gamma_small_tables():
    assert gamma_table(2).values == (Fraction(0), Fraction(1))
    assert gamma_table(3).values == (Fraction(1, 16), Fraction(-1, 2), Fraction(1))


def test_gamma_odd_sign_law_mbar3():
    t = gamma_table(3)
    for l in range(3):
        assert (-1) ** l * t[l] > 0


def test_gamma_rejects_bad_param():
    with pytest.raises(ValueError):
        gamma_table(1)


def test_delta_small_tables():
    assert delta_table(2).values == (Fraction(-1, 4), Fraction(1))
    # (s^2-1/4)(s^2-9/4)(s^2-1/4) expanded by the independent linear-product oracle
    roots = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
             Fraction(1, 2), Fraction(-1, 2)]
    assert delta_table(3).values == tuple(even_part(expand_linear_product(roots)))


def test_delta_rejects_bad_param():
    with pytest.raises(ValueError):
        delta_table(1)


def test_eta_table_pinned_values():
    t = eta_table()
    assert len(t) == 8
    assert t[7] == 1
    assert t[0] == Fraction(-8037225, 16384)
    for i in range(8):
        assert (-1) ** (i + 1) * t[i] >= 1


def test_tables_match_naive_expansion():
    """Bit-identical agreement with a brute-force linear-factor expansion."""
    for mbar in range(1, 41):
        roots = []
        for i in range(mbar - 1):
            j = Fraction(2 * i + 1, 2)
            roots += [j, -j]
        assert beta_table(mbar).values == tuple(even_part(expand_linear_product(roots)))
    for mbar in range(2, 41):
        roots = []
        for k in range(1, mbar):
            roots.append(Fraction(k) - Fraction(mbar, 2))
        roots = roots + roots  # the squared linear product
        assert gamma_table(mbar).values == tuple(even_part(expand_linear_product(roots)))
    for mbar in range(2, 41):
        roots = []
        for i in range(mbar - 1):
            j = Fraction(2 * i + 1, 2)
            roots += [j, -j]
        for i in range(mbar - 2):
            j = Fraction(2 * i + 1, 2)
            roots += [j, -j]
        assert delta_table(mbar).values == tuple(even_part(expand_linear_product(roots)))


def test_lengths_and_monic_tops():
    for mbar in range(1, 21):
        b = beta_table(mbar)
        assert len(b) == mbar and b[mbar - 1] == 1
    for mbar in range(2, 21):
        g = gamma_table(mbar)
        d = delta_table(mbar)
        assert len(g) == mbar and g[mbar - 1] == 1
        assert len(d) == 2 * mbar - 2 and d[2 * mbar - 3] == 1


def test_sign_laws_to_20():
    for mbar in range(1, 21):
        tables = [beta_table(mbar)]
        if mbar >= 2:
            tables += [gamma_table(mbar), delta_table(mbar)]
        for t in tables:
            for v, sgn in zip(t.values, expected_signs(t)):
                if sgn == 0:
                    assert v == 0
                else:
                    assert v != 0 and (v > 0) == (sgn > 0), (t.family, t.param)


def test_gamma_double_roots():
    """The squared products vanish to second order at each root."""
    def derivative_at(table, s):
        s2 = s * s
        acc = Fraction(0)
        for k in range(len(table) - 1, 0, -1):
            acc = acc * s2 + 2 * k * table[k]
        return acc * s

    for mbar in (3, 5, 7):
        t = gamma_table(mbar)
        for i in range((mbar - 1) // 2):
            j = Fraction(2 * i + 1, 2)
            assert t.eval_at(j) == 0
            assert derivative_at(t, j) == 0
    for mbar in (4, 6, 8):
        t = gamma_table(mbar)
        for k in range(1, mbar // 2):
            assert t.eval_at(Fraction(k)) == 0
            assert derivative_at(t, Fraction(k)) == 0
        assert t.eval_at(Fraction(0)) == 0
