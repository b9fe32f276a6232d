import json
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heattrace.errors import (
    DegenerateModelError,
    NotPositiveDefiniteError,
    UnsupportedSpaceError,
)
from heattrace.plancherel import (
    ExpPolyForm,
    PlancherelModel,
    _even_part,
    _expand,
    _unpack,
    _width,
    build_family,
    closed_form,
    diagonalize_form,
    load_model_file,
    to_series,
)
from heattrace.series import dualize, product

from _oracles import closed_form_reference, model_coordinate_model, root_density_reference


class TestBuildFamily:
    def test_h3_model(self):
        m = build_family("hyperbolic_odd", 1)
        assert (m.r, m.m) == (1, 3)
        assert m.p == {(2,): Fraction(1)}
        assert m.rho_sq == Fraction(1, 4)
        assert m.form == ((Fraction(1, 4),),)

    def test_h5_model(self):
        m = build_family("hyperbolic_odd", 2)
        assert (m.r, m.m) == (1, 5)
        # p = y^2 (y^2 + 1)
        assert m.p == {(4,): Fraction(1), (2,): Fraction(1)}
        assert m.rho_sq == Fraction(1, 2)
        assert m.form == ((Fraction(1, 8),),)

    def test_e6_f4_model(self):
        m = build_family("e6_f4")
        assert (m.r, m.m) == (2, 26)
        assert max(sum(e) for e in m.p) == 24
        assert m.rho_sq == Fraction(8, 3)

    def test_su_star_dimensions(self):
        m = build_family("su_star", 3)
        assert (m.r, m.m) == (2, 14)
        assert max(sum(e) for e in m.p) == 12
        assert m.rho_sq == Fraction(4, 3)

    def test_complex_group_rho_sq(self):
        # A_n: n(n+2)/12 in the Killing-normalized dual form
        for n in range(1, 5):
            m = build_family("complex_group", f"A{n}")
            assert m.rho_sq == Fraction(n * (n + 2), 12)
        assert build_family("complex_group", "B2").rho_sq == Fraction(5, 6)

    def test_degree_equals_m_minus_r(self):
        for fam, param in [("hyperbolic_odd", 3), ("su_star", 2), ("e6_f4", None),
                           ("complex_group", "A3"), ("complex_group", "B2"),
                           ("complex_group", "C3"), ("complex_group", "D4")]:
            m = build_family(fam, param)
            assert max(sum(e) for e in m.p) == m.m - m.r

    def test_rejections(self):
        with pytest.raises(ValueError):
            build_family("hyperbolic_odd", 0)
        with pytest.raises(ValueError):
            build_family("su_star", 1)
        # past these ranks closed_form runs for minutes, so they are refused
        with pytest.raises(ValueError):
            build_family("su_star", 6)
        for label in ("A6", "B7", "C7", "D7"):
            with pytest.raises(ValueError):
                build_family("complex_group", label)
        with pytest.raises(UnsupportedSpaceError):
            build_family("complex_group", "E6")
        with pytest.raises(ValueError):
            build_family("complex_group", "A9")
        with pytest.raises(ValueError):
            build_family("complex_group", "D2")
        with pytest.raises(UnsupportedSpaceError):
            build_family("lorentzian", 2)


class TestDiagonalize:
    def test_identity(self):
        one = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        T, d = diagonalize_form(one)
        assert T == one
        assert d == (Fraction(1), Fraction(1))

    def test_one_dimensional(self):
        T, d = diagonalize_form(((Fraction(3, 7),),))
        assert T == ((Fraction(1),),)
        assert d == (Fraction(3, 7),)

    def test_sum_zero_gram_by_remultiplication(self):
        # the package builds e6_f4 in ambient coordinates with a diagonal form;
        # the r-coordinate form (sigma^2 / c)(I + J) is the nontrivial case
        form = model_coordinate_model("e6_f4").form
        T, d = diagonalize_form(form)
        r = len(form)
        for a in range(r):
            for b in range(r):
                got = sum(T[i][a] * form[i][j] * T[j][b] for i in range(r) for j in range(r))
                assert got == (d[a] if a == b else 0)

    def test_non_pd_rejected(self):
        bad = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
        with pytest.raises(NotPositiveDefiniteError):
            diagonalize_form(bad)

    @given(st.integers(1, 4), st.data())
    def test_random_pd_matrices_round_trip(self, n, data):
        # build a random PD rational matrix as L diag(d) L^T, then check the
        # returned congruence reproduces a positive diagonal exactly
        small = st.fractions(min_value=-3, max_value=3, max_denominator=8)
        pos = st.fractions(min_value=Fraction(1, 8), max_value=5, max_denominator=8)
        L = [[Fraction(1) if i == j else (data.draw(small) if j < i else Fraction(0))
              for j in range(n)] for i in range(n)]
        d = [data.draw(pos) for _ in range(n)]
        form = tuple(
            tuple(sum(L[i][k] * d[k] * L[j][k] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        T, dd = diagonalize_form(form)
        assert all(x > 0 for x in dd)
        for a in range(n):
            for b in range(n):
                got = sum(T[i][a] * form[i][j] * T[j][b] for i in range(n) for j in range(n))
                assert got == (dd[a] if a == b else 0)


class TestClosedForm:
    def test_h3_pure_exponential(self):
        form = closed_form(build_family("hyperbolic_odd", 1))
        assert form.kappa == Fraction(-1, 4)
        assert form.poly[0] == 1 and form.degree == 0

    def test_h5_polynomial_part(self):
        # independent check: mpmath quadrature of the density against the
        # Killing Gaussian reproduces P(t) = 1 + t/12
        form = closed_form(build_family("hyperbolic_odd", 2))
        assert form.kappa == Fraction(-1, 2)
        assert form.poly[:2] == (Fraction(1), Fraction(1, 12)) and form.degree == 1
        with mp.workdps(30):
            t = mp.mpf(1) / 1000
            integral = mp.quad(
                lambda y: (y ** 2 * (y ** 2 + 1)) * mp.exp(-t * y ** 2 / 8),
                [-mp.inf, mp.inf],
            )
            lead = mp.gamma(mp.mpf(5) / 2) * (t / 8) ** (-mp.mpf(5) / 2)
            assert abs(integral / lead - (1 + t / 12)) < 1e-12

    def test_bad_shapes_rejected(self):
        form = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))
        for p in ({(2,): Fraction(1)}, {(2, 0, 0): Fraction(1)}):
            with pytest.raises(ValueError, match="exponents"):
                PlancherelModel("custom", "x", 2, 4, p, form, Fraction(1))
        with pytest.raises(ValueError, match="square"):
            PlancherelModel("custom", "x", 1, 3, {(2,): Fraction(1)},
                            ((Fraction(1), Fraction(0)),), Fraction(1))
        with pytest.raises(ValueError, match="rank"):
            PlancherelModel("custom", "x", 2, 4, {(2,): Fraction(1)}, ((Fraction(1),),),
                            Fraction(1))

    def test_pure_gaussian_model(self):
        # p = 1 with r = m: trivial polynomial part
        from heattrace.plancherel import PlancherelModel

        m = PlancherelModel("custom", "flatlike", 2, 2, {(0, 0): Fraction(1)},
                            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
                            Fraction(3, 7))
        form = closed_form(m)
        assert form.kappa == Fraction(-3, 7)
        assert form.poly == (Fraction(1),)

    def test_degenerate_rejected(self):
        from heattrace.plancherel import PlancherelModel

        # odd-monomial density: every even Gaussian moment of it vanishes
        m = PlancherelModel("custom", "odd", 1, 3, {(1,): Fraction(1), (2,): Fraction(0)},
                            ((Fraction(1),),), Fraction(1))
        with pytest.raises((DegenerateModelError, Exception)):
            closed_form(m)

    def test_structure_all_families(self):
        for fam, param in [("hyperbolic_odd", 1), ("hyperbolic_odd", 4),
                           ("su_star", 2), ("su_star", 3), ("e6_f4", None),
                           ("complex_group", "A2"), ("complex_group", "B2")]:
            model = build_family(fam, param)
            form = closed_form(model)
            assert form.poly[0] == 1
            assert form.degree <= form.degree_bound == (model.m - model.r) // 2
            assert form.leading_t_exponent == -Fraction(model.m, 2)

    def test_complex_groups_are_pure_exponentials(self, monkeypatch):
        # homogeneous densities have a single nonzero moment, so the closed
        # form is read from the root data without expanding the density
        def expand(*args):
            raise AssertionError("a complex group expanded its density")

        monkeypatch.setattr("heattrace.plancherel._expand", expand)
        labels = ([f"A{n}" for n in range(1, 6)] + [f"{k}{n}" for k in "BC" for n in range(2, 7)]
                  + [f"D{n}" for n in range(3, 7)])
        for label in labels:
            model = build_family("complex_group", label)
            form = closed_form(model)
            assert form.degree == 0
            assert form.poly == (Fraction(1),) + (Fraction(0),) * form.degree_bound
            assert form.kappa == -model.rho_sq

    def test_cross_family_consistency(self):
        a = closed_form(build_family("hyperbolic_odd", 1))
        b = closed_form(build_family("complex_group", "A1"))
        assert a.kappa == b.kappa and a.poly == b.poly

    def test_su_star_2_equals_h5(self):
        # su*(4) and the rank-one 5-space are the same symmetric space
        a = closed_form(build_family("su_star", 2))
        b = closed_form(build_family("hyperbolic_odd", 2))
        assert a.kappa == b.kappa and a.poly == b.poly

    def test_su_star_4_rank_three_pipeline(self):
        # rank three in four ambient coordinates: the density is constant
        # along (1, 1, 1, 1), whose Gaussian factor cancels in P(0) = 1
        model = build_family("su_star", 4)
        assert (model.r, model.m) == (3, 27)
        assert model.rho_sq == Fraction(15, 6)
        form = closed_form(model)
        assert form.kappa == Fraction(-5, 2)
        assert form.poly[0] == 1
        assert form.poly[1] == Fraction(1, 4)
        assert form.degree == 6  # bound 12 minus half the vanishing order 12
        assert form.degree_bound == 12

    def test_moments_invariant_under_coordinate_change(self):
        # the trace form must not depend on the coordinates the density is
        # written in: scramble a diagonal rank-3 model by a rational linear
        # substitution lambda = S y (density and Gram transform together) and
        # demand the identical polynomial part
        from heattrace.plancherel import PlancherelModel

        d = [Fraction(1, 2), Fraction(2), Fraction(5, 3)]
        diag_form = tuple(
            tuple(d[i] if i == j else Fraction(0) for j in range(3)) for i in range(3)
        )
        # p = l1^2 l2^2 (l3^2 + 1), m - r = 6 with m = 9
        p_diag = {(2, 2, 2): Fraction(1), (2, 2, 0): Fraction(1)}
        base = PlancherelModel("custom", "diag", 3, 9, p_diag, diag_form, Fraction(1))
        S = [
            [Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(-1, 3), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(1, 2), Fraction(1)],
        ]
        from _oracles import poly_substitute

        p_scr = poly_substitute(p_diag, S)
        form_scr = tuple(
            tuple(
                sum(S[k][i] * d[k] * S[k][j] for k in range(3)) for j in range(3)
            )
            for i in range(3)
        )
        scrambled = PlancherelModel("custom", "scrambled", 3, 9, p_scr, form_scr, Fraction(1))
        a, b = closed_form(base), closed_form(scrambled)
        assert a.poly == b.poly and a.kappa == b.kappa

    def test_coefficient_decay_bound(self):
        # |A_n| <= K |kappa|^n (1+n)^deg / n! with K = sum |P_h| |kappa|^{-h}
        for fam, param in [("hyperbolic_odd", 3), ("su_star", 3), ("e6_f4", None)]:
            form = closed_form(build_family(fam, param))
            s = to_series(form, 120)
            kap = abs(form.kappa)
            K = sum(abs(c) * kap ** (-h) for h, c in enumerate(form.poly))
            for n in range(121):
                bound = K * kap ** n * Fraction((1 + n) ** form.degree, math.factorial(n))
                assert abs(s[n]) <= bound


BUILT_IN = (
    [("hyperbolic_odd", m) for m in range(1, 6)]
    + [("e6_f4", None), ("su_star", 3), ("su_star", 4)]
    + [("complex_group", g) for g in
       ("A2", "A3", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5", "D3", "D4", "D5")]
)


class TestShearAgainstReference:
    """The shear substitution of ``closed_form`` against full expansion."""

    @pytest.mark.parametrize("family,param", BUILT_IN)
    def test_built_in_families(self, family, param):
        model = build_family(family, param)
        form = closed_form(model)
        assert (form.kappa, form.poly) == closed_form_reference(model)

    @pytest.mark.parametrize("family,param", [("su_star", 2), ("su_star", 3), ("su_star", 4),
                                              ("e6_f4", None), ("complex_group", "A1"),
                                              ("complex_group", "A2"), ("complex_group", "A3"),
                                              ("complex_group", "A4")])
    def test_sum_zero_families_in_model_coordinates(self, family, param):
        # the same density and Gaussian in r coordinates with the non-diagonal
        # form (sigma^2 / c)(I + J), integrated through the full congruence;
        # closed_form takes that model through its shears
        model = model_coordinate_model(family, param)
        want = closed_form_reference(model)
        for form in (closed_form(build_family(family, param)), closed_form(model)):
            assert (form.kappa, form.poly) == want

    def test_built_ins_run_no_shear(self, monkeypatch):
        # every built-in form is diagonal in ambient coordinates, so T = I
        def shear(*args):
            raise AssertionError("a built-in family reached the shear")

        monkeypatch.setattr("heattrace.plancherel._shear", shear)
        for family, param in BUILT_IN:
            closed_form(build_family(family, param))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_random_custom_models(self, r, data):
        small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        pos = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)
        L = [[Fraction(1) if i == j else (data.draw(small) if j < i else Fraction(0))
              for j in range(r)] for i in range(r)]
        d = [data.draw(pos) for _ in range(r)]
        form = tuple(
            tuple(sum(L[i][k] * d[k] * L[j][k] for k in range(r)) for j in range(r))
            for i in range(r)
        )
        degree = data.draw(st.sampled_from([0, 2, 4, 6, 8]))

        def monomial(total):
            cuts = sorted(data.draw(st.integers(0, total)) for _ in range(r - 1))
            return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))

        nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
        p = {monomial(degree): data.draw(nonzero)}
        for _ in range(data.draw(st.integers(0, 5))):
            e = monomial(data.draw(st.integers(0, degree)))
            p[e] = p.get(e, Fraction(0)) + data.draw(nonzero)
        p = {e: a for e, a in p.items() if a}
        assume(max((sum(e) for e in p), default=-1) == degree)
        model = PlancherelModel("custom", "random", r, r + degree, p, form,
                                data.draw(pos))
        try:
            want = closed_form_reference(model)
        except DegenerateModelError:
            with pytest.raises(DegenerateModelError):
                closed_form(model)
            return
        form_out = closed_form(model)
        assert (form_out.kappa, form_out.poly) == want


class TestPackedExpansion:
    """The packed-monomial density kernel against the tuple expansion of the oracles."""

    @staticmethod
    def unpacked(roots, shifts):
        n = len(roots[0])
        w = _width(2 * len(roots) * len(shifts))
        return _unpack(_expand(roots, shifts, w), n, w)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_random_root_sets(self, n, data):
        entry = st.integers(-2, 2)
        root = st.tuples(*[entry] * n).filter(any)
        roots = data.draw(st.lists(root, min_size=1, max_size=4))
        shifts = range(data.draw(st.integers(1, 3)))
        assert self.unpacked(roots, shifts) == root_density_reference(roots, shifts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_even_part_of_random_root_sets(self, n, data):
        # one root leaves the first half empty, and odd counts split unevenly
        entry = st.integers(-2, 2)
        root = st.tuples(*[entry] * n).filter(any)
        roots = data.draw(st.lists(root, min_size=1, max_size=6))
        shifts = range(data.draw(st.integers(1, 3)))
        w = _width(2 * len(roots) * len(shifts))
        odd = sum(1 << (w * i) for i in range(n))
        even = {e: a for e, a in root_density_reference(roots, shifts).items()
                if not any(x % 2 for x in e)}
        assert _unpack(_even_part(roots, shifts, w, odd), n, w) == even

    def test_hyperbolic_odd_500(self):
        # degree 1000 in one field: the widest field a built-in family packs
        model = build_family("hyperbolic_odd", 500)
        assert max(sum(e) for e in model.p) == 1000
        assert model.p == root_density_reference(*model.factors)

    def test_su_star_4_closed_form_stays_small(self):
        # the full density has 5,782 terms, its even part 970; only the two
        # half products and the even part are ever held
        model = build_family("su_star", 4)
        tracemalloc.start()
        try:
            closed_form(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 19  # 0.5 MiB; expanding the whole density peaked at 1.16 MiB


class TestToSeries:
    def test_pure_exponential_coefficients(self):
        form = ExpPolyForm(Fraction(-1, 4), (Fraction(1),), 3, 1)
        s = to_series(form, 5)
        assert s[2] == Fraction(1, 32)
        dual = dualize(to_series(form, 5))
        for n in range(6):
            assert dual[n] == Fraction(1, 4) ** n / math.factorial(n)

    def test_linear_polynomial_expansion(self):
        form = ExpPolyForm(Fraction(-1, 2), (Fraction(1), Fraction(2, 3)), 5, 1)
        s = to_series(form, 3)
        assert s[1] == Fraction(-1, 2) + Fraction(2, 3) == Fraction(1, 6)

    def test_product_with_dual_is_polynomial(self):
        # the product series equals P(t) P(-t): vanishes beyond 2*deg
        form = closed_form(build_family("hyperbolic_odd", 2))
        s = to_series(form, 60)
        prod = product(s, dualize(s))
        assert prod[1] == 0
        assert prod[2] == -Fraction(1, 144)  # (1+t/12)(1-t/12) = 1 - t^2/144
        assert all(prod[n] == 0 for n in range(3, 61))


class TestModelFile:
    def test_round_trip(self, tmp_path):
        doc = {
            "label": "h5-by-hand",
            "r": 1,
            "m": 5,
            "rho_sq": "1/2",
            "form": [["1/8"]],
            "p": [
                {"exponents": [4], "coeff": "1"},
                {"exponents": [2], "coeff": "1"},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        model = load_model_file(path)
        form = closed_form(model)
        ref = closed_form(build_family("hyperbolic_odd", 2))
        assert form.kappa == ref.kappa and form.poly == ref.poly

    def test_bad_shapes_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"r": 2, "m": 4, "rho_sq": "1",
                                    "form": [["1"]], "p": []}))
        with pytest.raises(ValueError):
            load_model_file(path)

    @pytest.mark.parametrize("degree", [400, 1000])  # 1000 is the model-file degree limit
    def test_sparse_density_reads_only_its_moments(self, tmp_path, degree):
        # x^degree on one coordinate whose form entry has 4292-digit numerator and
        # denominator: each of the degree / 2 + 1 moment factors has up to about
        # 2150 * degree digits, the density reads one of them, and every other
        # moment sum is zero
        import time

        zeros = "0" * 4290
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"r": 1, "m": degree + 1, "rho_sq": "1/4",
                                    "form": [[f"1{zeros}7/3{zeros}1"]],
                                    "p": [{"exponents": [degree], "coeff": "1"}]}))
        start = time.perf_counter()
        form = closed_form(load_model_file(path))
        assert time.perf_counter() - start < 5.0
        assert form.kappa == Fraction(-1, 4)
        assert form.poly == (Fraction(1),) + (Fraction(0),) * (degree // 2)


def _geometry(family, param):
    """(m, dim k, c) of a built-in family, from the structure theory, not from
    plancherel: the dimension, the isotropy algebra k, and the constant c with
    |Rm|^2 = dim k (1 - c)^2 in the Killing normalization."""
    if family == "hyperbolic_odd":  # H^m with m = 2 mbar + 1, k = so(m)
        m = 2 * param + 1
        return m, m * (m - 1) // 2, Fraction(m - 2, m - 1)
    if family == "su_star":  # SU*(2M)/Sp(M), k = sp(M)
        return ((param - 1) * (2 * param + 1), param * (2 * param + 1),
                Fraction(param + 1, 2 * param))
    if family == "e6_f4":  # E6(-26)/F4
        return 26, 52, Fraction(3, 4)
    kind, rank = param[0], int(param[1:])  # G_C/G_u: m = dim k = dim g_u
    dim = {"A": rank * (rank + 2), "B": rank * (2 * rank + 1), "C": rank * (2 * rank + 1),
           "D": rank * (2 * rank - 1)}[kind]
    return dim, dim, Fraction(1, 2)


_GILKEY_FAMILIES = (
    [("hyperbolic_odd", m) for m in (*range(1, 8), 500)]
    + [("su_star", m) for m in range(2, 6)] + [("e6_f4", None)]
    + [("complex_group", f"A{r}") for r in range(1, 6)]
    + [("complex_group", f"{k}{r}") for k in "BC" for r in range(2, 7)]
    + [("complex_group", f"D{r}") for r in range(3, 7)])


@pytest.mark.parametrize("family, param", _GILKEY_FAMILIES)
def test_low_orders_are_the_local_heat_invariants(family, param):
    # The first two heat invariants of a locally symmetric space (Gilkey,
    # J. Diff. Geom. 10, 1975): A_1 = R / 6 and A_2 = (5 R^2 - 2 |Ric|^2 + 2 |Rm|^2) / 360.
    # In the Killing normalization Ric = -g / 2, so R = -m / 2 and |Ric|^2 = m / 4.
    m, dim_k, c = _geometry(family, param)
    model = build_family(family, param)
    assert model.m == m
    s = to_series(closed_form(model), 2)
    r_scalar, ric_sq, rm_sq = Fraction(-m, 2), Fraction(m, 4), dim_k * (1 - c) ** 2
    assert s[1] == r_scalar / 6 == Fraction(-m, 12)
    assert s[2] == (5 * r_scalar ** 2 - 2 * ric_sq + 2 * rm_sq) / 360
