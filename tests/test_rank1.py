import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from heattrace import rank1, series
from heattrace.cli import _any_int_digits
from heattrace.errors import InvariantViolation, UnsupportedSpaceError
from heattrace.exactnum import c_numerators, log_abs
from heattrace.oracle import sphere_volume
from heattrace.rank1 import SpaceModel, rank1_series, threshold
from heattrace.seedpolys import SignedTable
from heattrace.series import EXACT, UNAVAILABLE, HeatSeries

from _oracles import (
    bernoulli_recurrence,
    cp_direct,
    hp_direct,
    op2_direct,
    rank1_boundary_reference,
    rank1_prefactor,
    rank1_spectrum,
    rank1_tail_reference,
    spectral_exact,
)


def A(family, mbar, n):
    return rank1_series(SpaceModel(family, mbar), n)[n]


def volume(family, mbar):
    """The volume constant of the built-in normalization, pref * boundary[0] * pi^pi_power,
    as (rational, pi_power)."""
    row = rank1._row(family, mbar)
    pref, pi_power = rank1_prefactor(family, mbar)
    return pref * rank1._boundary_at_zero(row, row.table()), pi_power


def a(family, mbar, n):
    """a_n without its pi power: A_n times the volume constant (A_0 = 1)."""
    return A(family, mbar, n) * volume(family, mbar)[0]


def unchecked_model(family, mbar):
    """A SpaceModel that skipped its own check, so rank1_series meets the pair first."""
    model = object.__new__(SpaceModel)
    object.__setattr__(model, "family", family)
    object.__setattr__(model, "mbar", mbar)
    return model


def below_threshold_unavailable(family, mbar, thr):
    s = rank1_series(SpaceModel(family, mbar), thr)
    assert s.validity == [EXACT] + [UNAVAILABLE] * (thr - 1) + [EXACT]
    assert s.coeffs[1:thr] == [0] * (thr - 1) and s[thr] != 0


@pytest.fixture(scope="module")
def bernoulli():
    return bernoulli_recurrence(2 * (300 + 8) + 2)


class TestSpheres:
    def test_s2_normalized_values(self):
        # classical unit 2-sphere expansion 1 + t/3 + t^2/15 + 4t^3/315 + ...
        assert A("sphere", 1, 1) == Fraction(1, 3)
        assert A("sphere", 1, 2) == Fraction(1, 15)
        assert A("sphere", 1, 3) == Fraction(4, 315)
        assert A("sphere", 1, 4) == Fraction(1, 315)

    def test_s4_normalized_values(self):
        # curvature invariants of the unit 4-sphere
        assert A("sphere", 2, 2) == Fraction(29, 15)
        assert A("sphere", 2, 3) == Fraction(74, 63)  # confirmed by spectral fit

    def test_volumes_match_textbook(self):
        assert volume("sphere", 1) == (Fraction(4), 1)       # 4 pi
        assert volume("sphere", 2) == (Fraction(8, 3), 2)    # 8 pi^2 / 3
        assert volume("sphere", 3) == (Fraction(16, 15), 3)  # 16 pi^3 / 15

    def test_an_carries_expected_pi_power(self):
        # a_n carries the volume's pi power, so A_n = a_n / Vol is rational
        for mbar in (1, 2):
            assert volume("sphere", mbar)[1] == sphere_volume(2 * mbar)[1] == mbar

    def test_threshold_rejected(self):
        below_threshold_unavailable("sphere", 2, 2)
        below_threshold_unavailable("sphere", 3, 3)

    def test_even_mbar_eventually_negative(self):
        assert A("sphere", 2, 200) < 0

    def test_odd_mbar_positive(self):
        assert A("sphere", 1, 200) > 0
        assert A("sphere", 3, 200) > 0


class TestComplexProjective:
    def test_threshold(self):
        below_threshold_unavailable("complex_projective", 3, 2)  # threshold itself is exact

    def test_cp2_low_order_values(self):
        # frozen from the tabulated formula (independent hand evaluation)
        assert A("complex_projective", 2, 1) == Fraction(29, 180)
        assert A("complex_projective", 2, 2) == Fraction(113, 11340)

    def test_cp2_eventually_negative(self):
        assert A("complex_projective", 2, 50) < 0
        assert A("complex_projective", 2, 120) < 0

    def test_cp3_positive(self):
        assert A("complex_projective", 3, 50) > 0

    def test_bad_mbar(self):
        with pytest.raises(ValueError):
            SpaceModel("complex_projective", 1)

    def test_matches_independent_transliteration(self):
        # n = 0 checks the volume constant, which every A_n is divided by
        for mbar, n in [(2, 0), (2, 1), (2, 2), (2, 17), (3, 0), (3, 2), (3, 3), (3, 16),
                        (4, 9), (5, 8)]:
            assert (a("complex_projective", mbar, n)
                    == Fraction(4 ** (mbar - 1)) * cp_direct(mbar, n))


class TestQuaternionicProjective:
    def test_threshold(self):
        below_threshold_unavailable("quaternionic_projective", 2, 2)

    def test_eventually_negative(self):
        assert A("quaternionic_projective", 2, 60) < 0

    def test_tail_terms_share_sign_at_threshold(self):
        tail = a("quaternionic_projective", 2, 2) - rank1_boundary_reference(
            "quaternionic_projective", 2, 2)
        assert tail < 0

    def test_non_positive_volume_refused_before_any_build(self, monkeypatch):
        def no_build(family, mbar, n_max):
            raise AssertionError("a refused model built its vector")

        def no_exponential(*args):
            raise AssertionError("the volume-sign check ran an exponential")

        monkeypatch.setattr(rank1, "_build", no_build)
        monkeypatch.setattr(rank1, "exp_numerators", no_exponential)
        for mbar in (4, 6, 7):
            with pytest.raises(UnsupportedSpaceError, match="non-positive volume constant"):
                SpaceModel("quaternionic_projective", mbar)
        monkeypatch.undo()
        for mbar in (2, 3, 5):
            SpaceModel("quaternionic_projective", mbar)
            assert volume("quaternionic_projective", mbar)[0] > 0
        with pytest.raises(InvariantViolation):
            rank1._build("quaternionic_projective", 4, 10)

    def test_hp_past_the_checked_range_refused_without_a_table(self, monkeypatch):
        # the volume-sign check expands delta_table(M), about O(M^3): hp:5000 ran past 60 s
        def no_table(mbar):
            raise AssertionError(f"built delta_table({mbar})")

        monkeypatch.setattr(rank1, "delta_table", no_table)
        for mbar in (301, 1000, 5000):
            with pytest.raises(UnsupportedSpaceError, match=f"hp:{mbar} is past hp:300"):
                SpaceModel("quaternionic_projective", mbar)

    def test_boundary_at_zero_matches_the_boundary_vector(self):
        rows = ([("quaternionic_projective", m) for m in range(2, 31)]
                + [("sphere", m) for m in range(1, 8)]
                + [("complex_projective", m) for m in range(2, 8)] + [("cayley_plane", 2)])
        for family, mbar in rows:
            row = rank1._row(family, mbar)
            b0 = rank1._boundary_at_zero(row, row.table())
            assert (rank1_prefactor(family, mbar)[0] * b0
                    == rank1_boundary_reference(family, mbar, 0))
            if b0 > 0:  # entry 0 of the exponential, divided by b0
                assert rank1._build(family, mbar, 0) == [1]

    def test_matches_independent_transliteration(self):
        # n = 0 checks the volume constant, which every A_n is divided by
        for mbar, n in [(2, 0), (2, 2), (2, 3), (2, 15), (3, 0), (3, 4), (3, 12), (5, 0), (5, 8)]:
            assert (a("quaternionic_projective", mbar, n)
                    == Fraction(4 ** (2 * mbar - 2)) * hp_direct(mbar, n))


class TestCayleyPlane:
    def test_threshold(self):
        below_threshold_unavailable("cayley_plane", 2, 7)

    def test_matches_independent_naive_summation(self):
        for n in (0, 7, 8, 20):
            assert a("cayley_plane", 2, n) == Fraction(4 ** 8) * op2_direct(n)

    def test_eventually_negative(self):
        assert A("cayley_plane", 2, 60) < 0


RANK1_ROWS = [
    ("sphere", 1, 1),
    ("sphere", 2, 2),
    ("complex_projective", 2, 1),
    ("complex_projective", 3, 2),
    ("quaternionic_projective", 2, 2),
    ("cayley_plane", 2, 7),
]


class TestFirstSumDecay:
    @pytest.mark.parametrize("family,mbar,thr", RANK1_ROWS)
    def test_boundary_below_tail(self, family, mbar, thr, bernoulli):
        for n in (4 * thr, 4 * thr + 1, 90):
            tail = rank1_tail_reference(family, mbar, n, bernoulli)
            first = a(family, mbar, n) - tail
            assert tail != 0
            if first != 0:
                assert log_abs(first) < log_abs(tail)


class TestTailKernel:
    """The whole-vector builder equals the per-index boundary and tail sums exactly."""

    @pytest.mark.parametrize("family,mbar,thr", RANK1_ROWS)
    def test_tail_split_matches_per_index_sums(self, family, mbar, thr, bernoulli):
        for n in [300, 150, *range(thr, 81)]:
            assert a(family, mbar, n) == (rank1_boundary_reference(family, mbar, n)
                                          + rank1_tail_reference(family, mbar, n, bernoulli)), n

    @pytest.mark.parametrize("family, mbar, ns", [
        ("sphere", 30, (31, 30)),
        ("sphere", 50, (60, 50, 55)),
        ("complex_projective", 40, (45, 39)),
        ("complex_projective", 41, (44, 40)),
        ("quaternionic_projective", 20, (45, 38)),
    ])
    def test_big_table_at_shallow_depth(self, monkeypatch, family, mbar, ns, bernoulli):
        # about as many table entries as inner sums, so the correlation splits by Toom-3:
        # the first call makes four or five sub-products on third-size operands
        calls, depth = [], [0]
        cauchy = series._cauchy

        def tracking(a, b, n):
            calls.append((depth[0], max(len(a), len(b))))
            depth[0] += 1
            try:
                return cauchy(a, b, n)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(series, "_cauchy", tracking)
        monkeypatch.setattr(rank1, "_cauchy", tracking)
        # hp:20 has no positive volume constant, so the vector is built with
        # normalizer 1: the unnormalized boundary[n] + tail[n] of every row
        monkeypatch.setattr(rank1, "_boundary_at_zero", lambda row, table: Fraction(1))
        raw = rank1._build(family, mbar, ns[0])  # the first, deepest index
        pref = rank1_prefactor(family, mbar)[0]
        for n in ns:
            assert raw[n] * pref == (rank1_boundary_reference(family, mbar, n)
                                     + rank1_tail_reference(family, mbar, n, bernoulli)), n
        h = -(-calls[0][1] // 3)
        children = [length for d, length in calls if d == 1]
        assert len(children) in (4, 5) and max(children) == h
        assert max(d for d, _ in calls) > 1

    # sha256 of the "num/den" lines of rank1._build(family, mbar, 600), recorded
    # before _build moved to integer generators and the Toom-3 kernel
    BUILD_GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "rank1_build_sha256.json").read_text())

    @pytest.mark.parametrize("key", sorted(BUILD_GOLDEN))
    def test_deep_vectors_are_byte_identical(self, key):
        family, mbar = key.split(":")
        vec = rank1._build(family, int(mbar), 600)
        with _any_int_digits():
            text = "".join(f"{c.numerator}/{c.denominator}\n" for c in vec)
        assert hashlib.sha256(text.encode()).hexdigest() == self.BUILD_GOLDEN[key]

    def test_a_shallower_series_is_a_prefix_of_a_deeper_one(self):
        model = SpaceModel("cayley_plane", 2)
        deep = rank1_series(model, 360)
        for n in (0, 6, 7, 8, 150, 300):
            cut = range(1, min(deep.gap.stop, n + 1))
            assert rank1_series(model, n) == HeatSeries(deep.coeffs[: n + 1], cut,
                                                         provenance=deep.provenance)


class TestOnePath:
    """rank1_series builds one vector per call, behind the one row check."""

    def test_below_threshold_builds_nothing(self, monkeypatch):
        def no_build(family, mbar, n_max):
            raise AssertionError(f"built {family}:{mbar} to {n_max}")

        monkeypatch.setattr(rank1, "_build", no_build)
        s = rank1_series(SpaceModel("sphere", 2000), 1)
        assert s.coeffs == [1, 0] and s.validity == [EXACT, UNAVAILABLE]
        assert rank1_series(SpaceModel("complex_projective", 2), 0).coeffs == [1]

    @pytest.mark.parametrize("family, mbar", [
        ("cayley_plane", 3), ("cayley_plane", 1), ("sphere", 0), ("complex_projective", 1),
        ("quaternionic_projective", 1), ("quaternionic_projective", 0)])
    def test_bad_parameters_refused_by_every_entry_point(self, family, mbar):
        with pytest.raises(ValueError) as expected:
            rank1._row(family, mbar)
        for call in (lambda: threshold(family, mbar), lambda: SpaceModel(family, mbar),
                     lambda: rank1_series(unchecked_model(family, mbar), 7),
                     lambda: rank1._build(family, mbar, 7)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(expected.value)

    def test_negative_index_refused_cold_or_warm(self):
        model = SpaceModel("sphere", 1)
        for _ in range(2):  # the second pass finds the tangent table built by the first
            with pytest.raises(ValueError, match="nonnegative"):
                rank1_series(model, -1)
            rank1_series(model, 5)

    def test_unknown_family_refused_by_every_entry_point(self):
        for call in (lambda: threshold("klein_bottle", 2), lambda: SpaceModel("klein_bottle", 2),
                     lambda: rank1_series(unchecked_model("klein_bottle", 2), 3),
                     lambda: rank1._build("klein_bottle", 2, 3)):
            with pytest.raises(UnsupportedSpaceError, match="unknown rank-one family"):
                call()

    def test_atom_table(self):
        assert rank1.atom_model("cp", "3") == SpaceModel("complex_projective", 3)
        assert rank1.atom_model("op2", None) == SpaceModel("cayley_plane", 2)
        assert set(rank1.ATOMS.values()) == set(rank1.FAMILIES)


class TestSignInvariant:
    """The no-cancellation invariant is checked on the table and on the coefficients."""

    def test_broken_table_sign_law_raises(self, monkeypatch):
        table = rank1.beta_table

        def flipped(mbar):
            t = table(mbar)
            return SignedTable((t[0], -t[1], *t.values[2:]), t.family, t.param)

        monkeypatch.setattr(rank1, "beta_table", flipped)
        with pytest.raises(InvariantViolation):
            rank1._build("sphere", 3, 10)

    @pytest.mark.parametrize("bad", [0, -7])
    def test_non_positive_lattice_coefficient_raises(self, monkeypatch, bad):
        row = rank1._row

        def coeff(n):
            nums, den = c_numerators(n)  # op2 reads c(8..17) to n = 10
            nums[12] = bad
            return nums, den

        monkeypatch.setattr(rank1, "_row",
                            lambda f, m: rank1._Row(**{**vars(row(f, m)), "coeff": coeff}))
        with pytest.raises(InvariantViolation):
            rank1._build("cayley_plane", 2, 10)


class TestSeriesAssembly:
    def test_a0_is_one(self):
        s = rank1_series(SpaceModel("sphere", 1), 0)
        assert s.coeffs == [Fraction(1)]
        assert s.validity == [EXACT]

    def test_one_seed_table_per_build(self, monkeypatch):
        calls = []
        table = rank1.beta_table

        def counting(mbar):
            calls.append(mbar)
            return table(mbar)

        monkeypatch.setattr(rank1, "beta_table", counting)
        s = rank1_series(SpaceModel("sphere", 50), 300)
        assert calls == [50]
        assert s.n_max == 300 and s[300] != 0

    def test_gap_flags(self):
        s = rank1_series(SpaceModel("cayley_plane", 2), 10)
        assert s.validity[0] == EXACT
        assert all(f == UNAVAILABLE for f in s.validity[1:7])
        assert all(f == EXACT for f in s.validity[7:])
        assert all(s.coeffs[n] == 0 for n in range(1, 7))

    def test_noncompact_dual_flips_odd_signs(self):
        c = rank1_series(SpaceModel("sphere", 2), 8)
        d = series.dualize(c)
        for n in range(9):
            assert d[n] == (-1) ** n * c[n]
            assert d.validity[n] == c.validity[n]
        assert d.provenance == "dual(sphere:2)"

    def test_scale_multiplies_powers(self):
        base = rank1_series(SpaceModel("sphere", 1), 6)
        scaled = series.rescale(base, 4)
        for n in range(7):
            assert scaled[n] == 4 ** n * base[n]
            assert scaled.validity[n] == base.validity[n]
        assert scaled.provenance == "scale(sphere:1, 4)"

    def test_model_validation(self):
        with pytest.raises(UnsupportedSpaceError):
            SpaceModel("klein_bottle", 2)
        with pytest.raises(ValueError):
            SpaceModel("sphere", 0)
        with pytest.raises(ValueError):
            SpaceModel("complex_projective", 1)
        with pytest.raises(ValueError):
            SpaceModel("cayley_plane", 3)


class TestOracleCalibrationReport:
    """The cp:2 row against the exact series of its spectrum, eigenvalue k(k + 2) and
    multiplicity (k + 1)^3: the homothety that matches A_1 leaves A_2 off by
    about -25.7 %.  The tabulated closed form is not a homothety of the
    Fubini-Study spectrum; this test freezes the departure, which is reported,
    not patched (tests/test_projective_oracle.py freezes the other rows)."""

    def test_cp2_calibrated_ratio_deviation(self):
        spectral = spectral_exact(*rank1_spectrum("complex_projective", 2), 2,
                                  bernoulli_recurrence(4))
        assert spectral[1:] == [1, Fraction(31, 60)]
        a1c, a2c = A("complex_projective", 2, 1), A("complex_projective", 2, 2)
        calib = spectral[1] / a1c  # homothety from the closed form to the spectral scale
        deviation = a2c * calib ** 2 / spectral[2] - 1
        assert deviation == Fraction(-46897, 182497)  # -25.70 %
