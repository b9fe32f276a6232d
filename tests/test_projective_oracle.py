"""The projective rows against the exact series of their spectra.

``_oracles.spectral_exact`` sums the first case of Cahn & Wolf (1976): a
spectrum j^2 - rho^2 over a half-line lattice with an odd multiplicity
polynomial, each A_n an exact rational from Bernoulli numbers.
``_oracles.rank1_spectrum`` gives that data for S^{2M}, CP^M, HP^M and OP^2.
The sanity checks pin the oracle itself: its multiplicities are the binomial
ones, HP^1 is S^4, and A_1 is R/6 for every space.  The characterization
tests freeze how each tabulated row departs from its spectral series.  No
row is a homothety of its spectrum, and nothing here patches a row.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from heattrace.rank1 import ATOMS, SpaceModel, rank1_series

from _oracles import (
    bernoulli_recurrence,
    harmonic_dimension,
    rank1_multiplicity,
    rank1_spectrum,
    spectral_exact,
    sphere_exact,
)

N_SIGN = 80  # the depth to which the cp:2 spectral series is checked positive


def _scalar_curvature(dim, d):
    """R of a projective space of real dimension ``dim`` over a field of real
    dimension d, in the metric whose eigenvalues are k(k + 2 rho).  That metric is
    four times the one with sectional curvatures in [1, 4], whose eigenvalues are
    4k(k + 2 rho) and whose Ricci tensor is (dim + 3d - 4) g."""
    return Fraction(dim * (dim + 3 * d - 4), 4)


SCALAR_CURVATURE = {
    **{f"cp:{m}": _scalar_curvature(2 * m, 2) for m in (2, 3, 4, 5)},
    **{f"hp:{m}": _scalar_curvature(4 * m, 4) for m in (1, 2, 3, 5)},
    "op2": _scalar_curvature(16, 8),
}

# The first homothety-free ratio A_t A_{t+2} / A_{t+1}^2 of each row over its
# spectral one, minus 1, at the row's first three exact indices (t = 0 for cp:2,
# whose A_1 and A_2 are exact; t = the threshold otherwise).  For cp:2 it is the
# A_2 departure under the homothety that matches A_1.  The exact values are in
# data/projective_departures.json; roughly -0.257 (cp:2), 3.89, -2.69, 1.30
# (cp:3-5), -2.15, -0.557, -0.205 (hp:2, 3, 5) and -1.0004 (op2).
DEPARTURES = json.loads(
    (Path(__file__).parent / "data" / "projective_departures.json").read_text())


def _space(spec):
    name, _, param = spec.partition(":")
    return ATOMS[name], int(param) if param else 2


@pytest.fixture(scope="module")
def bernoulli():
    return bernoulli_recurrence(2 * N_SIGN)


def _poly_at(roots, lead, j):
    value = lead
    for r in roots:
        value *= j - r
    return value


@pytest.mark.parametrize("family, mbar", [
    ("sphere", 1), ("sphere", 2), ("sphere", 5), ("complex_projective", 2),
    ("complex_projective", 3), ("complex_projective", 4), ("complex_projective", 5),
    ("quaternionic_projective", 1), ("quaternionic_projective", 2),
    ("quaternionic_projective", 3), ("quaternionic_projective", 5), ("cayley_plane", 2)])
def test_multiplicity_polynomial_is_the_binomial_one(family, mbar):
    roots, lead, a, rho_sq = rank1_spectrum(family, mbar)
    rho = a + next(i for i in range(100) if (a + i) ** 2 == rho_sq)
    for k in range(12):
        assert _poly_at(roots, lead, k + rho) == rank1_multiplicity(family, mbar, k)
    # the lattice reaches below the first level only at roots
    assert all(_poly_at(roots, lead, j) == 0 for j in (a + i for i in range(100)) if j < rho)


def test_first_multiplicities():
    firsts = {("sphere", 1): [1, 3, 5, 7], ("complex_projective", 2): [1, 8, 27, 64],
              ("quaternionic_projective", 2): [1, 14, 90, 385],
              ("cayley_plane", 2): [1, 26, 324, 2652]}
    for (family, mbar), expected in firsts.items():
        assert [rank1_multiplicity(family, mbar, k) for k in range(4)] == expected
    for mbar in (1, 2):
        assert [rank1_multiplicity("sphere", mbar, k) for k in range(6)] == [
            harmonic_dimension(2 * mbar + 1, k) for k in range(6)]


def test_hp1_is_s4(bernoulli):
    hp1 = spectral_exact(*rank1_spectrum("quaternionic_projective", 1), 60, bernoulli)
    assert hp1 == sphere_exact(2, 60, bernoulli)


@pytest.mark.parametrize("spec", sorted(SCALAR_CURVATURE))
def test_first_coefficient_is_r_over_6(spec, bernoulli):
    series = spectral_exact(*rank1_spectrum(*_space(spec)), 1, bernoulli)
    assert series[0] == 1
    assert series[1] == SCALAR_CURVATURE[spec] / 6


@pytest.mark.parametrize("spec", sorted(DEPARTURES))
def test_row_departs_from_its_spectral_series(spec, bernoulli):
    model = SpaceModel(*_space(spec))
    t = 0 if model.threshold == 1 else model.threshold
    row = rank1_series(model, t + 2)
    assert row.validity[t:] == ["exact"] * 3
    spectral = spectral_exact(*rank1_spectrum(*_space(spec)), t + 2, bernoulli)

    def ratio(a):
        return a[t] * a[t + 2] / a[t + 1] ** 2

    departure = ratio(row.coeffs) / ratio(spectral) - 1
    assert departure == Fraction(DEPARTURES[spec])


def test_cp2_signs_depart(bernoulli, series300):
    row = series300("cp:2")
    assert row[1] > 0 and row[2] > 0
    assert all(row[n] < 0 for n in range(3, 301))
    spectral = spectral_exact(*rank1_spectrum("complex_projective", 2), N_SIGN, bernoulli)
    assert all(x > 0 for x in spectral)
