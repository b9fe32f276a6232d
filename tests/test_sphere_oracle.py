"""Exact all-order check of the even-sphere closed forms against the spectrum.

``_oracles.sphere_exact``, the sphere case of ``_oracles.spectral_exact``,
builds the unit S^{2 mbar} coefficients from the Hurwitz-zeta form of the
spectrum (Cahn & Wolf 1976), on the independent Bernoulli recurrence; the
package's closed forms must equal it at every exact index up to 300 for
mbar 1 and 2, and up to 120 for mbar 3, 4, 5 and 10, where the mbar-term
boundary sum carries more and more of the low orders.  Its growth must sit in the
eps = 0.2 band around 1/pi^2, the constant ``verify.GROWTH_LAW_TABLE`` uses
for the spheres.
"""

import math

import pytest

from heattrace.rank1 import SpaceModel, rank1_series

from _oracles import bernoulli_recurrence, sphere_exact

N_MAX = 300
DEEP_N_MAX = 120


@pytest.fixture(scope="module")
def bernoulli():
    return bernoulli_recurrence(2 * N_MAX)


@pytest.fixture(scope="module")
def spectral(bernoulli):
    return {mbar: sphere_exact(mbar, N_MAX, bernoulli) for mbar in (1, 2)}


@pytest.mark.parametrize("mbar", [1, 2])
def test_closed_form_equals_spectral_zeta(mbar, spectral, series300):
    s = series300(f"sphere:{mbar}")
    exact = [n for n in range(N_MAX + 1) if s.validity[n] == "exact"]
    assert len(exact) == N_MAX + 1 - (mbar - 1)  # only 0 < n < mbar is unavailable
    bad = [n for n in exact if s[n] != spectral[mbar][n]]
    assert not bad, f"closed form departs from the spectrum at n = {bad[:5]}"


@pytest.mark.parametrize("mbar", [3, 4, 5, 10])
def test_boundary_dominated_spheres_equal_spectral_zeta(mbar, bernoulli):
    s = rank1_series(SpaceModel("sphere", mbar), DEEP_N_MAX)
    spectral = sphere_exact(mbar, DEEP_N_MAX, bernoulli)
    exact = [n for n in range(DEEP_N_MAX + 1) if s.validity[n] == "exact"]
    assert len(exact) == DEEP_N_MAX + 1 - (mbar - 1)
    bad = [n for n in exact if s[n] != spectral[n]]
    assert not bad, f"closed form departs from the spectrum at n = {bad[:5]}"


@pytest.mark.parametrize("mbar", [1, 2])
def test_spectral_growth_in_band_around_inverse_pi_squared(mbar, spectral):
    a = abs(spectral[mbar][N_MAX])
    log_ratio = math.log(a.numerator) - math.log(a.denominator) - math.lgamma(N_MAX + 1)
    g = math.exp(log_ratio / N_MAX)
    C = 1 / math.pi ** 2
    assert C * 0.8 < g < C * 1.2, f"g_300 = {g:.6f} vs 1/pi^2 = {C:.6f}"
