"""Exact all-order check of the odd-dimensional hyperbolic closed forms against
the spectrum of their compact duals.

``_oracles.odd_sphere_exact`` builds the unit S^{2M+1} coefficients from the
Gaussian moments of its multiplicity (the second case of Cahn & Wolf 1976,
an even polynomial summed over the whole lattice), with its own term-by-term
sum in place of ``series.exp_times``.  H^{2M+1} in the Killing metric,
dualized and rescaled by 4M, must equal it at every index to 300 for
M = 1..6; so must su-star:2, since su*(4) is so(5, 1).
"""

import pytest

from heattrace import plancherel, series

from _oracles import harmonic_dimension, odd_sphere_exact, odd_sphere_multiplicity

N_MAX = 300


def _compact_dual(family: str, param: str, mbar: int) -> list:
    model = plancherel.build_family(family, param)
    s = plancherel.to_series(plancherel.closed_form(model), N_MAX)
    return series.rescale(series.dualize(s), 4 * mbar).coeffs


@pytest.mark.parametrize("mbar", range(1, 7))
def test_multiplicity_polynomial_matches_harmonic_dimensions(mbar):
    c = odd_sphere_multiplicity(mbar)

    def p(j):
        return sum(x * j ** (2 * q) for q, x in enumerate(c))

    assert [p(j) for j in range(mbar)] == [0] * mbar  # so half the lattice sum is the trace
    assert [p(k + mbar) for k in range(4)] == [
        harmonic_dimension(2 * mbar + 2, k) for k in range(4)]


@pytest.mark.parametrize("mbar", range(1, 7))
def test_dual_hyperbolic_odd_equals_the_odd_sphere_spectrum(mbar):
    spectral = odd_sphere_exact(mbar, N_MAX)
    built = _compact_dual("hyperbolic_odd", str(mbar), mbar)
    bad = [n for n in range(N_MAX + 1) if built[n] != spectral[n]]
    assert not bad, f"closed form departs from the spectrum at n = {bad[:5]}"


def test_dual_su_star_2_equals_the_s5_spectrum():
    assert _compact_dual("su_star", "2", 2) == odd_sphere_exact(2, N_MAX)
