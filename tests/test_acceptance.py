"""Acceptance suite: one test per documented criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The growth-law band (criterion 5) reads its constant and its band
depth from ``verify.GROWTH_LAW_TABLE`` (see the README testing notes):

* the even-sphere growth constant is 1/pi^2 for every mbar, from the
  Hurwitz-zeta form of the unit-sphere spectra; ``test_sphere_oracle.py``
  checks the closed forms against that construction exactly to n = 300, and
* the Cayley-plane band is checked to n = 360, since its polynomial
  prefactor (about n^14) keeps it outside the 20% band until n = 311.
"""

import pytest

from heattrace import growth, verify


def _report(name, ok, detail=""):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}" + (f": {detail}" if detail else ""))
    return ok


def _assert_all(results):
    bad = []
    for res in results:
        _report(res.name, res.ok, res.detail)
        if not res.ok:
            bad.append(res)
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)


def test_criterion_1_product_vanishing_exact():
    """Product of the rank-one hyperbolic series with its dual is exactly 1."""
    _assert_all(verify.check_corollary_vanishing())


def test_criterion_2_exponential_anchors_exact():
    """kappa = -1/4 with trivial polynomial part; dual series (1/4)^n/n!."""
    _assert_all(verify.check_anchors())


def test_criterion_3_oracle_agreement_spheres():
    """Closed forms vs 50-digit spectral fits for S^2 and S^4, 1e-6 relative."""
    _assert_all(verify.check_oracle_spheres())


def test_criterion_4_unit_s3_chain():
    """Unit 3-sphere fit is 1/n!; the dual+rescale chain reproduces it exactly."""
    _assert_all(verify.check_unit_s3_chain())


@pytest.mark.parametrize("key,C,sign,depth", verify.GROWTH_LAW_TABLE,
                         ids=[row[0] for row in verify.GROWTH_LAW_TABLE])
def test_criterion_5_growth_band(key, C, sign, depth):
    """Two-sided factorial band at eps = 0.2, from some N >= 50 up to the row's
    band depth, against the reference constants.

    The spheres grow like (1/pi^2)^n n! for every mbar; the Cayley plane
    enters its band only at n = 311, so its row is checked to n = 360.
    """
    s = verify.reference_series(key, depth)
    start = growth.find_band_start(s, C, 0.2, 50)
    measured = growth.estimate_growth_constant(s, 100)
    ok = start is not None
    if ok:
        detail = (f"C={C:.6f}, measured={measured:.6f}, "
                  f"band holds from N={start} to {depth}")
    else:
        detail = (f"C={C:.6f}, but measured (|A_n|/n!)^(1/n) at n={depth} is "
                  f"{measured:.6f}; the (1 +- 0.2)^n band never holds by n={depth}")
    _report(f"criterion-5/band/{key}", ok, detail)
    assert ok, detail


@pytest.mark.parametrize("key,C,sign,depth", verify.GROWTH_LAW_TABLE,
                         ids=[row[0] for row in verify.GROWTH_LAW_TABLE])
def test_criterion_5_signs(key, C, sign, depth, series300):
    """Eventual sign patterns of the six families for 50 <= n <= 300."""
    s = series300(key)
    bad = [n for n in range(50, 301) if s[n] != 0 and (1 if s[n] > 0 else -1) != sign]
    ok = not bad
    _report(f"criterion-5/sign/{key}", ok,
            f"expected sign {'+' if sign > 0 else '-'}"
            + ("" if ok else f", violated at n={bad[:5]}"))
    assert ok


def test_criterion_6_trace_form_structure():
    """P(0) = 1, deg P <= (m-r)/2, and t^{-m/2} bookkeeping for every family.

    The degree statement is implemented as the constructed bound: the exact
    degree equals (m-r)/2 minus half the density's vanishing order at 0, and
    literal equality would contradict the exactly pinned rank-one anchors
    (criteria 2 and 7 force P = 1 for the rank-one hyperbolic model, degree 0,
    while (m-r)/2 = 1 there).
    """
    _assert_all(verify.check_structure())


def test_criterion_7_cross_family_consistency():
    """hyperbolic-odd:1 and complex-group:A1 produce identical trace forms."""
    _assert_all(verify.check_cross_family())


def test_criterion_8_factorial_bound_witness():
    """Finite witness C1 with |A_n| <= C1^n n! verified at every index."""
    _assert_all(verify.check_factorial_bound())


def test_criterion_9_kernel_checks():
    """Bernoulli/zeta agreement, c/d positivity, table sign and root laws."""
    _assert_all(verify.check_kernel())
