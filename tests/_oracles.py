"""Independent reimplementations used purely as test oracles.

Nothing here shares code paths with the package: Bernoulli numbers come from
the defining binomial recurrence instead of the tangent triangle, polynomial
products are expanded over the full linear factorization, harmonic
dimensions come from an exact kernel computation of the Laplacian on monomials,
and the unit-sphere coefficients come from the Hurwitz-zeta form of the
spectrum (even spheres) or from its Gaussian moments (odd spheres) rather
than from the closed-form tail sums or the Plancherel closed forms.  Heat traces are summed
with one exponential per level out to a generous fixed cutoff instead of
the package's weight recurrence and tail bound.  Cauchy products come from
the plain O(n^2) loop (:func:`schoolbook_convolve`) instead of the package's
Toom-3 split.  The one exception is :func:`closed_form_reference`, which
takes its diagonalizing congruence from
``heattrace.plancherel.diagonalize_form`` and differs from the package in how
it substitutes: it expands every monomial of p(T y) in full.
:func:`model_coordinate_model` writes the sum-zero families in r model
coordinates, where the form is not diagonal, so that reference runs their
densities through a nontrivial congruence; the package builds them in N = r + 1
ambient coordinates.  :func:`parse_document`, the reader of the CLI's JSON
documents, lifts the interpreter's int-digit limit with the CLI's own guard
and holds each document's validity column to one gap.
:func:`normalization_reference` is the CLI's former separate walk for a
document's normalization, kept as the reference for the plan's.
:func:`sum_levels_reference` is the package's fixed-point summation loop as it
was before its stop test compared bit lengths first, kept verbatim so that the
faster test can be held to the same totals and the same stopping level.
Bernoulli numbers are memoized: one table, extended to the deepest index asked.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, mul

import mpmath as mp

from heattrace.cli import _any_int_digits
from heattrace.errors import DegenerateModelError, SafetyLimitError
from heattrace.oracle import _MAX_TERMS
from heattrace.plancherel import PlancherelModel, diagonalize_form
from heattrace.series import HeatSeries


_BERNOULLI = [Fraction(1)]


def bernoulli_recurrence(n_top: int) -> list[Fraction]:
    """B_0..B_n_top from sum_{j<=n} C(n+1, j) B_j = 0 (B_1 = -1/2 convention).

    The numbers are kept in one module table that grows to the deepest index
    asked, so each B_n is computed once per test session; callers get a copy.
    Each sum runs in ints over the lcm of the denominators, with the binomial
    row carried from Pascal's rule.
    """
    B = _BERNOULLI
    row = [math.comb(len(B), j) for j in range(len(B) + 1)]
    for n in range(len(B), n_top + 1):
        row = [1, *map(add, row, row[1:]), 1]  # C(n + 1, j)
        den = math.lcm(*(b.denominator for b in B))
        acc = sum(c * b.numerator * (den // b.denominator) for c, b in zip(row, B))
        B.append(Fraction(-acc, den * (n + 1)))
    return B[: n_top + 1]


def direct_heat_trace(spectrum: dict, t, digits: int):
    """sum mult * exp(-t * eig) with one ``mp.exp`` per level.

    ``spectrum`` holds the ``eigenvalue`` and ``multiplicity`` callables that
    ``heattrace.oracle._sum_levels`` sums.  Summation stops at the first level k > 0
    with t * (eig - eig_0) past 3 * (digits + 12) * ln 10, where the Boltzmann
    factor is below 10^-(3 * (digits + 12)) of level 0's, far under what
    ``digits`` need; the eigenvalues must increase from that level on.
    """
    eigenvalue, multiplicity = spectrum["eigenvalue"], spectrum["multiplicity"]
    t = Fraction(t)
    with mp.workdps(digits + 20):
        tt = mp.mpf(t.numerator) / t.denominator
        total = mp.mpf(0)
        eig0 = eigenvalue(0)
        k = 0
        while True:
            eig = eigenvalue(k)
            if k > 0 and t * (eig - eig0) > 3 * (digits + 12) * math.log(10):
                return total
            total += multiplicity(k) * mp.exp(-tt * mp.mpf(eig.numerator) / eig.denominator)
            k += 1


def sum_levels_reference(eigenvalue, multiplicity, t: Fraction, digits: int) -> mp.mpf:
    """``heattrace.oracle._sum_levels`` before the bit-length pretest, verbatim.

    Sum mult * exp(-t * eig) over the levels until the tail is negligible.

    Each weight is the previous one times step = exp(-t * gap), and step is
    updated by ratio = exp(-t * (gap_k - gap_{k-1})), recomputed only when that
    second difference changes: a quadratic spectrum costs two multiplications
    a level.  Step and ratio are B-bit int mantissas with binary exponents.
    The weight, relative to level 0's Boltzmann factor, is an int on the
    total's scale 2^-scale; when a product would leave it under B bits, the
    weight, the total and prev are shifted up together first.  Terms are then
    exact int multiples of B-bit weights, and the sum is exact.
    """
    # The 64 bits past the working precision absorb the (k+1)^2 * 2^(2-B)
    # rounding bound above for every k below the 2^21 level limit.
    bits = math.ceil((digits + 15) * math.log2(10)) + 64

    def exp_neg(x: Fraction) -> tuple[int, int]:
        # exp(-x) as a bits-bit mantissa and its binary exponent
        with mp.workprec(bits + 16 + (x.numerator // x.denominator).bit_length()):
            _, man, exp, bc = mp.exp(-mp.mpf(x.numerator) / x.denominator)._mpf_
        lift = bits - bc
        return (man << lift if lift >= 0 else man >> -lift), exp - lift

    tens = 10 ** digits
    eig0 = eig = eigenvalue(0)
    gap, d2 = 0, None
    step, step_exp = 1 << (bits - 1), 1 - bits
    weight = 1 << bits
    scale = bits
    total = prev = multiplicity(0) * weight
    for k in range(1, _MAX_TERMS + 1):
        eig_k = eigenvalue(k)
        new_gap = eig_k - eig
        if new_gap - gap != d2:
            d2 = new_gap - gap
            ratio, ratio_exp = exp_neg(t * d2)
        step = (step * ratio) >> (bits - 1)
        step_exp += ratio_exp + bits - 1
        if step >> bits:
            step >>= 1
            step_exp += 1
        product = weight * step
        shift = -step_exp
        lift = bits + shift - product.bit_length()
        if lift > 0:
            total <<= lift
            prev <<= lift
            scale += lift
            shift -= lift
        weight = product >> shift if shift >= 0 else product << -shift
        eig, gap = eig_k, new_gap
        term = multiplicity(k) * weight
        total += term
        # Past the peak, the term ratio r = term/prev of a convex spectrum with
        # polynomial multiplicities only falls, so the tail after this term is
        # at most term * r/(1 - r) < term/(1 - r) = term*prev/(prev - term).
        if term < prev and term * prev * tens < total * (prev - term):
            boltzmann0, exp0 = exp_neg(t * eig0)
            with mp.workdps(digits + 5):
                return mp.ldexp(mp.mpf(total * boltzmann0), exp0 - scale)
        prev = term
    raise SafetyLimitError(f"heat trace at t={float(t)} needs more than {_MAX_TERMS} terms")


def parse_document(text: str) -> tuple[dict, HeatSeries]:
    """The document and series of a ``coeffs`` JSON document; exact values round-trip.

    The ``validity`` column must be one gap: "exact" at n = 0, one flag on
    1..k-1, then "exact"; any other column fails.
    """
    doc = json.loads(text)
    coeffs = []
    flags = []
    with _any_int_digits():
        for entry in doc["coefficients"]:
            assert int(entry["pi_power"]) == 0, "normalized coefficients carry pi_power 0"
            coeffs.append(Fraction(int(entry["num"]), int(entry["den"])))
            flags.append(entry["validity"])
    prov = doc.get("provenance") or [""]
    gap = range(1, next((n for n, f in enumerate(flags) if n and f == "exact"), len(flags)))
    s = HeatSeries(coeffs, gap, flags[1] if gap else "unavailable", prov[0])
    assert s.validity == flags, f"the validity column is not one gap: {flags}"
    return doc, s


def normalization_reference(tree: dict) -> dict:
    """The ``normalization`` field of a ``coeffs`` document, by the CLI's former
    second walk over the parsed tree, kept as it was: peel the scales, pass
    through a dual, and label what is left."""
    scale = Fraction(1)
    node = tree
    while node["kind"] == "scale":
        scale *= Fraction(node["c2"])
        node = node["child"]
    if node["kind"] == "dual":
        inner = normalization_reference(node["child"])
        inner["scale"] = str(Fraction(inner["scale"]) * scale)
        return inner
    if node["kind"] != "atom":
        return {"label": "composite", "scale": str(scale)}
    family = node["family"]
    if family == "sphere":
        label = "unit_curvature"
    elif family in ("hyperbolic-odd", "su-star", "e6-f4", "complex-group"):
        label = "killing"
    else:
        label = "custom"
    return {"label": label, "scale": str(scale)}


def schoolbook_convolve(xs: list[Fraction], ys: list[Fraction], n_max: int) -> list[Fraction]:
    """Entries 0..n_max of the Cauchy product of xs and ys, by the schoolbook loop.

    The integer numerators over lcm(den xs) * lcm(den ys); entry n sums
    xs[i] * ys[n - i] over the i where both exist, in one ``sum(map(mul))``.
    """
    dx = math.lcm(*(Fraction(x).denominator for x in xs))
    dy = math.lcm(*(Fraction(y).denominator for y in ys))
    nx = [Fraction(x).numerator * (dx // Fraction(x).denominator) for x in xs]
    ny = [Fraction(y).numerator * (dy // Fraction(y).denominator) for y in ys]
    rev = ny[::-1]
    top = len(ny) - 1
    out = []
    for n in range(n_max + 1):
        lo = max(0, n - top)
        out.append(Fraction(sum(map(mul, nx[lo : n + 1], rev[top - n + lo :])), dx * dy))
    return out


def expand_linear_product(roots: list[Fraction]) -> list[Fraction]:
    """Coefficients of prod (s - root) as a dense list, constant first."""
    coeffs = [Fraction(1)]
    for r in roots:
        out = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            out[k + 1] += c
            out[k] -= c * r
        coeffs = out
    return coeffs


def even_part(coeffs: list[Fraction]) -> list[Fraction]:
    """Even-degree coefficients, asserting all odd ones vanish."""
    assert all(c == 0 for c in coeffs[1::2])
    return coeffs[0::2]


def harmonic_dimension(nvars: int, degree: int) -> int:
    """dim ker(Laplacian) on homogeneous degree-`degree` polynomials, by exact
    row reduction of the Laplacian matrix over the monomial basis."""
    def monomials(d):
        if d == 0:
            return [(0,) * nvars]
        out = []
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    dom = monomials(degree)
    if degree < 2:
        return len(dom)
    img = {e: i for i, e in enumerate(monomials(degree - 2))}
    rows = len(img)
    mat = [[Fraction(0)] * len(dom) for _ in range(rows)]
    for col, e in enumerate(dom):
        for i in range(nvars):
            if e[i] >= 2:
                down = list(e)
                down[i] -= 2
                mat[img[tuple(down)]][col] += e[i] * (e[i] - 1)
    # exact rank by Gaussian elimination
    rank = 0
    pivot_col = 0
    for r in range(rows):
        while pivot_col < len(dom):
            pivot_row = None
            for rr in range(rank, rows):
                if mat[rr][pivot_col] != 0:
                    pivot_row = rr
                    break
            if pivot_row is None:
                pivot_col += 1
                continue
            mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
            pv = mat[rank][pivot_col]
            for rr in range(rows):
                if rr != rank and mat[rr][pivot_col] != 0:
                    f = mat[rr][pivot_col] / pv
                    for cc in range(pivot_col, len(dom)):
                        mat[rr][cc] -= f * mat[rank][cc]
            rank += 1
            pivot_col += 1
            break
    return len(dom) - rank


def cp_direct(mbar: int, n: int) -> Fraction:
    """Direct transliteration of the complex-projective double sum (both
    parity branches), sharing no tables or caches with the package."""
    Bs = bernoulli_recurrence(2 * (n + mbar) + 4)

    def c(i):
        return Fraction((-1) ** i, i + 1) * Bs[2 * i + 2] * (1 - Fraction(1, 2 ** (2 * i + 1)))

    def dd(i):
        return Fraction((-1) ** i, i + 1) * Bs[2 * i + 2]

    # gamma table: square of prod_{k=1}^{mbar-1} (s + k - mbar/2)
    roots = [Fraction(k) - Fraction(mbar, 2) for k in range(1, mbar)] * 2
    gamma = even_part(expand_linear_product(roots))
    nu = n - mbar + 1
    first = Fraction(0)
    for j in range(mbar):
        e = nu + j + 1
        if e < 0:
            continue
        first += (
            math.factorial(j) * gamma[j] * Fraction(mbar * mbar, 4) ** e / math.factorial(e)
        )
    first *= Fraction(1, (mbar + 1) ** nu) if nu >= 0 else Fraction((mbar + 1) ** (-nu))
    second = Fraction(0)
    base = Fraction(mbar * mbar, 4 * (mbar + 1) ** 2)
    if mbar % 2 == 1:
        for k in range(nu + 1):
            for j in range(mbar):
                second += (
                    base ** k * (-1) ** j * gamma[j] * c(nu - k + j)
                    / (math.factorial(k) * math.factorial(nu - k))
                )
    else:
        for k in range(mbar):
            if nu - k < 0:
                continue
            for j in range(mbar):
                second += (
                    base ** k * Fraction(1, (mbar + 1) ** k) * (-1) ** j * gamma[j]
                    * dd(nu - k + j) / (math.factorial(k) * math.factorial(nu - k))
                )
    second *= Fraction((mbar + 1) ** nu) if nu >= 0 else Fraction(1, (mbar + 1) ** (-nu))
    pref = Fraction(1, math.factorial(mbar) * math.factorial(mbar - 1))
    return pref * (first + second)


def hp_direct(mbar: int, n: int) -> Fraction:
    """Direct transliteration of the quaternionic-projective double sum."""
    Bs = bernoulli_recurrence(2 * (n + 2 * mbar) + 4)

    def c(i):
        return Fraction((-1) ** i, i + 1) * Bs[2 * i + 2] * (1 - Fraction(1, 2 ** (2 * i + 1)))

    roots = []
    for i in range(mbar - 1):
        j = Fraction(2 * i + 1, 2)
        roots += [j, -j]
    for i in range(mbar - 2):
        j = Fraction(2 * i + 1, 2)
        roots += [j, -j]
    delta = even_part(expand_linear_product(roots))
    top = 2 * mbar - 3
    base = Fraction((2 * mbar - 1) ** 2, 8 * (mbar + 1))
    total = Fraction(0)
    for k in range(top + 1):
        e = n + top - k
        total += base ** (2 * e) * math.factorial(k) * delta[k] / math.factorial(e)
    for k in range(n - 2 * mbar + 3):
        for j in range(top + 1):
            total += (
                base ** k * (-1) ** j * delta[j] * c(j + n - k)
                / (math.factorial(k) * math.factorial(n - k))
            )
    return total / (math.factorial(2 * mbar - 1) * math.factorial(2 * mbar - 3))


# The Cayley-plane seed table, typed in from the tabulated closed form.
ETA = [
    Fraction(-8037225, 16384), Fraction(18455239, 4096),
    Fraction(-13020525, 1024), Fraction(2858418, 256),
    Fraction(-262075, 64), Fraction(10437, 16), Fraction(-170, 4), Fraction(1),
]


def op2_direct(n: int) -> Fraction:
    """Direct transliteration of the Cayley-plane double sum, no shared tables."""
    Bs = bernoulli_recurrence(2 * (n + 7) + 2)

    def c(i):
        return Fraction((-1) ** i, i + 1) * Bs[2 * i + 2] * (1 - Fraction(1, 2 ** (2 * i + 1)))

    total = Fraction(0)
    for k in range(8):
        total += (
            Fraction(121, 72) ** (n + 7 - k)
            * ETA[k]
            * math.factorial(k)
            / math.factorial(n + 7 - k)
        )
    for k in range(0, n - 7):
        inner = Fraction(0)
        for j in range(8):
            inner += (-1) ** j * ETA[j] * c(j + n - k)
        total += Fraction(121, 72) ** k * inner / (math.factorial(k) * math.factorial(n - k))
    return Fraction(6, math.factorial(7) * math.factorial(11)) * total


def spectral_exact(roots: list[Fraction], lead: Fraction, a: Fraction, rho_sq: Fraction,
                   n_max: int, Bs: list[Fraction]) -> list[Fraction]:
    """Normalized A_0..A_n_max of the spectrum j^2 - rho_sq over the lattice j in a + N.

    Level j has multiplicity p(j) = lead * prod (j - root) over ``roots``, an
    odd polynomial that vanishes at the lattice points below the first level,
    so the trace is e^{rho_sq t} sum_{j in a + N} p(j) e^{-t j^2} (the first
    case of Cahn & Wolf 1976).  By Mellin transform
    sum_j j^{2q+1} e^{-t j^2} ~ q!/(2 t^{q+1}) + sum_k (-t)^k/k! zeta_H(-2k-2q-1, a),
    with zeta_H(1-2r, a) = -B_{2r}(a)/(2r): (1 - 2^{1-2r}) B_{2r}/(2r) at
    a = 1/2 and -B_{2r}/(2r) at a = 1.  ``Bs`` must hold B_0..B_{2 n_max},
    e.g. from :func:`bernoulli_recurrence`.
    """
    poly = expand_linear_product(roots)
    assert all(x == 0 for x in poly[0::2]), "the multiplicity must be odd"
    c = [lead * x for x in poly[1::2]]  # c[q]: the coefficient of j^(2q+1)
    top = len(c) - 1  # the dimension is 2 (top + 1)
    assert a in (Fraction(1, 2), 1)

    def zeta(r):  # zeta_H(1 - 2r, a)
        scale = 1 - Fraction(1, 2 ** (2 * r - 1)) if a == Fraction(1, 2) else -1
        return scale * Bs[2 * r] / (2 * r)

    # t^(top + 1) * trace, without the exponential factor, as a power series in t
    g = [Fraction(0)] * (max(n_max, top) + 1)
    for q in range(top + 1):
        g[top - q] += c[q] * math.factorial(q) / 2
    for k in range(n_max - top):
        z = sum(c[q] * zeta(k + q + 1) for q in range(top + 1))
        g[k + top + 1] += Fraction((-1) ** k, math.factorial(k)) * z
    g = [x / g[0] for x in g]
    ex = [rho_sq ** i / math.factorial(i) for i in range(n_max + 1)]
    return schoolbook_convolve(ex, g, n_max)  # e^{rho_sq t} g(t), over one denominator


def rank1_spectrum(family: str, mbar: int) -> tuple[list[Fraction], Fraction, Fraction, Fraction]:
    """(roots, lead, a, rho_sq) of a compact rank-one space for :func:`spectral_exact`.

    Level k has eigenvalue k(k + 2 rho) = j^2 - rho^2 at j = k + rho, and the
    multiplicity of :func:`rank1_multiplicity` written in j:

    * S^{2 mbar}: rho = mbar - 1/2, multiplicity 2j prod_{l < mbar-1} (j^2 - (l + 1/2)^2)
      / (2 mbar - 1)!;
    * CP^mbar: rho = mbar/2, multiplicity (2j/mbar) prod_{i < mbar} (j - mbar/2 + i)^2
      / (mbar - 1)!^2;
    * HP^mbar: rho = mbar + 1/2, multiplicity 2j prod_{i=1}^{2 mbar} (j - rho + i)
      prod_{i=2}^{2 mbar-1} (j - rho + i) / ((2 mbar + 1)! (2 mbar - 1)!);
    * OP^2: rho = 11/2, multiplicity 12j prod_{i=1}^{10} (j - rho + i)
      prod_{i=4}^{7} (j - rho + i) / (7! 11!).

    Each is odd in j, and the lattice a + N (a = 1/2, or 1 for CP^{even})
    reaches below j = rho only at its roots.  The projective spaces carry four
    times the metric with sectional curvatures in [1, 4], whose eigenvalues
    are 4k(k + 2 rho).
    """
    fact = math.factorial
    if family == "sphere":
        rho = Fraction(2 * mbar - 1, 2)
        roots = [x for h in _halves(mbar - 1) for x in (h, -h)]
        lead = Fraction(2, fact(2 * mbar - 1))
    elif family == "complex_projective":
        rho = Fraction(mbar, 2)
        roots = [rho - i for i in range(1, mbar)] * 2
        lead = Fraction(2, mbar * fact(mbar - 1) ** 2)
    elif family == "quaternionic_projective":
        rho = Fraction(2 * mbar + 1, 2)
        roots = [rho - i for i in range(1, 2 * mbar + 1)] + [rho - i for i in range(2, 2 * mbar)]
        lead = Fraction(2, fact(2 * mbar + 1) * fact(2 * mbar - 1))
    else:
        assert family == "cayley_plane" and mbar == 2
        rho = Fraction(11, 2)
        roots = [rho - i for i in range(1, 11)] + [rho - i for i in range(4, 8)]
        lead = Fraction(12, fact(7) * fact(11))
    return [Fraction(0), *roots], lead, rho - math.floor(rho) or Fraction(1), rho ** 2


def rank1_multiplicity(family: str, mbar: int, k: int) -> Fraction:
    """The multiplicity of level k from its binomial form (Cahn & Wolf 1976)."""
    fact, comb = math.factorial, math.comb
    if family == "sphere":
        return comb(k + 2 * mbar, 2 * mbar) - comb(k + 2 * mbar - 2, 2 * mbar)
    if family == "complex_projective":
        return Fraction(2 * k + mbar, mbar) * comb(k + mbar - 1, mbar - 1) ** 2
    if family == "quaternionic_projective":
        return Fraction((2 * k + 2 * mbar + 1) * fact(k + 2 * mbar) * fact(k + 2 * mbar - 1),
                        fact(2 * mbar + 1) * fact(2 * mbar - 1) * fact(k) * fact(k + 1))
    assert family == "cayley_plane"
    return Fraction(6 * (2 * k + 11) * fact(k + 10) * fact(k + 7),
                    fact(7) * fact(11) * fact(k) * fact(k + 3))


def sphere_exact(mbar: int, n_max: int, Bs: list[Fraction]) -> list[Fraction]:
    """Normalized A_0..A_n_max of the unit sphere S^{2 mbar} from its spectrum.

    The sphere case of :func:`spectral_exact`: with j = k + mbar - 1/2 the
    eigenvalue k(k + 2 mbar - 1) is j^2 - (mbar - 1/2)^2, and the
    multiplicity vanishes at j = 1/2, ..., mbar - 3/2.
    """
    return spectral_exact(*rank1_spectrum("sphere", mbar), n_max, Bs)


def odd_sphere_multiplicity(mbar: int) -> list[Fraction]:
    """The multiplicity of the unit S^{2 mbar + 1} as an even polynomial in j, by
    its coefficients in j^2, constant first.

    Level k has eigenvalue k(k + 2 mbar) = j^2 - mbar^2 at j = k + mbar, and
    multiplicity (j / mbar) C(j + mbar - 1, 2 mbar - 1)
    = 2 j^2 prod_{i=1}^{mbar-1} (j^2 - i^2) / (2 mbar)!, which vanishes at
    every j with |j| < mbar.
    """
    roots = [Fraction(0), Fraction(0), *(x for i in range(1, mbar) for x in (i, -i))]
    lead = Fraction(2, math.factorial(2 * mbar))
    return [lead * x for x in even_part(expand_linear_product(roots))]


def odd_sphere_exact(mbar: int, n_max: int) -> list[Fraction]:
    """Normalized A_0..A_n_max of the unit S^{2 mbar + 1} from its spectrum.

    The second case of Cahn & Wolf (1976): the multiplicity p of
    :func:`odd_sphere_multiplicity` is even and vanishes at |j| < mbar, so the
    trace is e^{mbar^2 t} (1/2) sum_{j in Z} p(j) e^{-t j^2}.  By Poisson
    summation the lattice sum equals its Gaussian integral,
    sum_q c_q Gamma(q + 1/2) t^{-q-1/2} for p = sum_q c_q j^{2q}, up to terms
    O(e^{-pi^2/t}) that add nothing to the series.  So the normalized series is
    e^{mbar^2 t} Q(t), with Q(t) proportional to
    sum_q c_q Gamma(q + 1/2) / sqrt(pi) t^{mbar - q}, Gamma(q + 1/2) / sqrt(pi)
    = (2q)! / (4^q q!), and Q(0) = 1; its coefficients are summed term by term.
    """
    c = odd_sphere_multiplicity(mbar)
    moments = [x * Fraction(math.factorial(2 * q), 4 ** q * math.factorial(q))
               for q, x in enumerate(c)]
    q_poly = [moments[mbar - i] / moments[mbar] for i in range(mbar + 1)]
    kappa = Fraction(mbar * mbar)
    return [sum(q_poly[i] * kappa ** (n - i) / math.factorial(n - i)
                for i in range(min(n, mbar) + 1))
            for n in range(n_max + 1)]


def _halves(count: int) -> list[Fraction]:
    return [Fraction(2 * i + 1, 2) for i in range(count)]


def _table(roots: list[Fraction]) -> list[Fraction]:
    """Coefficients in s^2 of prod (s^2 - root^2)."""
    return even_part(expand_linear_product([x for j in roots for x in (j, -j)]))


def _cp_gamma(mbar: int) -> list[Fraction]:
    """The gamma table: square of prod_{k=1}^{mbar-1} (s + k - mbar/2), in s^2."""
    return even_part(expand_linear_product(
        [Fraction(k) - Fraction(mbar, 2) for k in range(1, mbar)] * 2))


def rank1_prefactor(family: str, mbar: int) -> tuple[Fraction, int]:
    """(pref, pi_power) of the tabulated a_n = pref * pi^pi_power * (boundary[n] + tail[n]).

    The package's rows drop this factor, which cancels from A_n; with it,
    pref * boundary[0] * pi^pi_power is the volume constant of the built-in
    normalization (the unit sphere's volume for the sphere rows).
    """
    fact = math.factorial
    if family == "sphere":
        return Fraction(4 ** mbar, fact(2 * mbar - 1)), mbar
    if family == "complex_projective":
        return Fraction(4 ** (mbar - 1), fact(mbar) * fact(mbar - 1)), mbar - 1
    if family == "quaternionic_projective":
        return Fraction(4 ** (2 * mbar - 2), fact(2 * mbar - 1) * fact(2 * mbar - 3)), 2 * mbar - 2
    assert family == "cayley_plane"
    return Fraction(6 * 4 ** 8, fact(7) * fact(11)), 8


def rank1_boundary_reference(family: str, mbar: int, n: int) -> Fraction:
    """The boundary part of a_n (prefactor applied, pi power dropped), summed per index.

    Direct transliteration of the four rank-one boundary sums,
    sum_j W_j B^(n + s_j) / (n + s_j)! over the j with n + s_j >= 0, one
    index at a time in Fractions; W_j, B and s_j are as in the table of the
    ``heattrace.rank1`` docstring.  The beta, gamma and delta tables are
    rebuilt from their roots; eta is the typed-in :data:`ETA`.
    """
    fact = math.factorial
    if family == "sphere":
        b = Fraction((2 * mbar - 1) ** 2, 4)
        terms = [(w, j + 1 - mbar) for j, w in enumerate(_table(_halves(mbar - 1)))]
    elif family == "complex_projective":
        b = Fraction(mbar * mbar, 4 * (mbar + 1))
        terms = [(w * (mbar + 1) ** (j + 1), j + 2 - mbar)
                 for j, w in enumerate(_cp_gamma(mbar))]
    elif family == "quaternionic_projective":
        b = Fraction((2 * mbar - 1) ** 2, 8 * (mbar + 1)) ** 2
        delta = _table(_halves(mbar - 1) + _halves(mbar - 2))
        terms = [(w, 2 * mbar - 3 - j) for j, w in enumerate(delta)]
    else:
        assert family == "cayley_plane"
        b = Fraction(121, 72)
        terms = [(w, 7 - j) for j, w in enumerate(ETA)]
    pref = rank1_prefactor(family, mbar)[0]
    return pref * sum(w * fact(j) * b ** (n + s) / fact(n + s)
                      for j, (w, s) in enumerate(terms) if n + s >= 0)


def rank1_tail_reference(family: str, mbar: int, n: int, Bs: list[Fraction]) -> Fraction:
    """The tail part of a_n (prefactor applied, pi power dropped), summed per index.

    Direct transliteration of the four rank-one double tail sums,
    sum_k b^k/k! * S(i - k)/(i - k)! with S the family inner sum, one index at
    a time in Fractions.  ``Bs`` must hold B_0..B_{2(n + 8) + 2}, e.g. from
    :func:`bernoulli_recurrence`.  The beta, gamma and delta tables are rebuilt
    from their roots; eta is the typed-in :data:`ETA`.
    """
    def c(i):
        return Fraction((-1) ** i, i + 1) * Bs[2 * i + 2] * (1 - Fraction(1, 2 ** (2 * i + 1)))

    def d(i):
        return Fraction((-1) ** i, i + 1) * Bs[2 * i + 2]

    def inner(tab, coeff, i):
        return sum((-1) ** j * w * coeff(i + j) for j, w in enumerate(tab))

    fact = math.factorial
    tail = Fraction(0)
    if family == "sphere":
        beta = _table(_halves(mbar - 1))
        b2 = Fraction((2 * mbar - 1) ** 2, 4)
        nu = n - mbar
        for k in range(nu + 1):
            tail += b2 ** (nu - k) * inner(beta, c, k) / (fact(k) * fact(nu - k))
        return tail * rank1_prefactor(family, mbar)[0]
    if family == "complex_projective":
        gamma = _cp_gamma(mbar)
        base = Fraction(mbar * mbar, 4 * (mbar + 1) ** 2)
        nu = n - mbar + 1
        if mbar % 2 == 1:
            for k in range(nu + 1):
                tail += base ** k * inner(gamma, c, nu - k) / (fact(k) * fact(nu - k))
        else:
            for k in range(min(mbar, nu + 1)):
                tail += (base / (mbar + 1)) ** k * inner(gamma, d, nu - k) / (
                    fact(k) * fact(nu - k))
        tail *= Fraction(mbar + 1) ** nu
        return tail * rank1_prefactor(family, mbar)[0]
    if family == "quaternionic_projective":
        delta = _table(_halves(mbar - 1) + _halves(mbar - 2))
        base = Fraction((2 * mbar - 1) ** 2, 8 * (mbar + 1))
        for k in range(n - 2 * mbar + 3):
            tail += base ** k * inner(delta, c, n - k) / (fact(k) * fact(n - k))
        return tail * rank1_prefactor(family, mbar)[0]
    assert family == "cayley_plane"
    for k in range(n - 7):
        tail += Fraction(121, 72) ** k * inner(ETA, c, n - k) / (fact(k) * fact(n - k))
    return tail * rank1_prefactor(family, mbar)[0]


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, a1 in p.items():
        for e2, a2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + a1 * a2
    return {e: a for e, a in out.items() if a}


def poly_substitute(p: dict, columns: list[list[Fraction]]) -> dict:
    """Substitute x_i = sum_j columns[i][j] * y_j into p, expanding every monomial.

    The expansion runs in ints: row i is scaled by the lcm D_i of its
    denominators and p by the lcm of its own, and every monomial's expansion
    is brought to the one denominator lcm(p) * prod_i D_i^top_i, top_i the
    largest exponent of x_i in p, before it is added in.
    """
    nvars = len(columns[0]) if columns else 0
    one = (0,) * nvars
    dens = [math.lcm(*(Fraction(c).denominator for c in col)) for col in columns]
    lin = [{tuple(int(k == j) for k in range(nvars)): int(c * den) for j, c in enumerate(col) if c}
           for col, den in zip(columns, dens)]
    top = [max((e[i] for e in p), default=0) for i in range(len(columns))]
    p_den = math.lcm(*(Fraction(a).denominator for a in p.values()))
    pow_cache = [[{one: 1}] for _ in lin]
    out: dict = {}
    for exps, a in p.items():
        term = {one: 1}
        scale = int(a * p_den)
        for i, e in enumerate(exps):
            while len(pow_cache[i]) <= e:
                pow_cache[i].append(_poly_mul(pow_cache[i][-1], lin[i]))
            if e:
                term = _poly_mul(term, pow_cache[i][e])
            scale *= dens[i] ** (top[i] - e)
        for e, c in term.items():
            out[e] = out.get(e, 0) + scale * c
    den = p_den * math.prod(d ** t for d, t in zip(dens, top))
    return {e: Fraction(a, den) for e, a in out.items() if a}


def root_density_reference(roots: list[tuple[int, ...]], shifts: range) -> dict:
    """prod_alpha prod_{h in shifts} (<alpha, x>^2 + h^2) on exponent tuples.

    Each factor is expanded from the linear form <alpha, x> by the tuple
    product :func:`_poly_mul`, one factor at a time.
    """
    n = len(roots[0])
    one = (0,) * n
    p = {one: 1}
    for alpha in roots:
        pairing = {tuple(int(k == i) for k in range(n)): a for i, a in enumerate(alpha) if a}
        square = _poly_mul(pairing, pairing)
        for h in shifts:
            p = _poly_mul(p, {**square, one: h * h} if h else square)
    return p


def model_coordinate_model(family: str, param=None):
    """A sum-zero built-in family (su_star, e6_f4, complex_group A) in r model coordinates.

    The realization is the sum-zero hyperplane of N = r + 1 ambient
    coordinates, parametrized by the first r of them (the last is minus their
    sum), so each root e_i - e_j pairs with lambda through the coefficients
    alpha_k - alpha_N, k < r.  With every root of multiplicity ``mult`` the
    Killing matrix is 2 * mult * (N I - J), which is c = 2 * mult * N times the
    identity on the hyperplane, and the dual Gram in model coordinates is the
    non-diagonal (sigma^2 / c) * (I + J).  The density is
    prod_alpha prod_{h < shifts} (<alpha, lambda>^2 + h^2) in Fractions.
    """
    if family == "su_star":
        n, mult, sigma, shifts = int(param), 4, 2, 2
    elif family == "e6_f4":
        n, mult, sigma, shifts = 3, 8, 2, 4
    else:
        assert family == "complex_group" and str(param)[0] == "A"
        n, mult, sigma, shifts = int(str(param)[1:]) + 1, 2, 1, 1
    r = n - 1
    one = (0,) * r
    p = {one: Fraction(1)}
    for i in range(n):
        for j in range(i + 1, n):
            alpha = [int(k == i) - int(k == j) for k in range(n)]
            pairing = {tuple(int(l == k) for l in range(r)): Fraction(alpha[k] - alpha[-1])
                       for k in range(r) if alpha[k] != alpha[-1]}
            square = _poly_mul(pairing, pairing)
            for h in range(shifts):
                p = _poly_mul(p, {**square, one: Fraction(h * h)} if h else square)
    scale = Fraction(sigma * sigma, 2 * mult * n)
    form = tuple(tuple(scale * (1 + int(a == b)) for b in range(r)) for a in range(r))
    rho = [Fraction(mult * (n - 1 - 2 * k), 2 * sigma) for k in range(r)]
    rho_sq = sum(rho[a] * form[a][b] * rho[b] for a in range(r) for b in range(r))
    return PlancherelModel(family, f"{family}:{param}:model-coordinates", r,
                           r + mult * n * (n - 1) // 2, p, form, rho_sq)


def closed_form_reference(model) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(kappa, P) of a Plancherel model by substitute-then-integrate.

    Substitutes the diagonalizing coordinates into the whole density with
    :func:`poly_substitute`, then sums the Gaussian moments (2h)!/(4^h h!) of
    the even monomials with the diagonal scale factors d_j^{-h} and
    normalizes P(0) = 1.  Raises ``DegenerateModelError`` when the leading
    moment vanishes.
    """
    T, d = diagonalize_form(model.form)
    p_diag = poly_substitute(model.p, [list(row) for row in T])
    H = (model.m - model.r) // 2
    moments = [Fraction(0)] * (H + 1)
    for exps, a in p_diag.items():
        if any(e % 2 for e in exps):
            continue
        contrib = a
        for j, e in enumerate(exps):
            h = e // 2
            contrib *= Fraction(math.factorial(2 * h), 4 ** h * math.factorial(h)) / d[j] ** h
        moments[sum(e // 2 for e in exps)] += contrib
    if moments[H] == 0:
        raise DegenerateModelError("density has zero leading moment")
    return -model.rho_sq, tuple(moments[H - h] / moments[H] for h in range(H + 1))
