"""Independent reimplementations used purely as test oracles.

Nothing here shares code paths with the package: Bernoulli numbers come from
the defining binomial recurrence instead of the tangent triangle, polynomial
products are expanded over the full linear factorization, harmonic
dimensions come from an exact kernel computation of the Laplacian on monomials,
and the unit-sphere coefficients come from the Hurwitz-zeta form of the
spectrum rather than from the closed-form tail sums.  Heat traces are summed
with one exponential per level out to a generous fixed cutoff instead of
the package's weight recurrence and tail bound.  The one exception is
:func:`closed_form_reference`, which takes its diagonalizing congruence from
``heattrace.plancherel.diagonalize_form`` and differs from the package in how
it substitutes: it expands every monomial of p(T y) in full.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath as mp

from heattrace.errors import DegenerateModelError
from heattrace.plancherel import diagonalize_form


def bernoulli_recurrence(n_top: int) -> list[Fraction]:
    """B_0..B_n_top from sum_{j<=n} C(n+1, j) B_j = 0 (B_1 = -1/2 convention)."""
    B = [Fraction(1)]
    for n in range(1, n_top + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * B[j]
        B.append(-acc / (n + 1))
    return B


def direct_heat_trace(spectrum, t, digits: int):
    """sum mult * exp(-t * eig) with one ``mp.exp`` per level.

    The spectrum's eigenvalues must increase.  Summation stops at the first
    level with t * eig past 3 * (digits + 12) * ln 10, where the Boltzmann
    factor is below 10^-(3 * (digits + 12)), far under what ``digits`` need.
    """
    t = Fraction(t)
    with mp.workdps(digits + 20):
        tt = mp.mpf(t.numerator) / t.denominator
        total = mp.mpf(0)
        k = 0
        while True:
            line = spectrum(k)
            eig = line.eigenvalue
            if k > 0 and t * eig > 3 * (digits + 12) * math.log(10):
                return total
            total += line.multiplicity * mp.exp(-tt * mp.mpf(eig.numerator) / eig.denominator)
            k += 1


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


def sphere_exact(mbar: int, n_max: int, Bs: list[Fraction]) -> list[Fraction]:
    """Normalized A_0..A_n_max of the unit sphere S^{2 mbar} from its spectrum.

    With j = k + mbar - 1/2 the eigenvalue k(k + 2 mbar - 1) is
    j^2 - (mbar - 1/2)^2 and the multiplicity is the odd polynomial
    P(j) = 2j prod_{l < mbar-1} (j^2 - (l + 1/2)^2) / (2 mbar - 1)!, which
    vanishes at j = 1/2, ..., mbar - 3/2, so the trace is
    e^{(mbar-1/2)^2 t} sum_{j in 1/2 + N} P(j) e^{-t j^2}.  By Mellin transform
    sum_j j^{2p+1} e^{-t j^2} ~ p!/(2 t^{p+1})
    + sum_k (-t)^k/k! zeta_H(-2k-2p-1, 1/2), with
    zeta_H(1-2q, 1/2) = (1 - 2^{1-2q}) B_{2q}/(2q).  ``Bs`` must hold
    B_0..B_{2 n_max}, e.g. from :func:`bernoulli_recurrence`.
    """
    roots = [Fraction(0)]
    for l in range(mbar - 1):
        h = Fraction(2 * l + 1, 2)
        roots += [h, -h]
    poly = expand_linear_product(roots)
    assert all(c == 0 for c in poly[0::2])
    c = [2 * x / math.factorial(2 * mbar - 1) for x in poly[1::2]]  # c[p]: j^(2p+1)

    def zeta_half(q):
        return (1 - Fraction(1, 2 ** (2 * q - 1))) * Bs[2 * q] / (2 * q)

    # t^mbar * trace, without the exponential factor, as a power series in t
    g = [Fraction(0)] * (n_max + 1)
    for p in range(mbar):
        g[mbar - 1 - p] += c[p] * math.factorial(p) / 2
    for k in range(n_max - mbar + 1):
        z = sum(c[p] * zeta_half(k + p + 1) for p in range(mbar))
        g[k + mbar] += Fraction((-1) ** k, math.factorial(k)) * z
    b = Fraction(2 * mbar - 1, 2) ** 2
    ex = [b ** i / math.factorial(i) for i in range(n_max + 1)]
    return [sum(ex[i] * g[n - i] for i in range(n + 1)) / g[0] for n in range(n_max + 1)]


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

    def halves(count):
        return [Fraction(2 * i + 1, 2) for i in range(count)]

    def table(roots):
        return even_part(expand_linear_product([x for j in roots for x in (j, -j)]))

    def inner(tab, coeff, i):
        return sum((-1) ** j * w * coeff(i + j) for j, w in enumerate(tab))

    fact = math.factorial
    tail = Fraction(0)
    if family == "sphere":
        beta = table(halves(mbar - 1))
        b2 = Fraction((2 * mbar - 1) ** 2, 4)
        nu = n - mbar
        for k in range(nu + 1):
            tail += b2 ** (nu - k) * inner(beta, c, k) / (fact(k) * fact(nu - k))
        return tail * Fraction(4 ** mbar, fact(2 * mbar - 1))
    if family == "complex_projective":
        roots = [Fraction(k) - Fraction(mbar, 2) for k in range(1, mbar)] * 2
        gamma = even_part(expand_linear_product(roots))
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
        return tail * Fraction(4 ** (mbar - 1), fact(mbar) * fact(mbar - 1))
    if family == "quaternionic_projective":
        delta = table(halves(mbar - 1) + halves(mbar - 2))
        base = Fraction((2 * mbar - 1) ** 2, 8 * (mbar + 1))
        for k in range(n - 2 * mbar + 3):
            tail += base ** k * inner(delta, c, n - k) / (fact(k) * fact(n - k))
        return tail * Fraction(4 ** (2 * mbar - 2), fact(2 * mbar - 1) * fact(2 * mbar - 3))
    assert family == "cayley_plane"
    for k in range(n - 7):
        tail += Fraction(121, 72) ** k * inner(ETA, c, n - k) / (fact(k) * fact(n - k))
    return tail * Fraction(6 * 4 ** 8, fact(7) * fact(11))


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, a1 in p.items():
        for e2, a2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + a1 * a2
    return {e: a for e, a in out.items() if a}


def poly_substitute(p: dict, columns: list[list[Fraction]]) -> dict:
    """Substitute x_i = sum_j columns[i][j] * y_j into p, expanding every monomial."""
    nvars = len(columns[0]) if columns else 0
    one = (0,) * nvars
    lin = [{tuple(int(k == j) for k in range(nvars)): Fraction(c) for j, c in enumerate(col) if c}
           for col in columns]
    pow_cache = [[{one: Fraction(1)}] for _ in lin]
    out: dict = {}
    for exps, a in p.items():
        term = {one: Fraction(a)}
        for i, e in enumerate(exps):
            while len(pow_cache[i]) <= e:
                pow_cache[i].append(_poly_mul(pow_cache[i][-1], lin[i]))
            if e:
                term = _poly_mul(term, pow_cache[i][e])
        for e, c in term.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: a for e, a in out.items() if a}


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
