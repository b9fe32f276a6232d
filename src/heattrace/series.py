"""Truncated heat-coefficient series and their algebra.

A :class:`HeatSeries` holds the normalized coefficients A_0..A_N of a heat
trace expansion together with the one run of them that is not exact.  Three
operations mirror how the underlying spaces combine: Cauchy product
(Riemannian products), coefficient sign flip (compact/noncompact duality,
t -> -t), and geometric rescaling (homothety, t -> c2*t).

The two whole-series kernels, :func:`exp_times` and the Cauchy convolution
:func:`convolve`, work on integer numerators over one shared denominator and
reduce each output coefficient to lowest terms once, instead of paying a
``gcd`` on every term of an O(n^2) Fraction sum.  Their integer cores,
:func:`_cauchy` and :func:`exp_numerators`, are what
:mod:`heattrace.rank1` builds its tails with, so a rank-one coefficient is
reduced once in all.  :func:`_cauchy` is the one exact convolution:
:func:`product` calls it through :func:`convolve`, and so do the inner sums
of every tail in :mod:`heattrace.rank1` (a correlation of the seed table
with the lattice coefficients).  It multiplies by Toom-3 on the coefficient
index, five third-size products in place of nine, so two full series of
length n cost O(n^1.47) big-integer products instead of n^2/2.
:func:`exp_numerators` reads its generator in exponential form, k! y_k over
one denominator, so no factorial lands in that denominator.

A series may remember its closed form: ``exppoly = (kappa, P)`` states that
its coefficients are those of e^{kappa t} * P(t), with P a short polynomial
(the Plancherel families, see :func:`heattrace.plancherel.to_series`).
Duality and homothety map the pair, and :func:`product` uses it: the product
of two such series is e^{(ka + kb) t} * (Pa * Pb), and a general series A
times one is e^{kappa t} * (A * P), so neither convolves two full series.

Only one run A_1..A_{k-1} can be inexact, with one flag, ``unavailable`` or
``approximate``: a rank-one atom's indices below its family threshold, kept
by duality and homothety, and A_1..A_{n_max} of a product with such a factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from ._value import Value

EXACT = "exact"
APPROXIMATE = "approximate"
UNAVAILABLE = "unavailable"

__all__ = [
    "HeatSeries",
    "product",
    "convolve",
    "exp_times",
    "exp_numerators",
    "dualize",
    "rescale",
    "EXACT",
    "APPROXIMATE",
    "UNAVAILABLE",
]


class HeatSeries(Value):
    """Coefficients A_0..A_{n_max}, their one non-exact run, and provenance.

    ``gap`` is ``range(0)`` or ``range(1, k)`` with k <= n_max + 1: A_1..A_{k-1}
    are ``flag`` (``unavailable`` or ``approximate``), the rest exact, as
    ``validity`` spells out.  ``exppoly = (kappa, P)``, when known, states
    coeffs == exp_times(kappa, P, n_max); ``==`` and ``repr`` ignore it.
    """

    _fields = ("coeffs", "validity", "provenance")

    def __init__(self, coeffs: list[Fraction], gap: range = range(0), flag: str = UNAVAILABLE,
                 provenance: str = "",
                 exppoly: tuple[Fraction, tuple[Fraction, ...]] | None = None) -> None:
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("a series needs at least the index-0 coefficient")
        self.gap, self.flag = range(1, len(gap) + 1), flag
        if gap != self.gap or len(gap) > self.n_max or flag not in (UNAVAILABLE, APPROXIMATE):
            raise ValueError(f"a gap is range(0) or range(1, k) with k <= {len(self.coeffs)}, "
                             f"flagged {UNAVAILABLE} or {APPROXIMATE}; got {gap!r}, {flag!r}")
        self.provenance = provenance
        self.exppoly = exppoly

    @property
    def validity(self) -> list[str]:
        return [EXACT] + [self.flag] * len(self.gap) + [EXACT] * (self.n_max - len(self.gap))

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]


def _over_common_denominator(values: list[Fraction | int]) -> tuple[list[int], int]:
    """Integers ``nums`` and one ``den`` with ``values[i] == nums[i] / den``."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# Below this length of the shorter operand the schoolbook loop beats a split.
_LEAF = 4

# Toom-3 evaluates at x = 0, 1, -1, -2 and infinity (Bodrato and Zanoni,
# ISSAC 2007).  Inverting that evaluation, 6 a b is the sum over the five
# pointwise products w of w(t) * sum_j c_j x^j, with the (j, c_j) below: the
# inverse of Bodrato's interpolation sequence, whose divisions by 2 and 3
# become one exact division by 6.  A finite point x enters as (x, x^2), the
# value there being a0 + x a1 + x^2 a2.
_FOLD_0 = ((0, 6), (1, 3), (2, -6), (3, -3))
_FOLD_INF = ((1, -12), (2, -6), (3, 12), (4, 6))
_POINTS = (((1, 1), ((1, 2), (2, 3), (3, 1))),
           ((-1, 1), ((1, -6), (2, 3), (3, 3))),
           ((-2, 4), ((1, 1), (3, -1))))


def _cauchy(a: list[int], b: list[int], n: int) -> list[int]:
    """Entries 0..n of the Cauchy product of the integer lists a and b (fewer
    if the product is shorter).

    Toom-3 on the coefficient index: with a = a0 + x a1 + x^2 a2 and
    b = b0 + x b1 + x^2 b2 for x = t^h, h = ceil(len(a) / 3), the product is
    read back from its values at x = 0, 1, -1, -2 and infinity, five
    third-size products instead of nine.  The interpolation is folded in
    product by product: each is added, times its small integer weights
    (``_FOLD_0``, ``_FOLD_INF``, ``_POINTS``), into 6 times the truncated
    output and dropped, and one exact division by 6 ends it, so at most one
    sub-product is alive at a time; the folds and the division run in place,
    entry by entry, so no entry of the output is held twice.  Each sub-product is taken only to the
    entries that land at index <= n: w(0) to n, the others, which start at
    t^h, to n - h.  When the shorter operand has at most ``_LEAF`` entries,
    or fits twice into the longer one, the schoolbook loop runs, so a short
    operand costs O(n len(b)).
    """
    a, b = a[: n + 1], b[: n + 1]
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    size = min(n + 1, la + lb - 1)
    if lb <= _LEAF or 2 * lb <= la:
        rev = b[::-1]
        top = lb - 1
        return [sum(map(mul, a[max(0, k - top) : k + 1], rev[max(0, top - k) :]))
                for k in range(size)]
    h = (la + 2) // 3  # lb > h, so b1 is non-empty; b2 may be empty
    a0, a1, a2 = a[:h], a[h : 2 * h], a[2 * h :]
    b0, b1, b2 = b[:h], b[h : 2 * h], b[2 * h :]
    out = [0] * size

    def fold(w: list[int], weights: tuple[tuple[int, int], ...]) -> None:
        for j, c in weights:
            lo = j * h
            for k, v in enumerate(w[: max(0, size - lo)], lo):
                out[k] += c * v

    fold(_cauchy(a0, b0, n), _FOLD_0)
    if b2:
        fold(_cauchy(a2, b2, n - h), _FOLD_INF)
    for (x, x2), weights in _POINTS:
        fold(_cauchy([u + x * v + x2 * w for u, v, w in zip_longest(a0, a1, a2, fillvalue=0)],
                     [u + x * v + x2 * w for u, v, w in zip_longest(b0, b1, b2, fillvalue=0)],
                     n - h), weights)
    for k in range(size):
        out[k] //= 6
    return out


def convolve(xs: list[Fraction | int], ys: list[Fraction | int], n_max: int) -> list[Fraction]:
    """Entries 0..n_max of the Cauchy product of xs and ys (zero past their ends).

    The integer numerators over ``lcm(den xs) * lcm(den ys)`` go through the
    Toom-3 kernel :func:`_cauchy`, and each entry is reduced once.
    """
    xs, dx = _over_common_denominator(xs)
    ys, dy = _over_common_denominator(ys)
    den = dx * dy
    out = _cauchy(xs, ys, n_max)
    out += [0] * (n_max + 1 - len(out))
    for n, v in enumerate(out):
        out[n] = Fraction(v, den)
    return out


def product(a: HeatSeries, b: HeatSeries) -> HeatSeries:
    """Exact Cauchy product, truncated to the shorter operand.

    When both operands carry ``exppoly`` the result is
    ``exp_times(ka + kb, Pa * Pb)`` and carries that pair; when one does, it
    is ``exp_times(kappa, A * P)``, which holds for any A (gap and all) as an
    identity of formal series.  Two general series go through the full
    :func:`convolve`.  For n >= 1, A_n sums A_i B_{n-i} over i <= n and so
    reads A_1 of both factors: a gap in either makes A_1..A_{n_max} inexact,
    ``unavailable`` when either gap is, else ``approximate``.
    """
    n_max = min(a.n_max, b.n_max)
    gap = range(1, n_max + 1) if a.gap or b.gap else range(0)
    flag = APPROXIMATE if all(s.flag == APPROXIMATE for s in (a, b) if s.gap) else UNAVAILABLE
    exppoly = None
    if a.exppoly and b.exppoly:
        (ka, pa), (kb, pb) = a.exppoly, b.exppoly
        kappa, poly = ka + kb, tuple(convolve(pa, pb, min(n_max, len(pa) + len(pb) - 2)))
        coeffs, exppoly = exp_times(kappa, list(poly), n_max), (kappa, poly)
    elif a.exppoly or b.exppoly:
        (kappa, poly), other = (a.exppoly, b) if a.exppoly else (b.exppoly, a)
        coeffs = exp_times(kappa, convolve(other.coeffs[: n_max + 1], poly, n_max), n_max)
    else:
        coeffs = convolve(a.coeffs[: n_max + 1], b.coeffs[: n_max + 1], n_max)
    return HeatSeries(coeffs, gap, flag, f"product({a.provenance}, {b.provenance})", exppoly)


def exp_numerators(b: Fraction, egf: list[int], n_max: int) -> list[int]:
    """The integers V_0..V_{n_max} of e^{b t} times an exponential generator.

    For b = p/q in lowest terms and integers E_k = egf[k] (zero past the end),

        V_n = n! q^n [t^n] e^{b t} sum_k E_k t^k / k! = sum_k C(n, k) p^(n-k) q^k E_k,

    which the Pascal triangle row'[j] = p*row[j] + row[j+1], started from
    q^k E_k, builds as V_n = row_n[0]: n^2/2 products by the small integer
    p, no big-by-big products.  Rows keep only the entries later V_n still
    need, so a short generator costs O(n_max * len(egf)).  Entry n of the
    series is V_n / (n! q^n) times whatever the E_k are over.
    """
    p, q = b.numerator, b.denominator
    row, power = [], 1
    for x in egf[: n_max + 1]:
        row.append(power * x)
        power *= q
    out = [row[0]]
    for n in range(1, n_max + 1):
        row.append(0)
        row = [p * x + y for x, y in zip(row, row[1:])]
        del row[n_max - n + 1 :]
        out.append(row[0])
    return out


def exp_times(b: Fraction | int, ys: list[Fraction | int], n_max: int) -> list[Fraction]:
    """Coefficients 0..n_max of e^{b t} * sum_k ys[k] t^k, exactly.

    Entry n is sum_{k <= n} ys[k] b^(n-k) / (n-k)!, with ys[k] = 0 past the
    end of ``ys``.  The generator goes to :func:`exp_numerators` in
    exponential form, E_k = D k! ys[k] over the one denominator
    D = lcm(den k! ys[k]), so the k! of a generator whose entries carry 1/k!
    cancels before the Pascal rows instead of sitting in D and in every row
    entry; entry n is V_n / (D n! q^n), reduced once.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    b = Fraction(b)
    egf, scale = _over_common_denominator(
        [y * math.factorial(k) for k, y in enumerate(ys[: n_max + 1])])
    out = exp_numerators(b, egf, n_max)
    for n, v in enumerate(out):
        out[n] = Fraction(v, scale)
        scale *= b.denominator * (n + 1)
    return out


def dualize(a: HeatSeries) -> HeatSeries:
    """Sign flip A_n -> (-1)^n A_n (series of the curvature-flipped dual).

    A closed form (kappa, P(t)) becomes (-kappa, P(-t)).
    """
    coeffs = [c if n % 2 == 0 else -c for n, c in enumerate(a.coeffs)]
    exppoly = None
    if a.exppoly:
        kappa, poly = a.exppoly
        exppoly = (-kappa, tuple(c if h % 2 == 0 else -c for h, c in enumerate(poly)))
    return HeatSeries(coeffs, a.gap, a.flag, f"dual({a.provenance})", exppoly)


def rescale(a: HeatSeries, c2: Fraction | int) -> HeatSeries:
    """Homothety action A_n -> c2^n A_n for a positive rational c2.

    A closed form (kappa, P(t)) becomes (c2 * kappa, P(c2 * t)).
    """
    c2 = Fraction(c2)
    if c2 <= 0:
        raise ValueError("rescale factor must be positive")
    coeffs = []
    power = Fraction(1)
    for c in a.coeffs:
        coeffs.append(c * power)
        power *= c2
    exppoly = None
    if a.exppoly:
        kappa, poly = a.exppoly
        exppoly = (c2 * kappa, tuple(c * c2 ** h for h, c in enumerate(poly)))
    return HeatSeries(coeffs, a.gap, a.flag, f"scale({a.provenance}, {c2})", exppoly)
