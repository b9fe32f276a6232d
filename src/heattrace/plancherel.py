"""Polynomial-Plancherel models and their exponential-times-polynomial traces.

A :class:`PlancherelModel` packages the data that determines the heat-trace
series of a noncompact symmetric space whose spherical density is polynomial:
the rank r, the dimension m, the density polynomial in N >= r coordinates,
the inner-product Gram matrix on those coordinates (N = len(form)), and the
squared norm of the half-sum of positive restricted roots.  :func:`closed_form`
converts the model to the pair (kappa, P) with trace series
e^{kappa*t} * P(t), by exact Gaussian-moment integration: diagonalize the
form by a unit upper-triangular rational congruence, substitute it into the
density as a sequence of shears, drop monomials with an odd exponent (they
integrate to zero), sum the half-integer Gamma moments with the diagonal
scale factors as integers over one shared denominator, and normalize so
P(0) = 1.  Every surviving constant (the sqrt(pi) powers, the Jacobian, the
common product of d_j^{-1/2}, and the Gaussian factor of any direction the
density is constant along) cancels in that normalization, so the output
coefficients are exact rationals.

Every built-in model keeps its factored root data: the density is
prod_alpha prod_h (<alpha, x>^2 + h^2) in the N ambient root coordinates,
where the form is a multiple of the identity, so the congruence is T = I and
no shear runs.  The A-type families live on the sum-zero hyperplane, so there
N = r + 1 and the density is constant along (1, ..., 1).  For the complex
groups every shift h is 0, so the density is homogeneous and P = 1 is read
from the root data with nothing expanded.  The other built-ins expand only
the even part of their integer density, the terms whose exponents are all
even, on packed monomials (one int per monomial, see :func:`_even_part`),
and sum the moments from those keys.  Model files give the
density as monomials; the shears serve their non-diagonal forms, and the
sheared density is packed once for the same moment loop.  ``model.p``, the
density as {exponent tuple: coefficient}, is expanded at each read and never
kept.

All inner products use the Killing normalization <X,Y> = -B(X, theta Y); the
Gram matrices and rho_sq values are derived from restricted root data, never
hard-coded, and the rank-one hyperbolic anchor rho_sq = 1/4 is asserted.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from pathlib import Path

from ._value import Frozen
from .errors import DegenerateModelError, InvariantViolation, NotPositiveDefiniteError, UnsupportedSpaceError
from .exactnum import parse_rational
from .series import HeatSeries, exp_times

__all__ = [
    "PlancherelModel",
    "ExpPolyForm",
    "build_family",
    "diagonalize_form",
    "closed_form",
    "to_series",
    "load_model_file",
]

Monomial = tuple[int, ...]
Poly = dict[Monomial, Fraction | int]
Packed = dict[int, Fraction | int]
Matrix = tuple[tuple[Fraction, ...], ...]


# --- exact multivariate polynomials on packed monomials ---------------------------
#
# A monomial of total degree at most D in N coordinates is one int: coordinate
# i's exponent sits in bits [w*i, w*(i+1)), with w = _width(D).  No exponent of
# a density of degree D, nor of a product of its factors, exceeds D < 2^w, so
# no carry crosses a field and a monomial product is one int addition.


def _width(degree: int) -> int:
    return max(degree.bit_length(), 1)


def _pack(p: Poly, w: int) -> Packed:
    return {sum(e << (w * i) for i, e in enumerate(exps)): a for exps, a in p.items()}


def _unpack(packed: Packed, n: int, w: int) -> Poly:
    mask = (1 << w) - 1
    return {tuple((k >> (w * i)) & mask for i in range(n)): a for k, a in packed.items()}


def _mul(p: Packed, q: Packed, odd: int = 0) -> Packed:
    """p * q on packed monomials, keeping only the products of terms with k1 & odd == k2 & odd.

    With ``odd`` the low bit of every field, those are exactly the terms whose
    exponents are all even (no field carries, so a field of k1 + k2 is even
    when the two fields agree in their low bit); with odd = 0, all of p * q.
    """
    classes: dict[int, list[tuple[int, Fraction | int]]] = {}
    for k2, a2 in q.items():
        classes.setdefault(k2 & odd, []).append((k2, a2))
    out: Packed = {}
    get = out.get
    for k1, a1 in p.items():
        for k2, a2 in classes.get(k1 & odd, ()):
            k = k1 + k2
            out[k] = get(k, 0) + a1 * a2
    for k in [k for k, a in out.items() if not a]:
        del out[k]
    return out


def _expand(roots: list[tuple[int, ...]], shifts: range, w: int) -> Packed:
    """prod_alpha prod_{h in shifts} (<alpha, x>^2 + h^2) on packed monomials of width w."""
    p: Packed = {0: 1}
    for alpha in roots:
        pairing = [(a, 1 << (w * i)) for i, a in enumerate(alpha) if a]
        square: Packed = {}
        for a, k in pairing:
            for b, l in pairing:
                square[k + l] = square.get(k + l, 0) + a * b
        for h in shifts:
            p = _mul(p, {**square, 0: h * h} if h else square)
    return p


def _even_part(roots: list[tuple[int, ...]], shifts: range, w: int, odd: int) -> Packed:
    """The terms of :func:`_expand` whose exponents are all even, ``odd`` the fields' low bits.

    The two halves of the roots are expanded apart, and :func:`_mul` pairs
    each term of the first with the terms of the second in its own parity
    class, so no term with an odd exponent is made.
    """
    half = len(roots) // 2
    return _mul(_expand(roots[:half], shifts, w), _expand(roots[half:], shifts, w), odd)


def _poly_degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


def _shear(p: Poly, i: int, j: int, c: Fraction) -> Poly:
    """p with x_i replaced by x_i + c * x_j, by the binomial expansion of each monomial."""
    out: Poly = {}
    for e, a in p.items():
        k = e[i]
        for l in range(k + 1):
            f = list(e)
            f[i], f[j] = k - l, e[j] + l
            f = tuple(f)
            out[f] = out.get(f, 0) + a * math.comb(k, l) * c ** l
    return {e: a for e, a in out.items() if a}


# --- model -------------------------------------------------------------------


class PlancherelModel(Frozen):
    """Spherical-density data of a polynomial-Plancherel symmetric space.

    The density is given either as ``p``, a dict {exponent tuple: coefficient},
    kept as its sorted ``monomials``, or, for the built-in families, as
    ``factors = (roots, shifts)``: the product over the roots alpha and the
    shifts h of (<alpha, x>^2 + h^2), on a diagonal form.  ``==``, ``hash``
    and ``repr`` read that given data; :attr:`p` expands the factors at each
    read, and :func:`closed_form` never reads it for a built-in.  A fault in
    the data (a density of the wrong shape or degree, an odd m - r, a form
    that is not square or not symmetric) raises ``ValueError``.
    """

    _fields = ("family", "label", "r", "m", "factors", "monomials", "form", "rho_sq", "notes")

    def __init__(self, family: str, label: str, r: int, m: int, p: Poly | None, form: Matrix,
                 rho_sq: Fraction, notes: tuple[str, ...] = (),
                 factors: tuple[list[tuple[int, ...]], range] | None = None) -> None:
        n = len(form)
        if any(len(row) != n for row in form):
            raise ValueError("form matrix must be square")
        if not 1 <= r <= n:
            raise ValueError(f"rank must be between 1 and the form's {n} coordinates")
        if factors is None:
            if any(len(e) != n for e in p):
                raise ValueError(f"each monomial needs exactly {n} exponents, "
                                 "one per form coordinate")
            if any(x < 0 for e in p for x in e):
                raise ValueError("monomial exponents must be nonnegative")
            degree = _poly_degree(p)
            monomials = tuple(sorted(p.items()))
        else:
            roots, shifts = factors
            if any(len(alpha) != n or not any(alpha) for alpha in roots):
                raise ValueError(f"each root needs {n} coordinates, not all zero")
            if any(form[i][j] for i in range(n) for j in range(n) if i != j):
                raise ValueError("a density given by root factors needs a diagonal form")
            degree = 2 * len(roots) * len(shifts)
            factors, monomials = (tuple(roots), shifts), None
        if (m - r) % 2 != 0:
            raise ValueError("m - r must be even for a polynomial density")
        if degree != m - r:
            raise ValueError(f"density degree {degree} != m - r = {m - r}")
        for i in range(n):
            for j in range(i):
                if form[i][j] != form[j][i]:
                    raise ValueError("form matrix must be symmetric")
        super().__init__(family=family, label=label, r=r, m=m, factors=factors,
                         monomials=monomials, form=form, rho_sq=rho_sq, notes=notes)

    @property
    def p(self) -> Poly:
        """The density as {exponent tuple: coefficient}, expanded from the factors at each read."""
        if self.factors is None:
            return dict(self.monomials)
        w = _width(self.m - self.r)
        return _unpack(_expand(*self.factors, w), len(self.form), w)


class ExpPolyForm(Frozen):
    """The trace-series generator e^{kappa*t} * P(t), P(0) = 1."""

    _fields = ("kappa", "poly", "m", "r")

    def __init__(self, kappa: Fraction, poly: tuple[Fraction, ...], m: int, r: int) -> None:
        super().__init__(kappa=kappa, poly=poly, m=m, r=r)

    @property
    def degree(self) -> int:
        deg = 0
        for h, c in enumerate(self.poly):
            if c:
                deg = h
        return deg

    @property
    def degree_bound(self) -> int:
        return (self.m - self.r) // 2

    @property
    def leading_t_exponent(self) -> Fraction:
        """Exponent of the leading small-t power of the unnormalized trace."""
        return -Fraction(self.m, 2)


# --- root-data constructions ---------------------------------------------------


def _a_positive_roots(rank: int) -> list[tuple[int, ...]]:
    n = rank + 1
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            roots.append(tuple(v))
    return roots


def _bcd_positive_roots(kind: str, rank: int) -> list[tuple[int, ...]]:
    roots = []
    for i in range(rank):
        for j in range(i + 1, rank):
            for s in (-1, 1):
                v = [0] * rank
                v[i], v[j] = 1, s
                roots.append(tuple(v))
    if kind == "B":
        for i in range(rank):
            v = [0] * rank
            v[i] = 1
            roots.append(tuple(v))
    elif kind == "C":
        for i in range(rank):
            v = [0] * rank
            v[i] = 2
            roots.append(tuple(v))
    return roots


def _killing_scalar(roots: list[tuple[int, ...]], mult: int, r: int) -> Fraction:
    """The constant c with B|a = c * (euclidean) on the realization subspace.

    The realization is all of the N ambient coordinates when r = N and the
    sum-zero hyperplane when r = N - 1; its orthogonal projector is
    I - (N - r)/N * J.  M = 2 * mult * sum alpha alpha^T must equal c times
    that projector, so c = trace(M) / r.
    """
    n = len(roots[0])
    c = Fraction(2 * mult * sum(a * a for alpha in roots for a in alpha), r)
    for i in range(n):
        for j in range(n):
            m_ij = 2 * mult * sum(alpha[i] * alpha[j] for alpha in roots)
            if m_ij != c * (int(i == j) - Fraction(n - r, n)):
                raise InvariantViolation("Killing form is not scalar on the realization")
    return c


_ROOT_NOTE = "rho_sq derived from restricted root data (Killing normalization)"


def _from_roots(family: str, label: str, roots: list[tuple[int, ...]], mult: int,
                sum_zero: bool, sigma: int, shifts: range, notes: str) -> PlancherelModel:
    """The model of the restricted roots ``roots``, each of multiplicity ``mult``.

    The roots and the dual variable lambda share the N ambient coordinates,
    with lambda in units of 1/sigma of the ambient dual.  So <alpha, lambda> =
    sum_i alpha_i lambda_i, and the density prod_alpha prod_{h in shifts}
    (<alpha, lambda>^2 + h^2) has integer coefficients and degree m - r, with
    m = r + sum of multiplicities.  The form is (sigma^2 / c) * I_N and
    rho = mult * sum(alpha) / (2 sigma), so rho_sq = (sigma^2 / c) * |rho|^2.
    On the sum-zero realization (the A-type families) r = N - 1: the density
    depends on differences only, so it is constant along (1, ..., 1), and
    that direction's Gaussian factor is common to every moment and cancels
    when P(0) is set to 1.  Otherwise r = N.
    """
    n = len(roots[0])
    r = n - 1 if sum_zero else n
    scale = sigma * sigma / _killing_scalar(roots, mult, r)
    form = tuple(tuple(scale if i == j else Fraction(0) for j in range(n)) for i in range(n))
    rho = [Fraction(mult * sum(alpha[i] for alpha in roots), 2 * sigma) for i in range(n)]
    model = PlancherelModel(family, label, r, r + mult * len(roots), None, form,
                            scale * sum(x * x for x in rho), notes=(notes,),
                            factors=(roots, shifts))
    anchor = _ANCHORS.get(label)
    if anchor is not None and model.rho_sq != Fraction(1, 4):
        raise InvariantViolation(f"{anchor} anchor rho_sq = 1/4 failed")
    return model


# The rank-one models whose rho_sq must be the hyperbolic anchor 1/4, by label.
_ANCHORS = {"hyperbolic_odd:1": "rank-one hyperbolic", "complex_group:A1": "complex A1"}

_COMPLEX_NOTE = ("rho_sq derived from root data (Killing normalization); "
                 "density uses the squared root pairing with the half-sum shift dropped "
                 "(the shift's surviving part integrates to zero and would break the "
                 "rank-one consistency anchor)")


def build_family(family: str, param: int | str | None = None) -> PlancherelModel:
    """Construct a built-in polynomial-Plancherel model, after the one check of
    (family, param).

    Families: ``hyperbolic_odd`` (param 1 <= mbar <= 500, the space H^{2 mbar + 1}),
    ``su_star`` (param 2 <= mbar <= 5), ``e6_f4`` (no param), and
    ``complex_group`` (param like ``"A2"``; classical types A (rank <= 5) and
    B/C/D (rank <= 6)).  Cheap, since no density is expanded, so the CLI
    builds every atom's model before any series.  On a 2-core box the CLI
    ``closed-form`` takes about 0.3 s on su_star:5 (the 22,308 even terms of
    its 276,063-term density) and 0.3 s on hyperbolic_odd:500; every complex
    group reads P = 1 from its root data and takes the CLI's start-up of
    about 0.1 s.  su_star:6 would run for minutes, so it is refused, and so
    are complex groups past those ranks: their closed form is cheap, but
    reading ``model.p`` of A6 expands a 1.39-million-term density.  In
    process, hyperbolic_odd:500 takes about 0.3 s to its closed form and
    1.1 s more to a series to n = 1000, and mbar = 1000 takes 2.7 s and
    3.3 s, so mbar > 500 is refused.
    """
    if family == "hyperbolic_odd":
        mbar = int(param)  # type: ignore[arg-type]
        if not 1 <= mbar <= 500:
            raise ValueError("hyperbolic_odd requires 1 <= mbar <= 500")
        return _from_roots(family, f"hyperbolic_odd:{mbar}", [(1,)], 2 * mbar, False, 1,
                           range(mbar), _ROOT_NOTE)

    if family == "su_star":
        mbar = int(param)  # type: ignore[arg-type]
        if not 2 <= mbar <= 5:
            raise ValueError("su_star requires 2 <= mbar <= 5")
        return _from_roots(family, f"su_star:{mbar}", _a_positive_roots(mbar - 1), 4, True, 2,
                           range(2), _ROOT_NOTE)

    if family == "e6_f4":
        return _from_roots(family, "e6_f4", _a_positive_roots(2), 8, True, 2, range(4),
                           _ROOT_NOTE)

    if family == "complex_group":
        label = str(param).strip().upper()
        if len(label) < 2 or label[0] not in "ABCDEFG":
            raise ValueError(f"bad complex group spec {param!r}; expected e.g. 'A2'")
        kind, rank = label[0], int(label[1:])
        if kind in "EFG":
            raise UnsupportedSpaceError(
                f"exceptional complex type {label} is not built in; "
                "supply root data through a model file instead"
            )
        top = 5 if kind == "A" else 6
        if not 1 <= rank <= top:
            raise ValueError(f"{kind}-type complex group rank must be between 1 and {top}")
        if kind in ("B", "C") and rank < 2:
            raise ValueError(f"{kind}-type needs rank >= 2")
        if kind == "D" and rank < 3:
            raise ValueError("D-type needs rank >= 3 (D2 is not simple)")
        roots = _a_positive_roots(rank) if kind == "A" else _bcd_positive_roots(kind, rank)
        return _from_roots(family, f"complex_group:{label}", roots, 2, kind == "A", 1,
                           range(1), _COMPLEX_NOTE)

    raise UnsupportedSpaceError(f"unknown Plancherel family {family!r}")


# --- diagonalization and moments -----------------------------------------------


def diagonalize_form(form: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Rational congruence T, diag d with T^T * form * T = diag(d), all d_j > 0.

    Raises :class:`NotPositiveDefiniteError` when a pivot fails to be positive.
    """
    n = len(form)
    A = [[Fraction(form[i][j]) for j in range(n)] for i in range(n)]
    # unit lower-triangular L with form = L diag(d) L^T; T = L^{-T}.  Plain
    # Gaussian elimination: each Schur complement of a symmetric matrix is
    # symmetric, so only the row updates are needed.
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d: list[Fraction] = []
    for k in range(n):
        pivot = A[k][k]
        if pivot <= 0:
            raise NotPositiveDefiniteError(f"pivot {k} is {pivot}; form is not positive definite")
        d.append(pivot)
        for i in range(k + 1, n):
            factor = A[i][k] / pivot
            L[i][k] = factor
            if factor:
                for j in range(k, n):
                    A[i][j] -= factor * A[k][j]
    # invert L^T (unit upper triangular) by back substitution
    T = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            s = Fraction(int(i == col))
            for k in range(i + 1, n):
                s -= L[k][i] * T[k][col]
            T[i][col] = s
    return tuple(tuple(row) for row in T), tuple(d)


def closed_form(model: PlancherelModel) -> ExpPolyForm:
    """Exact (kappa, P) with trace series e^{kappa t} P(t) and P(0) = 1.

    kappa = -rho_sq; P comes from Gaussian moments of the density polynomial
    in diagonalizing coordinates.  The coefficient of t^h collects the
    monomials of degree (m - r) - 2h, so the polynomial is the *reversal* of
    the moment array, and its constant term is the leading Weyl moment.
    """
    H = (model.m - model.r) // 2
    if model.factors is not None and not any(model.factors[1]):
        # Every shift is 0 (the complex groups): the density is homogeneous of
        # degree m - r and positive off a null set, so only the top moment
        # survives and P = 1.
        return ExpPolyForm(-model.rho_sq, (Fraction(1),) + (Fraction(0),) * H, model.m, model.r)
    T, d = diagonalize_form(model.form)
    w = _width(model.m - model.r)
    # A monomial with an odd exponent integrates to zero; one with all
    # exponents even has its half-exponents in the same fields of key >> 1.
    odd = sum(1 << (w * i) for i in range(len(d)))
    if model.factors is not None:
        packed = _even_part(*model.factors, w, odd)  # the form is diagonal: T = I
    else:
        # p(T y) for unit upper-triangular T: T is the product of its columns'
        # shears x_i -> x_i + T_ij x_j taken from the last column to the first.
        p_diag = model.p
        for j in range(len(T) - 1, 0, -1):
            for i in range(j):
                if T[i][j]:
                    p_diag = _shear(p_diag, i, j, T[i][j])
        packed = _pack(p_diag, w)
    # The moment of x^(2e) under weight e^{-d x^2} is g(e) d^(-e), with
    # g(e) = (2e-1)!!/2^e up to the common sqrt(pi/d).  With d_j = u_j/v_j,
    # a monomial of total degree 2h contributes a * prod_j (2e_j-1)!! v_j^e_j
    # u_j^(-e_j) / 2^h; times the common prod_j u_j^H and the lcm of the
    # density's denominators, every I_h below is an integer.  A sparse density
    # reads few of these factors, so each row fills an entry on first read
    # (every factor is positive, so 0 marks one not yet read).
    dfact = list(accumulate(range(1, 2 * H, 2), mul, initial=1))  # (2e-1)!!, e <= H
    rows = [[0] * (H + 1) for _ in d]
    scale = math.lcm(*(a.denominator for a in packed.values()))
    mask = (1 << w) - 1
    sums = [0] * (H + 1)
    for key, a in packed.items():
        if key & odd:
            continue
        key >>= 1
        term = a.numerator * (scale // a.denominator)
        h = 0
        for row, dj in zip(rows, d):
            e = key & mask
            if not row[e]:
                row[e] = dfact[e] * dj.denominator ** e * dj.numerator ** (H - e)
            term *= row[e]
            h += e
            key >>= w
        sums[h] += term
    lead = sums[H]
    if lead == 0:
        raise DegenerateModelError(
            "density has zero leading moment; cannot normalize P(0) = 1"
        )
    # moment_h = I_h / (2^h * common), so P_h = moment_(H-h) / moment_H = I_(H-h) 2^h / I_H;
    # a zero sum gives 0 without Fraction's gcd dividing the huge lead by itself
    poly = tuple(Fraction(x << h, lead) if x else Fraction(0)
                 for h, x in enumerate(reversed(sums)))
    return ExpPolyForm(-model.rho_sq, poly, model.m, model.r)


def to_series(form: ExpPolyForm, n_max: int) -> HeatSeries:
    """Expand e^{kappa t} P(t) into coefficients A_0..A_{n_max}, exactly.

    The series carries ``exppoly = (kappa, P)``, so products with it run on
    the short polynomial P (see :func:`heattrace.series.product`).  The
    compact dual's series e^{-kappa t} P(-t) is
    :func:`~heattrace.series.dualize` of this one.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeffs = exp_times(form.kappa, list(form.poly), n_max)
    return HeatSeries(coeffs, provenance=f"exppoly(kappa={form.kappa})",
                      exppoly=(form.kappa, form.poly))


# --- user-supplied models --------------------------------------------------------

# A model file's size is refused before any diagonalization or shear: the
# moment table grows with m - r, the elimination of a dense form with the cube
# of its coordinates, and the shears with C(m - r + N, N), the monomials of
# degree at most m - r in N coordinates.  Each limit was set so that a file at
# it finishes in about 1 s in a fresh CLI run on a shared 2-core box (README,
# "User-supplied models", has the measurements).
_MAX_FILE_DEGREE = 1000
_MAX_FILE_COORDINATES = 12
_MAX_FILE_SHEAR_TERMS = 10_000


def load_model_file(path: str | Path) -> PlancherelModel:
    """Read a model description from JSON (see README for the schema).

    Expected keys: ``r``, ``m``, ``rho_sq`` ("num/den" string or number),
    ``form`` (r x r nested lists of rational strings), and ``p`` (list of
    ``{"exponents": [...], "coeff": "num/den"}`` monomials).  Optional
    ``label``.  A missing key, a value of the wrong shape, or a rational that
    :func:`~heattrace.exactnum.parse_rational` refuses raises a
    ``ValueError`` that names the file and the key, and so does a model past
    the size limits above: m - r over 1000, more than 12 coordinates, or a
    non-diagonal form whose sheared density may pass 10,000 terms.  So does
    text the JSON decoder refuses, or nests past its recursion limit.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"model file {path}: cannot decode its JSON ({exc})") from None

    def read(obj, key: str, convert):
        try:
            return convert(obj[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"model file {path}: cannot read key {key!r} "
                             f"({type(exc).__name__}: {exc})") from None

    def integer(x):
        if type(x) is not int:  # a JSON integer: not a float, not a bool
            raise TypeError(f"{x!r} is not an integer")
        return x

    r = read(raw, "r", integer)
    if r > _MAX_FILE_COORDINATES:
        raise ValueError(f"model file {path}: {r} coordinates exceed the limit "
                         f"{_MAX_FILE_COORDINATES}")
    m = read(raw, "m", integer)
    if m - r > _MAX_FILE_DEGREE:
        raise ValueError(f"model file {path}: m - r = {m - r} exceeds the degree limit "
                         f"{_MAX_FILE_DEGREE}")
    rho_sq = read(raw, "rho_sq", lambda x: parse_rational(str(x)))

    def matrix(rows):
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError("form matrix must be r x r")
        return tuple(tuple(parse_rational(str(x)) for x in row) for row in rows)

    form = read(raw, "form", matrix)
    # with N = r coordinates, the term bound C(m - r + N, N) is C(m, r)
    diagonal = not any(form[i][j] for i in range(r) for j in range(r) if i != j)
    if not diagonal and m > r and math.comb(m, r) > _MAX_FILE_SHEAR_TERMS:
        raise ValueError(f"model file {path}: a non-diagonal form may shear the density into "
                         f"C(m, r) = {math.comb(m, r)} terms, past the limit "
                         f"{_MAX_FILE_SHEAR_TERMS}")
    p: Poly = {}
    for mono in read(raw, "p", list):
        exps = read(mono, "exponents", lambda es: tuple(integer(e) for e in es))
        coeff = read(mono, "coeff", lambda c: parse_rational(str(c)))
        if coeff:
            p[exps] = p.get(exps, Fraction(0)) + coeff
    label = str(raw.get("label", "custom"))
    return PlancherelModel("custom", label, r, m, p, form, rho_sq,
                           notes=("user-supplied model",))
