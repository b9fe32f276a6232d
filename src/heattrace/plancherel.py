"""Polynomial-Plancherel models and their exponential-times-polynomial traces.

A :class:`PlancherelModel` packages the data that determines the heat-trace
series of a noncompact symmetric space whose spherical density is polynomial:
the rank r, the dimension m, the density polynomial p in r coordinates, the
inner-product Gram matrix on those coordinates, and the squared norm of the
half-sum of positive restricted roots.  :func:`closed_form` converts the
model to the pair (kappa, P) with trace series e^{kappa*t} * P(t), by exact
Gaussian-moment integration: diagonalize the form by a rational congruence,
drop monomials with an odd exponent (they integrate to zero), apply the
half-integer Gamma moments with the diagonal scale factors, and normalize so
P(0) = 1.  Every surviving constant (the sqrt(pi) powers, the Jacobian, the
common product of d_j^{-1/2}) cancels in that normalization, so the output
coefficients are exact rationals.

All inner products use the Killing normalization <X,Y> = -B(X, theta Y); the
Gram matrices and rho_sq values are derived from restricted root data, never
hard-coded, and the rank-one hyperbolic anchor rho_sq = 1/4 is asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DegenerateModelError, InvariantViolation, NotPositiveDefiniteError, UnsupportedSpaceError
from .exactnum import gauss_moment
from .series import EXACT, HeatSeries, dualize as _dualize_series, exp_times

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
Poly = dict[Monomial, Fraction]
Matrix = tuple[tuple[Fraction, ...], ...]


# --- small exact multivariate polynomial helpers ------------------------------


def _poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, a in q.items():
        v = out.get(e, Fraction(0)) + a
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, a1 in p.items():
        for e2, a2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, Fraction(0)) + a1 * a2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _poly_const(c: Fraction, nvars: int) -> Poly:
    return {(0,) * nvars: Fraction(c)} if c else {}

def _poly_linear(coeffs: list[Fraction]) -> Poly:
    n = len(coeffs)
    out: Poly = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * n
            e[i] = 1
            out[tuple(e)] = Fraction(c)
    return out


def _poly_degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


def _poly_substitute(p: Poly, columns: list[list[Fraction]]) -> Poly:
    """Substitute x_i = sum_j columns[i][j] * y_j into p (exact expansion)."""
    nvars = len(columns[0]) if columns else 0
    # cache powers of each substituted linear form
    lin = [_poly_linear(col) for col in columns]
    pow_cache: list[list[Poly]] = [[{(0,) * nvars: Fraction(1)}] for _ in lin]
    out: Poly = {}
    for exps, a in p.items():
        term = {(0,) * nvars: Fraction(a)}
        for i, e in enumerate(exps):
            while len(pow_cache[i]) <= e:
                pow_cache[i].append(_poly_mul(pow_cache[i][-1], lin[i]))
            if e:
                term = _poly_mul(term, pow_cache[i][e])
        out = _poly_add(out, term)
    return out


# --- model -------------------------------------------------------------------


@dataclass(frozen=True)
class PlancherelModel:
    """Spherical-density data of a polynomial-Plancherel symmetric space."""

    family: str
    label: str
    r: int
    m: int
    p: Poly
    form: Matrix
    rho_sq: Fraction
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("rank must be >= 1")
        if (self.m - self.r) % 2 != 0:
            raise InvariantViolation("m - r must be even for a polynomial density")
        if _poly_degree(self.p) != self.m - self.r:
            raise InvariantViolation(
                f"density degree {_poly_degree(self.p)} != m - r = {self.m - self.r}"
            )
        for i in range(self.r):
            for j in range(self.r):
                if self.form[i][j] != self.form[j][i]:
                    raise InvariantViolation("form matrix must be symmetric")


@dataclass(frozen=True)
class ExpPolyForm:
    """The trace-series generator e^{kappa*t} * P(t), P(0) = 1."""

    kappa: Fraction
    poly: tuple[Fraction, ...]
    m: int
    r: int

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


def _killing_scalar(roots: list[tuple[int, ...]], mults: list[int], sum_zero: bool) -> Fraction:
    """The constant c with B|a = c * (euclidean) on the realization subspace.

    Computed from M = 2 * sum mult * alpha alpha^T, asserting that M acts as
    c * Id on the subspace (sum-zero hyperplane or the full space).
    """
    n = len(roots[0])
    M = [[Fraction(0)] * n for _ in range(n)]
    for alpha, mult in zip(roots, mults):
        for i in range(n):
            if alpha[i] == 0:
                continue
            for j in range(n):
                if alpha[j]:
                    M[i][j] += 2 * mult * alpha[i] * alpha[j]
    if sum_zero:
        tests = []
        for a in range(n - 1):
            v = [Fraction(0)] * n
            v[a], v[a + 1] = Fraction(1), Fraction(-1)
            tests.append(v)
    else:
        tests = [[Fraction(int(i == a)) for i in range(n)] for a in range(n)]
    c: Fraction | None = None
    for v in tests:
        Mv = [sum(M[i][j] * v[j] for j in range(n)) for i in range(n)]
        for i in range(n):
            if v[i] == 0:
                continue
            ratio = Mv[i] / v[i]
            if c is None:
                c = ratio
            elif ratio != c:
                raise InvariantViolation("Killing form is not scalar on the realization")
        # also require Mv parallel to v on zero slots
        for i in range(n):
            if v[i] == 0 and Mv[i] != 0:
                raise InvariantViolation("Killing form is not scalar on the realization")
    assert c is not None and c > 0
    return c


def _model_gram(c: Fraction, sigma: int, r: int, sum_zero: bool) -> Matrix:
    """Dual Gram matrix in model coordinates (ambient = sigma * model)."""
    s2 = Fraction(sigma * sigma)
    rows = []
    for a in range(r):
        row = []
        for b in range(r):
            base = Fraction(1 if a == b else 0) + (Fraction(1) if sum_zero else Fraction(0))
            row.append(s2 * base / c)
        rows.append(tuple(row))
    return tuple(rows)


def _rho_sq(rho_model: list[Fraction], form: Matrix) -> Fraction:
    r = len(rho_model)
    total = Fraction(0)
    for a in range(r):
        for b in range(r):
            total += rho_model[a] * form[a][b] * rho_model[b]
    return total


def _reduced_linears(ncoords: int) -> list[Poly]:
    """Model linear forms L_1..L_N on the sum-zero realization (N coords, N-1 vars)."""
    r = ncoords - 1
    out = [_poly_linear([Fraction(int(i == a)) for i in range(r)]) for a in range(r)]
    out.append(_poly_linear([Fraction(-1)] * r))
    return out


def _shifted_square_product(pairs: list[Poly], shifts: list[int], nvars: int) -> Poly:
    """prod over linear forms ell of prod over h in shifts (ell^2 + h^2)."""
    p: Poly = {(0,) * nvars: Fraction(1)}
    for ell in pairs:
        ell2 = _poly_mul(ell, ell)
        for h in shifts:
            p = _poly_mul(p, _poly_add(ell2, _poly_const(Fraction(h * h), nvars)))
    return p


def build_family(family: str, param: int | str | None = None) -> PlancherelModel:
    """Construct a built-in polynomial-Plancherel model.

    Families: ``hyperbolic_odd`` (param mbar >= 1, the space H^{2 mbar + 1}),
    ``su_star`` (param mbar >= 2), ``e6_f4`` (no param), and
    ``complex_group`` (param like ``"A2"``; classical types A/B/C/D, rank <= 8).
    """
    if family == "hyperbolic_odd":
        mbar = int(param)  # type: ignore[arg-type]
        if mbar < 1:
            raise ValueError("hyperbolic_odd requires mbar >= 1")
        roots = [(1,)]
        mults = [2 * mbar]
        c = _killing_scalar(roots, mults, sum_zero=False)
        form = _model_gram(c, sigma=1, r=1, sum_zero=False)
        rho_model = [Fraction(mbar)]
        rho_sq = _rho_sq(rho_model, form)
        if mbar == 1 and rho_sq != Fraction(1, 4):
            raise InvariantViolation("rank-one hyperbolic anchor rho_sq = 1/4 failed")
        y = _poly_linear([Fraction(1)])
        p = _shifted_square_product([y], list(range(mbar)), 1)
        return PlancherelModel(
            family, f"hyperbolic_odd:{mbar}", 1, 2 * mbar + 1, p, form, rho_sq,
            notes=("rho_sq derived from restricted root data (Killing normalization)",),
        )

    if family == "su_star":
        mbar = int(param)  # type: ignore[arg-type]
        if mbar < 2:
            raise ValueError("su_star requires mbar >= 2")
        roots = []
        for i in range(mbar):
            for j in range(i + 1, mbar):
                v = [0] * mbar
                v[i], v[j] = 1, -1
                roots.append(tuple(v))
        mults = [4] * len(roots)
        c = _killing_scalar(roots, mults, sum_zero=True)
        r = mbar - 1
        form = _model_gram(c, sigma=2, r=r, sum_zero=True)
        rho_amb = [Fraction(0)] * mbar
        for alpha, mult in zip(roots, mults):
            for i in range(mbar):
                rho_amb[i] += Fraction(mult * alpha[i], 2)
        rho_model = [x / 2 for x in rho_amb[:r]]
        rho_sq = _rho_sq(rho_model, form)
        L = _reduced_linears(mbar)
        p: Poly = {(0,) * r: Fraction(1)}
        for i in range(mbar):
            for j in range(i + 1, mbar):
                diff = _poly_add(L[i], {e: -a for e, a in L[j].items()})
                diff2 = _poly_mul(diff, diff)
                p = _poly_mul(p, diff2)
                p = _poly_mul(p, _poly_add(diff2, _poly_const(Fraction(1), r)))
        return PlancherelModel(
            family, f"su_star:{mbar}", r, (mbar - 1) * (2 * mbar + 1), p, form, rho_sq,
            notes=("rho_sq derived from restricted root data (Killing normalization)",),
        )

    if family == "e6_f4":
        roots = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
        mults = [8, 8, 8]
        c = _killing_scalar(roots, mults, sum_zero=True)
        form = _model_gram(c, sigma=2, r=2, sum_zero=True)
        rho_amb = [Fraction(0)] * 3
        for alpha, mult in zip(roots, mults):
            for i in range(3):
                rho_amb[i] += Fraction(mult * alpha[i], 2)
        rho_model = [x / 2 for x in rho_amb[:2]]
        rho_sq = _rho_sq(rho_model, form)
        L = _reduced_linears(3)
        diffs = []
        for i in range(3):
            for j in range(i + 1, 3):
                diffs.append(_poly_add(L[i], {e: -a for e, a in L[j].items()}))
        p = _shifted_square_product(diffs, [0, 1, 2, 3], 2)
        return PlancherelModel(
            family, "e6_f4", 2, 26, p, form, rho_sq,
            notes=("rho_sq derived from restricted root data (Killing normalization)",),
        )

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
        if not 1 <= rank <= 8:
            raise ValueError("complex group rank must be between 1 and 8")
        if kind in ("B", "C") and rank < 2:
            raise ValueError(f"{kind}-type needs rank >= 2")
        if kind == "D" and rank < 3:
            raise ValueError("D-type needs rank >= 3 (D2 is not simple)")
        if kind == "A":
            roots = _a_positive_roots(rank)
            sum_zero = True
            m = (rank + 1) ** 2 - 1
        else:
            roots = _bcd_positive_roots(kind, rank)
            sum_zero = False
            m = rank * (2 * rank + 1) if kind in ("B", "C") else rank * (2 * rank - 1)
        mults = [2] * len(roots)
        c = _killing_scalar(roots, mults, sum_zero=sum_zero)
        form = _model_gram(c, sigma=1, r=rank, sum_zero=sum_zero)
        ncoords = rank + 1 if sum_zero else rank
        rho_amb = [Fraction(0)] * ncoords
        for alpha in roots:
            for i in range(ncoords):
                rho_amb[i] += alpha[i]
        rho_model = list(rho_amb[:rank])
        rho_sq = _rho_sq(rho_model, form)
        if sum_zero:
            L = _reduced_linears(ncoords)
        else:
            L = [_poly_linear([Fraction(int(i == a)) for i in range(rank)]) for a in range(rank)]
        p: Poly = {(0,) * rank: Fraction(1)}
        for alpha in roots:
            lin: Poly = {}
            for i, a_i in enumerate(alpha):
                if a_i:
                    lin = _poly_add(lin, {e: a_i * v for e, v in L[i].items()})
            p = _poly_mul(p, _poly_mul(lin, lin))
        if label == "A1" and rho_sq != Fraction(1, 4):
            raise InvariantViolation("complex A1 anchor rho_sq = 1/4 failed")
        return PlancherelModel(
            family, f"complex_group:{label}", rank, m, p, form, rho_sq,
            notes=("rho_sq derived from root data (Killing normalization); "
                   "density uses the squared root pairing with the half-sum shift dropped "
                   "(the shift's surviving part integrates to zero and would break the "
                   "rank-one consistency anchor)",),
        )

    raise UnsupportedSpaceError(f"unknown Plancherel family {family!r}")


# --- diagonalization and moments -----------------------------------------------


def diagonalize_form(model_or_matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Rational congruence T, diag d with T^T * form * T = diag(d), all d_j > 0.

    Accepts a model or a bare symmetric matrix.  Raises
    :class:`NotPositiveDefiniteError` when a pivot fails to be positive.
    """
    form = model_or_matrix.form if isinstance(model_or_matrix, PlancherelModel) else model_or_matrix
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
    T, d = diagonalize_form(model)
    columns = [[T[i][j] for j in range(model.r)] for i in range(model.r)]
    p_diag = _poly_substitute(model.p, columns)
    H = (model.m - model.r) // 2
    moments = [Fraction(0)] * (H + 1)
    for exps, a in p_diag.items():
        if any(e % 2 for e in exps):
            continue  # odd in some coordinate: integrates to zero
        h = sum(e // 2 for e in exps)
        contrib = a
        for j, e in enumerate(exps):
            hj = e // 2
            contrib *= gauss_moment(hj) * d[j] ** (-hj)
        moments[h] += contrib
    lead = moments[H]
    if lead == 0:
        raise DegenerateModelError(
            "density has zero leading moment; cannot normalize P(0) = 1"
        )
    poly = tuple(moments[H - h] / lead for h in range(H + 1))
    return ExpPolyForm(-model.rho_sq, poly, model.m, model.r)


def to_series(form: ExpPolyForm, n_max: int, dual: bool = False) -> HeatSeries:
    """Expand e^{kappa t} P(t) into coefficients A_0..A_{n_max}, exactly.

    With ``dual=True`` the compact-signature series e^{-kappa t} P(-t) is
    returned (coefficient sign flip at odd indices).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeffs = exp_times(form.kappa, list(form.poly), n_max)
    out = HeatSeries(coeffs, [EXACT] * (n_max + 1), f"exppoly(kappa={form.kappa})")
    return _dualize_series(out) if dual else out


# --- user-supplied models --------------------------------------------------------


def load_model_file(path: str | Path) -> PlancherelModel:
    """Read a model description from JSON (see README for the schema).

    Expected keys: ``r``, ``m``, ``rho_sq`` ("num/den" string or numberling),
    ``form`` (r x r nested lists of rational strings), and ``p`` (list of
    ``{"exponents": [...], "coeff": "num/den"}`` monomials).  Optional
    ``label``.
    """
    raw = json.loads(Path(path).read_text())
    r = int(raw["r"])
    m = int(raw["m"])
    rho_sq = Fraction(str(raw["rho_sq"]))
    form = tuple(
        tuple(Fraction(str(x)) for x in row) for row in raw["form"]
    )
    if len(form) != r or any(len(row) != r for row in form):
        raise ValueError("form matrix must be r x r")
    p: Poly = {}
    for mono in raw["p"]:
        exps = tuple(int(e) for e in mono["exponents"])
        if len(exps) != r:
            raise ValueError("each monomial needs exactly r exponents")
        coeff = Fraction(str(mono["coeff"]))
        if coeff:
            p[exps] = p.get(exps, Fraction(0)) + coeff
    label = str(raw.get("label", "custom"))
    return PlancherelModel("custom", label, r, m, p, form, rho_sq,
                           notes=("user-supplied model",))
