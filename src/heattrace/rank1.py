"""Exact closed-form coefficient sequences for the compact rank-one families.

Four families are built in: even spheres S^{2mbar}, complex projective spaces
CP^mbar, quaternionic projective spaces HP^mbar, and the Cayley plane OP^2.
Each coefficient a_n is an exact rational times a fixed power of pi
(:class:`ScaledRational`); the normalized coefficients A_n = a_n / Vol are
pure rationals because the pi powers cancel.

Every family is one row of data (:class:`_Row`), and one builder,
:func:`_build`, turns a row into two vectors, so that

    a_n = pref * pi^pi_power * (boundary[n] + tail[n]).

* The boundary is the finite sum  sum_j W_j B^(n+s_j) / (n+s_j)!  with
  W_j = table[j] * j! * h^(j+1) over the family's seed table.  These are the
  coefficients of e^{B t} times a polynomial, so the whole vector is one
  :func:`exp_times`.
* The tail is  sum_k base^k/k! * h^i S(i)/i!  at i = n - start - k, the
  binomial convolution of e^{base t} with the inner sums
  S(i) = sum_j (-1)^j table[j] coeff(i + j), taken from i = lo on (zero
  below), so it is one :func:`exp_times` too.  The inner sums are the
  correlation of the signed table with the coefficient vector, one
  :func:`~heattrace.series.convolve`.  Every term of every inner sum shares
  the row's sign (the no-cancellation invariant).  It is checked once per
  table, against the table's sign law, and once per coefficient vector, for
  positivity; together these cover every term of every double sum.

====== ============== ======================= ========= ======= ====== ==== ======
family B              W_j / j!                s_j       base    start  lo   sign
====== ============== ======================= ========= ======= ====== ==== ======
sphere (2m-1)^2/4     beta_j                  j+1-m     B       m      0    (-1)^(m-1)
cp     m^2/(4(m+1))   gamma_j (m+1)^(j+1)     j+2-m     B       m-1    0    +1 / -1
hp     base^2         delta_j                 2m-3-j    q       0      2m-2 -1
op2    121/72         eta_j                   7-j       B       0      8    -1
====== ============== ======================= ========= ======= ====== ==== ======

with q = (2m-1)^2/(8(m+1)).  The cp inner sums carry h^i = (m+1)^i and run
over c-coefficients (odd m) or d-coefficients (even m).  The even-m cp tail is
the one irregular row: it keeps only the k < m terms of the exponential, with
base B/(m+1), so it is the truncated Cauchy product of those m terms with
h^i S(i)/i!, one :func:`~heattrace.series.convolve`.

Every accessor (:func:`rank1_series`, :func:`coefficient`, :func:`volume`,
:func:`tail_split`, the ``*_an`` functions) is a view of one cache of these
vectors per (family, mbar), behind the one check of (family, mbar) in
:func:`_row`.  A request past the cached depth rebuilds to the larger of that
index and twice the depth, so per-index calls at rising n cost O(log n) builds.

The tail sums are only valid from a family-specific threshold index onward;
requesting a_n below the threshold raises :class:`BelowThresholdError` (use
the spectral oracle for those indices).  The tail is zero at n = 0, so
boundary[0] * pref is the volume constant that makes A_0 = 1
(:func:`volume`), and A_n = (boundary[n] + tail[n]) / boundary[0].

Normalizations.  The sphere family is the unit-radius round sphere (validated
against the spectral oracle).  The projective families follow their published
closed-form tabulations as given; their homothety class relative to the
Fubini-Study spectra is not pinned here, so oracle comparisons for them are
calibration-and-report only (see README).  The even-mbar complex projective
branch is eventually negative by construction, while the direct spectral
expansion of CP^{even} is positive; the discrepancy is inherited from the
tabulated formula and is surfaced, never patched silently.

The tabulated HP^M boundary raises base^2 where its tail raises base.  It is
kept as tabulated, as the independent transliteration in the tests reads it,
until an exact HP^M spectral oracle settles which is right.  With it the
volume constant boundary[0] * pref is positive only for M = 2, 3 and 5 of
the M up to 60, so :class:`SpaceModel` refuses an hp model whose n = 0
boundary entry is not positive.  It reads that entry alone, as one integer
sum (:func:`_boundary_at_zero`), not through the cache, so the refusal stays
cheap: hp:500 takes about 0.7 s, against 7 s for the boundary vector to
n = 0 (a shared 2-core box).  The other rows need no check: boundary[0] is
(m-1)! for the sphere, (m+1)^m (m-2)! (m-1) m / 6 for cp, and a fixed
positive constant for op2.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import BelowThresholdError, InvariantViolation, UnsupportedSpaceError
from .exactnum import c_coeff, d_coeff
from .seedpolys import (SignedTable, beta_table, delta_table, eta_table, expected_signs,
                        gamma_table)
from .series import APPROXIMATE, EXACT, UNAVAILABLE, HeatSeries, convolve, exp_times

__all__ = [
    "ScaledRational",
    "SpaceModel",
    "FAMILIES",
    "even_sphere_an",
    "cp_an",
    "hp_an",
    "op2_an",
    "volume",
    "coefficient",
    "threshold",
    "rank1_series",
    "tail_split",
]

FAMILIES = ("sphere", "complex_projective", "quaternionic_projective", "cayley_plane")

_fact = math.factorial


@dataclass(frozen=True)
class ScaledRational:
    """An exact value rational * pi^pi_power; zero carries pi^0."""

    rational: Fraction
    pi_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rational", Fraction(self.rational))
        if self.rational == 0:
            object.__setattr__(self, "pi_power", 0)

    def sign(self) -> int:
        if self.rational > 0:
            return 1
        return -1 if self.rational < 0 else 0

    def __float__(self) -> float:
        return float(self.rational) * math.pi ** self.pi_power

    def as_fraction(self) -> Fraction:
        if self.pi_power != 0 and self.rational != 0:
            raise ValueError(f"value carries pi^{self.pi_power}, not a plain rational")
        return self.rational


@dataclass(frozen=True)
class SpaceModel:
    """A compact rank-one space in its family's built-in normalization.

    The noncompact dual and the homotheties are operations on the coefficient
    series, :func:`~heattrace.series.dualize` and
    :func:`~heattrace.series.rescale`, applied to :func:`rank1_series`.
    """

    family: str
    mbar: int

    def __post_init__(self) -> None:
        row = _row(self.family, self.mbar)
        if self.family == "quaternionic_projective" and _boundary_at_zero(row, row.table()) <= 0:
            raise UnsupportedSpaceError(
                f"the tabulated HP^M closed form has a non-positive volume constant "
                f"for M = {self.mbar}, so hp:{self.mbar} cannot be normalized"
            )

    @property
    def dimension(self) -> int:
        return {
            "sphere": 2 * self.mbar,
            "complex_projective": 2 * self.mbar,
            "quaternionic_projective": 4 * self.mbar,
            "cayley_plane": 16,
        }[self.family]

    @property
    def threshold(self) -> int:
        return threshold(self.family, self.mbar)


# --- family rows -------------------------------------------------------------


@dataclass(frozen=True)
class _Row:
    """One family's closed form as data; the fields are named as in the module docstring."""

    table: Callable[[], SignedTable]  # builds the seed table
    b: Fraction
    shifts: range                     # s_j, one per table entry
    base: Fraction
    lo: int
    sign: int
    pref: Fraction
    pi_power: int
    thr: int
    h: int = 1
    coeff: Callable[[int], Fraction] = c_coeff
    start: int = 0
    terms: int | None = None          # exponential terms kept in the tail (None: all)


# Spec atom names ("sphere:M", "cp:M", "hp:M", "op2"), as the CLI and verify read them.
ATOMS = {"sphere": "sphere", "cp": "complex_projective", "hp": "quaternionic_projective",
         "op2": "cayley_plane"}


def atom_model(name: str, param: str | None) -> SpaceModel:
    """The model of the spec atom ``name:param``; op2 takes no parameter."""
    return SpaceModel(ATOMS[name], 2 if name == "op2" else int(param))


def _row(family: str, m: int) -> _Row:
    """The row of (family, m), after the one check of the pair; cheap, since the
    seed table is built only on demand."""
    if family not in FAMILIES:
        raise UnsupportedSpaceError(f"unknown rank-one family {family!r}")
    if family == "cayley_plane" and m != 2:
        raise ValueError("the Cayley plane is only defined for mbar = 2")
    lo = 1 if family == "sphere" else 2
    if m < lo:
        raise ValueError(f"{family} requires mbar >= {lo}")
    if family == "sphere":
        b = Fraction((2 * m - 1) ** 2, 4)
        return _Row(table=lambda: beta_table(m), b=b, shifts=range(1 - m, 1), base=b,
                    lo=0, sign=(-1) ** (m - 1), pref=Fraction(4 ** m, _fact(2 * m - 1)),
                    pi_power=m, thr=m, start=m)
    if family == "complex_projective":
        odd = m % 2 == 1
        b = Fraction(m * m, 4 * (m + 1))
        return _Row(table=lambda: gamma_table(m), b=b, shifts=range(2 - m, 2),
                    base=b if odd else b / (m + 1), lo=0, sign=1 if odd else -1,
                    pref=Fraction(4 ** (m - 1), _fact(m) * _fact(m - 1)),
                    pi_power=m - 1, thr=m - 1, h=m + 1, coeff=c_coeff if odd else d_coeff,
                    start=m - 1, terms=None if odd else m)
    if family == "quaternionic_projective":
        base = Fraction((2 * m - 1) ** 2, 8 * (m + 1))
        return _Row(table=lambda: delta_table(m), b=base ** 2,
                    shifts=range(2 * m - 3, -1, -1), base=base, lo=2 * m - 2, sign=-1,
                    pref=Fraction(4 ** (2 * m - 2), _fact(2 * m - 1) * _fact(2 * m - 3)),
                    pi_power=2 * m - 2, thr=2 * m - 2)
    b = Fraction(121, 72)  # the Cayley plane
    return _Row(table=eta_table, b=b, shifts=range(7, -1, -1), base=b, lo=8, sign=-1,
                pref=Fraction(6 * 4 ** 8, _fact(7) * _fact(11)), pi_power=8, thr=7)


def threshold(family: str, mbar: int) -> int:
    """First index at which the family's closed form is valid."""
    return _row(family, mbar).thr


# --- the builder -------------------------------------------------------------


def _boundary(row: _Row, table: SignedTable, n_max: int) -> list[Fraction]:
    """boundary[0..n_max]; entry n is entry n + max(s) of e^{B t} * sum_j W_j t^(max(s) - s_j)."""
    top = max(row.shifts)
    ys = [Fraction(0)] * len(table)
    for j, (w, s) in enumerate(zip(table.values, row.shifts)):
        ys[top - s] = w * _fact(j) * row.h ** (j + 1)
    return exp_times(row.b, ys, n_max + top)[top:]


def _boundary_at_zero(row: _Row, table: SignedTable) -> Fraction:
    """boundary[0] = sum of W_j B^(s_j) / s_j! over the s_j >= 0, as one integer sum.

    Equals ``_boundary(row, table, 0)[0]`` without running the exponential to
    max(s): with B = p/q and D = lcm(den W), term j is D W_j g[s_j] over
    D g[0], where g[s] = p^s q^(top-s) top!/s! is an integer and
    g[s] = g[s-1] p / (q s) exactly.
    """
    top = max(row.shifts)
    p, q = row.b.numerator, row.b.denominator
    g = [q ** top * _fact(top)]
    for s in range(1, top + 1):
        g.append(g[-1] * p // (q * s))
    ws = [w * _fact(j) * row.h ** (j + 1) for j, w in enumerate(table.values)]
    den = math.lcm(*(w.denominator for w in ws))
    total = sum(w.numerator * (den // w.denominator) * g[s]
                for w, s in zip(ws, row.shifts) if s >= 0)
    return Fraction(total, den * g[0])


def _inner_sums(table: SignedTable, coeff_fn, lo: int, i_max: int,
                expect_sign: int) -> list[Fraction]:
    """S(0..i_max), S(i) = sum_j (-1)^j table[j] coeff_fn(i + j) from i = lo on, else 0.

    With K = len(table) and u[K - 1 - j] = (-1)^j table[j], S(i) is entry
    i - lo + K - 1 of the Cauchy product of u with coeff_fn(lo..i_max + K - 1),
    so the whole vector is one :func:`convolve`.  Every term has
    ``expect_sign`` exactly when the table obeys its sign law, (-1)^j times
    that law is ``expect_sign`` on every nonzero entry, and every coefficient
    read is positive; both checks run once here.
    """
    if i_max < lo:
        return [Fraction(0)] * (i_max + 1)
    k = len(table)
    for j, (w, sign) in enumerate(zip(table.values, expected_signs(table))):
        if (w > 0) - (w < 0) != sign or (sign != 0 and (-1) ** j * sign != expect_sign):
            raise InvariantViolation(f"tail term sign violated for {table.family} at j={j}")
    coeff_fn(i_max + k - 1)  # size the coefficient caches once
    cs = [coeff_fn(i) for i in range(lo, i_max + k)]
    bad = next((i for i, c in enumerate(cs, lo) if c <= 0), None)
    if bad is not None:
        raise InvariantViolation(f"lattice coefficient {bad} of {table.family} is not positive")
    u = [(-1) ** j * w for j, w in enumerate(table.values)][::-1]
    return [Fraction(0)] * lo + convolve(u, cs, i_max - lo + k - 1)[k - 1:]


def _tail(row: _Row, table: SignedTable, n_max: int) -> list[Fraction]:
    """tail[0..n_max], zero below index start + lo."""
    nu_max = n_max - row.start
    if nu_max < 0:
        return [Fraction(0)] * (n_max + 1)
    inner = _inner_sums(table, row.coeff, row.lo, nu_max, row.sign)
    ys = [row.h ** i * s / _fact(i) for i, s in enumerate(inner)]
    if row.terms is None:
        tail = exp_times(row.base, ys, nu_max)
    else:  # the even-mbar cp tail keeps only the terms k < row.terms of e^{base t}
        tail = convolve(ys, [row.base ** k / _fact(k) for k in range(row.terms)], nu_max)
    return [Fraction(0)] * row.start + tail


def _build(family: str, mbar: int, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """The unprefactored (boundary, tail) vectors of a_0..a_{n_max}, from one seed table."""
    row = _row(family, mbar)
    table = row.table()
    return _boundary(row, table, n_max), _tail(row, table, n_max)


# The one cache: (boundary, tail) per (family, mbar), read and written only by _vectors.
_tail_cache: dict[tuple[str, int], tuple[list[Fraction], list[Fraction]]] = {}


def _vectors(family: str, mbar: int, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """The (boundary, tail) vectors of (family, mbar) to at least n_max.

    A miss rebuilds to max(n_max, 2 * cached depth): a first build is exactly
    as deep as asked (``rank1_series`` knows its depth), and per-index calls
    at rising n cost O(log n) builds.
    """
    key = (family, mbar)
    hit = _tail_cache.get(key)
    depth = -1 if hit is None else len(hit[0]) - 1
    if n_max > depth:
        hit = _tail_cache[key] = _build(family, mbar, max(n_max, 2 * depth))
    return hit


# --- accessors ---------------------------------------------------------------


def tail_split(family: str, mbar: int, n: int) -> tuple[ScaledRational, ScaledRational]:
    """The (boundary-sum, tail-sum) parts of a_n, each with the prefactor applied.

    Exposed for the decay diagnostics: the boundary part tends to zero while
    the tail part carries the factorial growth.
    """
    row = _row(family, mbar)
    if n < 0:
        raise ValueError("n must be nonnegative")
    boundary, tail = _vectors(family, mbar, n)
    return (ScaledRational(boundary[n] * row.pref, row.pi_power),
            ScaledRational(tail[n] * row.pref, row.pi_power))


def _an(family: str, mbar: int, n: int) -> ScaledRational:
    row = _row(family, mbar)
    if n < row.thr:
        raise BelowThresholdError(
            f"{family}:{mbar} closed form needs n >= {row.thr} (got n={n}); "
            "use the spectral oracle for lower indices"
        )
    boundary, tail = _vectors(family, mbar, n)
    return ScaledRational((boundary[n] + tail[n]) * row.pref, row.pi_power)


def even_sphere_an(mbar: int, n: int) -> ScaledRational:
    """a_n of the unit even-dimensional sphere S^{2mbar}, exact, for n >= mbar."""
    return _an("sphere", mbar, n)


def cp_an(mbar: int, n: int) -> ScaledRational:
    """a_n of the complex projective family, exact, for n >= mbar - 1.

    The parity of mbar selects the branch: odd mbar sums half-integer-lattice
    tail coefficients (terms all positive), even mbar integer-lattice ones
    (terms all negative).
    """
    return _an("complex_projective", mbar, n)


def hp_an(mbar: int, n: int) -> ScaledRational:
    """a_n of the quaternionic projective family, exact, for n >= 2*mbar - 2."""
    return _an("quaternionic_projective", mbar, n)


def op2_an(n: int) -> ScaledRational:
    """a_n of the Cayley plane, exact, for n >= 7."""
    return _an("cayley_plane", 2, n)


def volume(family: str, mbar: int) -> ScaledRational:
    """The volume constant of the family's built-in normalization.

    Defined as the n = 0 boundary entry times the prefactor (the tail sum is
    empty there), which is exactly the constant that makes A_0 = 1.  For
    spheres this reproduces the textbook unit-sphere volumes.
    """
    value = tail_split(family, mbar, 0)[0]
    if value.sign() <= 0:
        raise InvariantViolation(f"volume of {family}:{mbar} is not positive")
    return value


def coefficient(model: SpaceModel, n: int) -> Fraction:
    """Normalized coefficient A_n = a_n / Vol of the model, exact (n = 0 or n >= threshold)."""
    if n == 0:
        return Fraction(1)
    return _an(model.family, model.mbar, n).rational / volume(model.family, model.mbar).rational


def rank1_series(model: SpaceModel, n_max: int, fill: str | None = None,
                 oracle_precision: int = 30) -> HeatSeries:
    """Assemble the coefficient series A_0..A_{n_max} of a rank-one model.

    A_0 = 1 exactly.  Indices between 1 and the family threshold are not
    produced by the closed form; they are flagged ``unavailable`` unless
    ``fill='oracle'``, in which case spectral-fit estimates are inserted and
    flagged ``approximate`` (supported for the sphere family only).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if fill not in (None, "oracle"):
        raise ValueError("fill must be None or 'oracle'")
    thr = model.threshold
    boundary, tail = _vectors(model.family, model.mbar, n_max)
    coeffs: list[Fraction] = [Fraction(1)]
    flags: list[str] = [EXACT]
    gap = range(1, min(thr, n_max + 1))
    fill_values: dict[int, Fraction] = {}
    if fill == "oracle" and len(gap) > 0:
        if model.family != "sphere":
            raise UnsupportedSpaceError(
                f"oracle fill is only available for spheres, not {model.family}"
            )
        import mpmath as mp

        from .oracle import fit_coefficients

        fitted, _errors = fit_coefficients(model.dimension, orders=thr - 1,
                                           precision=oracle_precision)
        fill_values = {n: Fraction(*mp.libmp.to_rational(fitted[n]._mpf_)) for n in gap}
    for n in range(1, n_max + 1):
        if n < thr:
            if n in fill_values:
                coeffs.append(fill_values[n])
                flags.append(APPROXIMATE)
            else:
                coeffs.append(Fraction(0))
                flags.append(UNAVAILABLE)
        else:
            coeffs.append((boundary[n] + tail[n]) / boundary[0])
            flags.append(EXACT)
    return HeatSeries(coeffs, flags, f"{model.family}:{model.mbar}")
