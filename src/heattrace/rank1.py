"""Exact closed-form coefficient sequences for the compact rank-one families.

Four families are built in: even spheres S^{2mbar}, complex projective spaces
CP^mbar, quaternionic projective spaces HP^mbar, and the Cayley plane OP^2.
Each coefficient a_n is an exact rational times a fixed power of pi, and the
normalized coefficients A_n = a_n / Vol are pure rationals because the pi
powers cancel.

Every family is one row of data (:class:`_Row`), and one builder,
:func:`_build`, turns a row into the normalized A_0..A_{n_max}, from

    a_n = pref * pi^pi_power * (boundary[n] + tail[n]).

The prefactor pref * pi^pi_power cancels from A_n, so no row carries it; the
tests hold it, with the per-index reference sums that read it.

* The boundary is the finite sum  sum_j W_j B^(n+s_j) / (n+s_j)!  with
  W_j = table[j] * j! * h^(j+1) over the family's seed table.  These are the
  coefficients of e^{B t} times a polynomial Y_b, read from entry max(s) on.
* The tail is  sum_k base^k/k! * h^i S(i)/i!  at i = n - start - k, the
  binomial convolution of e^{base t} with Y_t = sum_i h^i S(i)/i! t^i, the
  inner sums S(i) = sum_j (-1)^j table[j] coeff(i + j) taken from i = lo on
  (zero below).  The inner sums are the correlation of the table's
  numerators, signed, with the integer numerators of the coefficient vector,
  one integer :func:`~heattrace.series._cauchy`; the vector is one call of
  :func:`~heattrace.exactnum.c_numerators` or
  :func:`~heattrace.exactnum.d_numerators`, read from entry lo on.  Every term
  of every inner sum shares the row's sign (the no-cancellation invariant).
  It is checked once per table, against the table's sign law, and once per
  coefficient vector, for positivity; together these cover every term of
  every double sum.

====== ============== ======================= ========= ======= ====== ==== ======
family B              W_j / j!                s_j       base    start  lo   sign
====== ============== ======================= ========= ======= ====== ==== ======
sphere (2m-1)^2/4     beta_j                  j+1-m     B       m      0    (-1)^(m-1)
cp     m^2/(4(m+1))   gamma_j (m+1)^(j+1)     j+2-m     B       m-1    0    +1 / -1
hp     base^2         delta_j                 2m-3-j    q       0      2m-2 -1
op2    121/72         eta_j                   7-j       B       0      8    -1
====== ============== ======================= ========= ======= ====== ==== ======

with q = (2m-1)^2/(8(m+1)).  The cp inner sums carry h^i = (m+1)^i and run
over c-coefficients (odd m) or d-coefficients (even m).

The tail is zero at n = 0, so boundary[0] * pref is the volume constant that
makes A_0 = 1, and A_n = (boundary[n] + tail[n]) / boundary[0].  The builder
reads boundary[0] as one integer sum (:func:`_boundary_at_zero`) and divides
the generators by it before the exponential, which is linear in them.  It
forms them as integers in exponential form, entry k times k!, over one
denominator: d_t d_c num(boundary[0]), with d_t and d_c the denominators of
the table and of the coefficient vector.  A boundary entry is k! W_j, and a
tail entry k = at + i is (k!/i!) h^i S(i), from a running rising factorial,
so no factorial sits in that denominator.  A power of two common to all of
them (the h^i = (m+1)^i of odd cp against the powers of two in the
denominators of c_n) is shifted out.  Where the tail base is B and the tail
keeps every exponential term (sphere, odd cp, op2), boundary and tail are one
generator Y_b + t^(max(s) + start) Y_t and one
:func:`~heattrace.series.exp_numerators`; for op2 the two overlap at t^7 and
are added there.  The hp boundary has its own exponential (B = base^2), and
the even-mbar cp tail keeps only the k < m terms of e^{base t} with base
B/(m+1), a binomial sum of m terms per index.  Either second term is brought
to the first's scale by an integer factor and added as an integer, and each
A_n is reduced once, at the end.

:func:`rank1_series` is the one reader, a pure function: each call runs
:func:`_build` to exactly the index asked, behind the one check of
(family, mbar) in :func:`_row`, and nothing is kept between calls (the CLI
shares a repeated atom's series within one request).  The closed form is
valid only from a family-specific threshold index onward, so a request that
ends below it builds nothing: those indices are flagged ``unavailable``.  For a
sphere, the CLI's ``--oracle-fill`` fills them from the spectral oracle;
nothing here reads the oracle.

Normalizations.  The sphere family is the unit-radius round sphere; it equals
the exact series of its spectrum at every index, and the spectral oracle's
fit confirms its low orders.  The projective families follow their published
closed-form tabulations as given.  Their spectra give exact series too (the
tests build them from the Cahn-Wolf multiplicities, and each has A_1 = R/6),
but no cp (2-5), hp (2, 3, 5) or op2 row equals its spectral series under
any homothety: the first homothety-free ratio A_t A_{t+2} / A_{t+1}^2 over
the row's first exact indices already departs (by -46897/182497 for cp:2,
whose A_1 and A_2 are exact), and the cp:2 row is negative from n = 3
(checked to n = 300) while its spectral series is positive (checked to
n = 80).  The departures are
inherited from the tabulated formulas; the tests freeze them, and nothing
here patches them.

The tabulated HP^M boundary raises base^2 where its tail raises base.  It is
kept as tabulated, as the independent transliteration in the tests reads it;
with base in the boundary instead, hp:2 and hp:3 depart from their spectral
series further still (the ratio above by -16.1 and -1.42, against -2.15 and
-0.557 as tabulated), so the spectrum does not favour that reading.  As
tabulated, the volume constant boundary[0] * pref is positive only for
M = 2, 3 and 5 of the M up to 300, so :class:`SpaceModel` refuses an hp model
whose n = 0 boundary entry is not positive.  It reads that entry alone,
without a build, but from the whole seed table, whose cost grows about as
M^3, so every M past 300 is refused without the check: hp:300 is refused in
about 0.4 s in a fresh process, against 8.6 s for hp:1000 and past 60 s for
hp:5000 with the check (a shared 2-core box).  The other rows need no
refusal: boundary[0] is (m-1)! for the sphere, (m+1)^m (m-2)! (m-1) m / 6
for cp, and a fixed positive constant for op2.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from ._value import Frozen
from .errors import InvariantViolation, UnsupportedSpaceError
from .exactnum import c_numerators, d_numerators
from .seedpolys import (SignedTable, beta_table, delta_table, eta_table, expected_signs,
                        gamma_table)
from .series import HeatSeries, _cauchy, _over_common_denominator, exp_numerators

__all__ = [
    "SpaceModel",
    "FAMILIES",
    "threshold",
    "rank1_series",
]

FAMILIES = ("sphere", "complex_projective", "quaternionic_projective", "cayley_plane")

_fact = math.factorial

# The largest M whose HP^M volume sign is checked (see the module docstring).
_HP_CHECKED = 300


class SpaceModel(Frozen):
    """A compact rank-one space in its family's built-in normalization.

    The noncompact dual and the homotheties are operations on the coefficient
    series, :func:`~heattrace.series.dualize` and
    :func:`~heattrace.series.rescale`, applied to :func:`rank1_series`.
    """

    _fields = ("family", "mbar")

    def __init__(self, family: str, mbar: int) -> None:
        row = _row(family, mbar)
        if family == "quaternionic_projective":
            if mbar > _HP_CHECKED:
                raise UnsupportedSpaceError(
                    f"hp:{mbar} is past hp:{_HP_CHECKED}, the largest HP^M whose volume "
                    f"constant is checked (positive only for M = 2, 3 and 5 up to there)")
            if _boundary_at_zero(row, row.table()) <= 0:
                raise UnsupportedSpaceError(
                    f"the tabulated HP^M closed form has a non-positive volume constant "
                    f"for M = {mbar}, so hp:{mbar} cannot be normalized"
                )
        super().__init__(family=family, mbar=mbar)

    @property
    def threshold(self) -> int:
        return threshold(self.family, self.mbar)


# --- family rows -------------------------------------------------------------


class _Row(Frozen):
    """One family's closed form as data, all that A_n needs; the fields are named
    as in the module docstring.  ``table`` builds the seed table, with one
    shift s_j per entry; ``coeff`` maps n to c_0..c_n (or d_0..d_n); ``terms``
    is the number of exponential terms kept in the tail (None: all)."""

    _fields = ("table", "b", "shifts", "base", "lo", "sign", "thr", "h", "coeff", "start",
               "terms")

    def __init__(self, *, table: Callable[[], SignedTable], b: Fraction, shifts: range,
                 base: Fraction, lo: int, sign: int, thr: int, h: int = 1,
                 coeff: Callable[[int], tuple[list[int], int]] = c_numerators, start: int = 0,
                 terms: int | None = None) -> None:
        super().__init__(table=table, b=b, shifts=shifts, base=base, lo=lo, sign=sign,
                         thr=thr, h=h, coeff=coeff, start=start, terms=terms)


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
                    lo=0, sign=(-1) ** (m - 1), thr=m, start=m)
    if family == "complex_projective":
        odd = m % 2 == 1
        b = Fraction(m * m, 4 * (m + 1))
        return _Row(table=lambda: gamma_table(m), b=b, shifts=range(2 - m, 2),
                    base=b if odd else b / (m + 1), lo=0, sign=1 if odd else -1,
                    thr=m - 1, h=m + 1, coeff=c_numerators if odd else d_numerators,
                    start=m - 1, terms=None if odd else m)
    if family == "quaternionic_projective":
        base = Fraction((2 * m - 1) ** 2, 8 * (m + 1))
        return _Row(table=lambda: delta_table(m), b=base ** 2,
                    shifts=range(2 * m - 3, -1, -1), base=base, lo=2 * m - 2, sign=-1,
                    thr=2 * m - 2)
    b = Fraction(121, 72)  # the Cayley plane
    return _Row(table=eta_table, b=b, shifts=range(7, -1, -1), base=b, lo=8, sign=-1, thr=7)


def threshold(family: str, mbar: int) -> int:
    """First index at which the family's closed form is valid."""
    return _row(family, mbar).thr


# --- the builder -------------------------------------------------------------


def _boundary_at_zero(row: _Row, table: SignedTable) -> Fraction:
    """boundary[0] = sum of W_j B^(s_j) / s_j! over the s_j >= 0, as one integer sum.

    This is entry max(s) of e^{B t} * Y_b without running the exponential to
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


def _inner_sums(table: SignedTable, ws: list[int], coeffs_fn, lo: int, i_max: int,
                expect_sign: int) -> tuple[list[int], int]:
    """S(0..i_max) as integers over one denominator: ``(sums, d)`` with
    S(i) = sums[i] / (d_t d), where ``ws`` are the table's numerators over d_t and
    S(i) = sum_j (-1)^j table[j] coeff(i + j) from i = lo on, else 0.

    With K = len(table), u[K - 1 - j] = (-1)^j ws[j] and x the numerators of
    coeff(lo..i_max + K - 1) over d, the slice from lo of one
    ``coeffs_fn(i_max + K - 1)``, sums[i] is entry i - lo + K - 1 of the
    Cauchy product of u with x, one integer :func:`_cauchy`.  Every term has
    ``expect_sign`` exactly when the table obeys its sign law, (-1)^j times
    that law is ``expect_sign`` on every nonzero entry, and every coefficient
    read is positive; both checks run once here, on the integers.
    """
    if i_max < lo:
        return [0] * (i_max + 1), 1
    k = len(table)
    for j, (w, sign) in enumerate(zip(ws, expected_signs(table))):
        if (w > 0) - (w < 0) != sign or (sign != 0 and (-1) ** j * sign != expect_sign):
            raise InvariantViolation(f"tail term sign violated for {table.family} at j={j}")
    cs, den = coeffs_fn(i_max + k - 1)
    cs = cs[lo:]
    bad = next((i for i, c in enumerate(cs, lo) if c <= 0), None)
    if bad is not None:
        raise InvariantViolation(f"lattice coefficient {bad} of {table.family} is not positive")
    u = [(-1) ** j * w for j, w in enumerate(ws)][::-1]
    return [0] * lo + _cauchy(u, cs, i_max - lo + k - 1)[k - 1:], den


def _build(family: str, mbar: int, n_max: int) -> list[Fraction]:
    """The normalized A_0..A_{n_max} of (family, mbar), from one seed table, as a
    new list on every call.

    Entries 1..threshold - 1 are the closed form's values there, which are not
    the space's; :func:`rank1_series` never reads them.
    """
    row = _row(family, mbar)
    table = row.table()
    b0 = _boundary_at_zero(row, table)
    if b0 <= 0:
        raise InvariantViolation(f"volume constant of {family}:{mbar} is not positive")
    ws, d_t = _over_common_denominator(table.values)
    top = max(row.shifts)
    nu_max = n_max - row.start
    sums, d_c = _inner_sums(table, ws, row.coeff, row.lo, nu_max, row.sign)
    # Both generators in exponential form over den = d_t d_c num(b0): entry k of
    # Y_b is W_j / b0 at k = top - s_j, entry i of Y_t is h^i S(i) / (i! b0), and
    # gen[k] = den k! Y[k], so Y_t's entries are tail[i] = h^i sums[i] den(b0).
    den = d_t * d_c * b0.numerator
    gen = [0] * (top - min(row.shifts) + 1)
    for j, (w, s) in enumerate(zip(ws, row.shifts)):
        gen[top - s] = _fact(top - s) * _fact(j) * row.h ** (j + 1) * w * d_c * b0.denominator
    tail = []
    power = b0.denominator
    for x in sums:
        tail.append(power * x)
        power *= row.h
    one_exponential = row.base == row.b and row.terms is None
    if one_exponential:  # Y_b + t^(top + start) Y_t: entry at + i is (at + i)!/i! tail[i]
        at = top + row.start
        gen += [0] * (at + len(tail) - len(gen))
        rising = _fact(at)
        for i, x in enumerate(tail):
            gen[at + i] += rising * x
            rising = rising * (at + i + 1) // (i + 1)
        tail = []
    # A power of two common to den and every entry (the h^i of odd-mbar cp
    # against the powers of two in the denominators of c_n) is shifted out.
    shift = min((x & -x).bit_length() for x in (den, *gen, *tail) if x) - 1
    den >>= shift
    gen = [x >> shift for x in gen]
    tail = [x >> shift for x in tail]
    q = row.b.denominator
    nums = exp_numerators(row.b, gen, n_max + top)[top:]
    # The second term of hp and even-mbar cp, over den c qt^nu nu! at nu = n - start,
    # is added over the first's den c q^N N! at N = n + top, times f = q^N N! / (qt^nu nu!).
    c = 1
    if tail:
        if row.terms is None:  # hp: a second exponential, with qt = den(base) dividing q
            qt = row.base.denominator
            second = exp_numerators(row.base, tail, nu_max)
        else:  # even-mbar cp: the terms k < row.terms of e^{base t}, over c = Q^(terms - 1)
            qt = 1
            p_b, q_b = row.base.numerator, row.base.denominator
            c = q_b ** (row.terms - 1)
            weights = [p_b ** k * q_b ** (row.terms - 1 - k) for k in range(row.terms)]
            second = [sum(math.comb(nu, k) * w * tail[nu - k]
                          for k, w in enumerate(weights[: nu + 1]))
                      for nu in range(nu_max + 1)]
        big_n = row.start + top
        f = q ** big_n * _fact(big_n)
        for nu, x in enumerate(second):
            n = row.start + nu
            nums[n] = nums[n] * c + x * f
            f = f * (q // qt) * (big_n + nu + 1) // (nu + 1)
        for n in range(row.start):
            nums[n] *= c
    scale = den * c * q ** top * _fact(top)
    for n, v in enumerate(nums):
        nums[n] = Fraction(v, scale)
        scale *= q * (n + top + 1)
    return nums


def rank1_series(model: SpaceModel, n_max: int) -> HeatSeries:
    """Assemble the coefficient series A_0..A_{n_max} of a rank-one model.

    A_0 = 1 exactly.  Indices between 1 and the family threshold are not
    produced by the closed form, so they are flagged ``unavailable`` (the CLI's
    ``--oracle-fill`` may replace a sphere's with spectral estimates).  Nothing
    is built when n_max is below the threshold.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    thr = model.threshold
    gap = range(1, min(thr, n_max + 1))
    coeffs: list[Fraction] = [Fraction(1)] + [Fraction(0)] * len(gap)
    if n_max >= thr:
        coeffs += _build(model.family, model.mbar, n_max)[thr : n_max + 1]
    return HeatSeries(coeffs, gap, provenance=f"{model.family}:{model.mbar}")
