"""Exact closed-form coefficient sequences for the compact rank-one families.

Four families are built in: even spheres S^{2mbar}, complex projective spaces
CP^mbar, quaternionic projective spaces HP^mbar, and the Cayley plane OP^2.
Each coefficient a_n is an exact rational times a fixed power of pi
(:class:`ScaledRational`); the normalized coefficients A_n = a_n / Vol are
pure rationals because the pi powers cancel.

Every closed form is a finite "boundary" sum plus a double tail sum whose
terms all share one sign, so nothing cancels and exact rational accumulation
is numerically trivial.  The tail sums are only valid from a family-specific
threshold index onward; requesting a_n below the threshold raises
:class:`BelowThresholdError` (use the spectral oracle for those indices).
The same machinery evaluated at n = 0 with empty tail yields the volume
constant that makes A_0 = 1, which is how :func:`volume` is defined.

Normalizations.  The sphere family is the unit-radius round sphere (validated
against the spectral oracle).  The projective families follow their published
closed-form tabulations as given; their homothety class relative to the
Fubini-Study spectra is not pinned here, so oracle comparisons for them are
calibration-and-report only (see README).  The even-mbar complex projective
branch is eventually negative by construction, while the direct spectral
expansion of CP^{even} is positive; the discrepancy is inherited from the
tabulated formula and is surfaced, never patched silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BelowThresholdError, InvariantViolation, UnsupportedSpaceError
from .exactnum import c_coeff, d_coeff
from .seedpolys import SignedTable, beta_table, delta_table, eta_table, gamma_table
from .series import APPROXIMATE, EXACT, UNAVAILABLE, HeatSeries, exp_times

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
    """An exact value rational * pi^pi_power.

    Addition is only defined between compatible pi powers (or with zero);
    the closed forms keep a single pi power per space so this never bites.
    """

    rational: Fraction
    pi_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rational", Fraction(self.rational))
        if self.rational == 0:
            object.__setattr__(self, "pi_power", 0)

    def __add__(self, other: "ScaledRational") -> "ScaledRational":
        if self.rational == 0:
            return other
        if other.rational == 0:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError("cannot add values with different pi powers exactly")
        return ScaledRational(self.rational + other.rational, self.pi_power)

    def __neg__(self) -> "ScaledRational":
        return ScaledRational(-self.rational, self.pi_power)

    def __sub__(self, other: "ScaledRational") -> "ScaledRational":
        return self + (-other)

    def __mul__(self, other: "ScaledRational | Fraction | int") -> "ScaledRational":
        if isinstance(other, ScaledRational):
            return ScaledRational(self.rational * other.rational, self.pi_power + other.pi_power)
        return ScaledRational(self.rational * other, self.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScaledRational | Fraction | int") -> "ScaledRational":
        if isinstance(other, ScaledRational):
            if other.rational == 0:
                raise ZeroDivisionError
            return ScaledRational(self.rational / other.rational, self.pi_power - other.pi_power)
        return ScaledRational(self.rational / Fraction(other), self.pi_power)

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
    """A rank-one space: family, size parameter, curvature sign, homothety.

    ``scale`` is the homothety factor c^2 applied to the family's built-in
    normalization (coefficients pick up c^(2n) ... i.e. A_n -> scale^n A_n);
    ``signature`` selects the compact model or its noncompact dual.
    """

    family: str
    mbar: int
    signature: str = "compact"
    scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.family not in FAMILIES:
            raise UnsupportedSpaceError(f"unknown rank-one family {self.family!r}")
        if self.signature not in ("compact", "noncompact"):
            raise ValueError("signature must be 'compact' or 'noncompact'")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        lo = {"sphere": 1, "complex_projective": 2, "quaternionic_projective": 2}.get(self.family)
        if lo is not None and self.mbar < lo:
            raise ValueError(f"{self.family} requires mbar >= {lo}")
        if self.family == "cayley_plane" and self.mbar != 2:
            raise ValueError("the Cayley plane is only defined for mbar = 2")

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


def threshold(family: str, mbar: int) -> int:
    """First index at which the family's closed form is valid."""
    if family == "sphere":
        return mbar
    if family == "complex_projective":
        return mbar - 1
    if family == "quaternionic_projective":
        return 2 * mbar - 2
    if family == "cayley_plane":
        return 7
    raise UnsupportedSpaceError(f"unknown rank-one family {family!r}")


# --- tail vectors ------------------------------------------------------------
#
# Each double tail sum factors as sum_k b^k/k! * S(i - k)/(i - k)!, a binomial
# convolution of a family inner sum S(i) (c- or d-coefficients against a
# signed table) with e^{b t}, so the whole tail vector is one
# :func:`exp_times`.  Every term of every inner sum shares the family sign,
# which is asserted once per term here; this single check covers every term
# of every double sum downstream (the no-cancellation invariant).


def _inner_sums(table: SignedTable, coeff_fn, lo: int, i_max: int,
                expect_sign: int) -> list[Fraction]:
    """S(0..i_max), S(i) = sum_j (-1)^j table[j] coeff_fn(i + j) from i = lo on, else 0."""
    if i_max >= lo:
        coeff_fn(i_max + len(table) - 1)  # size the coefficient caches once
    out = [Fraction(0)] * min(lo, i_max + 1)
    for i in range(lo, i_max + 1):
        total = Fraction(0)
        for j, w in enumerate(table.values):
            term = (-1) ** j * w * coeff_fn(i + j)
            if term != 0 and (term > 0) != (expect_sign > 0):
                raise InvariantViolation(
                    f"tail term sign violated for {table.family} at i={i}, j={j}"
                )
            total += term
        out.append(total)
    return out


def _exp_tail(b: Fraction, inner: list[Fraction]) -> list[Fraction]:
    """sum_{k <= n} b^k/k! * S(n - k)/(n - k)! for n = 0..len(inner) - 1."""
    return exp_times(b, [s / _fact(i) for i, s in enumerate(inner)], len(inner) - 1)


def _build_tails(family: str, mbar: int, n_max: int) -> list[Fraction]:
    """The unprefactored tail sums of a_0..a_{n_max} (zero below the threshold)."""
    if family == "sphere":
        nu_max = n_max - mbar
        if nu_max < 0:
            return [Fraction(0)] * (n_max + 1)
        inner = _inner_sums(beta_table(mbar), c_coeff, 0, nu_max, (-1) ** (mbar - 1))
        return [Fraction(0)] * mbar + _exp_tail(Fraction((2 * mbar - 1) ** 2, 4), inner)
    if family == "complex_projective":
        nu_max = n_max - mbar + 1
        if nu_max < 0:
            return [Fraction(0)] * (n_max + 1)
        gamma = gamma_table(mbar)
        base = Fraction(mbar * mbar, 4 * (mbar + 1) ** 2)
        if mbar % 2 == 1:
            tails = _exp_tail(base, _inner_sums(gamma, c_coeff, 0, nu_max, +1))
        else:
            inner = _inner_sums(gamma, d_coeff, 0, nu_max, -1)
            tails = []
            for nu in range(nu_max + 1):
                tail = Fraction(0)
                for k in range(min(mbar, nu + 1)):
                    tail += (
                        base ** k
                        * Fraction(1, (mbar + 1) ** k)
                        * inner[nu - k]
                        / (_fact(k) * _fact(nu - k))
                    )
                tails.append(tail)
        return [Fraction(0)] * (mbar - 1) + [t * (mbar + 1) ** nu for nu, t in enumerate(tails)]
    if family == "quaternionic_projective":
        inner = _inner_sums(delta_table(mbar), c_coeff, 2 * mbar - 2, n_max, -1)
        return _exp_tail(Fraction((2 * mbar - 1) ** 2, 8 * (mbar + 1)), inner)
    if family == "cayley_plane":
        return _exp_tail(Fraction(121, 72), _inner_sums(eta_table(), c_coeff, 8, n_max, -1))
    raise UnsupportedSpaceError(f"unknown rank-one family {family!r}")


_tail_cache: dict[tuple[str, int], list[Fraction]] = {}


def _tails(family: str, mbar: int, n_max: int) -> list[Fraction]:
    """The tail vector of (family, mbar) to at least n_max.

    A shorter cached vector is rebuilt to exactly n_max rather than grown:
    callers that know their depth (``rank1_series``) request it up front,
    and the per-index ``_tail`` asks for a doubled depth.
    """
    key = (family, mbar)
    hit = _tail_cache.get(key)
    if hit is None or len(hit) <= n_max:
        hit = _build_tails(family, mbar, n_max)
        _tail_cache[key] = hit
    return hit


def _tail(family: str, mbar: int, n: int) -> Fraction:
    """One tail sum.  Past the cached depth the vector is rebuilt to at least
    twice that depth, so per-index calls at rising n cost O(log n) builds."""
    depth = len(_tail_cache.get((family, mbar), ())) - 1
    return _tails(family, mbar, n if n <= depth else max(n, 2 * depth))[n]


def _sphere_parts(mbar: int, n: int) -> tuple[Fraction, Fraction, Fraction, int]:
    """(boundary sum, tail sum, rational prefactor, pi power) for S^{2mbar}."""
    beta = beta_table(mbar)
    b2 = Fraction((2 * mbar - 1) ** 2, 4)
    nu = n - mbar
    first = Fraction(0)
    for j in range(mbar):
        e = nu + j + 1
        if e < 0:
            continue
        first += beta[j] * _fact(j) * b2 ** e / _fact(e)
    pref = Fraction(4 ** mbar, _fact(2 * mbar - 1))
    return first, _tail("sphere", mbar, n), pref, mbar


def _cp_parts(mbar: int, n: int) -> tuple[Fraction, Fraction, Fraction, int]:
    gamma = gamma_table(mbar)
    nu = n - mbar + 1
    m2_4 = Fraction(mbar * mbar, 4)
    first = Fraction(0)
    for j in range(mbar):
        e = nu + j + 1
        if e < 0:
            continue
        first += _fact(j) * gamma[j] * m2_4 ** e / _fact(e)
    first *= Fraction(mbar + 1) ** (-nu)
    pref = Fraction(4 ** (mbar - 1), _fact(mbar) * _fact(mbar - 1))
    return first, _tail("complex_projective", mbar, n), pref, mbar - 1


def _hp_parts(mbar: int, n: int) -> tuple[Fraction, Fraction, Fraction, int]:
    delta = delta_table(mbar)
    top = 2 * mbar - 3
    base = Fraction((2 * mbar - 1) ** 2, 8 * (mbar + 1))
    first = Fraction(0)
    for k in range(top + 1):
        e = n + top - k
        if e < 0:
            continue
        first += base ** (2 * e) * _fact(k) * delta[k] / _fact(e)
    pref = Fraction(4 ** (2 * mbar - 2), _fact(2 * mbar - 1) * _fact(2 * mbar - 3))
    return first, _tail("quaternionic_projective", mbar, n), pref, 2 * mbar - 2


def _op2_parts(n: int) -> tuple[Fraction, Fraction, Fraction, int]:
    eta = eta_table()
    base = Fraction(121, 72)
    first = Fraction(0)
    for k in range(8):
        first += base ** (n + 7 - k) * eta[k] * _fact(k) / _fact(n + 7 - k)
    pref = Fraction(6 * 4 ** 8, _fact(7) * _fact(11))
    return first, _tail("cayley_plane", 2, n), pref, 8


def _parts(family: str, mbar: int, n: int) -> tuple[Fraction, Fraction, Fraction, int]:
    if family == "sphere":
        return _sphere_parts(mbar, n)
    if family == "complex_projective":
        return _cp_parts(mbar, n)
    if family == "quaternionic_projective":
        return _hp_parts(mbar, n)
    if family == "cayley_plane":
        return _op2_parts(n)
    raise UnsupportedSpaceError(f"unknown rank-one family {family!r}")


def tail_split(family: str, mbar: int, n: int) -> tuple[ScaledRational, ScaledRational]:
    """The (boundary-sum, tail-sum) parts of a_n, each with the prefactor applied.

    Exposed for the decay diagnostics: the boundary part tends to zero while
    the tail part carries the factorial growth.
    """
    first, tail, pref, power = _parts(family, mbar, n)
    return ScaledRational(first * pref, power), ScaledRational(tail * pref, power)


def _an(family: str, mbar: int, n: int) -> ScaledRational:
    first, tail, pref, power = _parts(family, mbar, n)
    return ScaledRational((first + tail) * pref, power)


def even_sphere_an(mbar: int, n: int) -> ScaledRational:
    """a_n of the unit even-dimensional sphere S^{2mbar}, exact, for n >= mbar."""
    if mbar < 1:
        raise ValueError("even_sphere_an requires mbar >= 1")
    if n < mbar:
        raise BelowThresholdError(
            f"sphere closed form needs n >= {mbar} (got n={n}); "
            "use the spectral oracle for lower indices"
        )
    return _an("sphere", mbar, n)


def cp_an(mbar: int, n: int) -> ScaledRational:
    """a_n of the complex projective family, exact, for n >= mbar - 1.

    The parity of mbar selects the branch: odd mbar sums half-integer-lattice
    tail coefficients (terms all positive), even mbar integer-lattice ones
    (terms all negative).
    """
    if mbar < 2:
        raise ValueError("cp_an requires mbar >= 2")
    if n < mbar - 1:
        raise BelowThresholdError(
            f"complex projective closed form needs n >= {mbar - 1} (got n={n}); "
            "use the spectral oracle for lower indices"
        )
    return _an("complex_projective", mbar, n)


def hp_an(mbar: int, n: int) -> ScaledRational:
    """a_n of the quaternionic projective family, exact, for n >= 2*mbar - 2."""
    if mbar < 2:
        raise ValueError("hp_an requires mbar >= 2")
    if n < 2 * mbar - 2:
        raise BelowThresholdError(
            f"quaternionic projective closed form needs n >= {2 * mbar - 2} (got n={n}); "
            "use the spectral oracle for lower indices"
        )
    return _an("quaternionic_projective", mbar, n)


def op2_an(n: int) -> ScaledRational:
    """a_n of the Cayley plane, exact, for n >= 7."""
    if n < 7:
        raise BelowThresholdError(
            f"Cayley plane closed form needs n >= 7 (got n={n}); "
            "use the spectral oracle for lower indices"
        )
    return _an("cayley_plane", 2, n)


_volume_cache: dict[tuple[str, int], ScaledRational] = {}


def volume(family: str, mbar: int) -> ScaledRational:
    """The volume constant of the family's built-in normalization.

    Defined as the n = 0 evaluation of the closed-form machinery (the tail
    sum is empty there), which is exactly the constant that makes A_0 = 1.
    For spheres this reproduces the textbook unit-sphere volumes.
    """
    key = (family, mbar)
    hit = _volume_cache.get(key)
    if hit is None:
        hit = _an(family, mbar, 0)
        if hit.sign() <= 0:
            raise InvariantViolation(f"volume of {family}:{mbar} is not positive")
        _volume_cache[key] = hit
    return hit


def coefficient(model: SpaceModel, n: int) -> Fraction:
    """Normalized coefficient A_n of the model, exact (n = 0 or n >= threshold)."""
    if n == 0:
        return Fraction(1)
    if n < model.threshold:
        raise BelowThresholdError(
            f"{model.family}:{model.mbar} closed form needs n >= {model.threshold}"
        )
    value = _an(model.family, model.mbar, n) / volume(model.family, model.mbar)
    if value.pi_power != 0 and value.rational != 0:
        raise InvariantViolation("pi powers failed to cancel in A_n")
    out = value.as_fraction() * model.scale ** n
    if model.signature == "noncompact" and n % 2 == 1:
        out = -out
    return out


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
    _tails(model.family, model.mbar, n_max)
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
        for n in gap:
            approx = Fraction(*mp.libmp.to_rational(fitted[n]._mpf_)) * model.scale ** n
            if model.signature == "noncompact" and n % 2 == 1:
                approx = -approx
            fill_values[n] = approx
    for n in range(1, n_max + 1):
        if n < thr:
            if n in fill_values:
                coeffs.append(fill_values[n])
                flags.append(APPROXIMATE)
            else:
                coeffs.append(Fraction(0))
                flags.append(UNAVAILABLE)
        else:
            coeffs.append(coefficient(model, n))
            flags.append(EXACT)
    tag = f"{model.family}:{model.mbar}"
    if model.signature == "noncompact":
        tag = f"dual({tag})"
    if model.scale != 1:
        tag = f"scale({tag}, {model.scale})"
    return HeatSeries(coeffs, flags, tag)
