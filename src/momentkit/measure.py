"""Finite atomic measures on (0, inf) and their moment windows.

An AtomicMeasure is the universal representing-measure object: a sorted list
of (position, mass) pairs with strictly positive positions and masses.
Because every atom is positive, moments are defined for negative exponents
too, which is what backward extensions are about.

MomentRecurrence is the companion object for measures whose atoms are the
(possibly irrational) roots of a known polynomial: it produces exact rational
moments for every integer exponent from a seed window and the root
polynomial's linear recurrence, so certificates stay exactly verifiable even
when the atoms themselves only have enclosures.  Either kind can be the part
on (0, 1] of a measure on [0, 1] (`alternating.CAMeasure`).  Only the
completion solvers and certificates build one, so it lives in `_recurrence`,
which a window call does not compile; this module serves its name on first
use (`momentkit._serve`).

A measure of either kind computes its moments on an integer image, built
once: on first use, or handed over by the code that built the
measure.  `principal._atoms_and_image` passes the image of the atoms
and masses it read, and `tilt` reads its parent's image with the exponents
shifted, so a measure and its tilts share one image.  With the positions
P_i / Q and the masses U_i / V over their least common denominators
(`_AtomImage.of`), moment k of an AtomicMeasure is sum_i U_i P_i^k /
(V Q^k), and for k < 0 the same sum over the reciprocal positions.  A
MomentRecurrence runs its recurrence on the primitive integer polynomial q
and on its seed window scaled by the common denominator L, so its moments
are N_k / (L |q_d|^e) past the window and N_k / (L |q_0|^e) before it.
Moments, ratios of consecutive moments and geometric sums
1 + ... + t^(n-1) are read off a run of such numerators (`_Row`), with one
normalisation per value returned, and none for a value that is only
compared with an exact one (`_Row.equals`).  Float data enters the image
on its binary-exact images (a non-finite float raises DegenerateInput,
`_exact`), and each value read off it is rounded once; any other object
with `moment` is read on the row of its moments' images (`_Row.of`).

A measure built on a handed-over image (`_imaged`) trusts what its builder
already holds: its atoms are `Fraction`s in lowest terms, or the floats
its image rounds to, in the image's order, and the image's integers are
theirs.  They are not re-wrapped, merged or sorted.  What the AtomicMeasure
constructor would check is still checked, on the image's integers: every
position and mass is positive (else the constructor's DegenerateInput),
and the positions ascend strictly, so that none repeats (else
DegenerateInput too).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import _serve
from ._record import FrozenRecord
from .errors import DegenerateInput, InsufficientMoments, ShapeError
from .numeric import Scalar, _integer_scale, _read, as_fraction, format_scalar, parse_scalar

__getattr__, __dir__ = _serve(__name__, {"_recurrence": ("MomentRecurrence",)})


def _finite(v: float, what: str):
    if not math.isfinite(v):
        raise DegenerateInput(f"{what} {v!r} is not finite")


def _exact(values) -> list:
    """`values`, floats on their binary-exact images; a non-finite float raises DegenerateInput."""
    for v in values:
        if isinstance(v, float):
            _finite(v, "value")
    return [as_fraction(v) if isinstance(v, float) else v for v in values]


class _Row:
    """Integer image of the consecutive values v_0, v_1, ...:
    v_i = nums[i] / (den * steps[0] * ... * steps[i-1]), with den and every
    step a positive integer.  Each value read from it is one `Fraction`
    normalisation, or on a row of floats (`floats`) one correctly rounded
    float."""

    __slots__ = ("nums", "den", "steps", "floats")

    def __init__(self, nums: list, den: int, steps: list, floats: bool):
        self.nums, self.den, self.steps, self.floats = nums, den, steps, floats

    @classmethod
    def of(cls, values) -> "_Row":
        """The row of `values`, floats on their binary-exact images."""
        ints, den = _integer_scale(_exact(values))
        return cls(ints, den, [1] * (len(ints) - 1), any(isinstance(v, float) for v in values))

    def denominator(self, i: int) -> int:
        """The positive denominator of v_i over which nums[i] is kept."""
        den = self.den
        for step in self.steps[:i]:
            den *= step
        return den

    def value(self, i: int) -> Scalar:
        return _read(self.nums[i], self.denominator(i), self.floats)

    def equals(self, i: int, x: Fraction) -> bool:
        """v_i == x for an exact x, by one integer cross product: no
        `Fraction` is normalised."""
        return self.nums[i] * x.denominator == x.numerator * self.denominator(i)

    def ratios(self, start: int = 0) -> list:
        """v_(i+1) / v_i for i >= start, each read as `value` reads, from
        its two integer numerators."""
        nums, steps, floats = self.nums, self.steps, self.floats
        return [_read(nums[i + 1], nums[i] * steps[i], floats) for i in range(start, len(nums) - 1)]

    def sums(self, const: Fraction) -> "_Row":
        """The row of const + v_0 + ... + v_(i-1), i = 0..len(nums)."""
        q = const.denominator
        acc = const.numerator * self.den
        nums = [acc]
        for i, x in enumerate(self.nums):
            if i:
                acc *= self.steps[i - 1]
            acc += q * x
            nums.append(acc)
        return _Row(nums, q * self.den, [1] + self.steps, self.floats)


def moment_row(mu, lo: int, hi: int) -> _Row:
    """Moments lo..hi of `mu`, lo <= hi, as a `_Row`: a measure's own
    integer image, and for any other object with a `moment` method the row
    of its moments (`_Row.of`)."""
    if hasattr(mu, "_row"):
        return mu._row(lo, hi)
    return _Row.of([mu.moment(k) for k in range(lo, hi + 1)])


def geometric_row(tau, hi: int, const: Fraction = Fraction(0)) -> _Row:
    """const + tau_0 + ... + tau_(n-1), n = 0..hi, as a `_Row`, summed on
    the row of tau's moments (`moment_row`)."""
    if hi <= 0:
        return _Row([const.numerator], const.denominator, [], False)
    return moment_row(tau, 0, hi - 1).sums(const)


class _PowerSums:
    """sum_i c_i x_i^k for k = 0, 1, ..., in integers, grown on demand."""

    __slots__ = ("coeffs", "bases", "sums", "_terms")

    def __init__(self, coeffs: list, bases: list):
        self.coeffs, self.bases, self.sums, self._terms = coeffs, bases, [sum(coeffs)], coeffs

    def upto(self, k: int) -> list:
        while len(self.sums) <= k:
            self._terms = [t * x for t, x in zip(self._terms, self.bases)]
            self.sums.append(sum(self._terms))
        return self.sums


class _AtomImage:
    """An AtomicMeasure over common denominators: positions P_i / Q and
    masses U_i / V, with the reciprocal positions R_i / S for negative
    exponents built on first use.  Moment k of the measure is the power sum
    of exponent e = k + shift: sum_i U_i P_i^e / (V Q^e) for e >= 0, and
    the same sum over the reciprocal positions for e < 0.  `of` builds it
    from the atoms, with shift 0; the image of a tilt t^k dmu is this one
    read with shift + k (`tilted`), on the same power sums; of float atoms
    (`floats`), it is the image of their binary-exact images."""

    __slots__ = ("V", "Q", "up", "shift", "floats", "_positions", "_recip", "_down")

    def __init__(self, positions: list, masses: list, V: int, bases: list, Q: int,
                 floats: bool = False):
        self._positions, self.V, self.Q, self.shift = positions, V, Q, 0
        self.up, self.floats = _PowerSums(masses, bases), floats
        self._recip = self._down = None

    @classmethod
    def of(cls, atoms, floats: bool = False) -> "_AtomImage":
        if floats:
            atoms = [_exact(atom) for atom in atoms]
        positions = [x for x, _ in atoms]
        masses, V = _integer_scale([m for _, m in atoms])
        return cls(positions, masses, V, *_integer_scale(positions), floats)

    def powers(self, e: int) -> tuple:
        """The power sums and the denominator base that serve the power sum
        of exponent e."""
        if e >= 0:
            return self.up, self.Q
        if self._down is None:
            if self._recip is None:
                # 1 / x_i = den_i / num_i over S = lcm of the numerators
                S = math.lcm(*(x.numerator for x in self._positions))
                self._recip = [x.denominator * (S // x.numerator) for x in self._positions], S
            bases, S = self._recip
            self._down = _PowerSums(self.up.coeffs, bases), S
        return self._down

    def moment(self, k: int) -> Scalar:
        e = k + self.shift
        sums, base = self.powers(e)
        e = abs(e)
        return _read(sums.upto(e)[e], self.V * base ** e, self.floats)

    def row(self, lo: int, hi: int) -> _Row:
        """Moments lo..hi, lo <= hi, as a `_Row`.  Over exponents
        a = lo + shift .. b = hi + shift: the power sums of e >= 0 step by Q,
        and those of e < 0, when a < 0, sit over the one denominator
        V S^(-a), so that they step by 1."""
        a, b = lo + self.shift, hi + self.shift
        steps = [1 if e < 0 else self.Q for e in range(a, b)]
        if a >= 0:
            return _Row(self.up.upto(b)[a:b + 1], self.V * self.Q ** a, steps, self.floats)
        down, S = self.powers(a)
        sums = down.upto(-a)
        nums = [sums[-e] * S ** (e - a) for e in range(a, min(b + 1, 0))]
        if b >= 0:
            scale = S ** -a
            nums += [x * scale for x in self.up.upto(b)[:b + 1]]
        return _Row(nums, self.V * S ** -a, steps, self.floats)

    def tilted(self, k: int) -> "_AtomImage":
        """The image of t^k dmu: this one with shift + k, sharing its power
        sums."""
        view = object.__new__(_AtomImage)
        view._positions, view.V, view.Q, view.up = self._positions, self.V, self.Q, self.up
        view._recip, view._down, view.floats = self._recip, self._down, self.floats
        view.shift = self.shift + k
        return view

    def masses(self) -> list:
        """The masses of the measure read, U_i x_i^e / (V base^e) with
        e = |shift| over the bases that serve exponent shift, each one
        `Fraction`, rounded once on the image of float atoms."""
        sums, base = self.powers(self.shift)
        e = abs(self.shift)
        den = self.V * base ** e
        return [_read(c * x ** e, den, self.floats) for c, x in zip(sums.coeffs, sums.bases)]


class AtomicMeasure(FrozenRecord):
    """Finite positive combination of point masses on (0, inf).

    Atoms are stored sorted by position; exactly coinciding positions are
    merged at construction so measure equality is literal equality.
    The `exact` flag records whether atom positions are exact values or
    refined rational enclosure midpoints.  A float position or mass that is
    not finite raises DegenerateInput.
    """

    _fields = ("atoms", "exact")

    def __init__(self, atoms, exact: bool = True):
        merged = {}
        for pos, mass in atoms:
            if isinstance(pos, float):
                _finite(pos, "atom position")
            else:
                pos = as_fraction(pos)
            if isinstance(mass, float):
                _finite(mass, "atom mass")
            else:
                mass = as_fraction(mass)
            if not pos > 0:
                raise DegenerateInput(f"atom position {pos!r} is not positive")
            if not mass > 0:
                raise DegenerateInput(f"atom mass {mass!r} is not positive")
            merged[pos] = merged[pos] + mass if pos in merged else mass
        self.__dict__.update(atoms=tuple(sorted(merged.items(), key=lambda it: it[0])),
                             exact=bool(exact))

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def positions(self):
        return tuple(p for p, _ in self.atoms)

    def masses(self):
        return tuple(m for _, m in self.atoms)

    def total_mass(self) -> Scalar:
        return self.moment(0)

    def max_atom(self) -> Scalar:
        if not self.atoms:
            raise DegenerateInput("zero measure has no largest atom")
        return self.atoms[-1][0]

    def _image(self) -> _AtomImage:
        """The integer image, built on first use."""
        image = self.__dict__.get("_img")
        if image is None:
            image = _AtomImage.of(self.atoms, any(isinstance(v, float) for a in self.atoms
                                                  for v in a))
            self.__dict__["_img"] = image
        return image

    def moment(self, k: int) -> Scalar:
        return self._image().moment(k)

    def _row(self, lo: int, hi: int) -> _Row:
        return self._image().row(lo, hi)

    def scaled(self, factor: Scalar) -> "AtomicMeasure":
        return AtomicMeasure([(p, m * factor) for p, m in self.atoms], exact=self.exact)

    def tilted(self, k: int) -> "AtomicMeasure":
        return tilt(self, k)

    def to_json(self) -> dict:
        out = {"atoms": [{"x": format_scalar(p), "m": format_scalar(m)}
                         for p, m in self.atoms]}
        if not self.exact:
            out["exact"] = False
        return out

    @staticmethod
    def from_json(obj: dict, exact_parse: bool = True) -> "AtomicMeasure":
        atoms = [(parse_scalar(a["x"], exact_parse), parse_scalar(a["m"], exact_parse))
                 for a in obj.get("atoms", [])]
        return AtomicMeasure(atoms, exact=obj.get("exact", True))


ZERO_MEASURE = AtomicMeasure([])


def moment(mu, k: int) -> Scalar:
    """k-th moment of anything with a .moment method (negative k allowed)."""
    return mu.moment(k)


def moments(mu, lo: int, hi: int) -> "MomentSequence":
    """Window of moments lo..hi as a MomentSequence."""
    if lo > hi:
        raise ShapeError("empty moment window")
    return MomentSequence(lo, [mu.moment(k) for k in range(lo, hi + 1)])


def _imaged(atoms, exact: bool, image: _AtomImage) -> AtomicMeasure:
    """AtomicMeasure(atoms, exact) carrying `image` as its integer image,
    built from that image without a second pass over the atoms.

    `image` holds the same atoms in the same order, and each atom is an
    exact (position, mass) pair of `Fraction`s in lowest terms, or the
    floats an image of float atoms rounds to: that is trusted, not re-read.
    What AtomicMeasure would read is checked on the image's integers:
    positions P_i / Q and masses U_i / V with Q, V > 0, so P_i > 0 and
    U_i > 0 in the order AtomicMeasure checks them (raising its
    DegenerateInput), and P_i strictly ascending, since the atoms are
    neither merged nor sorted here (a repeated or out-of-order position
    raises DegenerateInput too).  The floats of a float image are checked
    to be finite as AtomicMeasure checks them: a tilt's float masses may
    round past the float range."""
    atoms = tuple(atoms)
    last = 0
    for (pos, mass), p, u in zip(atoms, image.up.bases, image.up.coeffs):
        if image.floats:
            _finite(pos, "atom position")
            _finite(mass, "atom mass")
        if not p > 0:
            raise DegenerateInput(f"atom position {pos!r} is not positive")
        if not u > 0 or image.floats and not mass > 0:  # a float mass may round to 0
            raise DegenerateInput(f"atom mass {mass!r} is not positive")
        if not p > last:
            raise DegenerateInput(f"atom position {pos!r} repeats or is out of order")
        last = p
    mu = object.__new__(AtomicMeasure)
    mu.__dict__.update(atoms=atoms, exact=bool(exact), _img=image)
    return mu


def tilt(mu: AtomicMeasure, k: int) -> AtomicMeasure:
    """Density tilt t^k dmu: same atoms, masses scaled by pos**k.  The tilt
    reads its masses and moments off the parent's integer image, with the
    exponents shifted by k (`_AtomImage.tilted`): no second image is
    built."""
    image = mu._image().tilted(k)
    return _imaged([(pos, m) for (pos, _), m in zip(mu.atoms, image.masses())], mu.exact, image)


class MomentSequence(FrozenRecord):
    """Contiguous window of nonnegative moments s_{first_index}..s_{last}."""

    _fields = ("first_index", "values")

    def __init__(self, first_index: int, values: Sequence[Scalar]):
        values = tuple(v if isinstance(v, float) else as_fraction(v) for v in values)
        if not values:
            raise ShapeError("empty moment sequence")
        for v in values:
            # the sign of an exact value is its numerator's
            if (v if isinstance(v, float) else v.numerator) < 0:
                raise DegenerateInput(f"negative moment value {v!r}")
        self.__dict__.update(first_index=int(first_index), values=values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.values) - 1

    def at(self, k: int) -> Scalar:
        if not self.first_index <= k <= self.last_index:
            raise InsufficientMoments(f"moment index {k} outside window")
        return self.values[k - self.first_index]

    def window(self, lo: int, hi: int):
        if lo < self.first_index or hi > self.last_index or lo > hi:
            raise InsufficientMoments(f"window {lo}..{hi} outside sequence")
        return self.values[lo - self.first_index:hi - self.first_index + 1]

    def prepend(self, value: Scalar) -> "MomentSequence":
        return MomentSequence(self.first_index - 1, (value,) + self.values)

    def to_json(self) -> dict:
        return {"first_index": self.first_index,
                "values": [format_scalar(v) for v in self.values]}

    @staticmethod
    def from_json(obj, exact_parse: bool = True) -> "MomentSequence":
        if isinstance(obj, list):
            return MomentSequence(0, [parse_scalar(v, exact_parse) for v in obj])
        return MomentSequence(obj.get("first_index", 0),
                              [parse_scalar(v, exact_parse) for v in obj["values"]])
