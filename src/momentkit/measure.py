"""Finite atomic measures on (0, inf) and their moment windows.

An AtomicMeasure is the universal representing-measure object: a sorted list
of (position, mass) pairs with strictly positive positions and masses.
Because every atom is positive, moments are defined for negative exponents
too, which is what backward extensions are about.

MomentRecurrence is the companion object for measures whose atoms are the
(possibly irrational) roots of a known polynomial: it produces exact rational
moments for every integer exponent from a seed window and the root
polynomial's linear recurrence, so certificates stay exactly verifiable even
when the atoms themselves only have enclosures.  RecurrentCAMeasure gives one
the shape of a measure on (0, 1] without mass at zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateInput, InsufficientMoments, ShapeError
from .numeric import (Polynomial, Scalar, as_fraction, format_scalar,
                      parse_scalar)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive combination of point masses on (0, inf).

    Atoms are stored sorted by position; exactly coinciding positions are
    merged at construction so measure equality is literal equality.
    The `exact` flag records whether atom positions are exact values or
    refined rational enclosure midpoints.
    """

    atoms: tuple
    exact: bool = True

    def __init__(self, atoms, exact: bool = True):
        merged = {}
        for pos, mass in atoms:
            if not isinstance(pos, float):
                pos = Fraction(pos)
            if not isinstance(mass, float):
                mass = Fraction(mass)
            if not pos > 0:
                raise DegenerateInput(f"atom position {pos!r} is not positive")
            if not mass > 0:
                raise DegenerateInput(f"atom mass {mass!r} is not positive")
            merged[pos] = merged.get(pos, 0) + mass
        object.__setattr__(self, "atoms",
                           tuple(sorted(merged.items(), key=lambda it: it[0])))
        object.__setattr__(self, "exact", bool(exact))

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def positions(self):
        return tuple(p for p, _ in self.atoms)

    def masses(self):
        return tuple(m for _, m in self.atoms)

    def total_mass(self) -> Scalar:
        return sum(self.masses(), Fraction(0))

    def max_atom(self) -> Scalar:
        if not self.atoms:
            raise DegenerateInput("zero measure has no largest atom")
        return self.atoms[-1][0]

    def moment(self, k: int) -> Scalar:
        return sum((m * pos ** k for pos, m in self.atoms), Fraction(0))

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


def tilt(mu: AtomicMeasure, k: int) -> AtomicMeasure:
    """Density tilt t^k dmu: same atoms, masses scaled by pos**k."""
    return AtomicMeasure([(pos, m * pos ** k) for pos, m in mu.atoms],
                         exact=mu.exact)


@dataclass(frozen=True)
class MomentSequence:
    """Contiguous window of nonnegative moments s_{first_index}..s_{last}."""

    first_index: int
    values: tuple

    def __init__(self, first_index: int, values: Sequence[Scalar]):
        values = tuple(v if isinstance(v, float) else Fraction(v) for v in values)
        if not values:
            raise ShapeError("empty moment sequence")
        for v in values:
            if v < 0:
                raise DegenerateInput(f"negative moment value {v!r}")
        object.__setattr__(self, "first_index", int(first_index))
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.values) - 1

    @property
    def top_degree(self) -> int:
        """n for a window reindexed as s_0..s_n."""
        return len(self.values) - 1

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

    def reindexed(self, first_index: int = 0) -> "MomentSequence":
        return MomentSequence(first_index, self.values)

    def to_json(self) -> dict:
        return {"first_index": self.first_index,
                "values": [format_scalar(v) for v in self.values]}

    @staticmethod
    def from_json(obj, exact_parse: bool = True) -> "MomentSequence":
        if isinstance(obj, list):
            return MomentSequence(0, [parse_scalar(v, exact_parse) for v in obj])
        return MomentSequence(obj.get("first_index", 0),
                              [parse_scalar(v, exact_parse) for v in obj["values"]])


class MomentRecurrence:
    """Measure surrogate: exact moments via the atom polynomial's recurrence.

    Seeded with a window of moments s_{first_index}.. and the polynomial
    q_0 + q_1 t + ... + q_d t^d vanishing at every atom, so
    sum_j q_j s_{n+j} = 0 for all integers n.  q_0 != 0 since atoms are
    positive, which makes the recurrence run backwards too.
    """

    def __init__(self, poly: Polynomial, first_index: int,
                 window: Sequence[Scalar], atoms_hint: Optional[AtomicMeasure] = None):
        if poly.degree < 1:
            raise DegenerateInput("atom polynomial must be nonconstant")
        if poly.coeffs[0] == 0:
            raise DegenerateInput("atom polynomial vanishes at zero")
        if len(window) < poly.degree:
            raise InsufficientMoments("seed window shorter than recurrence order")
        self.poly = poly
        self.atoms_hint = atoms_hint
        self.first_index = first_index
        self.window = tuple(v if isinstance(v, float) else as_fraction(v) for v in window)
        self._cache = {first_index + i: v for i, v in enumerate(self.window)}
        self._lo = first_index
        self._hi = first_index + len(window) - 1

    def moment(self, k: int) -> Scalar:
        if k in self._cache:
            return self._cache[k]
        q = self.poly.coeffs
        d = self.poly.degree
        while self._hi < k:
            n = self._hi - d + 1
            val = -sum(q[j] * self._cache[n + j] for j in range(d)) / q[d]
            self._hi += 1
            self._cache[self._hi] = val
        while self._lo > k:
            n = self._lo - 1
            val = -sum(q[j] * self._cache[n + j] for j in range(1, d + 1)) / q[0]
            self._lo -= 1
            self._cache[self._lo] = val
        return self._cache[k]

    def max_atom(self) -> Scalar:
        if self.atoms_hint is not None:
            return self.atoms_hint.max_atom()
        raise DegenerateInput("no atom enclosure attached")

    def to_json(self) -> dict:
        """The polynomial and the seed window, however far `moment` has run
        the recurrence since."""
        out = {"recurrence": [format_scalar(c) for c in self.poly.coeffs],
               "first_index": self.first_index,
               "window": [format_scalar(v) for v in self.window]}
        if self.atoms_hint is not None:
            out["atoms_approx"] = self.atoms_hint.to_json()
        return out


class RecurrentCAMeasure:
    """CAMeasure-shaped wrapper over a moment recurrence (no mass at zero)."""

    zero_mass = Fraction(0)

    def __init__(self, recurrence: MomentRecurrence):
        self.recurrence = recurrence

    def moment(self, k: int) -> Scalar:
        return self.recurrence.moment(k)

    def total_mass(self) -> Scalar:
        return self.recurrence.moment(0)

    def geometric_sum(self, n: int) -> Scalar:
        return sum((self.recurrence.moment(k) for k in range(n)), Fraction(0))

    @property
    def positive(self):
        return self.recurrence.atoms_hint

    def to_json(self) -> dict:
        return self.recurrence.to_json()


def measure_from_json_text(text: str) -> AtomicMeasure:
    return AtomicMeasure.from_json(json.loads(text))
