"""Moment recurrences: the exact moments of a measure whose atoms are the
(possibly irrational) roots of a known polynomial.

A MomentRecurrence produces exact rational moments for every integer
exponent from a seed window and the polynomial's linear recurrence, run on
integers (`_RecurrenceImage`), so certificates stay exactly verifiable even
when the atoms themselves only have enclosures.  Only the completion solvers
and the certificate readers build one, so it lives apart from `measure`,
which serves its name on first use (see `momentkit._serve`).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import DegenerateInput, InsufficientMoments
from .measure import AtomicMeasure, _exact, _Row
from .numeric import (Polynomial, Scalar, _integer_scale, as_fraction, format_scalar,
                      parse_scalar)


class _RecurrenceImage:
    """A moment recurrence in integers: q is the atom polynomial made
    primitive with q_d > 0, and the seed window s_lo0..s_hi0 is L times
    itself.  Moment k is nums[k] / den(k), den(k) = L q_d^(k - hi0) past the
    window and L |q_0|^(lo0 - k) before it.  Each step keeps the d
    numerators it reads over the denominator of the newest one, so it is d
    integer products and a sum.  Float data enters on its binary-exact
    images (`floats`, `_exact`)."""

    __slots__ = ("q", "L", "lo0", "hi0", "lo", "hi", "nums", "floats", "_head", "_tail")

    def __init__(self, poly: Polynomial, first_index: int, window):
        self.floats = any(isinstance(v, float) for v in (*poly.coeffs, *window))
        coeffs = _integer_scale(_exact(poly.coeffs))[0]
        content = math.gcd(*coeffs) if coeffs[-1] > 0 else -math.gcd(*coeffs)
        self.q = [c // content for c in coeffs]
        ints, self.L = _integer_scale(_exact(window))
        d = len(coeffs) - 1
        self.lo0 = self.lo = first_index
        self.hi0 = self.hi = first_index + len(ints) - 1
        self.nums = dict(zip(range(first_index, self.hi + 1), ints))
        self._head, self._tail = ints[:d], ints[-d:]

    def reach(self, k: int):
        """Run the recurrence until it holds moment k."""
        q = self.q
        while self.hi < k:
            new = -sum(c * t for c, t in zip(q, self._tail))
            self._tail = [t * q[-1] for t in self._tail[1:]] + [new]
            self.hi += 1
            self.nums[self.hi] = new
        c0 = abs(q[0])
        while self.lo > k:
            # s_(lo-1) = -(q_1 s_lo + ... + q_d s_(lo+d-1)) / q_0
            new = sum(c * h for c, h in zip(q[1:], self._head))
            new = -new if q[0] > 0 else new
            self._head = [new] + [h * c0 for h in self._head[:-1]]
            self.lo -= 1
            self.nums[self.lo] = new

    def den(self, k: int) -> int:
        if k > self.hi0:
            return self.L * self.q[-1] ** (k - self.hi0)
        return self.L * abs(self.q[0]) ** max(0, self.lo0 - k)

    def row(self, lo: int, hi: int) -> _Row:
        self.reach(lo)
        self.reach(hi)
        nums = [self.nums[k] for k in range(lo, hi + 1)]
        below = self.lo0 - lo
        if below > 0:  # bring the moments before the window to den(lo)
            c0 = abs(self.q[0])
            nums = [x * c0 ** min(i, below) for i, x in enumerate(nums)]
        steps = [self.q[-1] if k >= self.hi0 else 1 for k in range(lo, hi)]
        return _Row(nums, self.den(lo), steps, self.floats)


class MomentRecurrence:
    """Measure surrogate: exact moments via the atom polynomial's recurrence.

    Seeded with a window of moments s_{first_index}.. and the polynomial
    q_0 + q_1 t + ... + q_d t^d vanishing at every atom, so
    sum_j q_j s_{n+j} = 0 for all integers n.  q_0 != 0 since atoms are
    positive, which makes the recurrence run backwards too.  Moments come
    from the integer image (`_RecurrenceImage`), built on the first moment
    asked outside the seed window, and are kept.
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
        self._img = None

    def _image(self) -> _RecurrenceImage:
        if self._img is None:
            self._img = _RecurrenceImage(self.poly, self.first_index, self.window)
        return self._img

    def _row(self, lo: int, hi: int) -> _Row:
        return self._image().row(lo, hi)

    def moment(self, k: int) -> Scalar:
        if k not in self._cache:
            self._cache[k] = self._image().row(k, k).value(0)
        return self._cache[k]

    def max_atom(self) -> Scalar:
        if self.atoms_hint is not None:
            return self.atoms_hint.max_atom()
        raise DegenerateInput("no atom enclosure attached")

    def scaled(self, factor: Scalar) -> "MomentRecurrence":
        """factor * mu: the same recurrence on the scaled seed window."""
        hint = None if self.atoms_hint is None else self.atoms_hint.scaled(factor)
        return MomentRecurrence(self.poly, self.first_index,
                                [v * factor for v in self.window], hint)

    def tilted(self, k: int) -> "MomentRecurrence":
        """t^k dmu, whose moment n is s_{n+k}: the same recurrence and seed
        window, indexed from first_index - k."""
        hint = None if self.atoms_hint is None else self.atoms_hint.tilted(k)
        return MomentRecurrence(self.poly, self.first_index - k, self.window, hint)

    def to_json(self) -> dict:
        """The polynomial and the seed window, however far `moment` has run
        the recurrence since."""
        out = {"recurrence": [format_scalar(c) for c in self.poly.coeffs],
               "first_index": self.first_index,
               "window": [format_scalar(v) for v in self.window]}
        if self.atoms_hint is not None:
            out["atoms_approx"] = self.atoms_hint.to_json()
        return out

    @staticmethod
    def from_json(obj: dict, exact_parse: bool = True) -> "MomentRecurrence":
        def scalars(items):
            return [parse_scalar(str(v), exact_parse) for v in items]

        hint = obj.get("atoms_approx")
        hint = None if hint is None else AtomicMeasure.from_json(hint, exact_parse)
        return MomentRecurrence(Polynomial(scalars(obj["recurrence"])), int(obj["first_index"]),
                                scalars(obj["window"]), hint)
