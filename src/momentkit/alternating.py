"""Completely alternating sequences and their backward extensions.

A finite sequence has a completely alternating extension exactly when its
increments form a moment sequence on [0, 1]; the representing measure of the
extension lives on [0, 1] and must be split into a possible atom at zero
plus a part on (0, 1], because the downstream criteria integrate 1/t
and are blind to mass at zero only in the controlled way the backward
extension formula prescribes.  That measure is read on the integers kept on
the increments' window, float increments too (`principal._window_atoms`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ._record import FrozenRecord
from .errors import DegenerateInput, DomainError, NotAMomentSequence, ZeroAtomError
from .measure import AtomicMeasure, ZERO_MEASURE, _exact, _Row, geometric_row, moment_row
from .numeric import Polynomial, Scalar
from .positivity import (HalfOpen, PositivityClass, _reads_root, _support_ints, _values,
                         _verdict_window, classify_compact)
from .principal import _atom_poly, _minimal, _minimal_roots, _window_atoms, _window_roots

if TYPE_CHECKING:
    from ._recurrence import MomentRecurrence


class CAMeasure(FrozenRecord):
    """Measure on [0, 1]: optional mass at zero plus a part on (0, 1],
    either an AtomicMeasure or, when its atoms are irrational, a
    MomentRecurrence (whose `atoms_hint` holds their enclosures)."""

    _fields = ("zero_mass", "positive")

    def __init__(self, zero_mass: Scalar,
                 positive: Union[AtomicMeasure, MomentRecurrence] = ZERO_MEASURE):
        if not isinstance(zero_mass, float):
            zero_mass = Fraction(zero_mass)
        if zero_mass < 0:
            raise DegenerateInput("mass at zero must be nonnegative")
        for pos, _ in getattr(positive, "atoms", ()):
            if pos > 1:
                raise DegenerateInput("atoms must lie in (0, 1]")
        self.__dict__.update(zero_mass=zero_mass, positive=positive)

    def total_mass(self) -> Scalar:
        return self._row(0, 0).value(0)

    def moment(self, k: int) -> Scalar:
        """t^k integral over [0, 1]; negative k requires no mass at zero."""
        if k < 0 and self.zero_mass != 0:
            raise ZeroAtomError("reciprocal integral of a measure with mass at zero")
        return self.positive.moment(k) if k else self.total_mass()

    def _row(self, lo: int, hi: int) -> _Row:
        """`moment_row` of the part on (0, 1], with the mass at zero (a float
        one, even 0.0, making a row of floats) added to the moment of order
        0; a negative moment of a measure charging zero raises, as `moment` does."""
        if lo < 0 and self.zero_mass != 0:
            raise ZeroAtomError("reciprocal integral of a measure with mass at zero")
        row = moment_row(self.positive, lo, hi)
        floats = isinstance(self.zero_mass, float)
        if lo > 0 or not (self.zero_mass or floats):
            return row
        zero = _exact([self.zero_mass])[0]
        nums = [x * zero.denominator for x in row.nums]
        nums[0] += zero.numerator * row.den
        return _Row(nums, zero.denominator * row.den, row.steps, row.floats or floats)

    def geometric_sum(self, n: int) -> Scalar:
        """Integral of 1 + t + ... + t^(n-1), read off the row of the
        moments."""
        return geometric_row(self, n).value(n)

    def scaled(self, factor: Scalar) -> "CAMeasure":
        return CAMeasure(self.zero_mass * factor, self.positive.scaled(factor))

    def to_json(self) -> dict:
        from .numeric import format_scalar
        out = self.positive.to_json()
        if self.zero_mass != 0:
            out["zero_mass"] = format_scalar(self.zero_mass)
        return out


ZERO_CA_MEASURE = CAMeasure(0, ZERO_MEASURE)


class CAExtensionVerdict(FrozenRecord):
    """poly vanishes at the atoms of `measure.positive`, and not at 0."""

    _fields = ("has_extension", "measure", "increment_class", "poly")

    def __init__(self, has_extension: bool, measure: Optional[CAMeasure] = None,
                 increment_class: Optional[PositivityClass] = None,
                 poly: Optional[Polynomial] = None):
        self.__dict__.update(has_extension=has_extension, measure=measure,
                             increment_class=increment_class, poly=poly)


def has_ca_extension(c: Sequence[Scalar]) -> CAExtensionVerdict:
    """Does (c_0, ..., c_n) start a completely alternating sequence?
    On success carries a minimal-index representing measure of the
    increments (zero-free whenever a zero-free minimal one exists) and the
    polynomial of its atoms in (0, 1].

    A strictly positive increment window takes its minimal measure on
    (0, 1], the one `principal._minimal` keeps on its window (and
    `minimal_measure_half_open` of the increments reads); a singular one its
    unique measure, read on the support integers kept on its window
    (`principal._window_atoms`), float input too.  A root at 0 is read on
    those integers with the zero test of the index
    (`positivity._reads_root`), so a float root that rounding moved just
    inside (0, 1] is put back at 0 and its atom booked as mass at zero, a
    float on float input (0.0 where there is none).  A positive verdict
    keeps `_held`, (w, roots, first): the increments' window, read from
    increment `first` (1 past a mass at zero), and the polynomial and roots
    of the part on (0, 1], as `principal._minimal_roots` gives them."""
    values = _values(c)
    zero = 0.0 if any(isinstance(v, float) for v in values) else 0
    deltas = [values[k + 1] - values[k] for k in range(len(values) - 1)]
    if any(d < 0 for d in deltas):
        return CAExtensionVerdict(False, None, PositivityClass.NOT_POSITIVE)
    if not any(deltas):  # one value, or a constant sequence
        kind = PositivityClass.SINGULARLY_POSITIVE if deltas else None
        return CAExtensionVerdict(True, CAMeasure(zero), kind, Polynomial([1]))
    ends = (Fraction(0), Fraction(1))
    verdict = classify_compact(deltas, *ends)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        return CAExtensionVerdict(False, None, verdict.kind)
    w = _verdict_window(deltas, verdict, None, ends)
    if verdict.kind is PositivityClass.STRICTLY_POSITIVE:
        measure, poly = CAMeasure(zero, _minimal(w, HalfOpen())), _atom_poly(w, HalfOpen())
        held = w, _minimal_roots(w, HalfOpen()), 0
    else:
        ints, poly = _support_ints(w, ends), verdict.support
        first = int(_reads_root(w, ints, 0))
        if first:
            ints, poly = [0, *ints[1:]], poly.shifted_quotient_at_zero()
        enclosures, lo, hi = _window_roots(w, ints, *ends)
        pairs, _, exact = _window_atoms(w, ints, lo, hi, enclosures)
        measure = CAMeasure(zero + sum(m for x, m in pairs if x == 0),
                            AtomicMeasure([(x, m) for x, m in pairs if x != 0], exact))
        roots = [e for e, (x, _) in zip(enclosures, pairs) if x != 0]
        held = w, (ints[first:], roots, lo, hi), first
    out = CAExtensionVerdict(True, measure, verdict.kind, poly)
    out.__dict__["_held"] = held
    return out


def ca_scale(c: Sequence[Scalar], factor: Scalar):
    """Scale a completely alternating-extendable sequence; the representing
    measures scale by the same factor."""
    if not factor > 0:
        raise DomainError("scaling factor must be positive")
    return tuple(factor * v for v in _values(c))


class CABackwardResult(FrozenRecord):
    _fields = ("ok", "rho", "violated")

    def __init__(self, ok: bool, rho: Optional[CAMeasure] = None,
                 violated: Optional[str] = None):
        self.__dict__.update(ok=ok, rho=rho, violated=violated)

    @property
    def zero_mass_is_zero(self) -> Optional[bool]:
        if self.rho is None:
            return None
        return self.rho.zero_mass == 0


def ca_backward_extend(c: Sequence[Scalar], prefix: Sequence[Scalar],
                       tau: Optional[CAMeasure] = None) -> CABackwardResult:
    """Check/construct the backward extension (prefix..., c_0, ..., c_n).

    `prefix` lists the new values in ascending index order, deepest first:
    (c_{-r}, ..., c_{-1}).  `tau` is a representing measure on (0, 1] of some
    completely alternating extension of c (defaults to the recovered minimal
    one); a measure with mass at zero is rejected because every interior
    condition integrates a negative power.

    Interior slots must satisfy  c_{-k} = c_{-k-1} + integral t^-(k+1) dtau,
    the deepest slot the matching inequality; the representing measure of
    the extension is then t^-r dtau plus the slack at zero.
    """
    values = _values(c)
    prefix = [v if isinstance(v, float) else Fraction(v) for v in prefix]
    if not prefix:
        raise DomainError("empty prefix")
    r = len(prefix)
    if tau is None:
        verdict = has_ca_extension(values)
        if not verdict.has_extension:
            raise NotAMomentSequence("base sequence has no completely alternating extension")
        tau = verdict.measure
    if tau.zero_mass != 0:
        raise ZeroAtomError("supplied representing measure has mass at zero")

    ext = {-k: prefix[r - k] for k in range(1, r + 1)}
    ext[0] = values[0]
    # interior equalities: c_{-k} = c_{-k-1} + integral t^-(k+1)
    for k in range(0, r - 1):
        expected = ext[-(k + 1)] + tau.moment(-(k + 1))
        if ext[-k] != expected:
            return CABackwardResult(
                False, violated=f"slot {-k}: expected {expected}, given {ext[-k]}")
    bound = ext[-r] + tau.moment(-r)
    if ext[-(r - 1)] < bound:
        return CABackwardResult(
            False, violated=f"slot {-(r - 1)}: needs at least {bound}, given {ext[-(r - 1)]}")
    slack = ext[-(r - 1)] - bound
    rho = CAMeasure(slack, tau.positive.tilted(-r))
    return CABackwardResult(True, rho)
