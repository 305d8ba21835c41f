"""Singular measure recovery on a given domain, and the criterion forms of
a window read back as matrices of entries.

`recover_minimal_measure` and `recover_support_and_masses` read the unique
measure of a singularly positive window from the support polynomial its
verdict kept (`positivity._support_ints`).  `compact_criterion_matrices`
and `ray_limit_matrices` read the entries of the deciding Hankel forms back
from their integer images, for the tests.  No command-line kind runs them,
so they live apart from `positivity`, which serves every public name here
on first use (see `momentkit._serve`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInput, DomainError, NotAMomentSequence
from .measure import AtomicMeasure, ZERO_MEASURE
from .numeric import HankelImage, Scalar
from .positivity import (Compact, Domain, PositivityClass, _determinate_poly, _support_ints,
                         _values, _verdict_window, _Window, classify_compact)
from .principal import _support_measure, _window_atoms


def compact_criterion_matrices(values: Sequence[Scalar], a: Scalar, b: Scalar):
    """The entries of the two Hankel forms whose joint nonnegativity decides
    positivity on [a, b], read back from their integer images (`_Window`).
    Even length 2m+1: s itself and the transform
    s'_k = (a+b) s_(k+1) - ab s_k - s_(k+2); odd length 2m+2: the
    transforms s_(k+1) - a s_k and b s_k - s_(k+1).  Refuses what
    `classify_compact` refuses: a >= b and the empty sequence."""
    if not a < b:
        raise DomainError("compact interval needs a < b")
    if not values:
        raise DomainError("empty sequence")
    w = _Window.of(values, None, (a, b))
    if len(values) % 2 == 1:
        return _entries(w.lam, w.hankel(), w.interior(a, b).hankel())
    return _entries(w.lam, w.lower(a), w.upper(b))


def _entries(lam: int, *forms: HankelImage) -> tuple:
    """The entries of forms given by their integer images over a window
    dilated by lam: entry k is ints[k] / (unit * lam^k)."""
    return tuple([Fraction(x, f.unit * lam ** k) for k, x in enumerate(f.ints)] for f in forms)


def ray_limit_matrices(values: Sequence[Scalar]):
    """The entries of H(s) and of M, H(s shifted by one), largest orders,
    read back from their integer images.  Refuses the empty sequence, as
    `classify_ray` does."""
    if not values:
        raise DomainError("empty sequence")
    w, n = _Window.of(values), len(values) - 1
    return _entries(w.lam, w.hankel(0, n // 2 * 2 + 1), w.hankel(1, (n + 1) // 2 * 2))


def _compact_singular(values, a: Scalar, b: Scalar) -> _Window:
    """The image of a singularly positive window on [a, b] (any a < b)."""
    verdict = classify_compact(values, a, b)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotAMomentSequence("sequence is not positive on the interval")
    if verdict.kind is PositivityClass.STRICTLY_POSITIVE:
        raise DegenerateInput("sequence is strictly positive; nothing to recover")
    return _verdict_window(values, verdict, None, (a, b))


def recover_support_and_masses(values, a: Scalar, b: Scalar) -> tuple:
    """(position, mass) pairs of the unique representing measure of a
    singularly positive window on [a, b], and whether they are exact;
    positions may include a, even a = 0 (the alternating reductions).
    Read as `recover_minimal_measure` reads the measure."""
    values = _values(values)
    if all(v == 0 for v in values):
        return [], True
    w = _compact_singular(values, a, b)
    pairs, _, exact = _window_atoms(w, _support_ints(w, (a, b)), a, b)
    return pairs, exact


def recover_minimal_measure(s, domain: Domain) -> AtomicMeasure:
    """Unique representing measure of a singularly positive sequence (on
    the ray and on (0, 1] also of any window `_determinate_poly` passes):
    its atoms are the roots of the support polynomial in the domain, read
    on the integers its verdict or its kept determinacy test built
    (`principal._support_measure`), so a window classified first builds
    them once."""
    values = _values(s)
    if all(v == 0 for v in values):
        return ZERO_MEASURE
    if isinstance(domain, Compact):
        w = _compact_singular(values, domain.a, domain.b)
    else:
        w = _Window.of(values)
        if _determinate_poly(w, domain) is None:
            raise NotAMomentSequence("sequence is not positive on the domain")
    return _support_measure(w, domain)
