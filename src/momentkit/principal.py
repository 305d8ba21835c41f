"""Principal and minimal-support representing measures.

A strictly positive sequence on [a, b] has exactly two representing measures
of minimal index; their atoms are roots of bordered-Hankel determinant
polynomials and their masses follow from an exact Vandermonde solve.  On
(0, inf) the odd-length case has a unique minimal measure (the same
polynomial, interval-independent); the even-length case is a one-parameter
family exposed as a lazy handle.  On (0, 1] the minimal measure is unique in
both parities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInput, NotStrictlyPositive
from .measure import AtomicMeasure
from .numeric import (Polynomial, Scalar, det_poly, real_roots, root_precision,
                      vandermonde_masses)
from .positivity import (PositivityClass, _values, classify_compact,
                         classify_half_open, classify_ray)


MASS_REFINEMENTS = 3


class PrincipalKind(Enum):
    LOWER = "Lower"
    UPPER = "Upper"


def bordered_hankel_poly(window: Sequence[Scalar]) -> Polynomial:
    """det of the Hankel block of a length-2m window bordered by the
    monomial column (1, t, ..., t^m); degree m."""
    window = list(window)
    if len(window) % 2 != 0 or not window:
        raise DegenerateInput("bordered layout needs an even, nonempty window")
    m = len(window) // 2
    rows = [[window[i + j] for j in range(m)] for i in range(m + 1)]
    poly = det_poly(rows)
    if poly.degree != m:
        raise DegenerateInput("bordered determinant degenerated (leading minor vanished)")
    return poly


def root_bound(poly: Polynomial) -> Fraction:
    """Cauchy bound on the magnitude of the roots."""
    lead = abs(poly.coeffs[-1])
    return 1 + max(abs(Fraction(c) if not isinstance(c, float) else c) / lead
                   for c in poly.coeffs)


def measure_from_poly(poly: Polynomial, window: Sequence[Scalar],
                      lo: Scalar, hi: Scalar) -> AtomicMeasure:
    """Measure whose atoms are the roots of `poly` in [lo, hi] and whose
    masses match the leading moments of `window`.

    Raises DegenerateInput when the root count falls short of the degree or
    any mass fails to be positive; verifies the full window when the atoms
    are exact.  A mass computed from enclosures of irrational roots can take
    the wrong sign when it is tiny (a far atom near an unattained infimum
    carries mass ~1e-43), so the enclosures are narrowed by 2^-64 up to
    MASS_REFINEMENTS times before a nonpositive mass is final.
    """
    width = root_precision()
    for _ in range(MASS_REFINEMENTS + 1):
        roots = real_roots(poly, lo, hi, precision=width)
        if len(roots) != poly.degree:
            raise DegenerateInput(
                f"expected {poly.degree} simple roots in range, found {len(roots)}")
        masses = vandermonde_masses(roots, list(window))
        roots_exact = all(poly(r) == 0 for r in roots)
        if all(mass > 0 for mass in masses) or roots_exact or any(
                isinstance(r, float) for r in roots):
            break
        width /= 2 ** 64
    for mass in masses:
        if not mass > 0:
            raise DegenerateInput("nonpositive mass in principal construction")
    exact = roots_exact and not any(
        isinstance(v, float) for v in list(window) + list(roots))
    mu = AtomicMeasure(list(zip(roots, masses)), exact=exact)
    if mu.support_size != poly.degree:
        raise DegenerateInput("coinciding atoms in principal construction")
    if exact:
        for k, v in enumerate(window):
            if mu.moment(k) != v:
                raise DegenerateInput("principal measure fails its moment window")
    return mu


def principal_polynomial(values, a: Scalar, b: Scalar,
                         kind: PrincipalKind) -> Polynomial:
    """Atom polynomial of the lower/upper principal measure on [a, b].

    Valid for any a < b (the Hankel transforms do not need a > 0); no
    positivity gating happens here.
    """
    values = _values(values)
    n = len(values) - 1
    if n % 2 == 1:  # n = 2m - 1
        if kind is PrincipalKind.LOWER:
            return bordered_hankel_poly(values)
        transformed = [(a + b) * values[k + 1] - a * b * values[k] - values[k + 2]
                       for k in range(n - 1)]
        if transformed:
            inner = bordered_hankel_poly(transformed)
        else:
            inner = Polynomial([1])
        # (t - a)(b - t) * inner
        return inner.mul(Polynomial([-a * b, a + b, -1]))
    # n = 2m
    if kind is PrincipalKind.LOWER:
        low = [values[k + 1] - a * values[k] for k in range(n)]
        inner = bordered_hankel_poly(low) if low else Polynomial([1])
        return inner.mul_linear(-a, 1)
    high = [b * values[k] - values[k + 1] for k in range(n)]
    inner = bordered_hankel_poly(high) if high else Polynomial([1])
    return inner.mul_linear(b, -1)


def principal_compact(s, a: Scalar, b: Scalar, kind: PrincipalKind) -> AtomicMeasure:
    """Lower/upper principal measure of a strictly positive sequence on
    [a, b] with 0 < a < b."""
    values = _values(s)
    if not 0 < a < b:
        raise NotStrictlyPositive("principal measures need 0 < a < b")
    if classify_compact(values, a, b).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on the interval")
    poly = principal_polynomial(values, a, b, kind)
    return measure_from_poly(poly, values, a, b)


@dataclass
class MinimalRayFamily:
    """Lazy handle over the minimal-support measures of an even-length
    strictly positive sequence on (0, inf), keyed by the reciprocal moment
    x in (threshold, inf)."""

    sequence: tuple

    @property
    def atom_count(self) -> int:
        return (len(self.sequence) + 1) // 2

    def threshold(self) -> Scalar:
        from .extremal import reciprocal_inf_ray
        return reciprocal_inf_ray(self.sequence)

    def __call__(self, x: Scalar) -> AtomicMeasure:
        from .backward import minimal_measure_with_reciprocal
        return minimal_measure_with_reciprocal(self.sequence, x)


def minimal_measure_ray(s):
    """Minimal-support measure on (0, inf): the unique one for odd top
    degree, a MinimalRayFamily handle for even top degree."""
    values = _values(s)
    if classify_ray(values).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on (0, inf)")
    n = len(values) - 1
    if n % 2 == 0:
        return MinimalRayFamily(values)
    poly = bordered_hankel_poly(values)
    return measure_from_poly(poly, values, Fraction(0), root_bound(poly))


def minimal_measure_half_open(s) -> AtomicMeasure:
    """The unique minimal-index measure on (0, 1]; the even case of a
    strictly positive sequence always carries the atom 1.  Singularly
    positive sequences are determinate, so their unique measure is returned
    as well."""
    values = _values(s)
    verdict = classify_half_open(values)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotStrictlyPositive("sequence is not positive on (0, 1]")
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        from .positivity import HalfOpen, recover_minimal_measure
        return recover_minimal_measure(values, HalfOpen())
    n = len(values) - 1
    if n % 2 == 1:
        poly = bordered_hankel_poly(values)
    else:
        diffs = [values[k] - values[k + 1] for k in range(n)]
        inner = bordered_hankel_poly(diffs) if diffs else Polynomial([1])
        poly = inner.mul_linear(1, -1)  # (1 - t) factor
    return measure_from_poly(poly, values, Fraction(0), Fraction(1))
