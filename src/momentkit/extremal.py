"""Extremal values of the reciprocal integral over representing measures.

For a strictly positive sequence the integral of 1/t over its representing
measures on [a, b] spans a closed interval whose endpoints are attained at
the two principal measures.  Both endpoint values are computed exactly from
the determinant identity

    integral of 1/t dmu  =  -P(0) / Q(0),      P(0) = sigma((Q(t)-Q(0))/t),

applied to the two principal polynomials, then ordered by comparison; this
sidesteps any orientation bookkeeping and stays rational even when the atoms
are irrational.

On (0, inf) the supremum is unbounded (witnessed constructively) and the
infimum is exact in both parities: attained by the minimal measure for odd
top degree, and for even top degree equal to the value of the odd prefix
(dropping the top moment) without being attained.  On (0, 1] the infimum is
exact in both parities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConvergenceError, DegenerateInput, NotStrictlyPositive
from .measure import AtomicMeasure
from .numeric import Polynomial, Scalar
from .positivity import PositivityClass, _values, classify_compact, classify_half_open, classify_ray
from .principal import PrincipalKind, bordered_hankel_poly, principal_polynomial

@dataclass(frozen=True)
class ExtremalBounds:
    """Extremal reciprocal integrals and the measures attaining them.
    t_hi is math.inf (with attained_hi None) on unbounded domains."""

    t_lo: Scalar
    t_hi: Scalar
    attained_lo: Optional[AtomicMeasure] = None
    attained_hi: Optional[AtomicMeasure] = None


def reciprocal_value_from_poly(poly: Polynomial, values: Sequence[Scalar]) -> Scalar:
    """-P(0)/Q(0) for a polynomial vanishing at every atom of a measure
    whose leading moments are `values`; equals the measure's reciprocal
    integral.  Needs deg(poly) <= len(values) + 1 and Q(0) != 0."""
    q0 = poly.coeffs[0]
    if q0 == 0:
        raise DegenerateInput("atom polynomial vanishes at zero")
    quotient = poly.shifted_quotient_at_zero()
    if quotient.degree + 1 > len(values):
        raise DegenerateInput("moment window too short for the sigma functional")
    p0 = sum(c * values[j] for j, c in enumerate(quotient.coeffs))
    return -p0 / q0


def _principal_value(values, a, b, kind) -> Scalar:
    return reciprocal_value_from_poly(principal_polynomial(values, a, b, kind), values)


def compact_reciprocal_values(values, a, b):
    """(lower-principal value, upper-principal value) on [a, b]."""
    values = _values(values)
    return (_principal_value(values, a, b, PrincipalKind.LOWER),
            _principal_value(values, a, b, PrincipalKind.UPPER))


def reciprocal_extremes_compact(s, a: Scalar, b: Scalar,
                                with_measures: bool = True) -> ExtremalBounds:
    """Extremal reciprocal integrals over representing measures on [a, b],
    with the attaining principal measures attached."""
    values = _values(s)
    if not 0 < a < b:
        raise NotStrictlyPositive("need 0 < a < b")
    if classify_compact(values, a, b).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on the interval")
    v_low, v_up = compact_reciprocal_values(values, a, b)
    if v_low == v_up:
        raise DegenerateInput("principal reciprocal values coincide")
    pairs = sorted([(v_low, PrincipalKind.LOWER), (v_up, PrincipalKind.UPPER)])
    measures = (None, None)
    if with_measures:
        from .principal import principal_compact
        measures = tuple(principal_compact(values, a, b, kind) for _, kind in pairs)
    return ExtremalBounds(pairs[0][0], pairs[1][0], measures[0], measures[1])


def _first_strict_interval(values, q_max=30):
    for q in range(1, q_max + 1):
        a, b = Fraction(1, 2 ** q), Fraction(2 ** q)
        if classify_compact(values, a, b).kind is PositivityClass.STRICTLY_POSITIVE:
            return a, b, q
    raise ConvergenceError("no strictly positive compact window found")


def _singular_reciprocal(values) -> Scalar:
    """Reciprocal moment of the unique measure of a singularly positive
    window, via the support polynomial's backward moment recurrence -- exact
    even when the atoms are irrational.  The support size r is the Hankel
    rank and 2r never exceeds the window length for singular windows."""
    from .measure import MomentRecurrence
    from .numeric import hankel
    from .positivity import _leading_rank
    if all(v == 0 for v in values):
        return Fraction(0)
    n = len(values) - 1
    r = _leading_rank(hankel(values, 0, n // 2 + 1))
    if r == 0:
        return Fraction(0)
    poly = bordered_hankel_poly(list(values[:2 * r]))
    return MomentRecurrence(poly, 0, list(values)).moment(-1)


def reciprocal_inf_ray(s) -> Scalar:
    """Infimum of the reciprocal integral over representing measures on
    (0, inf), exact in both parities.  A single-moment window has infimum 0
    (mass drifts right); a singularly positive window is determinate, so the
    value is the unique measure's reciprocal moment.

    Odd top degree: the infimum is attained by the unique minimal measure,
    whose atoms are the roots of the bordered Hankel polynomial.

    Even top degree, s = s_0..s_2m strictly positive: the infimum equals the
    odd-prefix value for p = s_0..s_2m-1 and is not attained.
      * Lower bound: every representing measure of s also represents p.
      * Upper bound: p's unique m-atom minimal measure nu has H_{m+1}(nu)
        singular, while H_{m+1}(s) is positive definite and differs from it
        only in the corner, so c = s_2m - nu_2m > 0.  For a large atom b
        and 0 <= c' <= 2c, the prefix p - c' (b^(k-2m))_{k<2m} is within
        2c/b of p; strict positivity is an open condition, so it stays
        strictly positive, and its minimal measure nu' moves continuously
        with it.  The measure nu' + (c'/b^2m) delta_b represents that
        prefix plus the removed mass, i.e. p, and its 2m-th moment is
        nu'_2m + c' = nu_2m + c' + o(1): below s_2m at c' = 0, above it at
        c' = 2c, so equal to it for some c' in between.  That measure
        represents s with reciprocal integral
        int 1/t dnu' + c'/b^(2m+1)  ->  int 1/t dnu  as b -> inf.
      * Not attained: a measure of s attaining the value would be a
        minimizer for p, hence nu, whose 2m-th moment is not s_2m.
    The knife edge is therefore exact: prepending the value itself gives no
    extension, and anything above it gives a strict one."""
    values = _values(s)
    verdict = classify_ray(values)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotStrictlyPositive("sequence is not positive on (0, inf)")
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        return _singular_reciprocal(values)
    n = len(values) - 1
    if n == 0:
        return Fraction(0)
    odd = values if n % 2 == 1 else values[:-1]
    return reciprocal_value_from_poly(bordered_hankel_poly(odd), odd)


def reciprocal_inf_half_open(s) -> Scalar:
    """Infimum of the reciprocal integral on (0, 1]; exact in both parities
    (the minimizing measure's polynomial does not depend on the left
    endpoint).  A singularly positive sequence is determinate and the value
    is the reciprocal moment of its unique measure."""
    values = _values(s)
    verdict = classify_half_open(values)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotStrictlyPositive("sequence is not positive on (0, 1]")
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        return _singular_reciprocal(values)
    n = len(values) - 1
    if n % 2 == 1:
        poly = bordered_hankel_poly(values)
    else:
        diffs = [values[k] - values[k + 1] for k in range(n)]
        inner = bordered_hankel_poly(diffs) if diffs else Polynomial([1])
        poly = inner.mul_linear(1, -1)
    return reciprocal_value_from_poly(poly, values)


def reciprocal_sup_ray_bounds(s) -> ExtremalBounds:
    """Bounds object for (0, inf): exact infimum (not attained for even top
    degree), unbounded supremum."""
    values = _values(s)
    t_lo = reciprocal_inf_ray(values)
    return ExtremalBounds(t_lo, math.inf, None, None)


def unbounded_reciprocal_witness(s, target: Scalar, max_halvings: int = 500):
    """Interval [a, b] on which the compact supremum exceeds `target`;
    exists for every strictly positive sequence because the supremum blows
    up as a -> 0."""
    values = _values(s)
    if classify_ray(values).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on (0, inf)")
    a, b, _ = _first_strict_interval(values)
    for _ in range(max_halvings):
        v_low, v_up = compact_reciprocal_values(values, a, b)
        if max(v_low, v_up) > target:
            return a, b
        a = a / 2
    raise ConvergenceError("supremum failed to exceed the target before the cap")
