"""Extremal values of the reciprocal integral over representing measures.

For a strictly positive sequence the integral of 1/t over its representing
measures on [a, b] spans a closed interval whose endpoints are attained at
the two principal measures.  Both endpoint values are computed exactly from
the identity

    integral of 1/t dmu  =  -q(0) / p(0),      q(0) = L_s((p(t) - p(0)) / t),

q being the associated polynomial of the atom polynomial p under the window
(`numeric.associated`, whose values at the atoms also give the masses),
applied to the two principal polynomials, then ordered by comparison; this
sidesteps any orientation bookkeeping and stays rational even when the atoms
are irrational.  It is one integer sum over the integers of p kept on the
window and the window's image (`_reciprocal_value`), with one `Fraction`
per value, rounded once on a float window.

On (0, inf) the supremum is unbounded (witnessed constructively) and the
infimum is exact in both parities: attained by the minimal measure for odd
top degree, and for even top degree equal to the value of the odd prefix
(dropping the top moment) without being attained.  On (0, 1] the infimum is
exact in both parities.

The infimum of a strictly positive window needs no measure.  It is the
least value y that keeps y, s_0, s_1, ... positive, and y sits only in the
corner of the Hankel form that bounds it, so it is the Schur complement
y* = base + b^T M^-1 b of that corner (`_schur_threshold`), read from one
leading-minor pass over the window's integer image.  That pass reduces M,
one of the window's two limit forms, first, so `reciprocal_inf_*` decide M
from it as well (for exact input): a strict window costs the pass of its
other limit form and this one.  A value prepended one level earlier sits
only in the border b over the same M, so the infimum is an exact quadratic
in it (`completion._schur_quadratic`), read from the same kind of pass.  A singular
window's infimum is the reciprocal moment of its unique measure: the
identity above, with p its support polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._record import FrozenRecord
from .errors import ConvergenceError, DegenerateInput, NotStrictlyPositive
from .measure import AtomicMeasure
from .numeric import Polynomial, Scalar, _integer_scale, _read, as_fraction, associated
from .positivity import (HalfOpen, PositivityClass, PositivityVerdict, Ray, _Window,
                         _classify_limit, _limit_window, _odd_half_open, _support_ints, _values,
                         classify_compact, classify_ray)
from .principal import PrincipalKind, _atom_ints, _dilated, _principal_measure

class ExtremalBounds(FrozenRecord):
    """Extremal reciprocal integrals and the measures attaining them.
    t_hi is math.inf (with attained_hi None) on unbounded domains."""

    _fields = ("t_lo", "t_hi", "attained_lo", "attained_hi")

    def __init__(self, t_lo: Scalar, t_hi: Scalar, attained_lo: Optional[AtomicMeasure] = None,
                 attained_hi: Optional[AtomicMeasure] = None):
        self.__dict__.update(t_lo=t_lo, t_hi=t_hi, attained_lo=attained_lo,
                             attained_hi=attained_hi)


def reciprocal_value_from_poly(poly: Polynomial, values: Sequence[Scalar]) -> Scalar:
    """-q(0)/p(0) for a polynomial p vanishing at every atom of a measure
    whose leading moments are `values`, q being its associated polynomial
    (`numeric.associated`); equals the measure's reciprocal integral.
    Needs deg(p) <= len(values) and p(0) != 0.  A view of `_reciprocal_value`,
    on a float window if the input holds a float (as `atoms_from_poly`)."""
    w = _Window.of(values, None, poly.coeffs)
    return _reciprocal_value(w, _integer_scale([as_fraction(c) for c in poly.coeffs])[0])


def _reciprocal_value(w: _Window, p: list) -> Scalar:
    """-q(0)/p(0) for an integer polynomial p kept on the window w: on w's
    image S, -lam Q(0) / (unit P(0)), P the `principal._dilated` p that
    `principal._masses` reads and Q its associated polynomial under S."""
    if p[0] == 0:
        raise DegenerateInput("atom polynomial vanishes at zero")
    if len(p) - 1 > len(w.ints):
        raise DegenerateInput("moment window too short for the sigma functional")
    P = _dilated(p, w.lam)
    return _read(-w.lam * next(associated(P, w.ints), 0), w.unit * P[0], w.floats)


def _principal_values(w: _Window, a, b) -> list:
    """(reciprocal value, kind) of the lower and the upper principal measure
    on [a, b] of the window w, in that order; each value is read on its
    polynomial's integers and kept on w beside them (`principal._atom_ints`)."""
    return [(w.kept((a, b, kind, "value"), lambda: _reciprocal_value(
        w, _atom_ints(w, (a, b, kind))[0])), kind) for kind in PrincipalKind]


def compact_reciprocal_values(values, a, b):
    """(lower-principal value, upper-principal value) on [a, b]."""
    return tuple(v for v, _ in _principal_values(_Window.of(_values(values), None, (a, b)), a, b))


def reciprocal_extremes_compact(s, a: Scalar, b: Scalar) -> ExtremalBounds:
    """Extremal reciprocal integrals over representing measures on [a, b],
    with the attaining principal measures attached."""
    values = _values(s)
    if not 0 < a < b:
        raise NotStrictlyPositive("need 0 < a < b")
    if classify_compact(values, a, b).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on the interval")
    w = _Window.of(values, None, (a, b))
    pairs = sorted(_principal_values(w, a, b), key=lambda pair: pair[0])
    if pairs[0][0] == pairs[1][0]:
        raise DegenerateInput("principal reciprocal values coincide")
    lo, hi = (_principal_measure(w, a, b, kind) for _, kind in pairs)
    return ExtremalBounds(pairs[0][0], pairs[1][0], lo, hi)


def _first_strict_interval(values):
    for q in range(1, 31):
        a, b = Fraction(1, 2 ** q), Fraction(2 ** q)
        if classify_compact(values, a, b).kind is PositivityClass.STRICTLY_POSITIVE:
            return a, b, q
    raise ConvergenceError("no strictly positive compact window found")


def _schur_threshold(w: _Window, domain) -> Optional[Scalar]:
    """Reciprocal infimum of a strictly positive window on the ray or on
    (0, 1]: the least y for which y, s_0, s_1, ... keeps its Hankel form
    positive semidefinite.  y sits only in the corner of that form, so
    (Curto and Fialkow, Houston J. Math. 17 (1991)) the infimum is the
    Schur complement

        y* = base + b^T M^-1 b = base - lam a[m][m] / (unit * a[m-1][m-1])

    of `_Window.slot_pass`, whose pivots are unit^k times the leading
    minors; a single moment gives y* = base.  On a window dilated by lam
    the pass gives y~* = y* / lam, so y* is lam y~*, except on the
    differences form of an even-n window on (0, 1], whose corner already
    reads y* - s_0 (see `slot_pass`).  None when M is not positive
    definite, which shows that the window is not strictly positive.  Float
    input runs on its binary-exact image, so M is exactly the form that
    classified the window: a strict verdict always lets the pass reach the
    corner."""
    m = len(w.ints) // 2
    differences = _odd_half_open(w, domain)
    pivot, corner = 1, 0
    if m:
        r, a, _ = w.slot_pass(domain)
        if r != m:
            return None
        pivot, corner = a[m - 1][m - 1], (1 if differences else w.lam) * a[m][m]
    # base = ints[0] / unit on the differences form, over one denominator
    return _read((w.ints[0] * pivot if differences else 0) - corner, w.unit * pivot, w.floats)


def _reciprocal_inf(w: _Window, verdict: PositivityVerdict, domain) -> Scalar:
    """Reciprocal infimum on the ray or on (0, 1] of a window whose verdict
    on that domain is `verdict` (see `reciprocal_inf_ray`): a singular
    window's as the reciprocal moment of its unique measure, read on its
    support integers (`positivity._support_ints`, `_reciprocal_value`, exact
    for irrational atoms too), a strict one's as the Schur complement
    `_schur_threshold`."""
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        where = "(0, inf)" if isinstance(domain, Ray) else "(0, 1]"
        raise NotStrictlyPositive(f"sequence is not positive on {where}")
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        return _reciprocal_value(w, _support_ints(w))
    return _schur_threshold(w, domain)  # M was found positive definite


def _classified_inf(s, domain) -> Scalar:
    """`_reciprocal_inf` of a window classified with M read from the pass
    that gives a strict window's infimum (`positivity._classify_limit`)."""
    w = _limit_window(s)
    return _reciprocal_inf(w, _classify_limit(w, domain), domain)


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
    return _classified_inf(s, Ray())


def reciprocal_inf_half_open(s) -> Scalar:
    """Infimum of the reciprocal integral on (0, 1]; exact in both parities
    (the minimizing measure's polynomial does not depend on the left
    endpoint).  A singularly positive sequence is determinate and the value
    is the reciprocal moment of its unique measure."""
    return _classified_inf(s, HalfOpen())


def reciprocal_sup_ray_bounds(s) -> ExtremalBounds:
    """Bounds object for (0, inf): exact infimum (not attained for even top
    degree), unbounded supremum."""
    values = _values(s)
    t_lo = reciprocal_inf_ray(values)
    return ExtremalBounds(t_lo, math.inf, None, None)


def unbounded_reciprocal_witness(s, target: Scalar):
    """Interval [a, b] on which the compact supremum exceeds `target`;
    exists for every strictly positive sequence because the supremum blows
    up as a -> 0."""
    values = _values(s)
    if classify_ray(values).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on (0, inf)")
    a, b, _ = _first_strict_interval(values)
    for _ in range(500):
        v_low, v_up = compact_reciprocal_values(values, a, b)
        if max(v_low, v_up) > target:
            return a, b
        a = a / 2
    raise ConvergenceError("supremum failed to exceed the target before the cap")
