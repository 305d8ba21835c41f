"""Principal and minimal-support representing measures.

A strictly positive sequence on [a, b] has exactly two representing measures
of minimal index.  Their atoms are the roots of bordered-Hankel polynomials,
det H_m (t^m - sum c_j t^j) with H_m c = (s_m, ..., s_(2m-1)) for the window
or one of its transforms, read from one leading-minor pass of H_m and one
back substitution (Curto and Fialkow, Houston J. Math. 17 (1991)), times
the factor of the ends among the atoms (`positivity._times_factor`), all
built in one place on the window's integer image and kept on it
(`_atom_ints`; `bordered_hankel_poly`, `atom_polynomial` and
`principal_polynomial` are views of it).  The unique measure of a singular
window is read the same way from its support polynomial, which
`positivity._support_ints` keeps on the window (`_support_measure`).  Every
such measure is isolated on the integers of its polynomial, and its masses
are Gauss-Christoffel weights q(x)/p'(x), q the associated polynomial, read
on p itself and the window's image (`_window_atoms`, `_masses`); the atom
hint of a completion certificate's recurrence is read where isolation left
the roots, to 2^-HINT_BITS relative (`completion._minimal_hint`).  A float
window runs the same path on its binary-exact image, its roots isolated a
little past the ends (`numeric._widened`) and clamped back, and each
position and mass rounded once at the end.  A measure of an exact window
keeps the image of its atoms for its moments and its tilts.  On (0, inf)
the odd-length case has a unique minimal
measure (the same polynomial, interval-independent); the even-length case
is a one-parameter family exposed as a lazy handle.  On (0, 1] the minimal
measure is unique in both parities: the lower (even length) or upper (odd
length) principal measure on [0, 1].
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from ._record import Record
from .errors import DegenerateInput, InsufficientMoments, NotStrictlyPositive, ShapeError
from .measure import ZERO_MEASURE, AtomicMeasure, _AtomImage, _imaged
from .numeric import (HankelImage, Polynomial, Scalar, _derivative, _horner, _integer_scale,
                      _isolate, _minor_pass, _pass_bordered, _primitive, _to_float, _widened,
                      as_fraction, associated, root_precision)
from .positivity import (Compact, HalfOpen, PositivityClass, Ray, _Window, _classify_limit,
                         _ends, _finite, _limit_window, _support_ints, _times_factor, _values,
                         _verdict_window, _view, classify_compact, classify_half_open)


class PrincipalKind(Enum):
    LOWER = "Lower"
    UPPER = "Upper"


def bordered_hankel_poly(window: Sequence[Scalar]) -> Polynomial:
    """det of the Hankel block H_m of a length-2m window bordered by the
    row (s_m, ..., s_(2m-1), t^m) and the column (1, t, ..., t^m); degree
    m.  H_m must be positive definite, as it is for every strictly positive
    window, else DegenerateInput.  A view of `_atom_ints`."""
    return _atom_poly(_Window.of(window), Ray())


def _bordered_ints(form: HankelImage, lam: int, minor_pass: Optional[tuple] = None) -> tuple:
    """(ints, num, den): the bordered-Hankel polynomial of the form is
    num / den > 0 times the integers `ints`; [1] for the empty form.

    The polynomial is det H_m (t^m - sum c_j t^j) with
    H_m c = (s_m, ..., s_(2m-1)), det H_m times the monic support
    polynomial that `positivity._support_ints` reads off the same pass: one
    `_minor_pass` of the rows of H_m with the column of the right-hand
    side, m positive pivots, and one back substitution
    (`numeric._pass_bordered`).  It runs without the float zero test, on
    the exact or binary-exact image.  lam is the window's own, chosen once
    by `numeric._dilated_scale` (1 for a float window), and
    `_pass_bordered` divides it back out.  A leading block H_m
    that is not positive definite raises DegenerateInput.  `minor_pass` is
    the pass if the caller holds it (an exact `_Window.support_pass`)."""
    m = len(form.ints) // 2
    if m == 0:
        return [1], 1, 1
    r, a, _ = minor_pass or _minor_pass(HankelImage(form.ints, form.unit), m)
    if r < m:
        raise DegenerateInput("bordered layout needs a positive definite leading block")
    return _pass_bordered(a, m, form.unit, lam)


def _atom_ints(w: _Window, where) -> tuple:
    """(ints, num, den): the atom polynomial of the measure `where` of the
    window w (`Ray()` or `HalfOpen()` for the minimal one, (a, b, kind) for
    a principal one) is num / den > 0 times `ints`; kept on w.  It is the
    `_bordered_ints` of H(s), from the kept `support_pass` of an exact
    window (even length: on the ray, lower), or of a transform times the
    end factor, multiplied in on integers (`_times_factor`): the interior
    form times (t - a)(b - t) (even, upper), s_(k+1) - a s_k times t - a
    (odd, lower), b s_k - s_(k+1) times b - t (odd, upper; on (0, 1] at
    b = 1).  H(s) of an odd-length or empty window raises DegenerateInput."""
    even = len(w.ints) % 2 == 0
    if isinstance(where, HalfOpen) and not even:
        where = (0, 1, PrincipalKind.UPPER)
    elif not isinstance(where, tuple) or (even and where[2] is PrincipalKind.LOWER):
        where = None  # H(s)
    else:  # an exact end factor, binary-exact for float ends
        where = (as_fraction(where[0]), as_fraction(where[1]), where[2])

    def make():
        a, b, kind = where or (None, None, None)
        if where is None:
            if not even or not w.ints:
                raise DegenerateInput("bordered layout needs an even, nonempty window")
            form, factor = w.hankel(), ()
        elif even:
            form, factor = w.interior(a, b).hankel(), (-a * b, a + b, -1)
        elif kind is PrincipalKind.LOWER:
            form, factor = w.lower(a), (-a, 1)
        else:
            form, factor = w.upper(b), (b, -1)
        ints, num, den = _bordered_ints(form, w.lam, None if w.floats or factor
                                        else w.support_pass())
        ints, scale = _times_factor(ints, factor)
        return ints, num, den * scale
    return w.kept(("atoms", where), make)


def _atom_poly(w: _Window, where) -> Polynomial:
    """`_atom_ints` as a `Polynomial`, rounded once on a float window."""
    ints, num, den = _atom_ints(w, where)
    return _view([Fraction(x * num, den) for x in ints], w.floats)


def atom_polynomial(window: Sequence[Scalar], domain) -> Polynomial:
    """Atom polynomial of the minimal measure of a strictly positive window
    on the ray or on (0, 1] (`_atom_ints`): on (0, 1] for odd length (1 - t)
    times the bordered-Hankel polynomial of the differences s_k - s_(k+1),
    whose measure carries the atom 1, else that of the window.  A window
    that is not strictly positive may raise DegenerateInput."""
    return _atom_poly(_Window.of(window), domain)


def root_bound(poly: Polynomial) -> Scalar:
    """Cauchy bound on |root| (`_cauchy_bound`), a float for float coefficients."""
    bound = _cauchy_bound(_integer_scale([as_fraction(c) for c in poly.coeffs])[0])
    return _to_float(bound) if any(isinstance(c, float) for c in poly.coeffs) else bound


def _cauchy_bound(ints) -> Fraction:
    """1 + max |c| / |lead| of integer coefficients, above every |root|."""
    return 1 + Fraction(max(map(abs, ints)), abs(ints[-1]))


def atoms_from_poly(poly: Polynomial, window: Sequence[Scalar],
                    lo: Scalar, hi: Scalar) -> tuple:
    """(position, mass) pairs whose positions are the roots of `poly` in
    [lo, hi] and whose masses match the leading moments of `window`, and
    whether they are exact.  Positions may include lo = 0.

    Raises DegenerateInput when the root count falls short of the degree or
    any mass fails to be positive; verifies the full window when the atoms
    are exact.  A mass at an irrational root is of certain sign and within
    `root_precision()` relative of the true one (`_atoms_and_image`).  A
    float anywhere in the input makes the result floats, read as a float
    window is read (`_window_atoms`); a non-finite one raises DomainError."""
    pairs, _, exact = _poly_atoms(poly, window, lo, hi)
    return pairs, exact


def _poly_atoms(poly: Polynomial, window: Sequence[Scalar], lo: Scalar, hi: Scalar) -> tuple:
    """`_window_atoms` of the roots of `poly` in [lo, hi] on its integer
    coefficients: on a float window if any input is a float."""
    if poly.is_zero():
        raise DegenerateInput("zero polynomial has no isolated roots")
    given = (*poly.coeffs, lo, hi)
    _finite(given, "in a polynomial or its interval")
    if not lo <= hi:
        raise ShapeError("empty interval")
    w = _Window.of(window, None, given)  # a float among them makes a float window
    return _window_atoms(w, _integer_scale([as_fraction(c) for c in poly.coeffs])[0], lo, hi)


def _atoms_and_image(enclosures: list, p, window: Sequence[Scalar],
                     scaled: Optional[tuple] = None, clamp: Optional[tuple] = None) -> tuple:
    """`atoms_from_poly` of the ascending RootEnclosures of every root of
    the polynomial with the integer coefficients `p`, as (pairs, image,
    exact): `image` is the integer image (`measure._AtomImage`) of the
    atoms.  `scaled` is the window's image (ints, unit, lam) if the caller
    holds one (`positivity._Window`), else it is made here.  A position is
    the root or the midpoint of its enclosure narrowed to
    `root_precision()`, read once per measure, a mass q(x)/p'(x) read on p
    (`_masses`), so an inexact measure matches s_0..s_(c-1) only to that
    precision; exact atoms must reproduce the whole window.  `clamp` is the
    interval (lo, hi) of a float window: each root is clamped to it and
    rounded (`RootEnclosure.to_float`) and each mass read to 2^-56 relative,
    below a float's last bit, and rounded, with no image and no window
    check, and `exact` is False."""
    _one_per_root(enclosures, p)
    S, unit, lam = scaled or (*_integer_scale(list(window)), 1)
    if len(S) < len(enclosures):
        raise InsufficientMoments("moment window shorter than atom count")
    if clamp:
        eps = Fraction(1, 2 ** 56)
        roots = [e.to_float(*clamp) for e in enclosures]
    else:
        eps = root_precision() if enclosures else None
        roots = [e.refine(eps) for e in enclosures]
    exact = all(e.root is not None for e in enclosures)
    masses = _masses(p, enclosures, S, unit, lam, eps)
    if clamp:
        return [(x, _to_float(mass)) for x, mass in zip(roots, masses)], None, False
    pairs = list(zip(roots, masses))
    image = _AtomImage.of(pairs)
    # exact atoms: moment k of the image, N_k / (V Q^k), is S_k / (unit lam^k)
    left, right = unit, image.V
    for k, (x, n) in enumerate(zip(S, image.up.upto(len(S) - 1) if exact else ())):
        if k:
            left, right = left * lam, right * image.Q
        if left * n != x * right:
            raise DegenerateInput("principal measure fails its moment window")
    return pairs, image, exact


def _one_per_root(enclosures: list, p: list) -> None:
    """Raise DegenerateInput unless there is one enclosure per root of the
    integer polynomial p."""
    if len(enclosures) != len(p) - 1:
        raise DegenerateInput(
            f"expected {len(p) - 1} simple roots in range, found {len(enclosures)}")


def _masses(p: list, enclosures: list, S: list, unit: int, lam: int, eps: Fraction,
            shift: int = 0) -> list:
    """The masses at the roots of the integer polynomial p for the window
    with the image S_k = unit lam^k s_k: m = q(lam x) / (unit p'(lam x)),
    p here the image lam^c p(t / lam), whose roots are the atoms lam x, and
    q its associated polynomial under S (`numeric.associated`); exact at a
    rational root, read on its enclosure to `eps` relative at an irrational
    one (`_enclosed_mass`, on the derivatives `_taylor` builds once per
    call).  With shift >= 0 they are the masses m x^shift of t^shift dmu:
    q is read times t^shift, over unit lam^shift, and p' padded to the same
    length, so that both keep one homogeneous degree.
    Raises DegenerateInput unless every mass is positive."""
    p = _dilated(_primitive(p), lam)
    q, dp = list(associated(p, S)), _derivative(p)
    if shift:
        q, dp, unit = [0] * shift + q, dp + [0] * shift, unit * lam ** shift
    masses, taylor = [], None
    for e in enclosures:
        mass = None
        if e.root is None:
            taylor = taylor or _taylor(p, q, dp)
            mass = _enclosed_mass(e, taylor, unit, lam, eps)
        if mass is None:
            num, den = lam * e.root.numerator, e.root.denominator
            mass = Fraction(_horner(q, num, den), unit * _horner(dp, num, den))
        masses.append(mass)
    if not all(mass > 0 for mass in masses):
        raise DegenerateInput("nonpositive mass in principal construction")
    return masses


def _dilated(p: list, lam: int) -> list:
    """lam^c p(t / lam), c = deg p: the image of p on a window dilated by lam."""
    c = len(p) - 1
    return [x * lam ** (c - k) for k, x in enumerate(p)] if lam > 1 else p


def _taylor(p: list, q: list, dp: list) -> tuple:
    """(p, q, dq, dp, ddp, bound_q, bound_dp): what `_enclosed_mass` reads
    at every irrational root of p, built once per `_masses` call; bound_f
    holds the absolute values of the coefficients of f'', for f = q and p'."""
    dq, ddp = _derivative(q), _derivative(dp)
    bound_q, bound_dp = ([abs(x) for x in _derivative(f)] for f in (dq, ddp))
    return p, q, dq, dp, ddp, bound_q, bound_dp


def _enclosed_mass(e, taylor: tuple, unit: int, lam: int,
                   eps: Fraction) -> Optional[Fraction]:
    """`_masses` at the unknown root of p in the RootEnclosure e; None if
    narrowing e finds it rational.  By Taylor, |f(y) - f(u)| <= w |f'(u)|
    + w^2 max |f''| on e, u its midpoint and w its half-width, for f = q
    and p', read on `taylor` (`_taylor`).  Where |q(u)| and |p'(u)| exceed
    these bounds, the sign of m is that of q(u) p'(u), exactly, and m lies
    between the bounds.  Since q
    interlaces p and q(x) = m p'(x), the smaller m the nearer a root of q
    to x.  e is narrowed by 2^-32 while a bound is not met, and to about
    the width the bounds ask for while m is wider than `eps` relative
    (`root_precision()`); that ends unless m = 0, when p and q share a
    root."""
    p, q, dq, dp, ddp, bound_q, bound_dp = taylor
    checked = False
    while e.root is None:
        mid, den, w = lam * (e.lo + e.hi), 2 * e.den, lam * (e.hi - e.lo)
        r = 2 * lam * max(-e.lo, e.hi)
        a, b = _horner(q, mid, den), _horner(dp, mid, den)
        ea = w * (abs(_horner(dq, mid, den)) + w * _horner(bound_q, r, den))
        eb = w * (abs(_horner(ddp, mid, den)) + w * _horner(bound_dp, r, den))
        if abs(a) > ea and abs(b) > eb:
            slack = eps.numerator * (abs(a) - ea) * (abs(b) - eb)
            spread = 2 * eps.denominator * (abs(a) * eb + ea * abs(b))
            if spread <= slack or (a > 0) != (b > 0):
                return Fraction(a, unit * b)
            shrink = Fraction(slack, 2 * spread)
        else:
            if not checked:
                from ._roots import _shares_root
                if _shares_root(p, q):
                    return Fraction(0)
            checked, shrink = True, Fraction(1, 2 ** 32)
        e.refine(Fraction(e.hi - e.lo, e.den) * shrink)
    return None


def measure_from_poly(poly: Polynomial, window: Sequence[Scalar],
                      lo: Scalar, hi: Scalar) -> AtomicMeasure:
    """The measure of `atoms_from_poly` (lo >= 0 and no root at 0); for an
    exact window its masses are read on `_Window.of`'s image of the window,
    and it carries the integer image of its atoms (`_atoms_and_image`)."""
    return _carrying(*_poly_atoms(poly, window, lo, hi))


def _window_roots(w: _Window, ints: list, lo: Scalar, hi: Optional[Scalar]) -> tuple:
    """(enclosures, lo, hi): the roots in [lo, hi] (hi None for
    `_cauchy_bound`) of the integer polynomial `ints`, an atom or support
    polynomial kept on the window w, isolated on those integers; on a float
    window on the `numeric._widened` interval."""
    lo = as_fraction(lo)
    hi = _cauchy_bound(ints) if hi is None else as_fraction(hi)
    return _isolate(ints, *(_widened(lo, hi) if w.floats else (lo, hi))), lo, hi


def _window_atoms(w: _Window, ints: list, lo: Scalar, hi: Optional[Scalar],
                  enclosures: Optional[list] = None) -> tuple:
    """`_atoms_and_image` of the roots in [lo, hi] of the integer
    polynomial `ints` kept on the window w (`_window_roots`; `enclosures`
    if the caller isolated them there, lo and hi then the `Fraction` ends
    `_window_roots` gave), read on w's image with no `Fraction` polynomial
    and no second scaling; on a float window clamped to [lo, hi] and
    rounded (`clamp`)."""
    if enclosures is None:
        enclosures, lo, hi = _window_roots(w, ints, lo, hi)
    return _atoms_and_image(enclosures, ints, w.values, (w.ints, w.unit, w.lam),
                            (lo, hi) if w.floats else None)


def _window_measure(w: _Window, where, lo: Scalar, hi: Optional[Scalar]) -> AtomicMeasure:
    """The measure of the roots in [lo, hi] of the atom polynomial
    `_atom_ints` of the window w (`_window_atoms`)."""
    return _carrying(*_window_atoms(w, _atom_ints(w, where)[0], lo, hi))


def _support_measure(w: _Window, domain) -> AtomicMeasure:
    """The unique measure of a singular window w on the domain, kept on w:
    the roots in [a, b], (0, 1] or (0, inf) of the support polynomial
    `positivity._support_ints` keeps on w, with their masses
    (`_window_atoms`); ZERO_MEASURE for the zero window."""
    ints = _support_ints(w, _ends(domain))
    if len(ints) == 1:
        return ZERO_MEASURE
    if isinstance(domain, Compact):
        lo, hi = domain.a, domain.b
    else:
        lo, hi = Fraction(0), (Fraction(1) if isinstance(domain, HalfOpen) else None)
    return w.kept(("singular", domain), lambda: _carrying(*_window_atoms(w, ints, lo, hi)))


def _carrying(pairs: list, image, exact: bool) -> AtomicMeasure:
    """The AtomicMeasure of `_atoms_and_image`'s result, on its image."""
    if image is None:
        return AtomicMeasure(pairs, exact=False)
    return _imaged(pairs, exact, image)


def principal_polynomial(values, a: Scalar, b: Scalar,
                         kind: PrincipalKind) -> Polynomial:
    """Atom polynomial of the lower/upper principal measure on [a, b].

    Valid for any a < b (the Hankel transforms do not need a > 0).  No
    positivity gating happens here, but the window must be strictly positive
    on [a, b]: its bordered-Hankel polynomial (`_atom_ints`) needs a positive
    definite leading block and raises DegenerateInput otherwise."""
    return _atom_poly(_Window.of(_values(values), None, (a, b)), (a, b, kind))


def principal_compact(s, a: Scalar, b: Scalar, kind: PrincipalKind) -> AtomicMeasure:
    """Lower/upper principal measure of a strictly positive sequence on
    [a, b] with 0 < a < b."""
    values = _values(s)
    if not 0 < a < b:
        raise NotStrictlyPositive("principal measures need 0 < a < b")
    if classify_compact(values, a, b).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on the interval")
    return _principal_measure(_Window.of(values, None, (a, b)), a, b, kind)


def _principal_measure(w: _Window, a: Scalar, b: Scalar, kind: PrincipalKind) -> AtomicMeasure:
    """The principal measure of the window w on [a, b], kept on w."""
    return w.kept((a, b, kind, "measure"), lambda: _window_measure(w, (a, b, kind), a, b))


class MinimalRayFamily(Record):
    """Lazy handle over the minimal-support measures of an even-length
    strictly positive sequence on (0, inf), keyed by the reciprocal moment
    x in (threshold, inf)."""

    _fields = ("sequence",)

    def __init__(self, sequence: tuple):
        self.sequence = sequence

    @property
    def atom_count(self) -> int:
        return (len(self.sequence) + 1) // 2

    def threshold(self) -> Scalar:
        from .extremal import reciprocal_inf_ray
        return reciprocal_inf_ray(self.sequence)

    def __call__(self, x: Scalar) -> AtomicMeasure:
        from ._extension import minimal_measure_with_reciprocal
        return minimal_measure_with_reciprocal(self.sequence, x)


def minimal_measure_ray(s):
    """Minimal-support measure on (0, inf): the unique one for odd top
    degree, whose atom polynomial is read from the pass over H(s) that
    classified the window, at full rank (`_minimal`), a MinimalRayFamily
    handle for even top degree."""
    values = _values(s)
    w = _limit_window(values)
    if _classify_limit(w, Ray()).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on (0, inf)")
    n = len(values) - 1
    if n % 2 == 0:
        return MinimalRayFamily(values)
    return _minimal(w, Ray())


def minimal_measure_half_open(s) -> AtomicMeasure:
    """The unique minimal-index measure on (0, 1]; the even case of a
    strictly positive sequence always carries the atom 1.  Singularly
    positive sequences are determinate, so their unique measure is returned
    as well, read on the support integers their verdict built."""
    values = _values(s)
    verdict = classify_half_open(values)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotStrictlyPositive("sequence is not positive on (0, 1]")
    w = _verdict_window(values, verdict)
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        return _support_measure(w, HalfOpen())
    return _minimal(w, HalfOpen())


def _minimal_roots(w: _Window, domain) -> tuple:
    """(ints, enclosures, lo, hi): the atom polynomial `_atom_ints` of the
    minimal measure of a strictly positive window w on the ray (odd n) or
    on (0, 1], and its `_window_roots` in [0, inf) or [0, 1], isolated once
    and kept on w per domain."""
    def make():
        ints = _atom_ints(w, domain)[0]
        return (ints, *_window_roots(w, ints, Fraction(0),
                                     Fraction(1) if isinstance(domain, HalfOpen) else None))
    return w.kept(("minimal roots", type(domain)), make)


def _minimal(w: _Window, domain) -> AtomicMeasure:
    """The minimal measure of a strictly positive window w on the ray (odd
    n) or on (0, 1], read on its `_minimal_roots` and kept on w per domain."""
    def make():
        ints, enclosures, lo, hi = _minimal_roots(w, domain)
        return _carrying(*_window_atoms(w, ints, lo, hi, enclosures))
    return w.kept(("minimal", type(domain)), make)


#: Bits of the relative precision 2^-HINT_BITS of an atom hint
#: (`completion._minimal_hint`): each of its positions and masses lies within
#: 2^-HINT_BITS, relative, of the atom or mass it stands for.
HINT_BITS = 24
