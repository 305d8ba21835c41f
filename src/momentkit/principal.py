"""Principal and minimal-support representing measures.

A strictly positive sequence on [a, b] has exactly two representing measures
of minimal index.  Their atoms are the roots of bordered-Hankel polynomials,
det H_m (t^m - sum c_j t^j) with H_m c = (s_m, ..., s_(2m-1)) for the window
or one of its transforms, read from one leading-minor pass of H_m and one
back substitution (Curto and Fialkow, Houston J. Math. 17 (1991)).  Their
masses are Gauss-Christoffel weights q(x)/p'(x), q the associated polynomial,
on one integer image of the atoms and the window (`_lagrange_image`; float
input through `numeric.vandermonde_masses`).  On (0, inf) the
odd-length case has a unique minimal measure (the same polynomial,
interval-independent); the even-length case is a one-parameter family
exposed as a lazy handle.  On (0, 1] the minimal measure is unique in both
parities.  A measure built here on an exact window keeps the integer image
its masses were read on, for its moments and its tilts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateInput, InsufficientMoments, NotStrictlyPositive
from .measure import AtomicMeasure, _AtomImage, _imaged
from .numeric import (HankelImage, Polynomial, Scalar, _integer_scale, _isolate, _lagrange_masses,
                      _minor_pass, _pass_bordered, _to_float, root_enclosures, root_precision,
                      vandermonde_masses)
from .positivity import (HalfOpen, PositivityClass, Ray, _Window, _classify_limit, _limit_window,
                         _support_measure, _values, classify_compact, classify_half_open)


MASS_REFINEMENTS = 3

#: A mass below 2^-TINY_MASS_BITS of the largest is checked at both ends of
#: the enclosures before it stands (`_masses_hold`).
TINY_MASS_BITS = 40


class PrincipalKind(Enum):
    LOWER = "Lower"
    UPPER = "Upper"


def bordered_hankel_poly(window: Sequence[Scalar]) -> Polynomial:
    """det of the Hankel block H_m of a length-2m window bordered by the
    row (s_m, ..., s_(2m-1), t^m) and the column (1, t, ..., t^m); degree
    m.  H_m must be positive definite, as it is for every strictly positive
    window, else DegenerateInput.  See `_bordered_image`."""
    window = tuple(window)
    if len(window) % 2 != 0 or not window:
        raise DegenerateInput("bordered layout needs an even, nonempty window")
    w = _Window.of(window)
    return _bordered_image(HankelImage(w.ints, w.unit), w.floats, w.lam,
                           None if w.floats else w.support_pass())


def _bordered_image(form: HankelImage, floats: bool, lam: int, minor_pass=None) -> Polynomial:
    """`bordered_hankel_poly` of a window of 2m entries given by its
    integer image over a window dilated by lam (`ints[k]` = `unit` lam^k
    times entry k, see `positivity._Window`): `_bordered_ints` as
    `Fraction`s, rounded for float input; the constant 1 for the empty
    window."""
    ints, num, den = _bordered_ints(form, lam, minor_pass)
    coeffs = [Fraction(x * num, den) for x in ints]
    return Polynomial([_to_float(c) for c in coeffs] if floats else coeffs)


def _bordered_ints(form: HankelImage, lam: int, minor_pass: Optional[tuple] = None) -> tuple:
    """(ints, num, den): the bordered-Hankel polynomial of the form is
    num / den > 0 times the integers `ints`.

    The polynomial is det H_m (t^m - sum c_j t^j) with
    H_m c = (s_m, ..., s_(2m-1)), det H_m times the monic support
    polynomial that `positivity._support_poly` reads off the same pass: one
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


def atom_polynomial(window: Sequence[Scalar], domain) -> Polynomial:
    """Atom polynomial of the minimal measure of a strictly positive window
    on the ray or on (0, 1]: the bordered-Hankel polynomial of an
    even-length window, and on (0, 1] for odd length (1 - t) times that of
    the differences s_k - s_(k+1), whose measure carries the atom 1.  A
    window that is not strictly positive may raise DegenerateInput (see
    `_bordered_image`)."""
    window = list(window)
    if isinstance(domain, Ray) or len(window) % 2 == 0:
        return bordered_hankel_poly(window)
    w = _Window.of(window)
    return _bordered_image(w.upper(1), w.floats, w.lam).mul_linear(1, -1)


def _atom_ints(w: _Window, domain) -> tuple:
    """`atom_polynomial` of an exact window (even on the ray) as
    `_bordered_ints` of its image `w`, times 1 - t for an odd window on
    (0, 1]: the polynomial is num / den > 0 times `ints`."""
    if isinstance(domain, Ray) or len(w.ints) % 2 == 0:
        return _bordered_ints(w.hankel(), w.lam)
    ints, num, den = _bordered_ints(w.upper(1), w.lam)
    return [x - y for x, y in zip(ints + [0], [0] + ints)], num, den


def root_bound(poly: Polynomial) -> Fraction:
    """Cauchy bound on the magnitude of the roots."""
    lead = abs(poly.coeffs[-1])
    return 1 + max(abs(c) / lead for c in poly.coeffs)


def atoms_from_poly(poly: Polynomial, window: Sequence[Scalar],
                    lo: Scalar, hi: Scalar) -> tuple:
    """(position, mass) pairs whose positions are the roots of `poly` in
    [lo, hi] and whose masses match the leading moments of `window`, and
    whether they are exact.  Positions may include lo = 0.

    Raises DegenerateInput when the root count falls short of the degree or
    any mass fails to be positive; verifies the full window when the atoms
    are exact.  A mass computed from enclosures of irrational roots can be
    far off, or take the wrong sign, when it is tiny (a far atom near an
    unattained infimum carries mass ~1e-43); `_atoms_and_image` checks such
    a mass before it stands.
    """
    pairs, _, exact = _atoms_and_image(root_enclosures(poly, lo, hi), poly.degree, window)
    return pairs, exact


def _atoms_and_image(enclosures: list, degree: int, window: Sequence[Scalar],
                     scaled: Optional[tuple] = None) -> tuple:
    """`atoms_from_poly` of the ascending RootEnclosures of a polynomial of
    degree `degree`, as (pairs, image, exact): `image` is the integer image
    (`measure._AtomImage`) the masses were read on, None for float input.
    `scaled` is the window's image (ints, unit, lam) when the caller holds
    one (`positivity._Window`); otherwise the window is scaled here, once.

    When every root comes out exact and the window is exact, the masses are
    read and the window checked on one integer image (`_exact_atoms`).
    Otherwise the masses are read at the enclosures' midpoints: on their
    Lagrange image (`_lagrange_image`) for an exact window, by
    `vandermonde_masses` for float input.  A mass that is nonpositive or
    below 2^-TINY_MASS_BITS of the largest stands only when it is positive
    and the masses read at the enclosures' lower ends agree with it to half
    of itself (`_masses_hold`); otherwise every enclosure is narrowed by
    2^-64 and the masses are read again, up to MASS_REFINEMENTS times.
    Coinciding atoms raise DegenerateInput when their masses are read."""
    if len(enclosures) != degree:
        raise DegenerateInput(
            f"expected {degree} simple roots in range, found {len(enclosures)}")
    window = list(window)
    width = root_precision()
    for _ in range(MASS_REFINEMENTS + 1):
        roots = [e.refine(width) for e in enclosures]
        settled = all(e.root is not None for e in enclosures)
        image = None
        if any(isinstance(v, float) for v in window + roots):
            masses = vandermonde_masses(roots, window)
        else:
            scaled = scaled or (*_integer_scale(window), 1)
            if settled:
                return (*_exact_atoms(roots, window, scaled), True)
            image = _lagrange_image(roots, *scaled)
            masses = [Fraction(u, image.V) for u in image.up.coeffs]
        if settled or _masses_hold(enclosures, masses, window):
            break
        width /= 2 ** 64
    _positive_masses(masses)
    return list(zip(roots, masses)), image, False


def _positive_masses(masses):
    for mass in masses:
        if not mass > 0:
            raise DegenerateInput("nonpositive mass in principal construction")


def _masses_hold(enclosures, masses, window) -> bool:
    """Whether the masses read at the midpoints of `enclosures` can stand
    (see `_atoms_and_image`)."""
    top = max(masses)
    small = [j for j, mass in enumerate(masses) if mass <= 0 or mass * 2 ** TINY_MASS_BITS < top]
    if not small:
        return True
    lower = vandermonde_masses([Fraction(e.lo, e.den) if e.root is None else e.root
                                for e in enclosures], window)
    return all(masses[j] > 0 and 2 * abs(masses[j] - lower[j]) < masses[j] for j in small)


def _lagrange_image(roots: list, S: list, unit: int, lam: int = 1) -> _AtomImage:
    """The `measure._AtomImage` of exact, ascending `roots` P_j / Q with the
    masses U_j / V (`numeric._lagrange_masses`) that match the window
    entries S_k / (unit lam^k), k < len(roots): those of the atoms
    lam P_j / Q at the dilated entries S_k / unit.  Coinciding roots raise
    DegenerateInput."""
    if len(S) < len(roots):
        raise InsufficientMoments("moment window shorter than atom count")
    P, Q = _integer_scale(roots)
    U, V = _lagrange_masses([lam * x for x in P] if lam > 1 else P, Q, S, unit)
    return _AtomImage(roots, U, V, P, Q)


def _exact_atoms(roots: list, window: list, scaled: Optional[tuple] = None) -> tuple:
    """`_atoms_and_image`'s (pairs, image) for exact, ascending `roots` and
    an exact window with the image (S, unit, lam) `scaled` (by default the
    window scaled once, lam = 1), on the `_lagrange_image`.  The atoms
    reproduce the window iff moment k of the image, N_k / (V Q^k), is
    S_k / (unit lam^k) for every k, that is unit lam^k N_k = S_k V Q^k; a
    window they fail raises DegenerateInput."""
    S, unit, lam = scaled or (*_integer_scale(window), 1)
    image = _lagrange_image(roots, S, unit, lam)
    _positive_masses(image.up.coeffs)
    left, right = unit, image.V
    for k, (x, n) in enumerate(zip(S, image.up.upto(len(S) - 1))):
        if k:
            left, right = left * lam, right * image.Q
        if left * n != x * right:
            raise DegenerateInput("principal measure fails its moment window")
    return [(x, Fraction(u, image.V)) for x, u in zip(roots, image.up.coeffs)], image


def measure_from_poly(poly: Polynomial, window: Sequence[Scalar],
                      lo: Scalar, hi: Scalar) -> AtomicMeasure:
    """The measure of `atoms_from_poly` (lo >= 0 and no root at 0).  The
    measure of an exact window carries the integer image its masses were
    read on (`_atoms_and_image`): the window's own, `_Window.of`'s."""
    w = _Window.of(window)
    return _carrying(*_atoms_and_image(root_enclosures(poly, lo, hi), poly.degree, window,
                                       None if w.floats else (w.ints, w.unit, w.lam)))


def _window_measure(ints: list, w: _Window, domain) -> AtomicMeasure:
    """`measure_from_poly` of the polynomial with integer coefficients
    `ints` (`_atom_ints`) and the exact window of image `w`, on [0, 1] or on
    [0, 1 + max |c_j| / |c_d|] (Cauchy's bound, read off the integers): the
    roots are isolated on `ints` and the masses read on `w`, with no
    `Fraction` polynomial built and no second scaling of the window."""
    lead = abs(ints[-1])
    hi = Fraction(1) if isinstance(domain, HalfOpen) else Fraction(lead + max(map(abs, ints)), lead)
    return _carrying(*_atoms_and_image(_isolate(ints, Fraction(0), hi), len(ints) - 1, w.values,
                                       (w.ints, w.unit, w.lam)))


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
    on [a, b]: its bordered-Hankel polynomial (`_bordered_image`) needs a
    positive definite leading block and raises DegenerateInput otherwise.
    """
    values = _values(values)
    if len(values) % 2 == 0 and kind is PrincipalKind.LOWER:
        return bordered_hankel_poly(values)
    w = _Window.of(values, None, (a, b))
    if len(values) % 2 == 0:  # (t - a)(b - t) times the interior polynomial
        inner = w.interior(a, b).hankel()
        return _bordered_image(inner, w.floats, w.lam).mul(Polynomial([-a * b, a + b, -1]))
    if kind is PrincipalKind.LOWER:
        return _bordered_image(w.lower(a), w.floats, w.lam).mul_linear(-a, 1)
    return _bordered_image(w.upper(b), w.floats, w.lam).mul_linear(b, -1)


def principal_compact(s, a: Scalar, b: Scalar, kind: PrincipalKind) -> AtomicMeasure:
    """Lower/upper principal measure of a strictly positive sequence on
    [a, b] with 0 < a < b."""
    values = _values(s)
    if not 0 < a < b:
        raise NotStrictlyPositive("principal measures need 0 < a < b")
    if classify_compact(values, a, b).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on the interval")
    return _principal_measure(_Window.of(values, None, (a, b)), a, b, kind)


def _principal_poly(w: _Window, a: Scalar, b: Scalar, kind: PrincipalKind) -> Polynomial:
    """`principal_polynomial` of the window w, kept on w per interval and kind."""
    return w.kept((a, b, kind), lambda: principal_polynomial(w.values, a, b, kind))


def _principal_measure(w: _Window, a: Scalar, b: Scalar, kind: PrincipalKind) -> AtomicMeasure:
    """The principal measure of `_principal_poly`, kept on w beside it."""
    return w.kept((a, b, kind, "measure"),
                  lambda: measure_from_poly(_principal_poly(w, a, b, kind), w.values, a, b))


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
    degree, whose atom polynomial `bordered_hankel_poly` reads from the pass
    over H(s) that classified the window, at full rank (`_minimal`), a
    MinimalRayFamily handle for even top degree."""
    values = _values(s)
    w = _limit_window(values)
    if _classify_limit(w, Ray()).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on (0, inf)")
    n = len(values) - 1
    if n % 2 == 0:
        return MinimalRayFamily(values)
    return _minimal(w, Ray())[1]


def minimal_measure_half_open(s) -> AtomicMeasure:
    """The unique minimal-index measure on (0, 1]; the even case of a
    strictly positive sequence always carries the atom 1.  Singularly
    positive sequences are determinate, so their unique measure is returned
    as well, read from the support polynomial their verdict carries."""
    values = _values(s)
    verdict = classify_half_open(values)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotStrictlyPositive("sequence is not positive on (0, 1]")
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        return _support_measure(verdict.support, values, HalfOpen())
    return _minimal(_Window.of(values), HalfOpen())[1]


def _minimal(w: _Window, domain) -> tuple:
    """(`atom_polynomial`, measure) of the minimal measure of a strictly
    positive window w on the ray (odd n) or on (0, 1], kept on w per domain."""
    def make():
        poly = atom_polynomial(w.values, domain)
        return poly, _support_measure(poly, w.values, domain)
    return w.kept(("minimal", type(domain)), make)
