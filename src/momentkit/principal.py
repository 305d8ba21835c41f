"""Principal and minimal-support representing measures.

A strictly positive sequence on [a, b] has exactly two representing measures
of minimal index.  Their atoms are the roots of bordered-Hankel polynomials,
det H_m (t^m - sum c_j t^j) with H_m c = (s_m, ..., s_(2m-1)) for the window
or one of its transforms, read from one leading-minor pass of H_m and one
back substitution (Curto and Fialkow, Houston J. Math. 17 (1991)), times
the factor of the ends among the atoms, all built in one place on the
window's integer image and kept on it (`_atom_ints`; `bordered_hankel_poly`,
`atom_polynomial` and `principal_polynomial` are views of it).  Their
masses are Gauss-Christoffel weights q(x)/p'(x), q the associated
polynomial, on one integer image of the atoms and the window
(`_window_measure`; float input through `numeric.vandermonde_masses`),
which a measure of an exact window keeps for its moments and its tilts.  On
(0, inf) the odd-length case has a unique minimal measure (the same
polynomial, interval-independent); the even-length case is a one-parameter
family exposed as a lazy handle.  On (0, 1] the minimal measure is unique
in both parities: the lower (even length) or upper (odd length) principal
measure on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateInput, InsufficientMoments, NotStrictlyPositive
from .measure import AtomicMeasure, _AtomImage, _imaged
from .numeric import (HankelImage, Polynomial, Scalar, _integer_scale, _isolate, _lagrange_masses,
                      _minor_pass, _pass_bordered, _to_float, as_fraction, root_enclosures,
                      root_precision, vandermonde_masses)
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
    window, else DegenerateInput.  A view of `_atom_ints`."""
    return _atom_poly(_Window.of(window), Ray())


def _bordered_ints(form: HankelImage, lam: int, minor_pass: Optional[tuple] = None) -> tuple:
    """(ints, num, den): the bordered-Hankel polynomial of the form is
    num / den > 0 times the integers `ints`; [1] for the empty form.

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


def _atom_ints(w: _Window, where) -> tuple:
    """(ints, num, den, rest): the atom polynomial of the measure `where` of
    the window w (`Ray()` or `HalfOpen()` for the minimal one, (a, b, kind)
    for a principal one) is num / den > 0 times `ints` times `rest`; kept on
    w.  It is the `_bordered_ints` of H(s), from the kept `support_pass` of
    an exact window (even length: on the ray, lower), or of a transform
    times the end factor: the interior form times (t - a)(b - t) (even,
    upper), s_(k+1) - a s_k times t - a (odd, lower), b s_k - s_(k+1) times
    b - t (odd, upper; on (0, 1] at b = 1).  An exact window has the factor
    multiplied in on integers and `rest` (), a float window in `rest`, which
    `_atom_poly` multiplies into the rounded bordered part.  H(s) of an
    odd-length or empty window raises DegenerateInput."""
    even = len(w.ints) % 2 == 0
    if isinstance(where, HalfOpen) and not even:
        where = (0, 1, PrincipalKind.UPPER)
    elif not isinstance(where, tuple) or (even and where[2] is PrincipalKind.LOWER):
        where = None  # H(s)

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
        if w.floats or not factor:
            return ints, num, den, factor
        scaled, scale = _integer_scale(factor)
        product = [0] * (len(ints) + len(scaled) - 1)
        for i, x in enumerate(ints):
            for j, y in enumerate(scaled):
                product[i + j] += x * y
        return product, num, den * scale, ()
    return w.kept(("atoms", where), make)


def _atom_poly(w: _Window, where) -> Polynomial:
    """`_atom_ints` as a `Polynomial`; on a float window the bordered part is
    rounded first, then the end factor multiplied in."""
    ints, num, den, rest = _atom_ints(w, where)
    coeffs = [Fraction(x * num, den) for x in ints]
    if not w.floats:
        return Polynomial(coeffs)
    poly = Polynomial([_to_float(c) for c in coeffs])
    return poly.mul(Polynomial(rest)) if rest else poly


def atom_polynomial(window: Sequence[Scalar], domain) -> Polynomial:
    """Atom polynomial of the minimal measure of a strictly positive window
    on the ray or on (0, 1] (`_atom_ints`): on (0, 1] for odd length (1 - t)
    times the bordered-Hankel polynomial of the differences s_k - s_(k+1),
    whose measure carries the atom 1, else that of the window.  A window
    that is not strictly positive may raise DegenerateInput."""
    return _atom_poly(_Window.of(window), domain)


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


def _window_measure(w: _Window, where, lo: Scalar, hi: Optional[Scalar]) -> AtomicMeasure:
    """The measure of the roots in [lo, hi] of the atom polynomial
    `_atom_ints` of the window w, hi None for Cauchy's bound (`root_bound`):
    on an exact window isolated on the integers, its masses read on w's
    image, with no `Fraction` polynomial built and no second scaling; a
    float window's on its rounded `_atom_poly`."""
    if w.floats:
        poly = _atom_poly(w, where)
        enclosures = root_enclosures(poly, lo, root_bound(poly) if hi is None else hi)
        return _carrying(*_atoms_and_image(enclosures, poly.degree, w.values))
    ints = _atom_ints(w, where)[0]
    hi = 1 + Fraction(max(map(abs, ints)), abs(ints[-1])) if hi is None else as_fraction(hi)
    return _carrying(*_atoms_and_image(_isolate(ints, as_fraction(lo), hi), len(ints) - 1,
                                       w.values, (w.ints, w.unit, w.lam)))


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
    as well, read from the support polynomial their verdict carries."""
    values = _values(s)
    verdict = classify_half_open(values)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotStrictlyPositive("sequence is not positive on (0, 1]")
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        return _support_measure(verdict.support, values, HalfOpen())
    return _minimal(_Window.of(values), HalfOpen())


def _minimal(w: _Window, domain) -> AtomicMeasure:
    """The minimal measure of a strictly positive window w on the ray (odd
    n) or on (0, 1], kept on w per domain."""
    hi = Fraction(1) if isinstance(domain, HalfOpen) else None
    return w.kept(("minimal", type(domain)), lambda: _window_measure(w, domain, Fraction(0), hi))
