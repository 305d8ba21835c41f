"""Positivity classification of truncated moment sequences.

Three domains are supported: a compact interval [a, b], the open ray
(0, inf), and the half-open interval (0, 1].  On [a, b] the classification
is the classical pair of Hankel-form tests.  On the ray and on (0, 1] a
sequence is strictly positive exactly when the limiting pair of those forms
(b -> inf resp. a -> 0 at b = 1) is positive definite.  Otherwise it is
positive only if it is determinate (Curto-Fialkow, "Recursiveness,
positivity, and truncated moment problems", Houston J. Math. 1991), which
`_determinate_poly` decides exactly from the support polynomial of the
unique measure; that measure is the exact witness of the singular case.

A window is scaled to integers once (`_Window`), and every Hankel form of a
call is built from that integer image: H(s), its shift, and the [a, b] and
(0, 1] transforms.  An exact window of 8 entries or more is first dilated by
the one lam that `numeric._dilated_scale` chooses for it, which strips the
powers of the atoms' denominator its low entries carry; every form is then a
positive multiple of D F D, D = diag(lam^i), F the form in the window's own
entries, so it keeps its class, and each reader that turns a pass into a
number divides lam back out.  One unpivoted leading-minor pass decides a form
(`numeric.classify_form`), and each form is eliminated at most once per call:
where H(s) is one of the deciding forms, its pass is run in the shape the
support polynomial reads and handed on, and an exact window's limit form M
is decided by the pass that gives the threshold of a prepended value
(`_Window.slot_pass`).  A float window is read with one
zero test per form, scaled entry by entry by the size of the window terms
that entry is computed from: where the transforms of [a, b] cancel to
rounding noise, the noise reads as zero, as the exact window's zeros do.

Across calls, `_Window.of` hands back the last two exact windows it handed
out for equal values and the same eps, with their passes and the verdicts
that depend on them alone, so the public calls on one window share one image
and one elimination of each form, and the measures recovered from them
(`_Window.kept`), so they isolate each measure's roots once.  Float windows
are never held: their zero tests read the float data, which an equal exact
key would hide; a float verdict carries its window instead (`_with_window`).

A singular window on [a, b] is determinate too.  On every domain its
support polynomial is built once, on the window's integers, and kept on
it (`_support_ints`): the rank r is read from the minors of the pass over
H(s), the coefficients from one back substitution in the rows that pass
has reduced.  Its readers take those integers, on a float window too: the
determinacy test, the index (the degree less 1/2 for each end of the
domain that one `_horner` reads as a root, `_reads_root`), the unique
measure (`principal._support_measure`, whose atoms are the roots in the
domain) and `tree._positive_on`.  A singular verdict carries its monic
view (`PositivityVerdict.support`, `_support_poly`), rounded once on a
float window.  The public readers of that measure
(`recover_minimal_measure`, `recover_support_and_masses`) and the criterion
matrices live in `_recovery`, which no command-line kind loads; this module
serves their names on first use (`momentkit._serve`).

Stampfli's four-weight check (`stampfli_check`) is closed-form arithmetic
on the squared weights, so it sits here, where the CLI's `stampfli` kind
reaches it without loading the completion layers.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import _serve
from ._record import FrozenRecord
from .errors import DomainError, NotAMomentSequence, PreconditionError
from .measure import MomentSequence
from .numeric import (DEFAULT_EPS, FormClass, HankelImage, Polynomial, Scalar, _dilated_scale,
                      _horner, _integer_scale, _minor_pass, _pass_bordered, _pass_class,
                      _primitive, _to_float, _tolerances, as_fraction, classify_form,
                      count_positive_roots)

__getattr__, __dir__ = _serve(__name__, {
    "_recovery": ("compact_criterion_matrices", "ray_limit_matrices",
                  "recover_minimal_measure", "recover_support_and_masses")})


# --------------------------------------------------------------------------
# domains
# --------------------------------------------------------------------------

class Compact(FrozenRecord):
    _fields = ("a", "b")

    def __init__(self, a: Scalar, b: Scalar):
        if not a < b:
            raise DomainError("compact interval needs a < b")
        if not a > 0:
            raise DomainError("compact domain lives inside (0, inf)")
        self.__dict__.update(a=a, b=b)


class Ray(FrozenRecord):
    pass


class HalfOpen(FrozenRecord):
    pass


Domain = Union[Compact, Ray, HalfOpen]


class PositivityClass(Enum):
    NOT_POSITIVE = "NotPositive"
    SINGULARLY_POSITIVE = "SingularlyPositive"
    STRICTLY_POSITIVE = "StrictlyPositive"


class PositivityVerdict(FrozenRecord):
    """A window's class.  `interval` is the interval the verdict was decided
    on (set by classify_compact only); `support` is the monic support
    polynomial of a singular window (set on every domain)."""

    _fields = ("kind", "interval", "support")

    def __init__(self, kind: PositivityClass, interval: Optional[tuple] = None,
                 support: Optional[Polynomial] = None):
        self.__dict__.update(kind=kind, interval=interval, support=support)

    @property
    def is_positive(self) -> bool:
        return self.kind is not PositivityClass.NOT_POSITIVE

    @property
    def is_strict(self) -> bool:
        return self.kind is PositivityClass.STRICTLY_POSITIVE


def _values(s) -> tuple:
    if isinstance(s, MomentSequence):
        return tuple(s.values)
    return tuple(s)


# --------------------------------------------------------------------------
# the integer image of a window and its Hankel forms
# --------------------------------------------------------------------------

def _ratio(x: Scalar) -> tuple:
    """(p, q) with x = p / q, q > 0; binary-exact for a float.  A float past
    the float range, as a value the completion search computes from float
    input near its end may be, raises DomainError naming it."""
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"float value {x!r} is past the float range")
    x = as_fraction(x)
    return x.numerator, x.denominator


_held: tuple = ()  # the last two exact windows `_Window.of` handed out, latest first


class _Window:
    """The integer image of a window s_0..s_n: ints[k] = unit * lam^k * s_k,
    the window (on its binary-exact image if any of its data is a float)
    dilated by one integer lam >= 1, chosen once in `of`
    (`numeric._dilated_scale`; always 1 for a float window), and scaled by
    a common denominator of the dilated entries, the least one in `of`;
    `prepended` and `prefix` extend and cut an image on its own lam.

    Every Hankel form of a window that the package decides, and every
    transform it reads a polynomial from, is built here from these
    integers: H(s) and its shifted form, and with a = pa/qa, b = pb/qb

        qa S_(k+1) - lam pa S_k,   lam pb S_k - qb S_(k+1),
        lam (pa qb + pb qa) S_(k+1) - lam^2 pa pb S_k - qa qb S_(k+2),

    the images of s_(k+1) - a s_k, b s_k - s_(k+1) and the moments
    (a+b) s_(k+1) - ab s_k - s_(k+2) of (t - a)(b - t) dmu: the endpoints
    are taken in the window's own coordinates and enter as lam a and lam b.
    Entry k of every form is again unit * lam^k times the form's own entry
    k, for the form's own `unit`, which takes up the factor lam^shift of a
    form whose entry k reads s_(k+shift) or its neighbours.  Such a form is
    a positive multiple of D F D, D = diag(lam^i), F the form in the
    window's own entries: it keeps F's class and every sign of its pass,
    and every reader that turns a pass into a number divides lam back out
    (`_support_ints`, `_determinate_poly`, `extremal._schur_threshold`,
    `completion._schur_quadratic`, `principal._bordered_ints`,
    `_recovery._entries`).
    The pass over H(s) that `_support_ints` reads and the pass over the
    form that holds a prepended value (`slot_pass`) are kept, so a call
    eliminates each at most once.

    A float window is read with one zero test per form, scaled entry by
    entry by the size of the window terms that entry is computed from
    (`sizes`, |s_k| for H(s)): where a form is singular its entries cancel
    to rounding noise, and the noise reads as zero, as the exact window's
    zeros do.  That test does not survive a dilation, so lam is 1 there.
    `sizes` is None for an exact window."""

    __slots__ = ("values", "ints", "unit", "sizes", "eps", "lam", "_kept")

    def __init__(self, values, ints: list, unit: int, sizes, eps: Optional[float],
                 lam: int = 1):
        self.values, self.ints, self.unit, self.sizes, self.eps, self.lam = (
            values, ints, unit, sizes, eps, lam)
        self._kept = {}

    @classmethod
    def of(cls, values, eps: Optional[float] = None, ends=()) -> "_Window":
        """The image of the tuple of `values`, dilated as
        `numeric._dilated_scale` decides; float tests apply, and lam is 1,
        when a value or one of the interval `ends` is a float.  The last two
        exact windows handed out are held (`_held`) and handed back, with
        their passes and verdicts, for equal values and the same eps, which
        `prepended` passes on; a float window never is (see the module)."""
        global _held
        values = tuple(values)
        if any(isinstance(v, float) for v in values) or any(isinstance(v, float) for v in ends):
            _finite(values + tuple(ends), "in a float window")
            ints, unit = _integer_scale([as_fraction(v) for v in values])
            return cls(values, ints, unit, [abs(float(v)) for v in values], eps)
        for w in _held:
            if w.eps == eps and w.values == values:
                break
        else:
            ints, unit, lam = _dilated_scale(values)
            w = cls(values, ints, unit, None, eps, lam)
        _held = w, *[x for x in _held if x is not w][:1]
        return w

    def prefix(self, n: int) -> "_Window":
        """s_0..s_(n-1), with this window's lam, over unit / g,
        g = gcd(unit, ints[:n]): on lam = 1 the (ints, unit) of `of`."""
        if n >= len(self.ints):
            return self
        g = math.gcd(self.unit, *self.ints[:n])
        return _Window(self.values[:n], [x // g for x in self.ints[:n]], self.unit // g,
                       self.sizes and self.sizes[:n], self.eps, self.lam)

    def prepended(self, x: Scalar) -> "_Window":
        """x, s_0, ..., s_n, with this window's lam, over lcm(unit, den x):
        one product per entry, and on lam = 1 the (ints, unit) of `of`.  A
        float x makes an exact window a float one, built by `of` if dilated."""
        floats = self.sizes is not None or isinstance(x, float)
        if floats and self.lam > 1:
            return _Window.of((x,) + self.values)
        p, q = _ratio(x)
        unit = math.lcm(self.unit, q)
        step = unit // self.unit * self.lam
        ints = [p * (unit // q)] + (self.ints if step == 1 else [step * v for v in self.ints])
        sizes = ([abs(float(x))] + (self.sizes or [abs(float(v)) for v in self.values])
                 if floats else None)
        return _Window((x,) + self.values, ints, unit, sizes, self.eps, self.lam)

    def key(self) -> tuple:
        """(unit, lam, float, *ints): fixes every value read from the window."""
        return (self.unit, self.lam, self.sizes is not None, *self.ints)

    @property
    def floats(self) -> bool:
        return self.sizes is not None

    def _image(self, ints: list, unit: int, sizes) -> HankelImage:
        return HankelImage(ints, unit, None if sizes is None else _tolerances(self.eps, sizes))

    def hankel(self, start: int = 0, stop: Optional[int] = None) -> HankelImage:
        """The form of s_start..s_(stop-1); its unit is unit * lam^start."""
        sizes = None if self.sizes is None else self.sizes[start:stop]
        return self._image(self.ints[start:stop], self.unit * self.lam ** start, sizes)

    def lower(self, a: Scalar) -> HankelImage:
        """s_(k+1) - a s_k, k < n, on its image of unit unit * qa * lam."""
        (p, q), S, w, lam = _ratio(a), self.ints, self.sizes, self.lam
        ints = [q * S[k + 1] - lam * p * S[k] for k in range(len(S) - 1)]
        sizes = None if w is None else [w[k + 1] + abs(float(a)) * w[k] for k in range(len(w) - 1)]
        return self._image(ints, self.unit * q * lam, sizes)

    def upper(self, b: Scalar) -> HankelImage:
        """b s_k - s_(k+1), k < n, on its image of unit unit * qb * lam."""
        (p, q), S, w, lam = _ratio(b), self.ints, self.sizes, self.lam
        ints = [lam * p * S[k] - q * S[k + 1] for k in range(len(S) - 1)]
        sizes = None if w is None else [abs(float(b)) * w[k] + w[k + 1] for k in range(len(w) - 1)]
        return self._image(ints, self.unit * q * lam, sizes)

    def interior(self, a: Scalar, b: Scalar) -> "_Window":
        """The window (a+b) s_(k+1) - ab s_k - s_(k+2), k < n - 1, of the
        moments of (t - a)(b - t) dmu, with this window's lam and the unit
        unit * qa * qb * lam^2; kept, with its own passes, per [a, b]."""
        return self.kept(("interior", a, b), lambda: self._interior(a, b))

    def _interior(self, a: Scalar, b: Scalar) -> "_Window":
        (pa, qa), (pb, qb), S, w, lam = _ratio(a), _ratio(b), self.ints, self.sizes, self.lam
        mid, low, high = lam * (pa * qb + pb * qa), lam * lam * pa * pb, qa * qb
        ints = [mid * S[k + 1] - low * S[k] - high * S[k + 2] for k in range(len(S) - 2)]
        sizes = None
        if w is not None:
            x, y = float(a), float(b)
            sizes = [abs(x + y) * w[k + 1] + abs(x * y) * w[k] + w[k + 2]
                     for k in range(len(w) - 2)]
        return _Window(None, ints, self.unit * high * lam * lam, sizes, self.eps, lam)

    def kept(self, key, make):
        """make(), computed once per key and kept, None included: a pass or
        the interior window, a verdict on the window, its support
        polynomial or determinacy test, or a measure recovered from it, its
        polynomial or its reciprocal value.  Keys name a pass, a domain, an
        [a, b] end, or an interval and a principal kind; never a
        polynomial's coefficients."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def support_pass(self) -> tuple:
        """The `_minor_pass` of H(s) that `_support_ints` reads: n // 2 + 1
        rows, with one more column for odd n."""
        return self.kept("support", lambda: _minor_pass(self.hankel(), (len(self.ints) + 1) // 2))

    def hankel_class(self) -> FormClass:
        """Class of H(s_0..s_2m), 2m <= n: the leading block of the support
        pass, which has the same order."""
        return _pass_class(self.support_pass(), (len(self.ints) + 1) // 2)

    def slot_pass(self, domain: Domain) -> tuple:
        """The Hankel form that holds a value y prepended to the window, on
        the ray or on (0, 1], eliminated by one exact `_minor_pass` with the
        slot of y as its last corner.

        The form has entries e_0..e_2m, m = (n + 1) // 2, with y - base in
        e_0, which is set to 0 here: (0, s_0, ..., s_(2m-1)) on the ray and
        for odd n on (0, 1], and (0, s_0 - s_1, ..., s_(2m-1) - s_(2m)) with
        base s_0 for even n on (0, 1].  An odd-length window on the ray
        leaves its top moment out: its infimum is that of the prefix.  The
        form is [[e_0, b^T], [b, M]] with b = (e_1, ..., e_m) and
        M = (e_(i+j)), 1 <= i, j <= m, the limit form (`_limit_verdict`).
        Reversed, the entries are again a Hankel form, with the slot as its last
        corner, so the pass reduces M in reverse order first: a congruence,
        which keeps M's class, so its leading m x m block decides M.  It
        takes exactly m steps when M is positive definite, since its last
        pivot is then unit * a[m-1][m-1] * (-b^T M^-1 b) <= 0.

        The pass runs on the window's image of unit `unit`: entry j of the
        form is unit * lam^(j-1) e_j on the ray and for odd n on (0, 1],
        where the image is D F D / lam, and unit * lam^j e_j on the
        differences, where it is D F D (D = diag(lam^i), F the form in the
        window's own entries).  So the Schur complement of the corner is
        that of F over lam in the first case and equal to it in the
        second."""
        differences = _odd_half_open(self, domain)
        return self.kept(("slot", differences), lambda: self._slot_pass(differences))

    def _slot_pass(self, differences: bool) -> tuple:
        m = len(self.ints) // 2
        tail = self.upper(1).ints if differences else self.ints
        return _minor_pass(HankelImage(tail[:2 * m][::-1] + [0], self.unit), m + 1)

    def reads_zero(self) -> bool:
        """Whether every entry reads as zero: relative to the largest for a
        float window (`_reads_zero`)."""
        if not self.floats:
            return not any(self.ints)
        values = [abs(_to_float(Fraction(x, self.unit))) for x in self.ints]
        return all(_reads_zero(v, max(values), self.eps) for v in values)


def _odd_half_open(w: _Window, domain: Domain) -> bool:
    """An even-n window on (0, 1]: its slot form is built on the
    differences s_k - s_(k+1), and its limit form M is the interior one."""
    return isinstance(domain, HalfOpen) and len(w.ints) % 2 == 1


def classify_compact(s, a: Scalar, b: Scalar, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify a sequence on [a, b].  Accepts a <= 0 as well (the Hankel
    criteria are valid for any a < b); domain objects stay restricted to
    0 < a < b.  A window both forms pass, one of them singularly, carries its
    `_support_poly`; a float window whose support pass reads a negative pivot
    or a nonzero window over a zero s_0 instead is not positive.  For even n
    both forms are windows of their own, H(s) and the interior one, read
    from the passes `_support_ints` reads."""
    if not a < b:
        raise DomainError("compact interval needs a < b")
    values = _values(s)
    if not values:
        raise DomainError("empty sequence")
    w = _Window.of(values, eps, (a, b))
    if len(values) % 2 == 1:
        classes = [w.hankel_class(), w.interior(a, b).hankel_class()]
    else:
        classes = [_edge_class(w, a=a), _edge_class(w, b=b)]
    kind, support = PositivityClass.NOT_POSITIVE, None
    if classes == [FormClass.POSITIVE_DEFINITE] * 2:
        kind = PositivityClass.STRICTLY_POSITIVE
    elif FormClass.INDEFINITE not in classes:
        support = _support_poly(w, (a, b))
        kind = kind if support is None else PositivityClass.SINGULARLY_POSITIVE
    return _with_window(w, PositivityVerdict(kind, (a, b), support))


def _with_window(w: _Window, verdict: PositivityVerdict) -> PositivityVerdict:
    """`verdict`, carrying w if it is a float window (`_verdict_window`)."""
    if w.floats:
        verdict.__dict__["_window"] = w
    return verdict


def _verdict_window(values, verdict: PositivityVerdict, eps=None, ends=()) -> _Window:
    """The window `verdict` was read on: the float one it carries, else held."""
    return getattr(verdict, "_window", None) or _Window.of(values, eps, ends)


def _edge_class(w: _Window, a: Scalar = None, b: Scalar = None) -> FormClass:
    """The class of `w.lower(a)`, or of `w.upper(b)`, kept per end."""
    return w.kept((a, b), lambda: classify_form(w.lower(a) if b is None else w.upper(b)))


def _limit_window(s, eps: Optional[float] = None) -> _Window:
    """The image of a window on the ray or on (0, 1], which must be
    nonempty and have no negative entry."""
    values = _values(s)
    if not values:
        raise DomainError("empty sequence")
    w = _Window.of(values, eps)
    _nonneg_check(w)
    return w


def _nonneg_check(w: _Window):
    """Refuse a negative entry, read off the sign of its image (unit > 0,
    lam >= 1); a float one that reads as zero (`_reads_zero`) passes."""
    if min(w.ints) < 0:
        for v, x in zip(w.values, w.ints):
            if x < 0 and not _reads_zero(v, max(abs(y) for y in w.values), w.eps):
                raise DomainError(f"negative entry {v!r} in a sequence on a positive domain")


def _finite(values, where: str):
    """Refuse a float among `values` that is not finite, naming it: it has
    no binary-exact image."""
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"non-finite value {v!r} {where}")


def _reads_zero(x: Scalar, scale, eps: Optional[float]) -> bool:
    """x == 0 for exact x; for a float, |x| <= eps * max(1, scale), the zero
    test of the pass over a Hankel form."""
    if not isinstance(x, float):
        return x == 0
    return abs(x) <= (DEFAULT_EPS if eps is None else eps) * max(1.0, scale)


def _times_factor(ints: list, factor: tuple) -> tuple:
    """(ints', scale): the integer polynomial `ints` times the end factor
    of exact coefficients `factor` is ints' / scale.  The support polynomial
    and the atom polynomials (`principal._atom_ints`) share this step."""
    if not factor:
        return ints, 1
    scaled, scale = _integer_scale(factor)
    product = [0] * (len(ints) + len(scaled) - 1)
    for i, x in enumerate(ints):
        for j, y in enumerate(scaled):
            product[i + j] += x * y
    return product, scale


def _support_ints(w: _Window, ends: tuple = ()) -> list:
    """The support polynomial of the unique measure of a singular window as
    an integer polynomial of positive leading entry ([1] for the zero
    window); [] when H(s) shows that the window is not positive.  Kept on
    w per `ends`, the endpoints of the domain, which count only as both
    ends of [a, b].

    With r positive leading pivots of H(s) before the first zero one (a
    negative pivot means not positive), p is t^r - sum c_j t^j with
    H_r c = (s_r, ..., s_(2r-1)), column r of H(s): the pass of the leading
    minors (`_Window.support_pass`; for odd n, H(s) is given the column
    s_(m+1)..s_(2m+1) to cover r = m + 1) reduces it along with H_r, and
    `numeric._pass_bordered` reads p off it, lam divided back out.  A
    singular window has 2r > n + 1 only on [a, b] = `ends`, with n even and
    both ends atoms: p is (t - a)(t - b) times the support polynomial of
    the interior window (`_times_factor`), on a float window too."""
    ends = ends if len(ends) == 2 else ()

    def make():
        n = len(w.ints) - 1
        r, a, bounds = w.support_pass()
        if r <= n // 2 and a[r][r] < -bounds[2 * r]:
            return []
        if 2 * r > n + 1:
            inner = _support_ints(w.interior(*ends)) if ends and n >= 2 else []
            if not inner:
                return []
            lo, hi = map(as_fraction, ends)
            return _times_factor(inner, (lo * hi, -(lo + hi), 1))[0]
        if r == 0:
            return [1] if w.reads_zero() else []
        return _primitive(_pass_bordered(a, r, w.unit, w.lam)[0])
    return w.kept(("support", ends), make)


def _view(coeffs: list, floats: bool) -> Polynomial:
    """The `Polynomial` of the exact `coeffs`, rounded once where `floats`:
    the view of a kept integer polynomial."""
    return Polynomial([_to_float(c) for c in coeffs] if floats else coeffs)


def _support_poly(w: _Window, ends: tuple = ()) -> Optional[Polynomial]:
    """The monic support polynomial that `PositivityVerdict.support`
    carries, the `_view` of `_support_ints` (on a float window rounded, but
    the constant 1); None when H(s) shows that the window is not positive."""
    ints = _support_ints(w, ends)
    if not ints:
        return None
    return _view([Fraction(x, ints[-1]) for x in ints], w.floats and len(ints) > 1)


def _determinate_poly(w: _Window, domain: Domain) -> Optional[Polynomial]:
    """Monic support polynomial p (`_support_poly`) of a window that is
    determinate on the ray or on (0, 1] (the constant 1 for the zero
    window), kept on w per domain; None when the window is not positive
    there.  It passes when p's recurrence generates all of it, p(0) != 0,
    and p has r = deg p roots in (0, inf), resp. (0, 1]: the masses at
    those roots that match s_0..s_(r-1) (`principal._masses`) then
    reproduce s and are positive, as H_r = V^T D V is positive definite.
    A singular window always passes, its unique measure having r atoms.
    H_r is positive definite by the choice of r, so p is real-rooted and
    Descartes' rule counts its roots exactly (`numeric.count_positive_roots`).

    The test reads the integers of `_support_ints`, a float window's
    unrounded, as a rounded p need not be real-rooted, and the window's
    image, lam^r p(t / lam) on one dilated by lam.  Floats read as zero
    with the tolerance of `_reads_zero` at the bounds |c|_1 max|s| of a
    recurrence sum and |c|_1 of p(0) and p(1), c the rounded coefficients;
    on (0, 1] a p(1) read as zero puts the root at 1.  A float window whose
    bound |c|_1 max|s| passes the float range raises DomainError, naming
    its largest value."""
    def make():
        p = _support_poly(w)
        if p is None or p.degree == 0:
            return p
        ints = _support_ints(w)
        n, r, bound, zero = len(w.ints) - 1, len(ints) - 1, 0, 0
        if w.floats:
            norm, top = sum(abs(x) for x in p.coeffs), max(w.sizes)
            if not math.isfinite(norm * top):
                raise DomainError(f"float value of size {top!r} is too large for the "
                                  "zero test of the determinacy test")
            tol, small = _tolerances(w.eps, [norm * top, norm])
            bound = tol.numerator * ints[-1] * w.unit // tol.denominator
            zero = small.numerator * ints[-1] // small.denominator  # p(x) = X / ints[-1]
        dilated = [q * w.lam ** (r - j) for j, q in enumerate(ints)] if w.lam > 1 else ints
        S = w.ints
        for k in range(r, n - r + 1):  # k < r holds by construction
            if abs(sum(q * S[k + j] for j, q in enumerate(dilated))) > bound:
                return None
        half_open = isinstance(domain, HalfOpen)
        if half_open and abs(sum(ints)) <= zero:  # p(1) reads as zero
            ints = [ints[0] - sum(ints), *ints[1:]]
        if abs(ints[0]) <= zero or count_positive_roots(ints, half_open) != r:
            return None
        return p
    return w.kept(("determinate", type(domain)), make)


def _classify_limit(w: _Window, domain: Domain) -> PositivityVerdict:
    """`_limit_verdict`, kept on the window per domain."""
    return w.kept(type(domain), lambda: _with_window(w, _limit_verdict(w, domain)))


def _limit_verdict(w: _Window, domain: Domain) -> PositivityVerdict:
    """Strict when both limit forms are positive definite (b -> inf, resp.
    a -> 0 at b = 1), else decided by `_determinate_poly`.

    The forms are H(s) and M on the ray and for even n on (0, 1], H(s)
    read from the pass `_support_ints` reads; for odd n on (0, 1] they are
    b s_k - s_(k+1) at b = 1 and M.  An exact window's M is read from
    `_Window.slot_pass`, a congruence of M that keeps its class and whose
    corner then gives the threshold of a prepended value; a float window's
    is `classify_form`'s on the ray, and on (0, 1] read as
    `classify_compact` reads [0, 1]: from the interior window's pass for
    even n, by `_edge_class` (as the first form) for odd n.

    So for odd n on (0, 1] a window that is not strict is eliminated twice:
    once for the b s_k - s_(k+1) form, once for H(s) in the determinacy
    test.  The first pass cannot stand in for the second.  It is the
    Hankel form of d_k = s_k - s_(k+1), the moments of (1 - t) dmu, whose
    support polynomial q lacks the factor t - 1 whenever 1 is an atom.  So
    p would be q or (t - 1) q, which only a recurrence test on s tells
    apart, and the masses of p's roots would need a sign check of their
    own, the mass at 1 among them: `_determinate_poly` needs none, because
    its p comes with H_r(s) = V^T D V positive definite, which only the
    pass over H(s) shows.  When the first form is positive definite and M
    is not, neither pass is over H(s) either."""
    odd_n = isinstance(domain, HalfOpen) and len(w.ints) % 2 == 0
    first = _edge_class(w, b=1) if odd_n else w.hankel_class()
    if first is FormClass.POSITIVE_DEFINITE:
        if not w.floats:
            second = _pass_class(w.slot_pass(domain), len(w.ints) // 2)
        elif isinstance(domain, Ray):
            second = classify_form(w.hankel(1, len(w.ints) // 2 * 2))  # H(s_1..)
        else:
            second = _edge_class(w, a=0) if odd_n else w.interior(0, 1).hankel_class()
        if second is FormClass.POSITIVE_DEFINITE:
            return PositivityVerdict(PositivityClass.STRICTLY_POSITIVE)
    return _determinacy_verdict(w, domain)


def _determinacy_verdict(w: _Window, domain: Domain) -> PositivityVerdict:
    """The verdict on a window whose limit forms are not both positive
    definite: singularly positive with its support polynomial when
    `_determinate_poly` finds one, else not positive."""
    support = _determinate_poly(w, domain)
    if support is None:
        return PositivityVerdict(PositivityClass.NOT_POSITIVE)
    return PositivityVerdict(PositivityClass.SINGULARLY_POSITIVE, support=support)


def classify_ray(s, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify on (0, inf): strictly positive when the limiting Hankel
    pair H(s), H(s shifted by one) is positive definite, otherwise singularly
    positive or not by the exact determinacy test `_determinate_poly`."""
    return _classify_limit(_limit_window(s, eps), Ray())


def classify_half_open(s, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify on (0, 1]: strictly positive when the a -> 0 limit of the
    [a, 1] criterion pair is positive definite, otherwise singularly
    positive or not by the exact determinacy test `_determinate_poly`."""
    return _classify_limit(_limit_window(s, eps), HalfOpen())


def classify(s, domain: Domain, eps: Optional[float] = None) -> PositivityVerdict:
    if isinstance(domain, Compact):
        return classify_compact(s, domain.a, domain.b, eps)
    if isinstance(domain, Ray):
        return classify_ray(s, eps)
    if isinstance(domain, HalfOpen):
        return classify_half_open(s, eps)
    raise DomainError(f"unknown domain {domain!r}")


# --------------------------------------------------------------------------
# index
# --------------------------------------------------------------------------

def _ends(domain: Domain) -> tuple:
    """The endpoints that belong to the domain, where atoms may sit."""
    if isinstance(domain, Compact):
        return domain.a, domain.b
    return (Fraction(1),) if isinstance(domain, HalfOpen) else ()


def _reads_root(w: _Window, ints: list, x: Scalar) -> bool:
    """Whether x = u / v is a root of an integer polynomial of positive
    leading entry kept on the window w, read by one `_horner` H: H = 0, on a
    float window the rule of `_reads_zero` for the monic p = ints / lead,
    |p(x)| <= eps max(1, sum |c_j x^j|), i.e. |H| <= eps max(lead v^d,
    sum |ints_j| |u|^j v^(d-j))."""
    u, v = _ratio(x)
    tol = as_fraction(DEFAULT_EPS if w.eps is None else w.eps) if w.floats else 0
    scale = max(ints[-1] * v ** (len(ints) - 1), _horner(list(map(abs, ints)), abs(u), v))
    return abs(_horner(ints, u, v)) <= tol * scale


def _singular_index(w: _Window, domain: Domain) -> Fraction:
    """Index of a singularly positive window w: the degree of its support
    polynomial, less 1/2 for each endpoint of the domain that is a root of
    it, each read by one `_horner` on its kept integers (`_reads_root`)."""
    ends = _ends(domain)
    ints = _support_ints(w, ends)
    return Fraction(len(ints) - 1) - Fraction(sum(_reads_root(w, ints, x) for x in ends), 2)


def index(s, domain: Domain, eps: Optional[float] = None):
    """Index of a positive sequence: ceil((n+1)/2) on the ray resp. (n+1)/2
    elsewhere when strictly positive, else the index of the unique measure
    (endpoint atoms weighted 1/2 off the ray).

    Returns an int on the ray and a Fraction otherwise.
    """
    values = _values(s)
    return _verdict_index(values, classify(values, domain, eps), domain, eps)


def _verdict_index(values: Sequence[Scalar], verdict: PositivityVerdict, domain: Domain,
                   eps: Optional[float] = None, w: Optional[_Window] = None):
    """`index` of `values` read from their verdict on the domain; `w` is the
    window the verdict was read on if the caller holds it, else the one the
    verdict carries or `_Window.of` holds (`_verdict_window`)."""
    n = len(values) - 1
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotAMomentSequence("sequence is not positive on the domain")
    if verdict.is_strict:
        if isinstance(domain, Ray):
            return -((n + 1) // -2)  # ceil((n+1)/2)
        return Fraction(n + 1, 2)
    if w is None:
        w = _verdict_window(values, verdict, eps, _ends(domain))
    idx = _singular_index(w, domain)
    return int(idx) if isinstance(domain, Ray) else idx


# --------------------------------------------------------------------------
# Stampfli's four-weight check
# --------------------------------------------------------------------------

class StampfliVerdict(FrozenRecord):
    _fields = ("holds", "lhs", "rhs")

    def __init__(self, holds: bool, lhs: Scalar, rhs: Scalar):
        self.__dict__.update(holds=holds, lhs=lhs, rhs=rhs)


def stampfli_check(l1, l2, l3, l4, squared: bool = False) -> StampfliVerdict:
    """Four-weight completion inequality for the classical shift: with
    squares a < b < c < d the completion exists iff

        d >= c + a (c - b)^2 / (c (b - a)),

    the right side being the fourth moment ratio of the recursively
    generated two-atom completion of the first three weights."""
    vals = [l1, l2, l3, l4]
    _finite(vals, "among the weights")
    vals = [v if isinstance(v, float) else Fraction(v) for v in vals]
    if not all(v > 0 for v in vals):
        raise PreconditionError("weights must be positive")
    if not vals[0] < vals[1] < vals[2] < vals[3]:
        raise PreconditionError("weights must be strictly increasing")
    a, b, c, d = [v if squared else v * v for v in vals]
    rhs = c + a * (c - b) ** 2 / (c * (b - a))
    return StampfliVerdict(d >= rhs, d, rhs)
