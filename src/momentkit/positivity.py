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

Each Hankel form is given by its entries, and `numeric.classify_form`
decides it from one unpivoted leading-minor pass.  A float window is read
with one zero test per form, scaled entry by entry by the size of the window
terms that entry is computed from (`_term_scales`): where the transforms of
[a, b] cancel to rounding noise, the noise reads as zero, as the exact
window's zeros do.

A singular window on [a, b] is determinate too.  On every domain its
measure and index are read from the same support polynomial
(`_support_poly`): the atoms are its roots in the domain, and the index is
its degree less 1/2 for each endpoint of the domain among them.  The
support polynomial comes from the pass that gives the leading minors of
H(s): the rank r is read from the minors, and the coefficients from one
back substitution in the rows that pass has already reduced.

A singular verdict on every domain carries that polynomial
(`PositivityVerdict.support`): on the ray and on (0, 1] the determinacy test
has built it already, and on [a, b] it is built once neither form reads
indefinite and one reads singular.  `index`, `recover_minimal_measure`, `extremal.reciprocal_inf_*`,
`backward.classify_backward`, `principal.minimal_measure_half_open` and
`alternating.has_ca_extension` take it from the verdict instead of building
it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (DegenerateInput, DomainError, NotAMomentSequence)
from .measure import AtomicMeasure, MomentSequence, ZERO_MEASURE
from .numeric import (DEFAULT_EPS, FormClass, Polynomial, Scalar, _minor_pass,
                      _pass_solution, _to_float, classify_form, count_roots)


# --------------------------------------------------------------------------
# domains
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Compact:
    a: Scalar
    b: Scalar

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError("compact interval needs a < b")
        if not self.a > 0:
            raise DomainError("compact domain lives inside (0, inf)")


@dataclass(frozen=True)
class Ray:
    pass


@dataclass(frozen=True)
class HalfOpen:
    pass


Domain = Union[Compact, Ray, HalfOpen]


class PositivityClass(Enum):
    NOT_POSITIVE = "NotPositive"
    SINGULARLY_POSITIVE = "SingularlyPositive"
    STRICTLY_POSITIVE = "StrictlyPositive"


@dataclass(frozen=True)
class PositivityVerdict:
    kind: PositivityClass
    #: interval the verdict was decided on (set by classify_compact only)
    interval: Optional[tuple] = None
    #: monic support polynomial of a singular window (set on every domain)
    support: Optional[Polynomial] = None

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
# compact-interval criterion matrices
# --------------------------------------------------------------------------

def compact_criterion_matrices(values: Sequence[Scalar], a: Scalar, b: Scalar):
    """The entries of the two Hankel forms whose joint nonnegativity decides
    positivity on [a, b] (see `numeric.classify_form`).  Even length 2m+1:
    s itself and the transform s'_k = (a+b) s_{k+1} - a b s_k - s_{k+2};
    odd length 2m+2: the transforms s~_k = s_{k+1} - a s_k and
    s~'_k = b s_k - s_{k+1}."""
    n = len(values) - 1
    if n < 0:
        raise DomainError("empty sequence")
    if n % 2 == 0:
        return list(values), interior_moments(values, a, b)
    return ([values[k + 1] - a * values[k] for k in range(n)],
            [b * values[k] - values[k + 1] for k in range(n)])


def interior_moments(values: Sequence[Scalar], a: Scalar, b: Scalar) -> list:
    """s'_k = (a+b) s_(k+1) - ab s_k - s_(k+2), the moments of (t - a)(b - t) dmu."""
    return [(a + b) * values[k + 1] - a * b * values[k] - values[k + 2]
            for k in range(len(values) - 2)]


def _term_scales(values, a: Scalar, b: Scalar) -> tuple:
    """For each form of `compact_criterion_matrices` of a float window, the
    size of the terms each entry is computed from: |s_k| for H(s),
    |s_(k+1)| + |a| |s_k| and |b| |s_k| + |s_(k+1)| for the odd-n
    transforms, |a+b| |s_(k+1)| + |ab| |s_k| + |s_(k+2)| for
    `interior_moments`.  Where a form is singular its entries cancel to
    rounding noise, so its zero test is read relative to these terms and
    not to the entries themselves.  None stands for the default |entries|
    (H(s), and every form of an exact window)."""
    if not any(isinstance(v, float) for v in values):
        return None, None
    s, a, b = [abs(float(v)) for v in values], float(a), float(b)
    n = len(s) - 1
    if n % 2 == 0:
        return None, [abs(a + b) * s[k + 1] + abs(a * b) * s[k] + s[k + 2]
                      for k in range(n - 1)]
    return ([s[k + 1] + abs(a) * s[k] for k in range(n)],
            [abs(b) * s[k] + s[k + 1] for k in range(n)])


def classify_compact(s, a: Scalar, b: Scalar, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify a sequence on [a, b].  Accepts a <= 0 as well (the Hankel
    criteria are valid for any a < b); domain objects stay restricted to
    0 < a < b.  A window both forms pass, one of them singularly, carries its
    `_support_poly`; a float window whose support pass reads a negative pivot
    or a nonzero window over a zero s_0 instead is not positive."""
    if not a < b:
        raise DomainError("compact interval needs a < b")
    values = _values(s)
    forms = [classify_form(h, eps, scales=w)
             for h, w in zip(compact_criterion_matrices(values, a, b), _term_scales(values, a, b))]
    if FormClass.INDEFINITE in forms:
        return PositivityVerdict(PositivityClass.NOT_POSITIVE, (a, b))
    if forms == [FormClass.POSITIVE_DEFINITE] * 2:
        return PositivityVerdict(PositivityClass.STRICTLY_POSITIVE, (a, b))
    support = _support_poly(values, (a, b), eps)
    if support is None:
        return PositivityVerdict(PositivityClass.NOT_POSITIVE, (a, b))
    return PositivityVerdict(PositivityClass.SINGULARLY_POSITIVE, (a, b), support)


def ray_limit_matrices(values: Sequence[Scalar]):
    """The entries of H(s) and of H(s shifted by one), largest orders."""
    n = len(values) - 1
    return list(values[:n // 2 * 2 + 1]), list(values[1:(n + 1) // 2 * 2])


def half_open_limit_matrices(values: Sequence[Scalar]):
    # compact criterion matrices at a = 0, b = 1
    return compact_criterion_matrices(values, Fraction(0), Fraction(1))


def _nonneg_check(values, eps):
    for v in values:
        if v < 0 and not _reads_zero(v, max(abs(x) for x in values), eps):
            raise DomainError(f"negative entry {v!r} in a sequence on a positive domain")


def _reads_zero(x: Scalar, scale, eps: Optional[float]) -> bool:
    """x == 0 for exact x; for a float, |x| <= eps * max(1, scale), the zero
    test of the pass over a Hankel form."""
    if not isinstance(x, float):
        return x == 0
    return abs(x) <= (DEFAULT_EPS if eps is None else eps) * max(1.0, scale)


def _support_poly(values, ends: tuple, eps: Optional[float] = None) -> Optional[Polynomial]:
    """Monic support polynomial of the unique measure of a singular window
    (the constant 1 for the zero window), read from its leading moments;
    `ends` are the endpoints that belong to the domain.  None when H(s)
    shows that the window is not positive.

    With r positive leading pivots of H(s) before the first zero one (a
    negative pivot means not positive), p is the bordered-Hankel polynomial
    of s_0..s_(2r-1) made monic: p = t^r - sum c_j t^j with
    H_r c = (s_r, ..., s_(2r-1)).  That right-hand side is column r of
    H(s), so the Bareiss pass of the leading minors reduces it along with
    H_r (for odd n, H(s) is given the column s_(m+1)..s_(2m+1) to cover
    r = m + 1).  A singular window has 2r > n + 1 only on [a, b] = `ends`,
    with n even and both endpoints atoms; p is then (t - a)(t - b) times the
    support polynomial of the window `interior_moments` of the other atoms.
    """
    n = len(values) - 1
    order = n // 2 + 1
    r, a, _, bounds, floats = _minor_pass(values, order, eps)
    if r < order and a[r][r] < -bounds[2 * r]:
        return None
    if 2 * r > n + 1:
        if len(ends) < 2 or n < 2:
            return None
        a, b = ends
        inner = _support_poly(interior_moments(values, a, b), (), eps)
        return None if inner is None else inner.mul(Polynomial([a * b, -(a + b), 1]))
    if r == 0:
        top = max(abs(v) for v in values)
        return Polynomial([1]) if all(_reads_zero(v, top, eps) for v in values) else None
    coeffs = [-x for x in _pass_solution(a, r)] + [Fraction(1)]
    return Polynomial([_to_float(x) for x in coeffs] if floats else coeffs)


def _determinate_poly(values, domain: Domain,
                      eps: Optional[float] = None) -> Optional[Polynomial]:
    """Monic support polynomial of a window that is determinate on the ray
    or on (0, 1] (the constant 1 for the zero window); None when the window
    is not positive there.

    p of degree r is `_support_poly`.  The window passes when p's recurrence
    generates all of it, p(0) != 0, and p has r distinct roots in
    (0, root_bound(p)], resp. (0, 1]: the Vandermonde masses then reproduce
    s and are positive, as H_r = V^T D V is positive definite.  A singular
    window always passes, its unique measure having r atoms.  Roots are
    counted on the binary-exact image of p by a Sturm chain and never
    refined.  Floats read as zero by `_reads_zero` at the bounds
    |c|_1 max|s| of a recurrence sum and |c|_1 of p(0) and p(1); on (0, 1]
    a p(1) read as zero puts the root at 1.
    """
    from .principal import root_bound
    p = _support_poly(values, (), eps)
    if p is None or p.degree == 0:
        return p
    n, r, c = len(values) - 1, p.degree, p.coeffs
    top = max(abs(v) for v in values)
    norm = sum(abs(x) for x in c)
    for k in range(r, n - r + 1):  # k < r holds by construction
        if not _reads_zero(sum(c[j] * values[k + j] for j in range(r + 1)), norm * top, eps):
            return None
    image = [Fraction(x) for x in c]
    if isinstance(domain, HalfOpen):
        hi = Fraction(1)
        if _reads_zero(sum(c), norm, eps):  # p(1)
            image[0] -= sum(image)
    else:
        hi = root_bound(Polynomial(image))
    if _reads_zero(c[0], norm, eps) or count_roots(Polynomial(image), 0, hi) != r:
        return None
    return p


def _classify_limit(values, forms, scales, domain, eps) -> PositivityVerdict:
    """Strict when both limit forms are positive definite, else decided by
    `_determinate_poly`."""
    if all(classify_form(f, eps, scales=w) is FormClass.POSITIVE_DEFINITE
           for f, w in zip(forms, scales)):
        return PositivityVerdict(PositivityClass.STRICTLY_POSITIVE)
    return _determinacy_verdict(values, domain, eps)


def _determinacy_verdict(values, domain: Domain,
                         eps: Optional[float] = None) -> PositivityVerdict:
    """The verdict on a window whose limit forms are not both positive
    definite: singularly positive with its support polynomial when
    `_determinate_poly` finds one, else not positive."""
    support = _determinate_poly(values, domain, eps)
    if support is None:
        return PositivityVerdict(PositivityClass.NOT_POSITIVE)
    return PositivityVerdict(PositivityClass.SINGULARLY_POSITIVE, support=support)


def classify_ray(s, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify on (0, inf): strictly positive when the limiting Hankel
    pair H(s), H(s shifted by one) is positive definite, otherwise singularly
    positive or not by the exact determinacy test `_determinate_poly`."""
    values = _values(s)
    _nonneg_check(values, eps)
    return _classify_limit(values, ray_limit_matrices(values), (None, None), Ray(), eps)


def classify_half_open(s, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify on (0, 1]: strictly positive when the a -> 0 limit of the
    [a, 1] criterion pair is positive definite, otherwise singularly
    positive or not by the exact determinacy test `_determinate_poly`."""
    values = _values(s)
    _nonneg_check(values, eps)
    return _classify_limit(values, half_open_limit_matrices(values), _term_scales(values, 0, 1),
                           HalfOpen(), eps)


def classify(s, domain: Domain, eps: Optional[float] = None) -> PositivityVerdict:
    if isinstance(domain, Compact):
        return classify_compact(s, domain.a, domain.b, eps)
    if isinstance(domain, Ray):
        return classify_ray(s, eps)
    if isinstance(domain, HalfOpen):
        return classify_half_open(s, eps)
    raise DomainError(f"unknown domain {domain!r}")


# --------------------------------------------------------------------------
# singular-case measure recovery
# --------------------------------------------------------------------------

def _ends(domain: Domain) -> tuple:
    """The endpoints that belong to the domain, where atoms may sit."""
    if isinstance(domain, Compact):
        return domain.a, domain.b
    return (Fraction(1),) if isinstance(domain, HalfOpen) else ()


def _interval(domain: Domain, poly: Polynomial) -> tuple:
    """[lo, hi] holding the roots of a support polynomial on the domain."""
    if isinstance(domain, Compact):
        return domain.a, domain.b
    if isinstance(domain, HalfOpen):
        return Fraction(0), Fraction(1)
    from .principal import root_bound
    return Fraction(0), root_bound(poly)


def _compact_support_poly(values, a: Scalar, b: Scalar) -> Polynomial:
    """Support polynomial of a singularly positive window on [a, b] (any
    a < b), read from its verdict."""
    verdict = classify_compact(values, a, b)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotAMomentSequence("sequence is not positive on the interval")
    if verdict.kind is PositivityClass.STRICTLY_POSITIVE:
        raise DegenerateInput("sequence is strictly positive; nothing to recover")
    return verdict.support


def recover_support_and_masses(values, a: Scalar, b: Scalar) -> tuple:
    """(position, mass) pairs of the unique representing measure of a
    singularly positive window on [a, b], and whether they are exact;
    positions may include a, even a = 0 (the alternating reductions)."""
    from .principal import atoms_from_poly
    values = _values(values)
    if all(v == 0 for v in values):
        return [], True
    return atoms_from_poly(_compact_support_poly(values, a, b), values, a, b)


def _support_measure(poly: Polynomial, values, domain: Domain) -> AtomicMeasure:
    """The measure whose atoms are the roots of the support polynomial
    `poly` of `values` in the domain; ZERO_MEASURE for the zero window."""
    from .principal import measure_from_poly
    if poly.degree == 0:
        return ZERO_MEASURE
    return measure_from_poly(poly, values, *_interval(domain, poly))


def recover_minimal_measure(s, domain: Domain) -> AtomicMeasure:
    """Unique representing measure of a singularly positive sequence (on
    the ray and on (0, 1] also of any window `_determinate_poly` passes):
    its atoms are the roots of the support polynomial in the domain."""
    values = _values(s)
    if all(v == 0 for v in values):
        return ZERO_MEASURE
    if isinstance(domain, Compact):
        poly = _compact_support_poly(values, domain.a, domain.b)
    else:
        poly = _determinate_poly(values, domain)
        if poly is None:
            raise NotAMomentSequence("sequence is not positive on the domain")
    return _support_measure(poly, values, domain)


# --------------------------------------------------------------------------
# index
# --------------------------------------------------------------------------

def _reads_root(poly: Polynomial, x: Scalar, eps: Optional[float] = None) -> bool:
    """Whether the end x of a domain is a root of the support polynomial p:
    p(x) read by `_reads_zero` at the bound sum |c_j| |x|^j of p(x)."""
    return _reads_zero(poly(x), sum(abs(c * x ** j) for j, c in enumerate(poly.coeffs)), eps)


def _singular_index(poly: Polynomial, domain: Domain, eps: Optional[float] = None) -> Fraction:
    """Index of a singularly positive sequence: the degree of its support
    polynomial p, less 1/2 for each endpoint of the domain that is a root
    of p (`_reads_root`)."""
    on_ends = sum(_reads_root(poly, x, eps) for x in _ends(domain))
    return Fraction(poly.degree) - Fraction(on_ends, 2)


def index(s, domain: Domain, eps: Optional[float] = None):
    """Index of a positive sequence: ceil((n+1)/2) on the ray resp. (n+1)/2
    elsewhere when strictly positive, else the index of the unique measure
    (endpoint atoms weighted 1/2 off the ray).

    Returns an int on the ray and a Fraction otherwise.
    """
    values = _values(s)
    return _verdict_index(values, classify(values, domain, eps), domain, eps)


def _verdict_index(values: Sequence[Scalar], verdict: PositivityVerdict, domain: Domain,
                   eps: Optional[float] = None):
    """`index` of `values` read from their verdict on the domain."""
    n = len(values) - 1
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotAMomentSequence("sequence is not positive on the domain")
    if verdict.is_strict:
        if isinstance(domain, Ray):
            return -((n + 1) // -2)  # ceil((n+1)/2)
        return Fraction(n + 1, 2)
    idx = _singular_index(verdict.support, domain, eps)
    return int(idx) if isinstance(domain, Ray) else idx
