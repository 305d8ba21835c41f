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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (DegenerateInput, DomainError, NotAMomentSequence)
from .measure import AtomicMeasure, MomentSequence, ZERO_MEASURE
from .numeric import (DEFAULT_EPS, FormClass, FormVerdict, Polynomial, Scalar,
                      classify_form, count_roots, hankel, leading_minors, real_roots,
                      solve_linear)


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
    #: verdicts for the two criterion forms (PD pivots / kernel vectors)
    forms: tuple = ()
    #: interval the verdict was decided on (set by classify_compact only)
    interval: Optional[tuple] = None

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
    """The two Hankel forms whose joint nonnegativity decides positivity on
    [a, b].  Even length 2m+1: plain H(s, order m+1) and the transform
    s'_k = (a+b) s_{k+1} - a b s_k - s_{k+2}; odd length 2m+2: the transforms
    s~_k = s_{k+1} - a s_k and s~'_k = b s_k - s_{k+1}."""
    n = len(values) - 1
    if n < 0:
        raise DomainError("empty sequence")
    if n % 2 == 0:
        m = n // 2
        h1 = hankel(values, 0, m + 1)
        transformed = [(a + b) * values[k + 1] - a * b * values[k] - values[k + 2]
                       for k in range(n - 1)]
        h2 = hankel(transformed, 0, m)
    else:
        m = (n - 1) // 2
        low = [values[k + 1] - a * values[k] for k in range(n)]
        high = [b * values[k] - values[k + 1] for k in range(n)]
        h1 = hankel(low, 0, m + 1)
        h2 = hankel(high, 0, m + 1)
    return h1, h2


def _combine(f1: FormVerdict, f2: FormVerdict, interval=None) -> PositivityVerdict:
    forms = (f1, f2)
    if not (f1.is_psd and f2.is_psd):
        return PositivityVerdict(PositivityClass.NOT_POSITIVE, forms, interval)
    if f1.kind is FormClass.POSITIVE_DEFINITE and f2.kind is FormClass.POSITIVE_DEFINITE:
        return PositivityVerdict(PositivityClass.STRICTLY_POSITIVE, forms, interval)
    return PositivityVerdict(PositivityClass.SINGULARLY_POSITIVE, forms, interval)


def classify_compact(s, a: Scalar, b: Scalar, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify a sequence on [a, b].  Accepts a <= 0 as well (the Hankel
    criteria are valid for any a < b); domain objects stay restricted to
    0 < a < b."""
    if not a < b:
        raise DomainError("compact interval needs a < b")
    values = _values(s)
    h1, h2 = compact_criterion_matrices(values, a, b)
    return _combine(classify_form(h1, eps), classify_form(h2, eps), interval=(a, b))


def ray_limit_matrices(values: Sequence[Scalar]):
    n = len(values) - 1
    return (hankel(values, 0, n // 2 + 1),
            hankel(values, 1, (n + 1) // 2))


def half_open_limit_matrices(values: Sequence[Scalar]):
    # compact criterion matrices at a = 0, b = 1
    return compact_criterion_matrices(values, Fraction(0), Fraction(1))


def _nonneg_check(values, eps):
    for v in values:
        if v < 0 and not _reads_zero(v, max(abs(x) for x in values), eps):
            raise DomainError(f"negative entry {v!r} in a sequence on a positive domain")


def _reads_zero(x: Scalar, scale, eps: Optional[float]) -> bool:
    """x == 0 for exact x; for a float, |x| <= eps * max(1, scale), the zero
    test of the floating form classification."""
    if not isinstance(x, float):
        return x == 0
    return abs(x) <= (DEFAULT_EPS if eps is None else eps) * max(1.0, scale)


def _determinate_poly(values, domain: Domain,
                      eps: Optional[float] = None) -> Optional[Polynomial]:
    """Monic support polynomial of a window that is determinate on the ray
    or on (0, 1] (the constant 1 for the zero window); None when the window
    is not positive there.

    With r positive leading pivots of H(s) before the first zero one, p is
    the bordered-Hankel polynomial of s_0..s_(2r-1).  The window passes when
    p's recurrence generates all of it, p(0) != 0, and p has r distinct
    roots in (0, root_bound(p)], resp. (0, 1]: the Vandermonde masses then
    reproduce s and are positive, as H_r = V^T D V is positive definite.
    A singular window always passes, its unique measure having r atoms.
    Roots are counted on the binary-exact image of p by a Sturm chain and
    never refined.  Floats read as zero by `_reads_zero` at the bounds
    |c|_1 max|s| of a recurrence sum and |c|_1 of p(0) and p(1); on (0, 1]
    a p(1) read as zero puts the root at 1.
    """
    from .principal import bordered_hankel_poly, root_bound
    n = len(values) - 1
    top = max(abs(v) for v in values)
    minors = leading_minors(hankel(values, 0, n // 2 + 1).rows, eps)
    r = len(minors) - 1 if minors[-1] == 0 else len(minors)
    if any(d < 0 for d in minors) or 2 * r > n + 1:
        return None
    if r == 0:
        return Polynomial([1]) if all(_reads_zero(v, top, eps) for v in values) else None
    p = bordered_hankel_poly(values[:2 * r])
    c = [x / p.coeffs[-1] for x in p.coeffs]
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
    return Polynomial(c)


def _classify_limit(values, matrices, domain, eps) -> PositivityVerdict:
    forms = (classify_form(matrices[0], eps), classify_form(matrices[1], eps))
    if all(f.kind is FormClass.POSITIVE_DEFINITE for f in forms):
        return PositivityVerdict(PositivityClass.STRICTLY_POSITIVE, forms)
    if _determinate_poly(values, domain, eps) is None:
        return PositivityVerdict(PositivityClass.NOT_POSITIVE, forms)
    return PositivityVerdict(PositivityClass.SINGULARLY_POSITIVE, forms)


def classify_ray(s, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify on (0, inf): strictly positive when the limiting Hankel
    pair H(s), H(s shifted by one) is positive definite, otherwise singularly
    positive or not by the exact determinacy test `_determinate_poly`."""
    values = _values(s)
    _nonneg_check(values, eps)
    return _classify_limit(values, ray_limit_matrices(values), Ray(), eps)


def classify_half_open(s, eps: Optional[float] = None) -> PositivityVerdict:
    """Classify on (0, 1]: strictly positive when the a -> 0 limit of the
    [a, 1] criterion pair is positive definite, otherwise singularly
    positive or not by the exact determinacy test `_determinate_poly`."""
    values = _values(s)
    _nonneg_check(values, eps)
    return _classify_limit(values, half_open_limit_matrices(values), HalfOpen(), eps)


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

def _leading_rank(mat) -> int:
    """Largest r with a nonsingular leading r x r block (moment matrices of
    finitely atomic measures have nested nonsingular leading blocks)."""
    minors = leading_minors(mat.rows)
    return next((r for r, d in enumerate(minors) if d == 0), mat.order)


def _kernel_poly_roots(mat, lo, hi) -> list:
    """Roots of the kernel polynomial of the largest singular leading block."""
    r = _leading_rank(mat)
    if r >= mat.order:
        return []
    block_rows = [row[:r + 1] for row in mat.rows[:r + 1]]
    from .numeric import SymMatrix
    verdict = classify_form(SymMatrix(block_rows))
    if verdict.kernel is None:
        raise DegenerateInput("expected a singular leading block")
    poly = Polynomial(verdict.kernel)
    if poly.degree < 1:
        return []
    return real_roots(poly, lo, hi)


def recover_support_and_masses(values, a: Scalar, b: Scalar):
    """Raw (position, mass) pairs of the unique representing measure of a
    singularly positive window on [a, b]; positions may include a (even
    a = 0 when called from the alternating reductions).

    Each singular criterion form confines the support to the roots of its
    kernel polynomial, up to the endpoints the form annihilates; the support
    lies in the intersection of those constraint sets.  Masses are solved
    exactly, zero-mass candidates dropped, and the full window verified.
    """
    values = _values(values)
    n = len(values) - 1
    h1, h2 = compact_criterion_matrices(values, a, b)
    f1, f2 = classify_form(h1), classify_form(h2)
    if not (f1.is_psd and f2.is_psd):
        raise NotAMomentSequence("sequence is not positive on the interval")
    if all(v == 0 for v in values):
        return []

    supersets = []
    if f1.kind is FormClass.POSITIVE_SEMIDEFINITE_SINGULAR:
        roots = set(_kernel_poly_roots(h1, a, b))
        if n % 2 == 1:
            roots.add(Fraction(a))  # the (t - a)-weighted form blinds a
        supersets.append(roots)
    if f2.kind is FormClass.POSITIVE_SEMIDEFINITE_SINGULAR:
        roots = set(_kernel_poly_roots(h2, a, b))
        if n % 2 == 0:
            roots.update((Fraction(a), Fraction(b)))
        else:
            roots.add(Fraction(b))
        supersets.append(roots)
    if not supersets:
        raise DegenerateInput("sequence is strictly positive; nothing to recover")
    candidates = set.intersection(*supersets)
    candidates = sorted(c for c in candidates if a <= c <= b)
    if not candidates:
        raise DegenerateInput("no candidate atoms recovered")
    if len(candidates) > n + 1:
        raise DegenerateInput("candidate support exceeds the moment window")
    masses = solve_linear([[c ** k for c in candidates] for k in range(len(candidates))],
                          list(values[:len(candidates)]))
    pairs = []
    for pos, mass in zip(candidates, masses):
        if mass == 0:
            continue
        if mass < 0:
            raise DegenerateInput("negative mass in singular recovery")
        pairs.append((pos, mass))
    for k in range(n + 1):
        if sum((m * p ** k for p, m in pairs), Fraction(0)) != values[k]:
            raise DegenerateInput("recovered measure fails the moment window")
    return pairs


def recover_minimal_measure_compact(s, a: Scalar, b: Scalar) -> AtomicMeasure:
    """Unique representing measure of a singularly positive sequence on
    [a, b] subset (0, inf), exact arithmetic."""
    if not a > 0:
        raise DomainError("compact recovery needs a > 0; use the raw variant")
    pairs = recover_support_and_masses(s, a, b)
    return AtomicMeasure(pairs) if pairs else ZERO_MEASURE


def recover_minimal_measure(s, domain: Domain) -> AtomicMeasure:
    """Unique representing measure of a singularly positive sequence on a
    ray / half-open / compact domain; on the ray and on (0, 1] its atoms are
    the roots of the support polynomial of `_determinate_poly`."""
    values = _values(s)
    if isinstance(domain, Compact):
        return recover_minimal_measure_compact(values, domain.a, domain.b)
    if all(v == 0 for v in values):
        return ZERO_MEASURE
    poly = _determinate_poly(values, domain)
    if poly is None:
        raise NotAMomentSequence("sequence is not positive on the domain")
    from .principal import measure_from_poly, root_bound
    hi = Fraction(1) if isinstance(domain, HalfOpen) else root_bound(poly)
    return measure_from_poly(poly, values, Fraction(0), hi)


# --------------------------------------------------------------------------
# index
# --------------------------------------------------------------------------

def _transform_rank(values, weights) -> int:
    """Rank of the Hankel form of the window transformed by a polynomial
    weight (coefficient list, lowest first); equals the support count of the
    correspondingly tilted measure for singular windows."""
    n = len(values) - 1
    deg = len(weights) - 1
    transformed = [sum(w * values[k + j] for j, w in enumerate(weights))
                   for k in range(n + 1 - deg)]
    order = (len(transformed) + 1) // 2
    if order == 0:
        return 0
    return _leading_rank(hankel(transformed, 0, order))


def _singular_index(values, domain: Domain, eps: Optional[float] = None) -> Fraction:
    """Index of a singularly positive sequence.  On the ray and on (0, 1]
    it is the degree r of the support polynomial, less 1/2 on (0, 1] when 1
    is a root.  On [a, b] it is counted by exact ranks: the plain Hankel
    rank is the support size, and endpoint membership shows up as a rank
    drop of the endpoint-annihilating transform."""
    if not isinstance(domain, Compact):
        poly = _determinate_poly(values, domain, eps)
        at_one = isinstance(domain, HalfOpen) and _reads_zero(
            poly(1), sum(abs(x) for x in poly.coeffs), eps)
        return Fraction(poly.degree) - Fraction(int(at_one), 2)
    n = len(values) - 1
    support = _transform_rank(values, [1])
    a, b = domain.a, domain.b
    if n % 2 == 1:
        without_a = _transform_rank(values, [-a, 1])       # (t - a)
        without_b = _transform_rank(values, [b, -1])       # (b - t)
        ends = (support - without_a) + (support - without_b)
    else:
        interior = _transform_rank(values, [-a * b, a + b, -1])
        ends = support - interior
    return Fraction(support) - Fraction(ends, 2)


def index(s, domain: Domain, eps: Optional[float] = None):
    """Index of a positive sequence: ceil((n+1)/2) on the ray resp. (n+1)/2
    elsewhere when strictly positive, else the index of the unique measure
    (endpoint atoms weighted 1/2 off the ray).

    Returns an int on the ray and a Fraction otherwise.
    """
    values = _values(s)
    n = len(values) - 1
    verdict = classify(values, domain, eps)
    if verdict.kind is PositivityClass.NOT_POSITIVE:
        raise NotAMomentSequence("sequence is not positive on the domain")
    if verdict.is_strict:
        if isinstance(domain, Ray):
            return -((n + 1) // -2)  # ceil((n+1)/2)
        return Fraction(n + 1, 2)
    idx = _singular_index(values, domain, eps)
    return int(idx) if isinstance(domain, Ray) else idx
