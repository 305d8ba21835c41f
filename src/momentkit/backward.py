"""Backward extensions: one-step classification, prescribed-index
construction, and the even-case reciprocal parametrization.

Prepending x to a strictly positive sequence keeps it strictly positive
exactly when x exceeds the infimum of the reciprocal integral; equality
gives a singularly positive (determinate) extension -- only for odd top
degree on (0, inf), in both parities on (0, 1] -- and below the infimum the
extension is not positive at all.  The threshold is an exact rational for
exact input in both parities; for even top degree on (0, inf) it is not
attained, so prepending it gives no extension.  The decisions here are made
by exact Hankel classification of the extended sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (ArityError, BadIndex, DomainError, InfeasibleChoice,
                     NotStrictlyPositive, OutOfRange)
from .measure import AtomicMeasure, MomentSequence, tilt
from .numeric import Polynomial, Scalar
from .positivity import (HalfOpen, PositivityClass, Ray, _values, classify_half_open,
                         classify_ray, recover_minimal_measure)
from .principal import bordered_hankel_poly, measure_from_poly, root_bound


class ExtensionClass(Enum):
    STRICT = "Strict"
    SINGULAR = "Singular"
    NOT_EXTENSION = "NotExtension"


@dataclass(frozen=True)
class ExtensionVerdict:
    kind: ExtensionClass
    threshold: Scalar
    measure: Optional[AtomicMeasure] = None


def _domain_tools(domain):
    if isinstance(domain, Ray):
        from .extremal import reciprocal_inf_ray
        return classify_ray, reciprocal_inf_ray
    if isinstance(domain, HalfOpen):
        from .extremal import reciprocal_inf_half_open
        return classify_half_open, reciprocal_inf_half_open
    raise DomainError("backward extensions live on the ray or on (0, 1]")


def classify_backward(s, x: Scalar, domain=Ray()) -> ExtensionVerdict:
    """Classify the one-step extension (x, s_0, ..., s_n)."""
    classify, inf_fn = _domain_tools(domain)
    values = _values(s)
    if classify(values).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("base sequence is not strictly positive")
    if x < 0:
        raise DomainError("extension value must be nonnegative")
    threshold = inf_fn(values)
    extension = (x,) + tuple(values)
    verdict = classify(extension)
    if verdict.kind is PositivityClass.STRICTLY_POSITIVE:
        return ExtensionVerdict(ExtensionClass.STRICT, threshold)
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        zero_based = recover_minimal_measure(extension, domain)
        return ExtensionVerdict(ExtensionClass.SINGULAR, threshold,
                                measure=tilt(zero_based, 1))
    return ExtensionVerdict(ExtensionClass.NOT_EXTENSION, threshold)


def forced_value(tail: Sequence[Scalar], domain=Ray()) -> Scalar:
    """The unique extension value that keeps the window singular: the
    reciprocal infimum of the next 2K values.  Exact on the ray because the
    forcing window always has odd top degree, exact on (0, 1] always."""
    _, inf_fn = _domain_tools(domain)
    return inf_fn(tail)


def minimal_measure_window(window, domain) -> AtomicMeasure:
    """Minimal measure of a strictly positive window of even length on the
    ray, or of odd/even length on (0, 1] (2K moments starting deepest)."""
    window = list(window)
    if isinstance(domain, Ray):
        poly = bordered_hankel_poly(window)
        return measure_from_poly(poly, window, Fraction(0), root_bound(poly))
    if len(window) % 2 == 0:
        poly = bordered_hankel_poly(window)
    else:
        diffs = [window[k] - window[k + 1] for k in range(len(window) - 1)]
        inner = bordered_hankel_poly(diffs) if diffs else Polynomial([1])
        poly = inner.mul_linear(1, -1)
    return measure_from_poly(poly, window, Fraction(0), Fraction(1))


def extend_with_index(s, r: int, K, free: Sequence[Scalar] = (),
                      domain=Ray()):
    """Prepend r values so the result has index exactly K.

    Slots above the singular depth are free choices, validated one by one to
    exceed their running threshold (the containing sequence must stay
    strictly positive); deeper slots are forced to the reciprocal infimum of
    the next 2K values.  Returns the extended sequence and, when 2K-1 does
    not exceed its length minus one, the unique minimal measure, indexed so
    that moment(mu, k) matches the extension for negative k as well.
    """
    classify, _ = _domain_tools(domain)
    values = _values(s)
    n = len(values) - 1
    if classify(values).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("base sequence is not strictly positive")
    if r < 1:
        raise BadIndex("need at least one extension step")
    two_k = K * 2
    if two_k != int(two_k):
        raise BadIndex("index must be a half-integer")
    two_k = int(two_k)
    if isinstance(domain, Ray) and two_k % 2 != 0:
        raise BadIndex("ray indices are integers")
    lo_twice, hi_twice = n + 1, n + r + 1
    if isinstance(domain, Ray):
        lo, hi = -(lo_twice // -2), -(hi_twice // -2)  # ceilings
        if not lo <= K <= hi:
            raise BadIndex(f"index {K} outside [{lo}, {hi}]")
    else:
        if not lo_twice <= two_k <= hi_twice:
            raise BadIndex(f"index {K} outside [{Fraction(lo_twice,2)}, {Fraction(hi_twice,2)}]")
    big_n = two_k - 1
    free = list(free)
    expected_free = max(min(big_n - n, r), 0)
    if len(free) != expected_free:
        raise ArityError(f"{expected_free} free values expected, got {len(free)}")

    ext = list(values)  # ext[0] is the deepest current entry
    free_iter = iter(free)
    first_index = 0
    for k in range(-1, -r - 1, -1):
        if k >= n - big_n:
            x = next(free_iter)
            candidate = [x] + ext
            if classify(candidate).kind is not PositivityClass.STRICTLY_POSITIVE:
                _, inf_fn = _domain_tools(domain)
                raise InfeasibleChoice(
                    f"value at slot {k} does not exceed its threshold",
                    level=k, threshold=inf_fn(ext))
        else:
            x = forced_value(ext[:big_n + 1], domain)
            candidate = [x] + ext
        ext = candidate
        first_index = k
    sequence = MomentSequence(first_index, ext)

    measure = None
    if big_n <= n + r:
        window = ext[:big_n + 1]
        zero_based = minimal_measure_window(window, domain)
        measure = tilt(zero_based, r)
    return sequence, measure


def reciprocal_moment(mu: AtomicMeasure) -> Scalar:
    """Integral of 1/t, i.e. the (-1)-st moment."""
    return mu.moment(-1)


def minimal_measure_with_reciprocal(s, x: Scalar) -> AtomicMeasure:
    """The unique minimal-support measure on (0, inf) matching an
    even-top-degree strictly positive sequence with reciprocal moment x.

    Inverse of `reciprocal_moment` on the minimal family; defined for
    x strictly above the reciprocal infimum of the sequence.
    """
    values = _values(s)
    n = len(values) - 1
    if n % 2 != 0:
        raise DomainError("the reciprocal parametrization is the even-length case")
    if classify_ray(values).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("sequence is not strictly positive on (0, inf)")
    if x < 0:
        raise OutOfRange("reciprocal moment must be positive")
    extension = (x,) + tuple(values)
    if classify_ray(extension).kind is not PositivityClass.STRICTLY_POSITIVE:
        raise OutOfRange("reciprocal moment does not exceed the infimum")
    zero_based = minimal_measure_window(extension, Ray())
    return tilt(zero_based, 1)
