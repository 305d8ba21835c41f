"""Multi-step backward extensions and the even-case reciprocal
parametrization: `extend_with_index` prepends values up to a prescribed
index, each deep slot forced to the reciprocal infimum of the next 2K
entries (`forced_value`), and `minimal_measure_with_reciprocal` inverts
`reciprocal_moment` on the one-parameter family of minimal measures of an
even-length window on the ray.

The command-line `backward` kind reaches `extend_with_index` only for a
file that prescribes an index, so these live apart from `backward`, which
serves every public name here on first use (see `momentkit._serve`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .backward import _domain_tools
from .errors import (ArityError, BadIndex, DomainError, InfeasibleChoice, NotStrictlyPositive,
                     OutOfRange)
from .measure import AtomicMeasure, MomentSequence, tilt
from .numeric import Scalar
from .positivity import PositivityClass, Ray, _Window, _values, classify_ray
from .principal import _minimal


def forced_value(tail: Sequence[Scalar], domain=Ray()) -> Scalar:
    """The unique extension value that keeps the window singular: the
    reciprocal infimum of the next 2K values.  Exact on the ray because the
    forcing window always has odd top degree, exact on (0, 1] always."""
    _, inf_fn = _domain_tools(domain)
    return inf_fn(tail)


def minimal_measure_window(window, domain) -> AtomicMeasure:
    """Minimal measure of a strictly positive window of even length on the
    ray, or of odd/even length on (0, 1] (2K moments starting deepest)."""
    return _minimal(_Window.of(window), domain)


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
