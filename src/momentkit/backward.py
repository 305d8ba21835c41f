"""Backward extensions: one-step classification here, and the
prescribed-index construction and the even-case reciprocal parametrization
in `_extension`, whose public names this module serves on first use
(`momentkit._serve`).

Prepending x to a strictly positive sequence keeps it strictly positive
exactly when x exceeds the infimum of the reciprocal integral; equality
gives a singularly positive (determinate) extension -- only for odd top
degree on (0, inf), in both parities on (0, 1] -- and below the infimum the
extension is not positive at all.  The threshold is an exact rational for
exact input in both parities; for even top degree on (0, inf) it is not
attained, so prepending it gives no extension.  Off an exact window's
threshold the decisions are exact Hankel classifications of the extended
sequence; at it, the extension's measure is t^-1 mu, mu the window's minimal
measure (`principal._minimal`).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from . import _serve
from ._record import FrozenRecord
from .errors import DomainError, NotStrictlyPositive
from .measure import AtomicMeasure, tilt
from .numeric import Scalar
from .extremal import _reciprocal_inf, reciprocal_inf_half_open, reciprocal_inf_ray
from .positivity import (HalfOpen, PositivityClass, Ray, _Window, _classify_limit,
                         _determinacy_verdict, _limit_window, classify_half_open, classify_ray)
from .principal import _minimal, _support_measure

__getattr__, __dir__ = _serve(__name__, {
    "_extension": ("extend_with_index", "forced_value", "minimal_measure_window",
                   "minimal_measure_with_reciprocal", "reciprocal_moment")})


class ExtensionClass(Enum):
    STRICT = "Strict"
    SINGULAR = "Singular"
    NOT_EXTENSION = "NotExtension"


class ExtensionVerdict(FrozenRecord):
    _fields = ("kind", "threshold", "measure")

    def __init__(self, kind: ExtensionClass, threshold: Scalar,
                 measure: Optional[AtomicMeasure] = None):
        self.__dict__.update(kind=kind, threshold=threshold, measure=measure)


def _domain_tools(domain):
    if isinstance(domain, Ray):
        return classify_ray, reciprocal_inf_ray
    if isinstance(domain, HalfOpen):
        return classify_half_open, reciprocal_inf_half_open
    raise DomainError("backward extensions live on the ray or on (0, 1]")


def classify_backward(s, x: Scalar, domain=Ray()) -> ExtensionVerdict:
    """Classify the one-step extension (x, s_0, ..., s_n).  The threshold
    comes from the pass that decided the base window's form M (see
    `extremal._classified_inf`).  At an exact window's threshold the
    extension is Singular with the window's minimal measure, or NotExtension
    for even n on the ray, where the infimum is not attained.  A float
    window's extension there is not strict (its corner has a zero Schur
    complement), and its determinacy test decides it.  Otherwise the
    extension is classified, a singular one's measure read on the support
    integers its verdict built (`principal._support_measure`)."""
    classify, _ = _domain_tools(domain)
    w = _limit_window(s)
    base = _classify_limit(w, domain)
    if base.kind is not PositivityClass.STRICTLY_POSITIVE:
        raise NotStrictlyPositive("base sequence is not strictly positive")
    if x < 0:
        raise DomainError("extension value must be nonnegative")
    threshold = _reciprocal_inf(w, base, domain)
    if x == threshold and not w.floats:
        if isinstance(domain, Ray) and len(w.ints) % 2:  # even n: not attained
            return ExtensionVerdict(ExtensionClass.NOT_EXTENSION, threshold)
        return ExtensionVerdict(ExtensionClass.SINGULAR, threshold, _minimal(w, domain))
    extension = (x,) + w.values
    verdict = (_determinacy_verdict(_Window.of(extension), domain) if x == threshold
               else classify(extension))
    if verdict.kind is PositivityClass.STRICTLY_POSITIVE:
        return ExtensionVerdict(ExtensionClass.STRICT, threshold)
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        zero_based = _support_measure(_Window.of(extension), domain)
        return ExtensionVerdict(ExtensionClass.SINGULAR, threshold,
                                measure=tilt(zero_based, 1))
    return ExtensionVerdict(ExtensionClass.NOT_EXTENSION, threshold)
