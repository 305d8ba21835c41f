"""Exact windows held across public calls.

`positivity._Window.of` holds the last two exact windows it handed out and
hands one back, with the passes and verdicts kept on it, when it is asked
again for equal values with the same eps.  The key is the tuple of values
and eps: a list and a tuple of the same values, or 1 and Fraction(1), share
one window; another eps, float values equal to exact ones and float ends
do not, and a float window is never held.  A warm call, made while the
window is held, must give what a cold call gives.  A held window's lazy
passes must follow the domain and the interval they are asked for, however
the requests alternate.
"""

from fractions import Fraction as F

import pytest

import momentkit.positivity as positivity
from momentkit.alternating import has_ca_extension
from momentkit.backward import classify_backward
from momentkit.errors import MomentKitError
from momentkit.extremal import (reciprocal_extremes_compact, reciprocal_inf_half_open,
                                reciprocal_inf_ray)
from momentkit.measure import AtomicMeasure, moments
from momentkit.numeric import _dilated_scale
from momentkit.positivity import (Compact, HalfOpen, Ray, _Window, classify, index,
                                  recover_minimal_measure)
from momentkit.principal import (PrincipalKind, minimal_measure_half_open, minimal_measure_ray,
                                 principal_compact)

#: the Catalan numbers, as ints: moments of a density on [0, 4], strictly
#: positive on the ray
CATALAN = [1, 2, 5, 14, 42, 132]
RAY_MU = AtomicMeasure([(F(1, 2), F(1)), (F(3), F(2, 3))])
UNIT_MU = AtomicMeasure([(F(1, 4), F(3)), (F(2, 3), F(1, 2))])
COMPACT_MU = AtomicMeasure([(F(3, 2), F(1)), (F(2), F(1, 3)), (F(7, 2), F(2))])
#: atoms with denominators: 8 moments or more of them are dilated
LONG_MU = AtomicMeasure([(F(1, 3), F(1)), (F(2, 5), F(1, 2)), (F(3, 7), F(2, 3)),
                         (F(5, 6), F(1))])


def _window(mu, n):
    return list(moments(mu, 0, n).values)


def test_equal_exact_values_share_one_held_window():
    w = _Window.of(CATALAN)
    # a tuple of the same values, and the same values as Fractions
    assert _Window.of(tuple(CATALAN)) is w
    assert _Window.of([F(v) for v in CATALAN]) is w
    assert w.values == tuple(CATALAN) and positivity._held == (w,)
    # float values equal to the exact ones, and float ends, make a float
    # window of their own, which is not held
    for floats in (_Window.of([float(v) for v in CATALAN]),
                   _Window.of(CATALAN, None, (F(1, 2), 4.0))):
        assert floats.floats and floats is not w and floats.lam == 1
        assert positivity._held == (w,)
    # another eps is another window, which keeps its eps for `prepended`
    e = _Window.of(CATALAN, 1e-6)
    assert e is not w and e.eps == 1e-6 and positivity._held == (e, w)
    assert _Window.of(CATALAN, 1e-6) is e and e.prepended(0.5).eps == 1e-6
    # a third window lets go of the one handed out least recently
    assert _Window.of(CATALAN) is w and positivity._held == (w, e)
    other = _Window.of(CATALAN[:4])
    assert positivity._held == (other, w)
    assert _Window.of(CATALAN, 1e-6) is not e


def _calls(domain, window):
    """(name, call) for the public calls a caller makes on one window."""
    if isinstance(domain, Compact):
        a, b = domain.a, domain.b
        return [("classify", lambda: classify(window, domain)),
                ("index", lambda: index(window, domain)),
                ("lower", lambda: principal_compact(window, a, b, PrincipalKind.LOWER)),
                ("upper", lambda: principal_compact(window, a, b, PrincipalKind.UPPER)),
                ("extremes", lambda: reciprocal_extremes_compact(window, a, b)),
                ("measure", lambda: recover_minimal_measure(window, domain))]
    ray = isinstance(domain, Ray)
    inf = reciprocal_inf_ray if ray else reciprocal_inf_half_open
    partial = [F(1)]
    for v in window:
        partial.append(partial[-1] + v)
    calls = [("classify", lambda: classify(window, domain)),
             ("index", lambda: index(window, domain)),
             ("inf", lambda: inf(window)),
             ("minimal", lambda: (minimal_measure_ray if ray else minimal_measure_half_open)(
                 window)),
             ("at", lambda: classify_backward(window, inf(window), domain)),
             ("above", lambda: classify_backward(window, inf(window) * F(65, 64), domain)),
             ("measure", lambda: recover_minimal_measure(window, domain))]
    return calls if ray else calls + [("ca", lambda: has_ca_extension(partial))]


def _outcome(call):
    try:
        return repr(call())
    except MomentKitError as exc:
        return type(exc).__name__, str(exc)


#: (domain, window): strict and singular windows of each domain, dilated
#: ones (8 entries or more), and an integer window
WARM = {
    "ray-strict": (Ray(), _window(RAY_MU, 3)),
    "ray-singular": (Ray(), _window(RAY_MU, 4)),
    "ray-dilated": (Ray(), _window(LONG_MU, 7)),
    "ray-integers": (Ray(), CATALAN),
    "half-open-strict": (HalfOpen(), _window(UNIT_MU, 3)),
    "half-open-strict-odd-length": (HalfOpen(), _window(UNIT_MU, 2)),
    "half-open-singular": (HalfOpen(), _window(UNIT_MU, 5)),
    "half-open-dilated": (HalfOpen(), _window(LONG_MU, 8)),
    "compact-strict": (Compact(1, 4), _window(COMPACT_MU, 5)),
    "compact-strict-odd-length": (Compact(1, 4), _window(COMPACT_MU, 4)),
    "compact-singular": (Compact(1, 4), _window(COMPACT_MU, 6)),
    "compact-integers": (Compact(F(1, 2), 4), CATALAN[:4]),
}


@pytest.mark.parametrize("case", sorted(WARM))
def test_warm_calls_give_the_cold_outputs(case):
    domain, window = WARM[case]
    cold = []
    for _, call in _calls(domain, window):
        positivity._held = ()
        cold.append(_outcome(call))
    positivity._held = ()
    assert [_outcome(call) for _, call in _calls(domain, window)] == cold
    # the same values handed in as a tuple of Fractions, while the list's
    # window is held
    same = tuple(map(F, window))
    assert [_outcome(call) for _, call in _calls(domain, same)] == cold


@pytest.mark.parametrize("n", [3, 4])
def test_warm_calls_across_domains_and_intervals_give_the_cold_outputs(n):
    # one window read on every domain and on two intervals in turn: each
    # keeps its own verdicts and form classes on the held window
    window = _window(UNIT_MU, n)
    domains = (Ray(), HalfOpen(), Compact(F(1, 8), 1), Compact(F(1, 5), 3), Ray(),
               Compact(F(1, 8), 1), HalfOpen())
    calls = [call for domain in domains for _, call in _calls(domain, window)]
    cold = []
    for call in calls:
        positivity._held = ()
        cold.append(_outcome(call))
    positivity._held = ()
    assert [_outcome(call) for call in calls] == cold


def test_a_held_window_passes_follow_their_domain_and_interval():
    # an odd-length window: its slot form on (0, 1] is built on the
    # differences s_k - s_(k+1), on the ray on s itself
    window = _window(UNIT_MU, 4)
    w = _Window.of(window)

    def fresh():
        return _Window(tuple(window), *_dilated_scale(window)[:2], None, None)

    assert w.slot_pass(Ray()) != w.slot_pass(HalfOpen())
    for domain in (Ray(), HalfOpen(), HalfOpen(), Ray(), HalfOpen()):
        assert w.slot_pass(domain) == fresh().slot_pass(domain)
    assert w.interior(F(1, 8), 1).ints != w.interior(0, F(3, 2)).ints
    for a, b in ((F(1, 8), 1), (0, F(3, 2)), (F(1, 8), 1), (F(1, 8), 1), (0, F(3, 2))):
        inner, want = w.interior(a, b), fresh().interior(a, b)
        assert (inner.ints, inner.unit, inner.lam) == (want.ints, want.unit, want.lam)
        assert inner.support_pass() == want.support_pass()
        assert inner.hankel_class() is want.hankel_class()
    assert positivity._held == (w,)
