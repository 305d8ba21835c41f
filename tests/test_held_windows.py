"""Exact windows held across public calls.

`positivity._Window.of` holds the last two exact windows it handed out and
hands one back, with the passes and verdicts kept on it, when it is asked
again for equal values with the same eps.  The key is the tuple of values
and eps: a list and a tuple of the same values, or 1 and Fraction(1), share
one window; another eps, float values equal to exact ones and float ends
do not, and a float window is never held.  A warm call, made while the
window is held, must give what a cold call gives.  A held window's lazy
passes must follow the domain and the interval they are asked for, however
the requests alternate.  The measures recovered from a held window are kept
on it beside its verdicts, so a warm measure call hands back the measure an
earlier call isolated, whatever calls came between, and a window let go of
takes its measures with it.
"""

from fractions import Fraction as F

import sys
from collections import Counter

import pytest

import momentkit.positivity as positivity
from momentkit.alternating import has_ca_extension
from momentkit.backward import classify_backward
from momentkit.errors import MomentKitError
from momentkit.extremal import (reciprocal_extremes_compact, reciprocal_inf_half_open,
                                reciprocal_inf_ray)
from momentkit.measure import AtomicMeasure, moments
import momentkit.numeric as numeric
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


def test_a_float_equal_to_a_held_value_makes_a_float_window():
    # the held windows are looked up before the values are scanned for
    # floats; one float among exact values equal to a held window's, or a
    # float end, still makes a float window: (1.0,) == (1,) in Python
    w = _Window.of(CATALAN)
    for i in (0, 3, len(CATALAN) - 1):
        mixed = CATALAN[:i] + [float(CATALAN[i])] + CATALAN[i + 1:]
        assert tuple(mixed) == w.values
        got = _Window.of(mixed)
        assert got is not w and got.floats and got.lam == 1 and got.values == tuple(mixed)
        assert positivity._held == (w,)
    got = _Window.of(CATALAN, None, (1, 4.0))
    assert got is not w and got.floats and positivity._held == (w,)
    # exact values of other types (Fraction for int) share the held window
    assert _Window.of([F(v) for v in CATALAN], None, (1, F(4))) is w


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


@pytest.fixture
def isolations(monkeypatch):
    """Counter of root isolations (`numeric._isolate`), through every alias."""
    counter, orig = Counter(), numeric._isolate

    def counted(*args):
        counter["isolations"] += 1
        return orig(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("momentkit.")]:
        for attr, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, attr, counted)
    return counter


def _theta(domain, window):
    return (reciprocal_inf_ray if isinstance(domain, Ray) else reciprocal_inf_half_open)(window)


def _measure_calls(case):
    """Measure calls interleaved on one window: lower and upper principal
    measures on one [a, b], then on two intervals in turn, and the ray's
    and (0, 1]'s minimal measures of one window."""
    if case == "one-interval":
        window, a, b = _window(COMPACT_MU, 5), F(1), F(4)
        return [lambda: principal_compact(window, a, b, PrincipalKind.LOWER),
                lambda: principal_compact(window, a, b, PrincipalKind.UPPER),
                lambda: reciprocal_extremes_compact(window, a, b),
                lambda: principal_compact(window, a, b, PrincipalKind.LOWER)]
    if case == "two-intervals":
        window = _window(COMPACT_MU, 5)
        return [lambda: principal_compact(window, F(1), F(4), PrincipalKind.LOWER),
                lambda: principal_compact(window, F(1, 2), F(5), PrincipalKind.LOWER),
                lambda: reciprocal_extremes_compact(window, F(1), F(4)),
                lambda: reciprocal_extremes_compact(window, F(1, 2), F(5)),
                lambda: principal_compact(window, F(1, 2), F(5), PrincipalKind.UPPER),
                lambda: principal_compact(window, F(1), F(4), PrincipalKind.UPPER)]
    window = _window(UNIT_MU, 3)
    partial = [sum(window[:k], F(1)) for k in range(len(window) + 1)]
    return [lambda: minimal_measure_ray(window),
            lambda: minimal_measure_half_open(window),
            lambda: classify_backward(window, _theta(Ray(), window), Ray()),
            lambda: classify_backward(window, _theta(HalfOpen(), window), HalfOpen()),
            lambda: has_ca_extension(partial),
            lambda: minimal_measure_ray(window)]


@pytest.mark.parametrize("case", ["one-interval", "two-intervals", "ray-then-half-open"])
def test_warm_measure_calls_give_the_cold_outputs(case):
    calls = _measure_calls(case)
    cold = []
    for call in calls:
        positivity._held = ()
        cold.append(_outcome(call))
    positivity._held = ()
    assert [_outcome(call) for call in calls] == cold


def test_a_held_window_keeps_each_measure_once(isolations):
    window, a, b = _window(COMPACT_MU, 5), F(1), F(4)
    lower = principal_compact(window, a, b, PrincipalKind.LOWER)
    bounds = reciprocal_extremes_compact(window, a, b)
    upper = principal_compact(window, a, b, PrincipalKind.UPPER)
    # the lower and the upper principal measure, each isolated once and
    # handed back by every later call on the held window
    assert isolations["isolations"] == 2
    assert {id(lower), id(upper)} == {id(bounds.attained_lo), id(bounds.attained_hi)}
    # the ray's and (0, 1]'s minimal measures of one window are kept apart
    # (here both are UNIT_MU), and the backward extensions at the two
    # thresholds read them
    window = _window(UNIT_MU, 3)
    isolations.clear()
    on_ray, on_unit = minimal_measure_ray(window), minimal_measure_half_open(window)
    at_ray = classify_backward(window, _theta(Ray(), window), Ray()).measure
    at_unit = classify_backward(window, _theta(HalfOpen(), window), HalfOpen()).measure
    assert isolations["isolations"] == 2 and on_ray is not on_unit
    assert at_ray is on_ray and at_unit is on_unit
    partial = [sum(window[:k], F(1)) for k in range(len(window) + 1)]
    assert has_ca_extension(partial).measure.positive is on_unit
    assert isolations["isolations"] == 2


def test_a_window_let_go_of_drops_its_measures(isolations):
    window = _window(UNIT_MU, 3)
    first = minimal_measure_half_open(window)
    assert minimal_measure_half_open(window) is first and isolations["isolations"] == 1
    # two other windows handed out let go of this one, and its measure
    _Window.of(CATALAN)
    _Window.of(CATALAN[:4])
    assert all(w.values != tuple(window) for w in positivity._held)
    again = minimal_measure_half_open(window)
    assert again == first and again is not first and isolations["isolations"] == 2


def test_a_float_window_keeps_no_measure(isolations):
    window = [float(v) for v in _window(UNIT_MU, 3)]
    first = minimal_measure_half_open(window)
    assert positivity._held == ()
    second = minimal_measure_half_open(window)
    # each call isolates the roots again: nothing was kept across them
    assert second == first and second is not first and isolations["isolations"] == 2
    assert positivity._held == () and not _Window.of(window)._kept
