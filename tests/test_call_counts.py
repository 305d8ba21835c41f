"""Kernel-call budgets: each entry point classifies its window once and
eliminates each of its Hankel forms at most once.

A verdict carries what classification built: on every domain a singular
verdict holds its support polynomial, so the threshold of a backward
extension, the singular index, infimum and measure, and the principal
measures of the compact extremes are read from work already done.  The
support polynomial itself comes out of the pass that gives the leading
minors, so it costs no bordered determinant, and the same pass decides every
Hankel form; at full rank it also gives the atom polynomial of the minimal
measure of an odd-n window on the ray.  Every other bordered-Hankel
polynomial (principal and minimal measures, certificate measures) is one
full-rank pass of its own, so no path counts a `det_poly`.  Where H(s) is
one of the deciding forms (on the ray, and for even n on (0, 1] and on
[a, b]) its pass is run once, in the shape the support polynomial reads,
and handed on; so is the interior form for even n on [a, b].  A strict
window's threshold is the Schur complement of the corner that holds the
prepended slot, and the pass to that corner reduces the limit form M
first, so it decides M on every exact window, whether or not a threshold
follows; the completion search reads each threshold, forced value and level
quadratic from that pass alone, since its windows are strictly positive by
construction.  The counts below are the whole cost of each call in the four
kernel functions, counted through every alias the package modules import.
The second slot counts that pass, `numeric._minor_pass`, wherever it runs:
once inside each `classify_form` (the forms that are not handed on), once
per H(s), once per support polynomial of a window whose H(s) does not
decide it, once per bordered polynomial of a strict window and once per
slot, so it counts every elimination of a Hankel form.  A window of 8
entries or more is dilated (`numeric._dilated_scale`) once, when
`positivity._Window.of` builds it: the same budgets hold on such windows,
and no window decides its lam twice.  Roots are counted only by the
determinacy tests, by Descartes' rule of signs
(`numeric.count_positive_roots`).  Atoms are found from certified float
seeds: a planted rational measure is recovered on every domain with no
Descartes isolation, even with atom denominators of 43 bits, and a
polynomial whose seeds fail the certificate is isolated by one.  A
completion certificate's measure scales its window to integers once,
builds one image of its atoms if they are exact, which the measure of the
certificate's indices reads with shifted exponents, builds a `Fraction`
polynomial only for a moment recurrence, and reads no mass through
`vandermonde_masses`: its masses, exact or not, are read on its atom
polynomial.  So are the masses of every measure of a float window, and
of float input handed with a polynomial, rounded once.  A recurrence
builds no image of its atoms: its hint is the floats read at the
isolation brackets, the AtomicMeasure constructor's only call.  No root
proven irrational (`RootEnclosure.irrational`) is tested for a rational
one over the `subnormal` benchmark problems of one seed, certificates
included.  An "auto"
completion solve classifies each given branch window once to read its atom
counts, and each of a singular window's sub-windows at most once to check
its index.  It carries each branch through the search on the image of
its given window, extended by `_Window.prepended` and cut by
`_Window.prefix`, so the search builds no window with `_Window.of`; and
it computes each threshold, forced value and level quadratic once per
distinct image, however many atom-count vectors and levels read it.

Every budget is that of a cold call.  `_Window.of` holds the last two exact
windows it handed out, with their passes and verdicts (`tests/conftest.py`
lets go of them before each test), so a test that warms a window up with a
reference call, a threshold or a class, lets go of them (`_cold`) before the
call it counts.  The warm sequence of calls on one window (class, index,
infimum or extremes, minimal or principal measure, backward extensions, the
completely alternating extension) scales the window once, masses included,
runs one pass over its H(s), eliminates no form twice and isolates the roots
of each measure once: the measures recovered from a held window are kept on
it, and the backward extension at its threshold reads the minimal one.  A
minimal or principal measure of a held window is read on the integers of its
atom polynomial and on the held image, so it builds no `Fraction` polynomial
and no window of its own, and an inexact one no polynomial from its roots.
The support polynomial of a singular window is built once on its integers
and kept on it: the class, index and unique measure of a held window build
it once, the index reads the domain's ends by integer Horner, and the
measure is read on those integers, with no coefficient scaled again.
"""

import importlib.util
import json
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import momentkit._recovery as recovery
import momentkit._roots as roots
import momentkit.completion as completion
import momentkit.measure as measure
import momentkit.numeric as numeric
from momentkit.alternating import has_ca_extension
from momentkit.backward import (ExtensionClass, classify_backward, forced_value,
                                minimal_measure_window)
from momentkit.cli import run
from momentkit.extremal import (reciprocal_extremes_compact, reciprocal_inf_half_open,
                                reciprocal_inf_ray)
from momentkit.measure import AtomicMeasure, moments, tilt
import momentkit.positivity as positivity
import momentkit.principal as principal
from momentkit.numeric import Polynomial
from momentkit.positivity import (Compact, HalfOpen, PositivityClass, Ray, classify, index,
                                  recover_minimal_measure, recover_support_and_masses)
from momentkit.principal import (PrincipalKind, atoms_from_poly, minimal_measure_half_open,
                                 minimal_measure_ray, principal_compact)
from momentkit.tree import BranchClass, PartialWeights

from conftest import branch_measure

KERNEL = ("classify_form", "_minor_pass", "det_poly", "count_positive_roots")

RAY_MU = AtomicMeasure([(F(1, 2), F(1)), (F(3), F(2, 3))])
UNIT_MU = AtomicMeasure([(F(1, 4), F(3)), (F(2, 3), F(1, 2))])


@pytest.fixture
def calls(monkeypatch):
    """Counter of kernel calls made while the test runs."""
    counter = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "momentkit" or name.startswith("momentkit.")]
    for name in KERNEL:
        orig = getattr(numeric, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counter[_name] += 1
            return _orig(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counted)
    return counter


def _window(mu, n):
    return list(moments(mu, 0, n).values)


def _counts(counter):
    return tuple(counter[name] for name in KERNEL)


def _cold():
    """Let go of the windows `_Window.of` holds, so that the call counted
    next pays for its own image, passes and verdicts."""
    positivity._held = ()


@pytest.mark.parametrize("mu, domain, inf", [(RAY_MU, Ray(), reciprocal_inf_ray),
                                             (UNIT_MU, HalfOpen(), reciprocal_inf_half_open)])
def test_backward_at_threshold_classifies_each_window_once(calls, mu, domain, inf):
    window = _window(mu, 3)
    theta = inf(window)
    calls.clear()
    _cold()
    verdict = classify_backward(window, theta, domain)
    assert verdict.kind is ExtensionClass.SINGULAR and verdict.measure == mu
    # the base's first form (H(s) on the ray, b s_k - s_(k+1) on (0, 1] for
    # odd n); one pass to the corner of the prepended slot, which decides M
    # and gives the threshold.  At the threshold the verdict follows from
    # the domain and the parity, and its measure is the window's minimal
    # one: no extension window, no determinacy test and no root count.  On
    # the ray its atom polynomial is read from the pass over H(s) at full
    # rank; on (0, 1] it is the bordered pass over H(s), its one more
    # elimination
    assert _counts(calls) == ((0, 2, 0, 0) if isinstance(domain, Ray) else (1, 3, 0, 0))


@pytest.mark.parametrize("mu, inf", [(RAY_MU, reciprocal_inf_ray),
                                     (UNIT_MU, reciprocal_inf_half_open)])
def test_strict_infimum_is_one_pass_after_classification(calls, mu, inf):
    assert inf(_window(mu, 3)) == mu.moment(-1)
    # the first limit form (H(s) on the ray, read from its own pass), then the
    # pass to the slot's corner, which decides M and gives the Schur
    # complement: no bordered polynomial
    assert _counts(calls) == ((0 if inf is reciprocal_inf_ray else 1), 2, 0, 0)


@pytest.mark.parametrize("domain, mu", [(Ray(), RAY_MU), (HalfOpen(), UNIT_MU)])
def test_search_reads_each_level_value_from_one_pass(calls, domain, mu):
    window = tuple(_window(mu, 3))
    w, table = positivity._Window.of(window), completion._LevelValues(domain)
    theta = table.threshold(w)
    assert _counts(calls) == (0, 1, 0, 0)
    calls.clear()
    forced = completion._threshold(positivity._Window.of(window[:2]), domain)
    assert _counts(calls) == (0, 1, 0, 0)
    calls.clear()
    assert table.threshold(w.prefix(2)) == forced
    assert _counts(calls) == (0, 1, 0, 0)
    assert theta == mu.moment(-1) and forced == forced_value(window[:2], domain)
    for rest in (w, w.prefix(2)):
        calls.clear()
        a, b, c = table.quadratic(rest, theta)
        assert _counts(calls) == (0, 1, 0, 0)
        assert a + b + c == completion._threshold(rest.prepended(theta + 1), domain)
    # read again, every value comes from the solve's table
    calls.clear()
    assert table.threshold(w) == theta and table.threshold(w.prefix(2)) == forced
    assert table.quadratic(w, theta) == table.quadratic(w, theta)
    assert _counts(calls) == (0, 0, 0, 0)


#: two-class "auto" solves that search several 2K vectors: (solver, domain,
#: trunk squares, first-weight masses, tails); the "singular" ones have a
#: class whose given window is a one-atom window, forced at level 0
SWEEPS = {
    "subnormal": (completion.solve_subnormal, Ray(), (F(280, 139), F(417, 346)),
                  (F(5, 14), F(17, 12)), ((F(20, 9),), (F(2),))),
    "subnormal-singular": (completion.solve_subnormal, Ray(), (F(1, 10), F(1, 10)),
                           (F(1, 2), F(1, 2)), ((F(2), F(2)), (F(3), F(7, 2)))),
    "che": (completion.solve_che, HalfOpen(), (F(457, 411), F(5343, 3190)),
            (F(256, 457), F(224, 457)), ((F(33, 32),), (F(65, 64),))),
    "che-singular": (completion.solve_che, HalfOpen(), (F(3, 2), F(2)),
                     (F(1), F(1, 2)), ((F(2), F(5, 4), F(11, 10)), (F(2), F(19, 16), F(81, 76)))),
}


def _counted_solve(monkeypatch, case):
    """Run the "auto" solve of SWEEPS[case] and count, per image
    (`_Window.key`), the Schur passes that give a threshold and a level
    quadratic, the windows `_Window.of` builds inside the search, and the
    verdicts per window; with the givens and each searched vector's
    2K - 1."""
    solve, domain, trunk_sq, masses, tails = SWEEPS[case]
    pw = PartialWeights(trunk_sq, [BranchClass(m, tail, 1) for m, tail in zip(masses, tails)])
    window = (completion._given_subnormal_window if isinstance(domain, Ray)
              else completion._given_che_window)
    givens = [window(c) for c in pw.classes]
    counts = {name: Counter() for name in ("classified", "thresholds", "quadratics", "of")}
    searched, levels = [], []
    limit, search = completion._classify_limit, completion._search_levels
    of = positivity._Window.of.__func__

    def counted_limit(w, *args, **kwargs):  # a verdict read on an image
        counts["classified"][tuple(w.values)] += 1
        return limit(w, *args, **kwargs)

    def counted(name, fn):
        def call(w, domain):
            counts[name][w.key()] += 1
            return fn(w, domain)
        return call

    def counted_of(cls, *args, **kwargs):
        counts["of"][bool(levels)] += 1
        return of(cls, *args, **kwargs)

    def counted_search(problem, wins, level=0, known=None):
        if level == 0:
            searched.append(problem.big_ns)
        levels.append(level)
        try:
            return search(problem, wins, level, known)
        finally:
            levels.pop()

    monkeypatch.setattr(completion, "_classify_limit", counted_limit)
    for name, fn in (("thresholds", "_schur_threshold"), ("quadratics", "_schur_quadratic")):
        monkeypatch.setattr(completion, fn, counted(name, getattr(completion, fn)))
    monkeypatch.setattr(positivity._Window, "of", classmethod(counted_of))
    monkeypatch.setattr(completion, "_search_levels", counted_search)
    solve(pw, "auto")
    return givens, searched, counts


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_reads_one_verdict_and_each_level_zero_value_once(monkeypatch, case):
    givens, searched, counts = _counted_solve(monkeypatch, case)
    classified, thresholds = counts["classified"], counts["thresholds"]
    domain = SWEEPS[case][1]
    assert len(searched) >= 2
    slices = {g[i:j] for g in givens for i in range(len(g)) for j in range(i + 1, len(g) + 1)}
    for given in givens:
        # one verdict on the given window; a singular one's index is then
        # checked once by `_branch_k_compatible`, which classifies each of
        # its sub-windows once, the window of the last 2K entries included
        assert classified[given] == 1
        if not classify(given, domain).is_strict:
            assert max(n for w, n in classified.items() if w in slices and w != given) <= 1
        # each level-0 value (a free slot's threshold of the whole window, a
        # forced slot's of its first 2K entries) once per solve, however
        # many vectors are searched
        images = [positivity._Window.of(given[:j]).key() for j in range(1, len(given) + 1)]
        assert all(thresholds[key] <= 1 for key in images)
        assert sum(thresholds[key] for key in set(images)) == len(
            {images[min(big_ns[c] + 1, len(given)) - 1] for big_ns in searched
             for c, g in enumerate(givens) if g == given})


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_search_builds_no_window_and_reads_each_image_once(monkeypatch, case):
    _, searched, counts = _counted_solve(monkeypatch, case)
    assert len(searched) >= 2
    assert ("singular" in case) is not any(counts["quadratics"])
    # every window of the search is a given one extended by `prepended` or
    # cut by `prefix`; and each distinct image's threshold and level
    # quadratic is computed once per solve, at whatever level or vector it
    # recurs
    assert counts["of"][True] == 0
    assert all(n == 1 for n in counts["thresholds"].values())
    assert all(n == 1 for n in counts["quadratics"].values())


def test_compact_extremes_classify_once(calls):
    mu = AtomicMeasure([(F(3, 2), F(1)), (F(2), F(1, 3)), (F(7, 2), F(2))])
    window = _window(mu, 4)
    bounds = reciprocal_extremes_compact(window, F(1), F(4))
    assert bounds.t_lo < mu.moment(-1) < bounds.t_hi
    # H(s) and the interior form, each a window whose pass is kept, and one
    # full-rank pass per principal polynomial: no bordered determinant
    assert _counts(calls) == (0, 4, 0, 0)


@pytest.mark.parametrize("mu, domain", [(RAY_MU, Ray()), (UNIT_MU, HalfOpen())])
def test_singular_index_reads_the_verdict_polynomial(calls, mu, domain):
    window = _window(mu, 5)
    assert index(window, domain) == 2
    # on the ray the pass of the singular H(s) gives the polynomial too; for
    # odd n on (0, 1], H(s) is not a limit form, so the singular
    # s_k - s_(k+1) form and H(s) are two passes
    assert _counts(calls)[1:] == ((1 if isinstance(domain, Ray) else 2), 0, 1)


@pytest.mark.parametrize("recover", [index, recover_minimal_measure])
def test_singular_compact_results_read_the_verdict_polynomial(calls, monkeypatch, recover):
    mu = AtomicMeasure([(F(3, 2), F(1)), (F(5, 2), F(2, 3))])
    window, domain = _window(mu, 4), Compact(1, 4)
    verdict = classify(window, domain)
    assert verdict.kind is PositivityClass.SINGULARLY_POSITIVE
    assert verdict.support == Polynomial([F(15, 4), -4, 1])
    calls.clear()
    _cold()
    classified = Counter()
    orig = positivity.classify_compact

    def counted(*args, **kwargs):
        classified["classify_compact"] += 1
        return orig(*args, **kwargs)

    # the index calls it in `positivity`, the measure in `_recovery`
    for module in (positivity, recovery):
        monkeypatch.setattr(module, "classify_compact", counted)
    assert recover(window, domain) == (2 if recover is index else mu)
    # H(s), whose pass gives the support polynomial the verdict carries, and
    # the interior form: the window is classified once
    assert classified["classify_compact"] == 1
    assert _counts(calls) == (0, 2, 0, 0)


#: (domain, measure, n, index): a singular window per domain, with an atom
#: at the end of (0, 1] and at the lower end of [1, 4]
HELD_SINGULAR = {
    "ray": (Ray(), RAY_MU, 5, 2),
    "half-open": (HalfOpen(), AtomicMeasure([(F(1, 4), F(3)), (F(1), F(1, 2))]), 5, F(3, 2)),
    "compact": (Compact(1, 4), AtomicMeasure([(F(1), F(1)), (F(5, 2), F(2, 3))]), 4, F(3, 2)),
}


@pytest.mark.parametrize("case", sorted(HELD_SINGULAR))
def test_singular_results_of_a_held_window_build_its_support_integers_once(monkeypatch, case):
    domain, mu, n, want = HELD_SINGULAR[case]
    window = _window(mu, n)
    counter, support = Counter(), []
    pass_bordered, call, scale = numeric._pass_bordered, Polynomial.__call__, numeric._integer_scale

    def counted_bordered(*args, **kwargs):
        counter["built"] += 1
        return pass_bordered(*args, **kwargs)

    def counted_call(self, x):
        counter["evaluated"] += 1
        return call(self, x)

    def counted_scale(values):
        values = list(values)
        if len(values) == len(support) and all(
                x * support[-1] == c * values[-1] for x, c in zip(values, support)):
            counter["scaled"] += 1  # a multiple of the support polynomial
        return scale(values)

    monkeypatch.setattr(positivity, "_pass_bordered", counted_bordered)
    monkeypatch.setattr(Polynomial, "__call__", counted_call)
    for module in [m for name, m in sys.modules.items() if name.startswith("momentkit.")]:
        for attr, value in list(vars(module).items()):
            if value is scale:
                monkeypatch.setattr(module, attr, counted_scale)
    verdict = classify(window, domain)  # the window is held from here on
    assert verdict.kind is PositivityClass.SINGULARLY_POSITIVE
    support += verdict.support.coeffs
    counter["evaluated"] = 0
    assert index(window, domain) == want
    # the ends are read by `_horner` on the kept integers
    assert counter["evaluated"] == 0
    assert recover_minimal_measure(window, domain) == mu
    # the support integers are built once, by the classification, and the
    # measure is isolated and its masses read on them: its coefficients
    # are never scaled to integers again
    assert counter["built"] == 1
    assert counter["scaled"] == 0


def test_singular_ray_infimum_reads_the_verdict_polynomial(calls):
    window = _window(RAY_MU, 5)
    assert reciprocal_inf_ray(window) == RAY_MU.moment(-1)
    assert _counts(calls)[1:] == (1, 0, 1)


def test_singular_half_open_measure_reads_the_verdict_polynomial(calls):
    window = _window(UNIT_MU, 5)
    assert classify(window, HalfOpen()).kind is PositivityClass.SINGULARLY_POSITIVE
    calls.clear()
    _cold()
    assert minimal_measure_half_open(window) == UNIT_MU
    assert _counts(calls)[1:] == (2, 0, 1)


@pytest.mark.parametrize("n, kind", [(3, PositivityClass.STRICTLY_POSITIVE),
                                     (5, PositivityClass.SINGULARLY_POSITIVE)])
def test_cli_classify_reads_the_index_from_its_verdict(calls, tmp_path, n, kind):
    path = tmp_path / "classify.json"
    window = _window(RAY_MU, n)
    path.write_text(json.dumps({"kind": "classify", "domain": "ray",
                                "sequence": [numeric.format_scalar(v) for v in window]}))
    payload, code = run(str(path))
    # H(s) is read from its own pass and M from the slot pass; a singular
    # H(s) stops the limit test before M
    assert calls["classify_form"] == 0
    del payload["elapsed_s"]
    assert (payload, code) == ({"class": kind.value, "index": "2"}, 0)


def test_minimal_ray_measure_reads_the_classifying_pass(calls):
    assert minimal_measure_ray(_window(RAY_MU, 3)) == RAY_MU
    # H(s), whose pass at full rank also gives the atom polynomial, and M,
    # read from the slot pass: no bordered determinant
    assert _counts(calls) == (0, 2, 0, 0)


def _warm_sequence(domain, window):
    """The calls a caller makes on one strictly positive window: its class,
    index, infimum or extremes, minimal or principal measure, backward
    extensions at and above the threshold, and on (0, 1] the completely
    alternating extension of its partial sums."""
    if isinstance(domain, Compact):
        return [lambda: classify(window, domain), lambda: index(window, domain),
                lambda: principal_compact(window, domain.a, domain.b, PrincipalKind.LOWER),
                lambda: reciprocal_extremes_compact(window, domain.a, domain.b)]
    ray = isinstance(domain, Ray)
    inf = reciprocal_inf_ray if ray else reciprocal_inf_half_open
    calls = [lambda: classify(window, domain), lambda: index(window, domain),
             lambda: inf(window),
             lambda: (minimal_measure_ray if ray else minimal_measure_half_open)(window),
             lambda: classify_backward(window, inf(window), domain),
             lambda: classify_backward(window, inf(window) * F(65, 64), domain)]
    partial = [sum(window[:k], F(1)) for k in range(len(window) + 1)]
    return calls if ray else calls + [lambda: has_ca_extension(partial)]


COMPACT_MU = AtomicMeasure([(F(3, 2), F(1)), (F(2), F(1, 3)), (F(7, 2), F(2))])

#: (domain, window, passes, isolations): the eliminations and the root
#: isolations of the whole sequence.  On the ray the passes are H(s) and the
#: slot pass (which decides M for the class and gives the threshold) of the
#: window, and the same two of the extension above the threshold; the
#: minimal measure, which the extension at the threshold reads too, is the
#: one isolation.  On
#: (0, 1] the completely alternating extension reads that measure as well;
#: on [a, b] the extremes read the lower principal measure that the
#: principal measure call isolated.  The odd-length windows have a
#: transform's bordered pass in place of H(s)'s (b s_k - s_(k+1) at b = 1 on
#: (0, 1], s_(k+1) - a s_k and b s_k - s_(k+1) on [a, b]), run once each.
WARM = {"ray": (Ray(), _window(RAY_MU, 3), 4, 1),
        "half-open": (HalfOpen(), _window(UNIT_MU, 3), 6, 1),
        "half-open-odd-length": (HalfOpen(), _window(UNIT_MU, 2), 6, 1),
        "compact": (Compact(1, 4), _window(COMPACT_MU, 5), 4, 2),
        "compact-odd-length": (Compact(1, 4), _window(COMPACT_MU, 4), 4, 2)}


@pytest.mark.parametrize("case", sorted(WARM))
def test_warm_sequence_scales_the_window_once_and_runs_each_pass_once(monkeypatch, case):
    domain, window, budget, isolations = WARM[case]
    ints = numeric._dilated_scale(window)[0]
    scaled, passes = Counter(), Counter()
    for name in ("_dilated_scale", "_integer_scale", "_minor_pass", "_isolate"):
        orig = getattr(numeric, name)

        def counted(*args, _name=name, _orig=orig):
            if _name == "_isolate":
                scaled["isolations"] += 1
                return _orig(*args)
            if _name == "_minor_pass":
                passes[tuple(args[0].ints), args[0].unit, args[1]] += 1
                return _orig(*args)
            # a scaling inside another (`_dilated_scale` of a short window)
            # is the same one
            scaled[list(args[0]) == window] += not scaled["open"]
            scaled["open"] += 1
            try:
                return _orig(*args)
            finally:
                scaled["open"] -= 1
        for module in [m for n, m in sys.modules.items() if n.startswith("momentkit.")]:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counted)
    for call in _warm_sequence(domain, window):
        call()
    # one image of the window, which every call reads, masses included; one
    # pass over its H(s), no form of the sequence eliminated twice, and each
    # measure's roots isolated once
    assert scaled[True] == 1
    assert sum(n for (image, _, _), n in passes.items() if list(image) == ints) == 1
    assert set(passes.values()) == {1} and sum(passes.values()) == budget
    assert scaled["isolations"] == isolations


#: atoms with denominators: 8 moments or more of them are dilated
LONG_RAY_MU = AtomicMeasure([(F(1, 3), F(1)), (F(2, 5), F(1, 2)), (F(7, 2), F(2, 3)),
                             (F(5), F(1))])
LONG_UNIT_MU = AtomicMeasure([(F(1, 3), F(1)), (F(2, 5), F(1, 2)), (F(3, 7), F(2, 3)),
                              (F(5, 6), F(1))])
LONG_COMPACT_MU = AtomicMeasure([*LONG_RAY_MU.atoms, (F(9, 2), F(1, 3))])


@pytest.fixture
def windows(monkeypatch):
    """Counter of the windows `_Window.of` builds (a held window handed
    back again is not counted) and of the dilations `numeric._dilated_scale`
    decides, through every alias."""
    counter, built = Counter(), []
    of = positivity._Window.of.__func__

    def counted_of(cls, *args, **kwargs):
        w = of(cls, *args, **kwargs)
        if all(w is not x for x in built):
            built.append(w)
            counter["windows"] += 1
        return w

    monkeypatch.setattr(positivity._Window, "of", classmethod(counted_of))
    orig = numeric._dilated_scale

    def counted(*args):
        counter["dilations"] += 1
        return orig(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("momentkit.")]:
        for attr, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, attr, counted)
    return counter


def _backward_at_threshold(mu, domain, inf):
    def prepare(window):
        theta = inf(window)

        def call():
            verdict = classify_backward(window, theta, domain)
            assert verdict.kind is ExtensionClass.SINGULAR and verdict.measure == mu
        return call
    return prepare


def _returns(fn, *args, want):
    def prepare(window):
        def call():
            assert fn(window, *args) == want
        return call
    return prepare


def _compact_extremes(window):
    def call():
        bounds = reciprocal_extremes_compact(window, F(1, 4), F(6))
        assert bounds.t_lo < LONG_COMPACT_MU.moment(-1) < bounds.t_hi
    return call


#: (prepare, budget, measure, n): the entry points whose budgets are pinned
#: above on short windows, with the same budget, on n + 1 >= 8 moments
LONG_CASES = {
    "ray-inf": (_returns(reciprocal_inf_ray, want=LONG_RAY_MU.moment(-1)), (0, 2, 0, 0),
                LONG_RAY_MU, 7),
    "half-open-inf": (_returns(reciprocal_inf_half_open, want=LONG_UNIT_MU.moment(-1)),
                      (1, 2, 0, 0), LONG_UNIT_MU, 7),
    "ray-backward": (_backward_at_threshold(LONG_RAY_MU, Ray(), reciprocal_inf_ray),
                     (0, 2, 0, 0), LONG_RAY_MU, 7),
    "half-open-backward": (_backward_at_threshold(LONG_UNIT_MU, HalfOpen(),
                                                  reciprocal_inf_half_open),
                           (1, 3, 0, 0), LONG_UNIT_MU, 7),
    "compact-extremes": (_compact_extremes, (0, 4, 0, 0), LONG_COMPACT_MU, 8),
    "ray-index": (_returns(index, Ray(), want=4), (0, 1, 0, 1), LONG_RAY_MU, 9),
    "half-open-index": (_returns(index, HalfOpen(), want=4), (1, 2, 0, 1), LONG_UNIT_MU, 9),
}


@pytest.mark.parametrize("case", sorted(LONG_CASES))
def test_dilated_windows_keep_the_budgets_and_decide_lam_once(calls, windows, case):
    prepare, budget, mu, n = LONG_CASES[case]
    window = _window(mu, n)
    assert positivity._Window.of(window).lam > 1
    call = prepare(window)
    calls.clear()
    windows.clear()
    _cold()
    call()
    # the budget of the short window, and one lam per window built:
    # interior windows inherit theirs, and no pass dilates again
    assert _counts(calls) == budget
    assert windows["dilations"] == windows["windows"] > 0


LOWER, UPPER = PrincipalKind.LOWER, PrincipalKind.UPPER

#: (measure call, domain, window, windows of its own): the minimal and
#: principal measures of exact windows of both parities, a dilated one
#: included; the public call's own `_Window.of` calls are its verdict's and,
#: on (0, 1] and [a, b], the one it reads the measure from
HELD_MEASURES = {
    "ray": (minimal_measure_ray, Ray(), _window(RAY_MU, 3), 1),
    "ray-dilated": (minimal_measure_ray, Ray(), _window(LONG_RAY_MU, 7), 1),
    "half-open": (minimal_measure_half_open, HalfOpen(), _window(UNIT_MU, 3), 2),
    "half-open-odd-length": (minimal_measure_half_open, HalfOpen(), _window(UNIT_MU, 2), 2),
    "half-open-window": (lambda w: minimal_measure_window(w, HalfOpen()), HalfOpen(),
                         _window(LONG_UNIT_MU, 7), 1),
    "compact-lower": (lambda w: principal_compact(w, 1, 4, LOWER), Compact(1, 4),
                      _window(COMPACT_MU, 5), 2),
    "compact-upper": (lambda w: principal_compact(w, 1, 4, UPPER), Compact(1, 4),
                      _window(COMPACT_MU, 5), 2),
    "compact-lower-odd-length": (lambda w: principal_compact(w, 1, 4, LOWER), Compact(1, 4),
                                 _window(COMPACT_MU, 4), 2),
    "compact-upper-odd-length": (lambda w: principal_compact(w, 1, 4, UPPER), Compact(1, 4),
                                 _window(COMPACT_MU, 4), 2),
    "ray-irrational": (minimal_measure_ray, Ray(), [1, 3, 11, 45], 1),
}


@pytest.mark.parametrize("case", sorted(HELD_MEASURES))
def test_measures_of_a_held_window_build_no_polynomial_and_no_window(monkeypatch, case):
    measure_of, domain, window, own = HELD_MEASURES[case]
    assert classify(window, domain).is_strict  # the window is held from here on
    counter = Counter()
    of, init = positivity._Window.of.__func__, Polynomial.__init__

    def counted_of(cls, *args, **kwargs):
        counter["of"] += 1
        return of(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counter["Polynomial"] += 1
        init(self, *args, **kwargs)

    def counted_associated(p, s):
        handed.append(list(p))
        return associated(p, s)

    handed, associated, lam = [], numeric.associated, positivity._Window.of(window).lam
    monkeypatch.setattr(positivity._Window, "of", classmethod(counted_of))
    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    for module in [m for name, m in sys.modules.items() if name.startswith("momentkit.")]:
        for attr, value in list(vars(module).items()):
            if value is associated:
                monkeypatch.setattr(module, attr, counted_associated)
    mu = measure_of(window)
    # the roots are isolated on the integers of the atom polynomial and the
    # masses read on them and on the held image, exact or not: no `Fraction`
    # polynomial is built, and no window past the public call's own; the
    # masses of an inexact measure are read on the atom polynomial, and on
    # no polynomial built from its positions (one that vanishes at all of
    # them, on the image dilated by lam)
    assert counter["Polynomial"] == 0
    assert mu.exact or handed and all(
        any(numeric._horner(p, lam * x.numerator, x.denominator) for x, _ in mu.atoms)
        for p in handed)
    assert counter["of"] == own
    assert not mu.exact or list(moments(mu, 0, len(window) - 1).values) == window


#: (atoms, domain, exact, start, length): certificate measures on both
#: domains, of indices -2.., whose window is moments start..start+length-1
#: of the atoms; the irrational pairs (3 +- sqrt 5)/2 and (5 +- sqrt 5)/10,
#: of mass 1/2 each, have rational moments, so their certificates are
#: recurrences; 8 moments of the long measures are a dilated window
CERTIFIED = {
    "ray-atomic": (RAY_MU, Ray(), True, -2, 4),
    "half-open-atomic": (UNIT_MU, HalfOpen(), True, -2, 4),
    "ray-recurrence": (Polynomial([1, -3, 1]), Ray(), False, -2, 4),
    "half-open-recurrence": (Polynomial([1, -5, 5]), HalfOpen(), False, -2, 4),
    "ray-dilated": (LONG_RAY_MU, Ray(), True, 0, 8),
    "half-open-dilated": (LONG_UNIT_MU, HalfOpen(), True, 0, 8),
}


def _recurrence_moments(poly, lo, hi):
    """Moments lo..hi of the measure of mass 1/2 at each root of the
    quadratic `poly`, run from s_0 = 1, s_1 = -c_1 / (2 c_2) by its
    recurrence both ways."""
    c0, c1, c2 = poly.coeffs
    moments = {0: F(1), 1: -c1 / (2 * c2)}
    for k in range(2, hi + 1):
        moments[k] = -(c1 * moments[k - 1] + c0 * moments[k - 2]) / c2
    for k in range(-1, lo - 1, -1):
        moments[k] = -(c1 * moments[k + 1] + c2 * moments[k + 2]) / c0
    return [moments[k] for k in range(lo, hi + 1)]


@pytest.mark.parametrize("case", sorted(CERTIFIED))
def test_certificate_measure_builds_one_image_per_measure(calls, monkeypatch, case):
    mu, domain, exact, start, size = CERTIFIED[case]
    lo, hi = start - 2, start + size + 9  # moment k of the certificate is lo + 4 + k here
    want = (_recurrence_moments(mu, lo, hi) if isinstance(mu, Polynomial)
            else [mu.moment(k) for k in range(lo, hi + 1)])
    window, full = want[2:size + 2], want[2:size + 6]
    assert (positivity._Window.of(window).lam > 1) is (size >= 8)
    counter = Counter()

    def counting(label, orig, key=lambda *args: True):
        """Count the calls of `orig` that `key` accepts, through every alias
        the package modules hold; a call made inside a counted call of the
        same label is not counted again."""
        def counted(*args, **kwargs):
            counter[label] += bool(key(*args)) and not counter[label, "open"]
            counter[label, "open"] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                counter[label, "open"] -= 1
        for module in [m for name, m in sys.modules.items() if name.startswith("momentkit.")]:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counted)

    builds = []
    init = measure._AtomImage.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(measure._AtomImage, "__init__", counted_init)
    # the window scaled to integers: by `_dilated_scale` in `_Window.of`, or
    # by `_integer_scale` anywhere
    for name in ("_dilated_scale", "_integer_scale"):
        counting("window scaled", getattr(numeric, name), lambda values: list(values) == window)
    counting("vandermonde_masses", numeric.vandermonde_masses)
    for label, cls in (("Polynomial", numeric.Polynomial), ("AtomicMeasure", AtomicMeasure)):
        orig = cls.__init__

        def counted_ctor(self, *args, _label=label, _orig=orig, **kwargs):
            counter[_label] += 1
            _orig(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted_ctor)
    _cold()
    certified = branch_measure(positivity._Window.of(window), -2, full, domain)
    assert isinstance(certified, AtomicMeasure) is exact
    assert [certified.moment(k) for k in range(-4, size + 8)] == want
    if exact:
        assert certified == tilt(mu, start + 2)
    # one integer image of the window, for the pass, the roots and the
    # masses; one image of the atoms, which the measure of the certificate's
    # indices reads with its exponents shifted, none built again on the
    # moments asked
    assert counter["window scaled"] == 1
    if exact:
        assert len(builds) == 1 and certified._image().up is builds[0].up
    else:
        # a recurrence builds no image of its atoms: its hint is read at the
        # isolation brackets, as floats within 2^-HINT_BITS relative of the
        # atoms (here each of mass 1/2), its top position above the top root
        assert builds == []
        rel = F(1, 2 ** principal.HINT_BITS)
        for x, m in certified.atoms_hint.atoms:
            assert isinstance(x, float) and isinstance(m, float)
            lo, hi = F(x) * (1 - rel), F(x) * (1 + rel)
            assert (mu(lo) > 0) != (mu(hi) > 0)
            assert abs(F(m) - F(1, 2)) <= rel / 2
        assert mu(F(certified.max_atom())) > 0
    # a Fraction polynomial only for a recurrence, and no mass read by
    # `vandermonde_masses`; the AtomicMeasure constructor checks only the
    # float atoms of a recurrence's hint
    assert counter["Polynomial"] == counter["AtomicMeasure"] == (0 if exact else 1)
    assert counter["vandermonde_masses"] == 0
    # the atom polynomial is one full-rank pass: no bordered determinant
    assert _counts(calls) == (0, 1, 0, 0)


def _floats(mu, n):
    return [float(v) for v in _window(mu, n)]


#: a measure whose moments and their partial sums are floats exactly
DYADIC_MU = AtomicMeasure([(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2))])


def _partial_sums(window):
    """1, 1 + s_0, 1 + s_0 + s_1, ...: a sequence whose increments are the window."""
    c = [1.0]
    for v in window:
        c.append(c[-1] + v)
    return c


#: float windows and the measure each call reads from them: minimal,
#: principal and singular, on every domain, and handed a polynomial
FLOAT_MEASURES = {
    "ray-minimal": lambda: minimal_measure_ray(_floats(RAY_MU, 3)).atoms,
    "ray-singular": lambda: recover_minimal_measure(_floats(RAY_MU, 5), Ray()).atoms,
    "half-open-minimal": lambda: minimal_measure_half_open(_floats(UNIT_MU, 2)).atoms,
    "half-open-singular": lambda: minimal_measure_half_open(_floats(UNIT_MU, 5)).atoms,
    "compact-upper": lambda: principal_compact(_floats(COMPACT_MU, 4), 1.0, 4.0,
                                               PrincipalKind.UPPER).atoms,
    "compact-singular": lambda: recover_support_and_masses(_floats(COMPACT_MU, 6), 1.0, 4.0)[0],
    "ca-singular": lambda: has_ca_extension(_partial_sums(_floats(DYADIC_MU, 4)))
    .measure.positive.atoms,
    "from-poly": lambda: atoms_from_poly(Polynomial([2.0, -3.0, 1.0]), [2.0, 3.0], 0, 4)[0],
}


@pytest.mark.parametrize("case", sorted(FLOAT_MEASURES))
def test_float_measures_read_no_mass_through_vandermonde_masses(monkeypatch, case):
    # a float window's measure is read on its kept integers as an exact
    # one's is, its masses by `principal._masses`, and rounded once: no
    # mass is solved at the rounded roots
    counter = Counter()
    orig = numeric.vandermonde_masses

    def counted(*args, **kwargs):
        counter["vandermonde_masses"] += 1
        return orig(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("momentkit.")]:
        for attr, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, attr, counted)
    atoms = FLOAT_MEASURES[case]()
    assert atoms and all(isinstance(x, float) and isinstance(m, float) for x, m in atoms)
    assert counter["vandermonde_masses"] == 0


#: float windows read after their classification, and the kernel calls of
#: each reader: the moments of δ_1 + δ_(5/2) on [1, 4] and of
#: δ_(1/2) + δ_(1/3) on the ray and on (0, 1] (n = 4, singular), and the
#: partial sums of δ_(1/2) + δ_1, whose increments are singular on [0, 1]
ENDS_MU = AtomicMeasure([(F(1), F(1)), (F(5, 2), F(1))])
THIRDS_MU = AtomicMeasure([(F(1, 3), F(1)), (F(1, 2), F(1))])
HALF_ONE_MU = AtomicMeasure([(F(1, 2), F(1)), (F(1), F(1))])
FLOAT_READERS = {
    "compact-classify": (lambda: classify(_floats(ENDS_MU, 4), Compact(1.0, 4.0)).kind,
                         PositivityClass.SINGULARLY_POSITIVE, (0, 2, 0, 0)),
    "compact-index": (lambda: index(_floats(ENDS_MU, 4), Compact(1.0, 4.0)), F(3, 2),
                      (0, 2, 0, 0)),
    "compact-measure": (lambda: recover_minimal_measure(_floats(ENDS_MU, 4),
                                                        Compact(1.0, 4.0)).atoms,
                        ((1.0, 1.0), (2.5, 1.0)), (0, 2, 0, 0)),
    "compact-support": (lambda: recover_support_and_masses(_floats(ENDS_MU, 4), 1.0, 4.0),
                        ([(1.0, 1.0), (2.5, 1.0)], False), (0, 2, 0, 0)),
    "ray-index": (lambda: index(_floats(THIRDS_MU, 4), Ray()), 2, (0, 1, 0, 1)),
    "half-open-index": (lambda: index(_floats(THIRDS_MU, 4), HalfOpen()), 2, (0, 1, 0, 1)),
    "ca-singular": (lambda: has_ca_extension(_partial_sums(_floats(HALF_ONE_MU, 4)))
                    .measure.positive.atoms, ((0.5, 1.0), (1.0, 1.0)), (0, 2, 0, 0)),
}


@pytest.mark.parametrize("case", sorted(FLOAT_READERS))
def test_float_readers_read_on_the_window_their_verdict_was_read_on(calls, case):
    # `_Window.of` holds no float window, so a float verdict carries the
    # window it was read on and its readers take it from there: the index,
    # the singular measure and the completely alternating extension
    # eliminate no form of it again, as on a held exact window.  On [a, b]
    # the two passes are H(s) and the interior form; on the ray and on
    # (0, 1] the one pass is the singular H(s), with its determinacy test's
    # root count
    op, want, counts = FLOAT_READERS[case]
    assert op() == want
    assert _counts(calls) == counts


@pytest.fixture
def isolations(monkeypatch):
    """Counter of the Descartes isolations run while the test runs."""
    counter = Counter()
    isolate = roots._descartes_isolate

    def counted(*args, **kwargs):
        counter["descartes"] += 1
        return isolate(*args, **kwargs)

    monkeypatch.setattr(roots, "_descartes_isolate", counted)
    return counter


#: atoms of 42, 43 and 26 bits of denominator (`windows` benchmark seed 2412,
#: problem 102): the bracket of 15/2^43 is wider than 1/|lead| of its
#: polynomial, so its one candidate k/|lead| is tested on a bisected copy
LONG_DENOMINATOR_MU = AtomicMeasure([(F(7, 2 ** 42), F(82824, 98328745)),
                                     (F(15, 2 ** 43), F(368695, 146689304)),
                                     (F(9, 2 ** 26), F(53051, 59116757))])

#: (recover, measure, n): planted rational measures of 3 to 5 atoms seen
#: through n + 1 moments, singular and strict, on every domain
PLANTED_RATIONAL = {
    "half-open-long-denominators": (minimal_measure_half_open, LONG_DENOMINATOR_MU, 6),
    "ray-singular": (lambda w: recover_minimal_measure(w, Ray()), LONG_RAY_MU, 9),
    "ray-strict": (minimal_measure_ray, LONG_RAY_MU, 7),
    "half-open-singular": (lambda w: recover_minimal_measure(w, HalfOpen()), LONG_UNIT_MU, 9),
    "compact-singular": (lambda w: recover_minimal_measure(w, Compact(F(1, 4), 6)),
                         LONG_COMPACT_MU, 11),
    "compact-lower": (lambda w: principal_compact(w, F(1, 4), 6, PrincipalKind.LOWER),
                      LONG_COMPACT_MU, 9),
}


@pytest.mark.parametrize("case", sorted(PLANTED_RATIONAL))
def test_planted_rational_atoms_need_no_descartes_isolation(isolations, case):
    recover, mu, n = PLANTED_RATIONAL[case]
    window = _window(mu, n)
    isolations.clear()
    assert recover(window) == mu
    # every atom is a certified float seed; the determinacy tests on the
    # ray and (0, 1] count roots by sign variations and isolate none
    assert isolations["descartes"] == 0


def test_certified_seeds_need_no_descartes_isolation(isolations):
    # rational roots come back settled, the irrational pair (5 +- sqrt 5)/10
    # as brackets around its float seeds
    poly = Polynomial([F(1, 5), -1, 1]).mul_linear(F(-1, 3), 1).mul_linear(F(-3, 4), 1)
    enclosures = numeric.root_enclosures(poly, 0, 1)
    assert isolations["descartes"] == 0
    assert [e.root for e in enclosures] == [None, F(1, 3), None, F(3, 4)]
    for e, root in zip(enclosures[::2], (0.276393202250021, 0.723606797749979)):
        assert e.lo < root * e.den < e.hi and (e.hi - e.lo) * 2 ** 40 < e.den
        # each bracket's one candidate k/|lead| failed: its root is irrational
        assert e.irrational


def _bench_corpus():
    """perfbench/corpus.py, loaded from its file: the benchmark's seeded
    problem streams, built with the standard library alone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("momentkit_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_root_proven_irrational_is_tested_for_a_rational_one(monkeypatch):
    # the `subnormal` benchmark problems of seed 77 (4 blocks), certificates
    # included: an enclosure whose root `_seeded` proved irrational is never
    # snapped to a simplest rational (`RootEnclosure._try_exact_root`),
    # while the enclosures with no such proof still are
    tried, proven = Counter(), Counter()
    try_exact, minimal_roots = numeric.RootEnclosure._try_exact_root, completion._minimal_roots

    def counted_try(self, *args):
        tried[self.irrational] += 1
        return try_exact(self, *args)

    def counted_roots(w, domain):
        held = minimal_roots(w, domain)
        proven["certificate roots"] += sum(e.irrational for e in held[1])
        return held

    monkeypatch.setattr(numeric.RootEnclosure, "_try_exact_root", counted_try)
    monkeypatch.setattr(completion, "_minimal_roots", counted_roots)
    feasible = 0
    for problem in _bench_corpus().problems("subnormal", 77, 4):
        pw = PartialWeights(problem["trunk_sq"], [BranchClass(m, tail, 1) for m, tail
                                                  in zip(problem["masses"], problem["tails"])])
        out = completion.solve_subnormal(pw, "auto")
        if out.certificate is not None:
            out.certificate.to_json()
            feasible += 1
    assert feasible > 0 and proven["certificate roots"] > 0
    assert tried[True] == 0 and tried[False] > 0


@pytest.mark.parametrize("poly", [
    Polynomial([1, 0, 1]).mul_linear(F(-1, 3), 1).mul_linear(F(-1, 2), 1),  # t^2 + 1
    Polynomial([-3, 1]).mul_linear(F(-1, 3), 1).mul_linear(F(-1, 2), 1),    # root 3 outside
])
def test_uncertified_seeds_fall_back_to_one_descartes_isolation(isolations, poly):
    # seeds that are no real roots in (0, 1) fail the certificate, and one
    # Descartes bisection isolates the roots; its first midpoint is the root
    # 1/2, settled there and deflated out of the enclosure of 1/3 made after
    enclosures = numeric.root_enclosures(poly, 0, 1)
    assert isolations["descartes"] == 1
    assert [e.root for e in enclosures] == [None, F(1, 2)]
    assert numeric._horner(enclosures[0].coeffs, 1, 2) != 0
    assert [e.refine(F(1, 10 ** 12)) for e in enclosures] == [F(1, 3), F(1, 2)]
