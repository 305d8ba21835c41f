"""Property tests of the atom hint of a completion certificate's recurrence.

A branch whose minimal measure has an irrational atom is certified by a
`MomentRecurrence`: its polynomial and seed window give every moment
exactly, and its `atoms_approx` only approximates the atoms.  That hint is
read where isolation left the roots (`completion._minimal_hint`): each
position is the midpoint of its enclosure, each mass the Gauss-Christoffel
weight of the shifted measure read to half the stated precision, and both
are printed as floats within 2^-HINT_BITS, relative, of the atom and mass
they stand for.  The top position is the upper end of its enclosure,
rounded up, so `max_atom` is exactly at or above the top atom.

The windows drawn here are strictly positive and come from planted rational
measures: 2k - 2 moments of k atoms on the ray, whose minimal measure has
k - 1 atoms, and 2k - 2 or 2k - 3 moments of k atoms in (0, 1), whose
minimal measure on (0, 1] has k - 1 atoms (the atom 1 among them for odd
length).  Each is certified as `completion._branch_measures` certifies a
completed branch, at an index shifted by 1 to 3.  Each position must bracket
a root of the atom polynomial within the stated precision, shown by an
exact sign change of its integer polynomial; each mass must be within it of
the weight that sympy reads off the Vandermonde system at the roots, to 60
digits; `max_atom` must be at or above the largest root, counted exactly by
sympy.  So must the hints of dilated windows, and a hint whose floats would
round to 0 or past the float range keeps its exact values, within the same
precision.  A float window whose lower root the rounding moved just below
0 is refused, as its float minimal measure is.  The shared measure of a
flat completely hyperexpansive certificate is read the same way on the
root vertex's increments, strictly positive, singular, or singular with
mass at zero, and its hint must meet the same bounds.  CLI `verify` accepts a
certificate with the new hint and one printed before it, whose masses are
exact fractions of over 100 characters.
"""

import json
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, strategies as st

from momentkit import completion
from momentkit import principal
from momentkit.cli import run
from momentkit.errors import DegenerateInput
from momentkit.measure import AtomicMeasure, MomentRecurrence, moments
from momentkit.numeric import _horner, _integer_scale
from momentkit.positivity import HalfOpen, Ray, _Window
from momentkit.tree import BranchClass, PartialWeights

from conftest import branch_measure

REL = F(1, 2 ** principal.HINT_BITS)
DIGITS = 60


@st.composite
def planted(draw):
    """(domain, window, first_index): 2k - 2 moments of 3-5 atoms in
    [1/8, 24] on the ray, or 2k - 2 or 2k - 3 moments of 3-5 atoms in
    (0, 1) on (0, 1], certified from index -1 to -3."""
    k = draw(st.integers(3, 5))
    on_ray = draw(st.booleans())
    if on_ray:
        xs = st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8)
    else:
        xs = st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16)
    atoms = draw(st.lists(xs, min_size=k, max_size=k, unique=True))
    masses = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8),
                           min_size=k, max_size=k))
    mu = AtomicMeasure(list(zip(atoms, masses)))
    length = 2 * k - 2 if on_ray or draw(st.booleans()) else 2 * k - 3
    window = list(moments(mu, 0, length - 1).values)
    return (Ray() if on_ray else HalfOpen()), window, -draw(st.integers(1, 3))


def _sym(x: F):
    return sympy.Rational(x.numerator, x.denominator)


def _check_hint(mu, window, shift):
    """Each position of the hint of the recurrence mu, of the window's
    minimal measure read at t^shift, within REL of a root, each mass within
    REL of its weight, and max_atom at or above the largest root."""
    ints = _integer_scale(mu.poly.coeffs)[0]
    hint = mu.atoms_hint
    assert not hint.exact and len(hint.atoms) == len(ints) - 1
    # each position lies within REL of a root: the integer polynomial
    # changes sign across [x (1 - REL), x (1 + REL)], and these intervals
    # are disjoint, so each holds its own root
    spans = []
    for x, _ in hint.atoms:
        lo, hi = F(x) * (1 - REL), F(x) * (1 + REL)
        assert (_horner(ints, lo.numerator, lo.denominator) > 0) != (
            _horner(ints, hi.numerator, hi.denominator) > 0)
        spans.append((lo, hi))
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    # each mass lies within REL of the weight x^shift m(x) of the minimal
    # measure, m(x) solving the Vandermonde system at the roots, to 60 digits
    t = sympy.Symbol("t")
    poly = sympy.Poly([_sym(F(c)) for c in reversed(ints)], t)
    roots = [r.evalf(DIGITS) for r in poly.real_roots()]
    d = len(roots)
    system = sympy.Matrix(d, d, lambda k, j: roots[j] ** k)
    weights = system.LUsolve(sympy.Matrix([_sym(v) for v in window[:d]]))
    for (_, m), root, weight in zip(hint.atoms, roots, weights):
        want = weight * root ** shift
        assert want > 0 and abs(_sym(F(m)) - want) <= _sym(REL) * want
    # max_atom is exactly at or above the largest root: no root lies above it
    top = F(mu.max_atom())
    assert poly.count_roots(inf=_sym(top)) == (1 if poly.eval(_sym(top)) == 0 else 0)


@given(planted())
def test_hint_is_within_its_stated_precision(problem):
    domain, window, first_index = problem
    mu = branch_measure(_Window.of(window), first_index, window, domain)
    assume(isinstance(mu, MomentRecurrence))
    assert all(isinstance(v, float) for atom in mu.atoms_hint.atoms for v in atom)
    _check_hint(mu, window, -first_index)


#: five atoms with denominators: 8 of their moments make a dilated window
#: (`positivity._Window.lam` > 1), whose masses are read on the dilated image
DILATED = {
    "ray": (Ray(), [(F(1, 3), F(1)), (F(2, 5), F(1, 2)), (F(3, 7), F(2, 3)),
                    (F(5, 6), F(1)), (F(7, 3), F(1, 5))]),
    "half-open": (HalfOpen(), [(F(1, 3), F(1)), (F(2, 5), F(1, 2)), (F(3, 7), F(2, 3)),
                               (F(5, 6), F(1)), (F(7, 9), F(1, 5))]),
}


@pytest.mark.parametrize("case", sorted(DILATED))
def test_hint_of_a_dilated_window_is_within_its_stated_precision(case):
    domain, atoms = DILATED[case]
    window = list(moments(AtomicMeasure(atoms), 0, 7).values)
    w = _Window.of(window)
    mu = branch_measure(w, -2, window, domain)
    assert w.lam > 1 and isinstance(mu, MomentRecurrence)
    _check_hint(mu, window, 2)


def test_a_hint_past_the_float_range_keeps_its_exact_values():
    # atoms near 1e-110 read at index -3: the shifted masses, near 1e-330,
    # round to 0 as floats, so the hint keeps the values it read, exactly
    tiny = F(1, 10 ** 110)
    planted_mu = AtomicMeasure([(tiny, F(1)), (3 * tiny, F(2)), (7 * tiny, F(1, 3))])
    window = list(moments(planted_mu, 0, 3).values)
    mu = branch_measure(_Window.of(window), -3, window, Ray())
    assert isinstance(mu, MomentRecurrence)
    assert all(isinstance(v, F) for atom in mu.atoms_hint.atoms for v in atom)
    assert float(mu.atoms_hint.atoms[0][1]) == 0
    _check_hint(mu, window, 3)


#: flat completely hyperexpansive problems whose shared branch measure has
#: irrational atoms: the root vertex's increments are strictly positive,
#: then those of 1/2 delta_a + 1/2 delta_b, a, b = (5 +- sqrt 5) / 10, and
#: then of that plus delta_0, a mass at zero
FLAT_PROBLEMS = {
    "strict": PartialWeights(
        [F(169957, 150040), F(217558, 115981)],
        [BranchClass(m, (F(188533, 181648), F(962996, 942665)), 1)
         for m in (F(1271536, 6628323), F(5812736, 6628323))]),
    "singular": PartialWeights(
        [], [BranchClass(2, (F(5, 4), F(28, 25), F(15, 14), F(157, 150)), 1)]),
    "singular with mass at zero": PartialWeights(
        [], [BranchClass(3, (F(7, 6), F(38, 35), F(20, 19), F(207, 200), F(212, 207)), 1)]),
}


@pytest.mark.parametrize("case", sorted(FLAT_PROBLEMS))
def test_flat_hint_is_within_its_stated_precision(case, monkeypatch):
    # the hint is read on the roots isolated for the root measure: one
    # isolation per solve
    isolations, isolate = [], principal._isolate
    monkeypatch.setattr(principal, "_isolate", lambda *a: isolations.append(a) or isolate(*a))
    cert = completion.flat_che_completion(FLAT_PROBLEMS[case]).certificate
    assert len(isolations) == 1
    assert (cert.root_measure.zero_mass > 0) is (case == "singular with mass at zero")
    mu = cert.measures[0].positive
    assert isinstance(mu, MomentRecurrence) and cert.verify(64)
    assert all(isinstance(v, float) for atom in mu.atoms_hint.atoms for v in atom)
    # the seed window holds the moments of t^first_index dmu from 0
    _check_hint(mu, list(mu.window), -mu.first_index)


#: a float window on the ray: the minimal measure of its binary-exact image
#: has a root near -2.8e-16, just below 0, which the float window counts
#: since it is isolated a little past the ends (`numeric._widened`)
BELOW_ZERO = [2.668823961965253, 3.0382269281812655, 8.470331178298421, 23.614598897983896]


@pytest.mark.parametrize("shift", [0, 1, 2, 3])
def test_a_float_root_just_below_zero_is_refused_as_the_measure_refuses_it(shift):
    enclosures = principal._minimal_roots(_Window.of(BELOW_ZERO), Ray())[1]
    assert enclosures[0].root is None and enclosures[0].hi < 0
    # the root is clamped to 0, where no atom sits: the hint's narrowing
    # ends, and the hint is refused as the float minimal measure is
    with pytest.raises(DegenerateInput):
        branch_measure(_Window.of(BELOW_ZERO), -shift, BELOW_ZERO, Ray())
    with pytest.raises(DegenerateInput):
        principal._minimal(_Window.of(BELOW_ZERO), Ray())


#: (trunk squares, first-weight masses, tails) of a subnormal problem whose
#: one branch measure has two irrational atoms
RECURRENCE_PROBLEM = (["20691/33508"], ["15/11"], [["125/57", "133/25"]])

#: its certificate as printed before the hint was read at isolation: the
#: atom masses are exact fractions of 103 and 128 characters
OLD_CERTIFICATE = json.loads(
    '{"kind": "subnormal", "K": ["2"], "sequences": [{"first_index": -2, "values"'
    ': ["24719/41775", "11/15", "1", "125/57", "35/3"]}], "measures": [{"recurren'
    'ce": ["104/171", "-14144/25065", "1352/25065"], "first_index": -2, "window":'
    ' ["24719/41775", "11/15", "1", "125/57", "35/3"], "atoms_approx": {"atoms": '
    '[{"x": "1373685853462445/1125899906842624", "m": "21853172436086972014767839'
    '6697129977239968701163401/24869574894820434510027513947363523853750498649702'
    '4"}, {"x": "2601239831453559/281474976710656", "m": "35376742159254378167780'
    '0789702451299693614849945550510589563391/29167345893014594982668614565806094'
    '84891595108821257329884266496"}], "exact": false}}], "weights_sq": [["15/11"'
    ', "125/57", "133/25", "274047/32851", "32455127/3562611", "73942176533/80164'
    '16369", "8881098135453/961248294929", "20271681080633287/2193631239456891", '
    '"2435408468972051167/263531854048232731", "5559159270299452059693/6015458918'
    '36096638249", "667871697141592367617013/72269070513892876776009"]], "trunk_s'
    'q": ["20691/33508"], "norm_sq": 9.241460331045769}')


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_cli_verify_accepts_new_and_old_hints(tmp_path):
    trunk_sq, masses, tails = RECURRENCE_PROBLEM
    problem = _write(tmp_path, "problem.json", {
        "kind": "subnormal", "trunk_sq": trunk_sq,
        "branches_sq": [[m, *tail] for m, tail in zip(masses, tails)]})
    payload, code = run(problem)
    assert code == 0 and payload["status"] == "Feasible"
    new = payload["certificate"]
    hint = new["measures"][0]["atoms_approx"]["atoms"]
    assert [len(atom["m"]) < 25 for atom in hint] == [True, True]
    old_masses = [atom["m"] for atom in OLD_CERTIFICATE["measures"][0]["atoms_approx"]["atoms"]]
    assert [len(m) for m in old_masses] == [103, 128]
    # the exact parts are the old certificate's; only the hint and the norm moved
    for key in ("kind", "K", "sequences", "weights_sq", "trunk_sq"):
        assert new[key] == OLD_CERTIFICATE[key]
    for key in ("recurrence", "first_index", "window"):
        assert new["measures"][0][key] == OLD_CERTIFICATE["measures"][0][key]
    for cert in (new, OLD_CERTIFICATE):
        checked, code = run(_write(tmp_path, "verify.json",
                                   {"kind": "verify", "certificate": cert}))
        assert code == 0 and checked["valid"]
