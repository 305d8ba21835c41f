"""Property tests of the measures built on a handed-over integer image.

`measure._imaged` builds an AtomicMeasure on an image its builder already
checked, without re-reading the atoms, and `tilt` builds the tilted
measure's image from its parent's.  On planted 1-4-atom measures with atoms
in [2^-40, 2^40] both must give the measure the AtomicMeasure constructor
builds from the same atoms: the same atoms, the same `exact` flag and the
same moments.  The image is taken both as `_AtomImage.of` builds it and as
the principal construction hands it over (`principal._atoms_and_image` at
the exact roots of the atoms' integer polynomial, masses q(x)/p'(x)).  A
nonpositive position or mass
raises the constructor's DegenerateInput; a repeated position, which the
constructor merges, raises DegenerateInput too.  A tilt reads its parent's
power sums with shifted exponents: its moment rows, across exponent 0 of
the parent's image too, must hold the same values.  `format_scalar` and
`tree._pos_sq` read exact values without re-wrapping a `Fraction`; they
must agree with the plain `Fraction(x)` forms on every kind of scalar the
package is handed, as `format_ratio` of two integers must with the
`Fraction` of their quotient.

The completion search extends a branch window by `_Window.prepended` and
cuts it by `_Window.prefix` instead of building each window again.  On
exact, float and dilated windows (8 entries or more, lam > 1) both must
read the same rationals as `_Window.of` of the same values, with the same
float sizes, and on lam = 1 give its very (ints, unit); the Schur
threshold and level quadratic read from them must be those of `_Window.of`
on the ray and on (0, 1], where an odd-length window's slot form is built
on the differences s_k - s_(k+1).
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from momentkit.errors import DegenerateInput
from momentkit.completion import _schur_quadratic
from momentkit.extremal import _schur_threshold
from momentkit.measure import AtomicMeasure, _AtomImage, _imaged, moment_row, tilt
from momentkit.numeric import RootEnclosure, format_ratio, format_scalar
from momentkit.positivity import HalfOpen, Ray, _Window
from momentkit.principal import _atoms_and_image
from momentkit.tree import _pos_sq

MANTISSA = st.fractions(min_value=1, max_value=2, max_denominator=64)
MASS = st.fractions(min_value=F(1, 64), max_value=64, max_denominator=64)
MOMENTS = range(-4, 9)


@st.composite
def planted_measures(draw):
    """1-4 distinct rational atoms in [2^-40, 2^40], ascending, with
    rational masses."""
    atoms = draw(st.sets(st.builds(lambda m, e: m * F(2) ** e, MANTISSA, st.integers(-40, 39)),
                         min_size=1, max_size=4))
    return [(x, draw(MASS)) for x in sorted(atoms)]


def _reference(atoms, k):
    return sum((m * x ** k for x, m in atoms), F(0))


def _same_measure(mu, want: AtomicMeasure):
    assert mu.atoms == want.atoms and mu.exact == want.exact
    assert all(type(v) is F for atom in mu.atoms for v in atom)
    assert [mu.moment(k) for k in MOMENTS] == [want.moment(k) for k in MOMENTS]


def _principal_image(atoms):
    """The pairs and image the principal construction hands over for these
    atoms, from their moment window and prod (den t - num) over the atoms."""
    window = [_reference(atoms, k) for k in range(2 * len(atoms))]
    p = [1]
    for x, _ in atoms:
        p = [x.denominator * b - x.numerator * a for a, b in zip(p + [0], [0] + p)]
    pairs, image, exact = _atoms_and_image([RootEnclosure(root=x) for x, _ in atoms], p, window)
    assert exact
    return pairs, image


@given(planted_measures(), st.booleans(), st.integers(-4, 4))
def test_imaged_and_tilted_measures_are_the_constructors(atoms, exact, k):
    want = AtomicMeasure(atoms, exact=exact)
    pairs, image = _principal_image(atoms)
    assert pairs == atoms
    for mu in (_imaged(atoms, exact, _AtomImage.of(atoms)), _imaged(pairs, exact, image)):
        _same_measure(mu, want)
        tilted = tilt(mu, k)
        _same_measure(tilted, AtomicMeasure([(x, m * x ** k) for x, m in atoms], exact=exact))
        assert [tilted.moment(n) for n in MOMENTS] == [_reference(atoms, n + k) for n in MOMENTS]
        # rows across the exponent 0 of the image the tilt reads, and a tilt
        # of a tilt, on the same power sums
        for lo in range(-4, 3):
            row = moment_row(tilted, lo, lo + 5)
            assert [row.value(i) for i in range(6)] == [_reference(atoms, lo + i + k)
                                                       for i in range(6)]
        twice = tilt(tilted, -k - 1)
        assert twice._image().up is tilted._image().up
        assert [twice.moment(n) for n in MOMENTS] == [_reference(atoms, n - 1) for n in MOMENTS]


def _raised(call, *args):
    with pytest.raises(DegenerateInput) as info:
        call(*args)
    return str(info.value)


@given(planted_measures(), st.data())
def test_imaged_refuses_what_the_constructor_refuses(atoms, data):
    i = data.draw(st.integers(0, len(atoms) - 1))
    bad = data.draw(st.sampled_from([F(0), -atoms[i][0], F(-1, 3)]))
    for j in (0, 1):  # a nonpositive position, then a nonpositive mass
        broken = [tuple(bad if (n, m) == (i, j) else v for m, v in enumerate(atom))
                  for n, atom in enumerate(atoms)]
        want = _raised(AtomicMeasure, broken)
        assert _raised(_imaged, broken, True, _AtomImage.of(broken)) == want


@given(planted_measures(), st.data())
def test_imaged_refuses_a_repeated_position(atoms, data):
    i = data.draw(st.integers(0, len(atoms) - 1))
    repeated = atoms[:i + 1] + [(atoms[i][0], data.draw(MASS))] + atoms[i + 1:]
    # the constructor merges the two atoms; an image keeps both, so the
    # measure built on it would not be the constructor's
    assert AtomicMeasure(repeated).support_size == len(atoms)
    assert "repeats or is out of order" in _raised(
        _imaged, repeated, True, _AtomImage.of(repeated))


def _parent_format(x):
    if isinstance(x, float):
        return repr(x)
    x = F(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _parent_pos_sq(x, what):
    if not isinstance(x, float):
        x = F(x)
    if not x > 0:
        raise DegenerateInput(f"{what} must be positive")
    return x


FRACTIONS = st.fractions(max_denominator=10 ** 12)
FLOATS = st.floats(allow_nan=False, width=64)
SCALARS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30), st.booleans(), FRACTIONS, FLOATS,
    FLOATS.map(np.float64), FRACTIONS.map(str), st.decimals(allow_nan=False,
                                                            allow_infinity=False).map(str),
    st.sampled_from(["", "x", "1/0", " 3/4 ", "inf", "-0"]))


def _outcome(call, *args):
    try:
        value = call(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return type(value), value


@given(SCALARS)
def test_format_scalar_and_pos_sq_read_scalars_as_fraction_did(x):
    assert _outcome(format_scalar, x) == _outcome(_parent_format, x)
    assert _outcome(_pos_sq, x, "weight") == _outcome(_parent_pos_sq, x, "weight")


INTEGERS = st.one_of(st.integers(-10 ** 40, 10 ** 40), st.integers(-3, 3))


@given(INTEGERS, INTEGERS)
def test_format_ratio_prints_the_fraction(num, den):
    assert _outcome(format_ratio, num, den) == _outcome(lambda: _parent_format(F(num, den)))


@st.composite
def branch_windows(draw):
    """(window, x, n): the first 1-12 moments of a planted 1-6 atom measure
    with atoms k / q over one denominator q (so that a window of 8 entries
    or more is dilated by lam = q), inside (0, 1) half the time, as exact
    values or as floats; a value x to prepend, above or below the window's
    threshold, and a prefix length n."""
    q = draw(st.integers(2, 40))
    top = q - 1 if draw(st.booleans()) else 3 * q
    atoms = draw(st.sets(st.integers(1, top), min_size=1, max_size=6))
    masses = draw(st.lists(MASS, min_size=len(atoms), max_size=len(atoms)))
    size = draw(st.integers(1, 12))
    window = tuple(sum((m * F(k, q) ** j for k, m in zip(sorted(atoms), masses)), F(0))
                   for j in range(size))
    x = draw(st.fractions(min_value=F(1, 64), max_value=64, max_denominator=64))
    if draw(st.booleans()):
        window, x = tuple(map(float, window)), (float(x) if draw(st.booleans()) else x)
    elif draw(st.integers(0, 3)) == 0:
        x = float(x)
    return window, x, draw(st.integers(1, size))


def _rationals(w):
    return [F(v, w.unit * w.lam ** k) for k, v in enumerate(w.ints)]


@given(branch_windows())
def test_prepended_and_prefix_read_the_window_of_builds(problem):
    window, x, n = problem
    w = _Window.of(window)
    for got, values in ((w.prepended(x), (x,) + window), (w.prefix(n), window[:n])):
        want = _Window.of(values)
        assert got.values == values and _rationals(got) == _rationals(want)
        assert got.floats == want.floats and got.sizes == want.sizes
        if got.lam == want.lam == 1:
            assert (got.ints, got.unit) == (want.ints, want.unit)
        for domain in (Ray(), HalfOpen()):
            assert _schur_threshold(got, domain) == _schur_threshold(want, domain)
            assert (_schur_quadratic(got.prepended(0), domain)
                    == _schur_quadratic(_Window.of((0,) + values), domain))


def test_branch_windows_reach_every_kind_of_image():
    """The strategy above draws dilated windows, whose prepend and prefix
    keep lam > 1, and float windows (lam = 1)."""
    atoms = [(F(k, 7), F(1)) for k in (1, 3, 5, 9)]
    window = tuple(sum((m * a ** j for a, m in atoms), F(0)) for j in range(9))
    w = _Window.of(window)
    assert w.lam == 7 and w.prepended(F(2, 3)).lam == 7 and w.prefix(8).lam == 7
    assert _Window.of(tuple(map(float, window))).prepended(2.5).lam == 1
