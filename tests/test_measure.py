import json
import math
import random
from fractions import Fraction as F

import pytest

from momentkit.errors import DegenerateInput, ShapeError
from momentkit.measure import (AtomicMeasure, MomentRecurrence, MomentSequence, _Row,
                               moment, moment_row, moments, tilt)
from momentkit.numeric import Polynomial
from conftest import random_rational_measure


def test_moment_examples():
    assert moment(AtomicMeasure([(1, 1)]), 5) == 1
    two = AtomicMeasure([(1, 1), (2, 1)])
    assert moment(two, 3) == 9
    assert moment(two, -1) == F(3, 2)


def test_moments_examples():
    two = AtomicMeasure([(1, 1), (2, 1)])
    assert moments(two, 0, 3).values == (2, 3, 5, 9)
    assert moments(AtomicMeasure([(1, 1)]), 0, 2).values == (1, 1, 1)
    mix = AtomicMeasure([(F(1, 2), 2), (1, 1)])
    assert moments(mix, 0, 2).values == (3, 2, F(3, 2))


def test_tilt_examples():
    assert tilt(AtomicMeasure([(2, 3)]), 1).atoms == ((2, 6),)
    two = AtomicMeasure([(1, 1), (2, 1)])
    assert tilt(two, -1).atoms == ((1, 1), (2, F(1, 2)))
    assert tilt(two, 0) == two


def test_tilt_moment_identity(rng):
    for _ in range(500):
        mu = random_rational_measure(rng, rng.randint(1, 3))
        k = rng.randint(-3, 3)
        m = rng.randint(-3, 3)
        assert moment(tilt(mu, k), m) == moment(mu, m + k)


def test_total_mass_and_linearity(rng):
    for _ in range(50):
        mu = random_rational_measure(rng, rng.randint(1, 3))
        assert moment(mu, 0) == mu.total_mass()
        doubled = AtomicMeasure([(p, 2 * m) for p, m in mu.atoms])
        assert moment(doubled, 2) == 2 * moment(mu, 2)


def test_atom_merging_and_validation():
    merged = AtomicMeasure([(1, 1), (F(2, 2), 2)])
    assert merged.atoms == ((1, 3),)
    with pytest.raises(DegenerateInput):
        AtomicMeasure([(0, 1)])
    with pytest.raises(DegenerateInput):
        AtomicMeasure([(1, 0)])


def test_json_round_trip():
    mu = AtomicMeasure([(F(3, 2), 2), (4, F(1, 3))])
    blob = json.dumps(mu.to_json())
    back = AtomicMeasure.from_json(json.loads(blob))
    assert back == mu


def test_moment_sequence_windows():
    s = MomentSequence(-1, [F(3, 2), 2, 3, 5])
    assert s.at(-1) == F(3, 2)
    assert s.window(0, 2) == (2, 3, 5)
    assert s.prepend(F(9, 8)).first_index == -2
    with pytest.raises(DegenerateInput):
        MomentSequence(0, [1, -1])
    with pytest.raises(ShapeError):
        MomentSequence(0, [])


def test_moment_recurrence_matches_atoms(rng):
    for _ in range(40):
        mu = random_rational_measure(rng, rng.randint(1, 3))
        poly = Polynomial([1])
        for pos, _ in mu.atoms:
            poly = poly.mul_linear(-pos, 1)
        lo = -2
        window = [mu.moment(k) for k in range(lo, lo + poly.degree + 2)]
        rec = MomentRecurrence(poly, lo, window)
        for k in range(-5, 9):
            assert rec.moment(k) == mu.moment(k)


def test_rows_of_float_values_read_their_binary_exact_images():
    row = _Row.of([1, 0.5, F(1, 3)])
    assert row.floats and [row.value(i) for i in range(3)] == [1.0, 0.5, 1 / 3]
    assert row.ratios() == [0.5, (1 / 3) / 0.5]
    assert not _Row.of([1, F(1, 3)]).floats
    # a float that is not finite has no binary-exact image
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DegenerateInput):
            _Row.of([1.0, bad])
    with pytest.raises(DegenerateInput):
        moment_row(AtomicMeasure([(math.inf, 1.0)]), 0, 2)



#: float measures with one non-finite datum: an atom, a mass, a recurrence
#: coefficient and a seed value
NON_FINITE = [lambda bad: AtomicMeasure([(bad, 1.0)]),
              lambda bad: AtomicMeasure([(2.0, bad)]),
              lambda bad: MomentRecurrence(Polynomial([-2.0, bad, 1.0]), 0, [1.0, 2.0]),
              lambda bad: MomentRecurrence(Polynomial([-2.0, 1.0]), 0, [bad])]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", NON_FINITE, ids=["atom", "mass", "coefficient", "seed"])
def test_non_finite_float_data_has_no_image(build, bad):
    # a float measure reads every moment off the image of its binary-exact
    # data, which a non-finite datum lacks; an atomic measure refuses the
    # datum already when it is built
    if build in NON_FINITE[:2]:
        with pytest.raises(DegenerateInput, match="is not finite"):
            build(bad)
        return
    mu = build(bad)
    with pytest.raises(DegenerateInput):
        mu.moment(3)
    with pytest.raises(DegenerateInput):
        moment_row(mu, -1, 1)
    if isinstance(mu, AtomicMeasure):
        with pytest.raises(DegenerateInput):
            tilt(mu, 1)


@pytest.mark.parametrize("atoms, message", [([(math.inf, 1.0)], "atom position inf"),
                                             ([(2.0, math.inf)], "atom mass inf")],
                         ids=["position", "mass"])
def test_float_atomic_measure_refuses_a_non_finite_atom_when_built(atoms, message):
    with pytest.raises(DegenerateInput, match=f"{message} is not finite"):
        AtomicMeasure(atoms, exact=False)


def test_float_tilt_refuses_a_mass_that_rounds_past_the_float_range():
    # the tilt's mass 1e400 is finite on the image and inf once rounded;
    # the exact tilt keeps it
    mu = AtomicMeasure([(1e-200, 1.0), (2.0, 1.0)], exact=False)
    with pytest.raises(DegenerateInput, match="atom mass inf is not finite"):
        tilt(mu, -2)
    exact = AtomicMeasure([(F(1e-200), 1), (2, 1)])
    assert tilt(exact, -2).atoms[0][1] == 1 / F(1e-200) ** 2


def test_float_tilt_refuses_a_mass_that_rounds_to_zero():
    # the tilt's mass 1e-400 is positive on the image and 0.0 once rounded
    with pytest.raises(DegenerateInput):
        tilt(AtomicMeasure([(1e-200, 1.0), (2.0, 1.0)]), 2)
    assert tilt(AtomicMeasure([(1e-100, 1.0), (2.0, 1.0)]), 2).atoms == ((1e-100, 1e-200),
                                                                          (2.0, 4.0))
