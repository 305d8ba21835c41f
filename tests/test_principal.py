from fractions import Fraction as F

import pytest

from momentkit.errors import NotStrictlyPositive
from momentkit.measure import AtomicMeasure, moments
from momentkit.principal import (MinimalRayFamily, PrincipalKind,
                                 minimal_measure_half_open, minimal_measure_ray,
                                 principal_compact)
from conftest import random_half_open_measure, random_rational_measure


def test_principal_compact_examples():
    mu = principal_compact([2, 3, 5, 9], F(1, 2), 4, PrincipalKind.LOWER)
    assert mu.atoms == ((1, 1), (2, 1))
    mu = principal_compact([2, 3, 5], 1, 4, PrincipalKind.LOWER)
    assert mu.atoms == ((1, 1), (2, 1))
    mu = principal_compact([2, 3, 5], 1, 4, PrincipalKind.UPPER)
    assert mu.atoms == ((F(7, 5), F(25, 13)), (4, F(1, 13)))


def test_principal_compact_requires_strict():
    with pytest.raises(NotStrictlyPositive):
        principal_compact([2, 3, 5], 1, 2, PrincipalKind.LOWER)


def _strict_window(rng, interior, with_a=False, with_b=False):
    """Measure and interval making its window strictly positive with the
    measure itself principal: interior atoms plus requested endpoint atoms."""
    if interior:
        mu = random_rational_measure(rng, interior)
        a = mu.atoms[0][0] / 2
        b = mu.atoms[-1][0] * 2 + 1
        atoms = list(mu.atoms)
    else:
        a = F(rng.randint(1, 8), rng.randint(1, 8))
        b = a + F(rng.randint(1, 8), rng.randint(1, 8))
        atoms = []
    if with_a:
        atoms.append((a, F(rng.randint(1, 5), rng.randint(1, 4))))
    if with_b:
        atoms.append((b, F(rng.randint(1, 5), rng.randint(1, 4))))
    return AtomicMeasure(atoms), a, b


def test_principal_round_trip_exact(rng):
    # every principal type regenerates its own moment window exactly
    for _ in range(75):
        # odd window, lower: interior atoms only
        k = rng.randint(1, 3)
        mu, a, b = _strict_window(rng, k)
        window = moments(mu, 0, 2 * k - 1)
        got = principal_compact(window, a, b, PrincipalKind.LOWER)
        assert got == mu
        # odd window, upper: both endpoints are atoms
        mu, a, b = _strict_window(rng, k - 1, with_a=True, with_b=True)
        window = moments(mu, 0, 2 * k - 1)
        got = principal_compact(window, a, b, PrincipalKind.UPPER)
        assert got == mu
        # even window, lower: atom at a
        mu, a, b = _strict_window(rng, k, with_a=True)
        window = moments(mu, 0, 2 * k)
        got = principal_compact(window, a, b, PrincipalKind.LOWER)
        assert got == mu
        # even window, upper: atom at b
        mu, a, b = _strict_window(rng, k, with_b=True)
        window = moments(mu, 0, 2 * k)
        got = principal_compact(window, a, b, PrincipalKind.UPPER)
        assert got == mu


def test_principal_atom_placement(rng):
    for _ in range(40):
        k = rng.randint(1, 3)
        mu, a, b = _strict_window(rng, k)
        window = moments(mu, 0, 2 * k - 1)
        lower = principal_compact(window, a, b, PrincipalKind.LOWER)
        upper = principal_compact(window, a, b, PrincipalKind.UPPER)
        assert all(a < p < b for p, _ in lower.atoms)
        positions = upper.positions()
        assert positions[0] == a and positions[-1] == b
        assert lower != upper
        mu2, a, b = _strict_window(rng, k + 1)
        even = moments(mu2, 0, 2 * k)
        lo_even = principal_compact(even, a, b, PrincipalKind.LOWER)
        hi_even = principal_compact(even, a, b, PrincipalKind.UPPER)
        assert lo_even.positions()[0] == a
        assert hi_even.positions()[-1] == b
        assert lo_even != hi_even


def test_minimal_measure_ray_examples():
    assert minimal_measure_ray([2, 3, 5, 9]).atoms == ((1, 1), (2, 1))
    assert minimal_measure_ray([1, 1]).atoms == ((1, 1),)
    assert minimal_measure_ray([5, 9]).atoms == ((F(9, 5), 5),)


def test_minimal_measure_ray_far_atom_tiny_mass():
    # a window just above an even-window infimum: its second atom sits near
    # 3e8 with mass ~2e-43, below what the default root enclosures resolve
    window = [F(404354781408619061771104802047152496342648805823488,
                572784281368294728143982190222496896115568748948035),
              F(23803217599915040944956408690464, 30023040520313060558655462281361),
              F(35030695453576, 39342165602515), F(1)]
    mu = minimal_measure_ray(window)
    assert mu.support_size == 2
    assert all(mass > 0 for _, mass in mu.atoms)
    assert 0 < mu.atoms[1][1] < F(1, 10 ** 40) and mu.atoms[1][0] > 10 ** 8


def test_minimal_measure_ray_even_family():
    fam = minimal_measure_ray([2, 3, 5])
    assert isinstance(fam, MinimalRayFamily)
    assert fam.atom_count == 2
    mu = fam(F(3, 2))
    assert mu.atoms == ((1, 1), (2, 1))


def test_minimal_measure_half_open_examples():
    mu = minimal_measure_half_open([3, 2, F(3, 2)])
    assert mu.atoms == ((F(1, 2), 2), (1, 1))
    assert minimal_measure_half_open([1, 1]).atoms == ((1, 1),)
    assert minimal_measure_half_open([1]).atoms == ((1, 1),)


def test_minimal_measure_half_open_even_has_atom_one(rng):
    for _ in range(40):
        k = rng.randint(1, 2)
        mu = random_half_open_measure(rng, k + 1, include_one=True)
        window = moments(mu, 0, 2 * k)
        got = minimal_measure_half_open(window)
        assert got == mu
        assert got.positions()[-1] == 1
