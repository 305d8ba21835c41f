from fractions import Fraction as F

import pytest

from momentkit.errors import DegenerateInput, DomainError, NotStrictlyPositive
from momentkit.extremal import reciprocal_extremes_compact
from momentkit.measure import AtomicMeasure, moments
from momentkit.numeric import Polynomial, real_roots, root_precision, vandermonde_masses
from momentkit.principal import (MinimalRayFamily, PrincipalKind, atoms_from_poly,
                                 measure_from_poly, minimal_measure_half_open,
                                 minimal_measure_ray, principal_compact, principal_polynomial)
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


def test_upper_principal_mass_far_below_the_largest_is_read_to_precision():
    # the window of seven planted atoms on [5/24, 12], n = 13: its upper
    # principal measure has eight atoms, and the one at b = 12 carries
    # 6.5e-17 of the largest mass; read at the midpoints of the other
    # atoms' enclosures, that mass was off by 1.03e-2
    planted = AtomicMeasure([(F(5, 12), F(9, 4)), (F(9, 8), F(1, 3)), (F(8, 7), F(1, 7)),
                             (F(2), F(7, 3)), (F(20, 9), F(1)), (F(11, 4), F(2, 5)),
                             (F(6), F(1, 3))])
    window = list(moments(planted, 0, 13).values)
    a, b = F(5, 24), F(12)
    mu = reciprocal_extremes_compact(window, a, b).attained_hi
    assert not mu.exact and mu.support_size == 8 and mu.atoms[-1][0] == b
    roots = real_roots(principal_polynomial(window, a, b, PrincipalKind.UPPER), a, b,
                       precision=F(1, 2 ** 300))
    reference = vandermonde_masses(roots, window)
    assert reference[-1] < max(reference) * F(1, 10 ** 16)
    for (_, mass), want in zip(mu.atoms, reference):
        assert mass > 0 and abs(mass - want) <= root_precision() * want


@pytest.mark.parametrize("poly, window", [
    ([-2, 6, -5, 1], [1, 1, 1]),  # delta_1: zero masses at the roots 2 +- sqrt 2
    ([2, -4, 1], [1, 5]),  # a negative mass at 2 - sqrt 2
    ([2, -4, 1], [0, 1]),
])
def test_irrational_atoms_refuse_a_mass_that_is_not_positive(poly, window):
    # the certified read ends on a zero mass (p and q share a root) and on a
    # negative one as it does on a positive one
    with pytest.raises(DegenerateInput, match="nonpositive mass"):
        atoms_from_poly(Polynomial(poly), window, 0, 4)
    pairs, exact = atoms_from_poly(Polynomial([2, -4, 1]), [1, 3], 0, 4)
    assert not exact and [float(m) for _, m in pairs] == pytest.approx([0.5 - 2 ** -1.5,
                                                                       0.5 + 2 ** -1.5])


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


def test_minimal_measure_half_open_long_denominator_atom_is_exact():
    # 15/2^43 and 2^-27 on (0, 1], seen through 5 moments: the atom
    # polynomial's leading coefficient has 71 bits, so 15/2^43 is no
    # simplest rational near its float seed; its seed's bracket is narrower
    # than 1/|lead|, and its one candidate k/|lead| is the atom
    window = [F(540790296738527, 247018488413465244),
              F(2549882261720754413, 543199400572512332294482034688),
              F(167014427514730712131043, 4778032457043444006423521239540731010351104),
              F(10945456101759550940483844173,
                42028017955283183326814694705129106942752827714549317632),
              F(717321411063616242820403168873603,
                369682355473698944629640383714823941686906755574808048862323021971456)]
    mu = minimal_measure_half_open(window)
    assert mu.exact
    assert mu.atoms == ((F(15, 2 ** 43), F(800685, 513396617)),
                        (F(1, 2 ** 27), F(302971, 481145532)))


@pytest.mark.parametrize("call, named", [
    (lambda: atoms_from_poly(Polynomial([float("nan"), 1.0]), [1.0, 2.0], 0, 4), "nan"),
    (lambda: atoms_from_poly(Polynomial([-1.5, 1.0]), [1.0, 2.0], 0, float("inf")), "inf"),
    (lambda: measure_from_poly(Polynomial([-1.5, 1.0]), [1.0, float("-inf")], 0, 4), "-inf"),
])
def test_polynomial_readers_refuse_non_finite_float_input(call, named):
    # a nan coefficient escaped as ValueError and an infinite end as
    # OverflowError, from the binary-exact image they do not have
    with pytest.raises(DomainError, match=f"non-finite value {named} "):
        call()


def test_polynomial_readers_read_float_input_as_a_float_window():
    # a float anywhere makes every position and mass a float, read on the
    # binary-exact image and rounded once: the atom 3/2 of mass 1 (a float
    # window alone left the exact root of an exact polynomial a Fraction)
    for pairs in (atoms_from_poly(Polynomial([-1.5, 1.0]), [1, F(3, 2)], 0, 4)[0],
                  atoms_from_poly(Polynomial([-3, 2]), [1.0, 1.5], 0, 4)[0],
                  measure_from_poly(Polynomial([-3, 2]), [1, F(3, 2)], 0, 4.0).atoms):
        assert [tuple(map(type, pair)) for pair in pairs] == [(float, float)]
        assert list(pairs) == [(1.5, 1.0)]
