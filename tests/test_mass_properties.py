"""Property test of the masses of inexact measures.

A mass at an irrational atom is the Gauss-Christoffel weight q(x)/p'(x) of
the atom polynomial p, read at the midpoint of the root's enclosure, which
is narrowed until the sign is certain and the mass is bounded to
`root_precision()` relative (`principal._enclosed_mass`).  The windows drawn
here are strictly positive and come from planted rational measures whose
masses reach 2^-150 of the largest: the moments of k atoms up to s_(2k-3)
on the ray, whose minimal measure has k - 1 atoms, and up to s_(2k-1) on an
interval around them, whose upper principal measure has k + 1, both ends
among them.  Each mass of every inexact one must be positive and within
`root_precision()` relative of the reference: the Vandermonde solve
(`vandermonde_masses`) at the same polynomial's roots enclosed to 2^-300,
which reads no Taylor bound and narrows nothing.  Each position must be
within `root_precision()` of its reference root.
"""

from fractions import Fraction as F

from hypothesis import assume, given, strategies as st

from momentkit.measure import AtomicMeasure, moments
from momentkit.numeric import real_roots, root_precision, vandermonde_masses
from momentkit.positivity import Ray
from momentkit.principal import (PrincipalKind, atom_polynomial, minimal_measure_ray,
                                 principal_compact, principal_polynomial)

REFERENCE = F(1, 2 ** 300)


@st.composite
def planted(draw):
    """2-5 distinct atoms in [1/8, 24] with masses m 2^-e, e in 0..150."""
    k = draw(st.integers(2, 5))
    xs = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8),
                       min_size=k, max_size=k, unique=True))
    masses = [draw(st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8))
              * F(1, 2 ** draw(st.integers(0, 150))) for _ in xs]
    return k, AtomicMeasure(list(zip(xs, masses)))


@given(planted(), st.booleans())
def test_inexact_masses_are_certified_against_a_narrow_reference(problem, on_ray):
    k, mu = problem
    if on_ray:
        window = list(moments(mu, 0, 2 * k - 3).values)
        nu = minimal_measure_ray(window)
        poly, lo, hi = atom_polynomial(window, Ray()), F(0), None
    else:
        window = list(moments(mu, 0, 2 * k - 1).values)
        lo, hi = mu.atoms[0][0] / 2, mu.atoms[-1][0] * 2
        nu = principal_compact(window, lo, hi, PrincipalKind.UPPER)
        poly = principal_polynomial(window, lo, hi, PrincipalKind.UPPER)
    assume(not nu.exact)
    roots = real_roots(poly, lo, nu.atoms[-1][0] + 1 if hi is None else hi, precision=REFERENCE)
    reference = vandermonde_masses(roots, window)
    eps = root_precision()
    assert len(nu.atoms) == len(roots)
    for (x, mass), root, want in zip(nu.atoms, roots, reference):
        assert abs(x - root) <= eps
        assert mass > 0 and abs(mass - want) <= eps * want
