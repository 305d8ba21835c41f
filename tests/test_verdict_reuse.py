"""Results read from a verdict equal those of the longer path.

The entry points take a window's threshold, singular measure and principal
measures from the verdict or polynomial they already built.  On planted
1-4 atom exact windows each result is compared with the one the longer
path gives: classifying again and recovering the measure from scratch.
"""

from fractions import Fraction as F

from hypothesis import given, strategies as st

from momentkit.alternating import CAMeasure, ZERO_CA_MEASURE, has_ca_extension
from momentkit.backward import ExtensionClass, classify_backward
from momentkit.extremal import (compact_reciprocal_values, reciprocal_extremes_compact,
                                reciprocal_inf_half_open, reciprocal_inf_ray)
from momentkit.measure import ZERO_MEASURE, AtomicMeasure, moments, tilt
from momentkit.numeric import Polynomial, root_enclosures, root_precision
from momentkit.positivity import (Compact, HalfOpen, PositivityClass, Ray, classify, index,
                                  recover_minimal_measure, recover_support_and_masses)
from momentkit.principal import PrincipalKind, minimal_measure_half_open, principal_compact

MASS = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
RAY_ATOM = st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8)
UNIT_ATOM = st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16)


def _pairs(draw, atom):
    atoms = sorted(draw(st.sets(atom, min_size=1, max_size=4)))
    return list(zip(atoms, draw(st.lists(MASS, min_size=len(atoms), max_size=len(atoms)))))


def _measure(draw, atom):
    return AtomicMeasure(_pairs(draw, atom))


def _inf(domain):
    return reciprocal_inf_ray if isinstance(domain, Ray) else reciprocal_inf_half_open


@st.composite
def strict_compact_windows(draw):
    """Interior atoms of [a, b] seen through a strictly positive window."""
    a = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    b = a + draw(st.fractions(min_value=F(1, 7), max_value=30, max_denominator=7))
    mu = _measure(draw, st.builds(lambda u: a + (b - a) * u, UNIT_ATOM))
    n = draw(st.integers(0, 2 * mu.support_size - 1))
    return a, b, list(moments(mu, 0, n).values)


@given(strict_compact_windows())
def test_compact_extremes_attach_the_principal_measures(problem):
    a, b, window = problem
    bounds = reciprocal_extremes_compact(window, a, b)
    values = compact_reciprocal_values(window, a, b)
    order = sorted(zip(values, PrincipalKind), key=lambda pair: pair[0])
    assert (bounds.t_lo, bounds.t_hi) == tuple(value for value, _ in order)
    assert (bounds.attained_lo, bounds.attained_hi) == tuple(
        principal_compact(window, a, b, kind) for _, kind in order)


@st.composite
def strict_extendable_windows(draw):
    """A strictly positive window whose reciprocal infimum is attained: odd
    top degree on the ray, any length on (0, 1]."""
    domain = draw(st.sampled_from([Ray(), HalfOpen()]))
    mu = _measure(draw, RAY_ATOM if isinstance(domain, Ray) else UNIT_ATOM)
    k = mu.support_size
    lengths = range(2, 2 * k + 1, 2) if isinstance(domain, Ray) else range(1, 2 * k + 1)
    return domain, list(moments(mu, 0, draw(st.sampled_from(lengths)) - 1).values)


@given(strict_extendable_windows())
def test_backward_at_threshold_matches_recovery_from_scratch(problem):
    domain, window = problem
    theta = _inf(domain)(window)
    verdict = classify_backward(window, theta, domain)
    assert verdict.kind is ExtensionClass.SINGULAR and verdict.threshold == theta
    reference = tilt(recover_minimal_measure([theta] + window, domain), 1)
    if reference.exact:
        assert verdict.measure == reference
    else:
        # irrational atoms: the same enclosed positions, and masses read on
        # the window where the reference read them on the extension; see
        # tests/test_threshold_properties.py for the moments both reproduce
        assert not verdict.measure.exact
        assert [x for x, _ in verdict.measure.atoms] == [x for x, _ in reference.atoms]
        assert all(abs(m - r) < root_precision() * r
                   for (_, m), (_, r) in zip(verdict.measure.atoms, reference.atoms))


@st.composite
def singular_windows(draw):
    """A planted measure seen through a window of length >= 2K + 1; on
    (0, 1] the atom 1 may be among its atoms."""
    domain = draw(st.sampled_from([Ray(), HalfOpen()]))
    if isinstance(domain, Ray):
        atom = RAY_ATOM
    else:
        atom = st.one_of(st.just(F(1)), UNIT_ATOM)
    mu = _measure(draw, atom)
    n = draw(st.integers(2 * mu.support_size, 2 * mu.support_size + 2))
    return domain, mu, list(moments(mu, 0, n).values)


@given(singular_windows())
def test_singular_results_match_recovery_from_scratch(problem):
    domain, mu, window = problem
    verdict = classify(window, domain)
    assert verdict.kind is PositivityClass.SINGULARLY_POSITIVE
    recovered = recover_minimal_measure(window, domain)
    assert recovered == mu
    assert _inf(domain)(window) == recovered.moment(-1)
    at_one = isinstance(domain, HalfOpen) and mu.max_atom() == 1
    assert index(window, domain) == mu.support_size - F(int(at_one), 2)
    if isinstance(domain, HalfOpen):
        assert minimal_measure_half_open(window) == recovered


@st.composite
def singular_increments(draw):
    """Partial sums of a planted measure's moments on [0, 1], its atoms
    possibly at 0 or 1, through a window that makes the increments
    singular."""
    pairs = _pairs(draw, st.one_of(st.sampled_from([F(0), F(1)]), UNIT_ATOM))
    n = draw(st.integers(2 * len(pairs), 2 * len(pairs) + 2))
    c = [F(1)]
    for k in range(n + 1):
        c.append(c[-1] + sum(m * x ** k for x, m in pairs))
    return c


@given(singular_increments())
def test_ca_extension_matches_recovery_from_scratch(c):
    deltas = [c[k + 1] - c[k] for k in range(len(c) - 1)]
    pairs, exact = recover_support_and_masses(deltas, F(0), F(1))
    verdict = has_ca_extension(c)
    assert verdict.has_extension
    assert verdict.increment_class is PositivityClass.SINGULARLY_POSITIVE
    assert verdict.measure == CAMeasure(
        sum(m for x, m in pairs if x == 0),
        AtomicMeasure([(x, m) for x, m in pairs if x != 0], exact=exact))


def _atom_poly(atoms):
    poly = Polynomial([1])
    for x in atoms:
        poly = poly.mul_linear(-x, 1)
    return poly


@st.composite
def planted_windows(draw):
    """A planted measure on any domain, its atoms possibly at the ends that
    belong to the domain, through a window of length >= 2K."""
    domain = draw(st.sampled_from([Ray(), HalfOpen(), Compact(F(1, 2), F(7, 2))]))
    if isinstance(domain, Ray):
        atom = RAY_ATOM
    elif isinstance(domain, HalfOpen):
        atom = st.one_of(st.just(F(1)), UNIT_ATOM)
    else:
        atom = st.one_of(st.sampled_from([domain.a, domain.b]),
                         st.builds(lambda u: domain.a + 3 * u, UNIT_ATOM))
    mu = _measure(draw, atom)
    n = draw(st.integers(2 * mu.support_size - 1, 2 * mu.support_size + 2))
    return domain, mu, list(moments(mu, 0, n).values)


@given(planted_windows())
def test_every_singular_verdict_carries_its_support_polynomial(problem):
    domain, mu, window = problem
    verdict = classify(window, domain)
    assert verdict.is_positive
    if len(window) > 2 * mu.support_size:
        assert verdict.kind is PositivityClass.SINGULARLY_POSITIVE
    if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
        assert verdict.support == _atom_poly(x for x, _ in mu.atoms)
        assert recover_minimal_measure(window, domain) == mu


@st.composite
def ca_partial_sums(draw):
    """Partial sums of a planted measure's moments on [0, 1], its atoms
    possibly at 0 or 1, through a window that leaves the increments strictly
    or singularly positive."""
    pairs = _pairs(draw, st.one_of(st.sampled_from([F(0), F(1)]), UNIT_ATOM))
    n = draw(st.integers(0, 2 * len(pairs) + 2))
    c = [F(1)]
    for k in range(n + 1):
        c.append(c[-1] + sum(m * x ** k for x, m in pairs))
    return c


@given(ca_partial_sums())
def test_ca_extension_polynomial_vanishes_at_its_atoms(c):
    verdict = has_ca_extension(c)
    assert verdict.has_extension
    positive = verdict.measure.positive
    assert verdict.poly.degree == positive.support_size and verdict.poly(0) != 0
    if positive.exact:
        assert all(verdict.poly(x) == 0 for x, _ in positive.atoms)
    else:  # enclosure midpoints, each within root_precision() of its root
        width = root_precision()
        roots = [e.refine(width) for e in root_enclosures(verdict.poly, 0, 1)]
        assert len(roots) == positive.support_size
        assert all(abs(r - x) <= width for r, (x, _) in zip(roots, positive.atoms))


def test_zero_window_gives_the_zero_measure():
    for n in range(4):
        window = [F(0)] * (n + 1)
        assert minimal_measure_half_open(window) is ZERO_MEASURE
        for domain in (Ray(), HalfOpen()):
            assert recover_minimal_measure(window, domain) is ZERO_MEASURE
            assert _inf(domain)(window) == 0
            assert index(window, domain) == 0
    for c in ([3, 3, 3], [1.5, 1.5, 1.5, 1.5]):
        verdict = has_ca_extension(c)
        assert verdict.measure == ZERO_CA_MEASURE and verdict.measure.positive.exact
