"""The backward extension at its exact threshold, read off the window.

At the reciprocal infimum theta of a strictly positive window s, the
extension (theta, s_0, ..., s_n) is represented by t^-1 mu, mu the minimal
measure of s, whenever the infimum is attained: for odd n on the ray and for
both parities on (0, 1] (Curto and Fialkow, Houston J. Math. 17 (1991)).
So `classify_backward` at the threshold reads its verdict from the domain
and the parity (Singular, or NotExtension for even n on the ray) and its
measure from the minimal measure kept on the window.  Here that is checked
against the extension itself: `classify` of (theta,) + s, then
`recover_minimal_measure` of it, tilted back.  The windows are planted
1-4 atom measures of both parities on the ray and on (0, 1] (the atom 1
among them on (0, 1]), whose minimal measure is the planted one, and
shorter strict windows of them, whose minimal atoms are in general
irrational.

Exact measures must be equal.  An inexact one has the atom positions of the
extension's measure (both isolate the roots of one primitive integer
polynomial on the same interval), and its masses, read on the window
instead of on the extension, must reproduce the extension's entries within
the relative bound the extension's own measure meets.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import momentkit.positivity as positivity
from momentkit.backward import ExtensionClass, classify_backward
from momentkit.extremal import reciprocal_inf_half_open, reciprocal_inf_ray
from momentkit.measure import AtomicMeasure, moments, tilt
from momentkit.numeric import root_precision
from momentkit.positivity import HalfOpen, PositivityClass, Ray, classify, recover_minimal_measure

MASS = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
ATOM = {Ray: st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8),
        HalfOpen: st.one_of(st.just(F(1)), st.fractions(min_value=F(1, 16),
                                                        max_value=F(15, 16), max_denominator=16))}
EXTENSION_CLASS = {PositivityClass.SINGULARLY_POSITIVE: ExtensionClass.SINGULAR,
                   PositivityClass.NOT_POSITIVE: ExtensionClass.NOT_EXTENSION}


@st.composite
def threshold_problems(draw):
    """(domain, window, planted): a strictly positive window of a planted
    measure, and that measure when it is the window's minimal one, else
    None.  The longest strict window of k atoms has 2k entries, 2k - 1 on
    (0, 1] when 1 is an atom; it is the planted one's, as is a window of
    2k - 1 entries on the ray, whose infimum is not attained."""
    domain = draw(st.sampled_from([Ray(), HalfOpen()]))
    count = draw(st.sampled_from([1, 2, 3, 4]))
    atoms = sorted(draw(st.sets(ATOM[type(domain)], min_size=count, max_size=count)))
    mu = AtomicMeasure([(x, draw(MASS)) for x in atoms])
    top = 2 * len(atoms) - (atoms[-1] == 1)
    length = draw(st.sampled_from(range(1, top + 1)))
    return domain, list(moments(mu, 0, length - 1).values), mu if length == top else None


def _error(mu, entries) -> F:
    """The largest relative error of moments -1, 0, ... of mu against the
    extension's entries."""
    return max(abs(mu.moment(k - 1) - e) / e for k, e in enumerate(entries))


def _at_threshold(domain, window) -> tuple:
    """(verdict, extension, reference): `classify_backward` at the
    threshold, the extension, and the verdict and measure read off the
    extension from scratch."""
    inf = reciprocal_inf_ray if isinstance(domain, Ray) else reciprocal_inf_half_open
    theta = inf(window)
    verdict = classify_backward(window, theta, domain)
    assert verdict.threshold == theta
    positivity._held = ()
    extension = [theta] + window
    reference = classify(extension, domain)
    measure = None
    if reference.kind is PositivityClass.SINGULARLY_POSITIVE:
        measure = tilt(recover_minimal_measure(extension, domain), 1)
    return verdict, extension, (EXTENSION_CLASS[reference.kind], measure)


@given(threshold_problems())
def test_backward_at_threshold_matches_the_extension(problem):
    domain, window, planted = problem
    assert classify(window, domain).is_strict
    verdict, extension, (kind, measure) = _at_threshold(domain, window)
    assert verdict.kind is kind
    # the kind follows from the domain and the parity alone
    even_n_on_ray = isinstance(domain, Ray) and len(window) % 2 == 1
    assert (kind is ExtensionClass.NOT_EXTENSION) is even_n_on_ray
    if measure is None:
        assert verdict.measure is None
        return
    mu = verdict.measure
    assert [x for x, _ in mu.atoms] == [x for x, _ in measure.atoms]
    assert mu.exact is measure.exact
    if measure.exact:
        assert mu == measure
    else:
        assert _error(mu, extension) < root_precision()
        assert _error(measure, extension) < root_precision()
    if planted is not None:
        assert mu == planted


UNIT_MU = AtomicMeasure([(F(1, 8), F(1, 2)), (F(1, 4), F(1)), (F(1, 2), F(2)), (F(5, 6), F(1, 3))])

#: strict windows whose minimal atoms are irrational, each pair the roots of
#: a quadratic: 4 moments of 3 atoms on the ray (two atoms), 4 and 5 moments
#: of 4 atoms on (0, 1] (two atoms, resp. the atom 1 and two more)
IRRATIONAL = {
    "ray": (Ray(), [F(3, 8), F(3, 32), F(7, 256), F(9, 1024)]),
    "half-open-odd-n": (HalfOpen(), list(moments(UNIT_MU, 0, 3).values)),
    "half-open-even-n": (HalfOpen(), list(moments(UNIT_MU, 0, 4).values)),
}


@pytest.mark.parametrize("case", sorted(IRRATIONAL))
def test_irrational_threshold_measure_reproduces_the_extension(case):
    domain, window = IRRATIONAL[case]
    verdict, extension, (kind, measure) = _at_threshold(domain, window)
    assert verdict.kind is kind is ExtensionClass.SINGULAR
    mu = verdict.measure
    assert not mu.exact and not measure.exact
    assert [x for x, _ in mu.atoms] == [x for x, _ in measure.atoms]
    # read on the window, the masses match s_0, s_1, ... at the enclosed
    # atoms, where the extension's matched theta, s_0, ...: each measure
    # reproduces every entry of the extension within the root precision
    assert _error(mu, extension) < root_precision()
    assert _error(measure, extension) < root_precision()
