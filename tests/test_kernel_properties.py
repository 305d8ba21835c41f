"""Property tests of the exact kernel against sympy.

Hankel form classification is compared with the inertia read off sympy's
exact characteristic polynomial (Descartes' rule of signs is exact for the
real-rooted characteristic polynomial of a symmetric matrix), the leading
minors of its pass and general determinants with sympy's; root isolation
with sympy's exact real-root isolation, on the certified float-seed path
and on the Descartes bisection it falls back to; the Descartes count of a
real-rooted polynomial on (0, inf) and (0, 1] with sympy's count.  Singular
positivity on the ray and on (0, 1] is checked against planted measures
with extreme atoms, singular recovery and index on [a, b] against planted
measures with endpoint atoms.  Planted rational atoms in [2^-40, 2^40]
round-trip exactly through singular recovery, the minimal measures of
strict windows, the backward extension at its threshold and the completely
alternating extension.
The measures of float windows (minimal, principal, singular and the
completely alternating extension's) are checked against the exact reading
of the integer polynomial kept on the window's binary-exact image, each
root enclosed to 2^-200, rounded once.
The Lagrange-form masses are checked against their defining moment
identity, and the support and bordered-Hankel polynomials read from the
leading-minor pass against `det_poly` of the bordered layout, for extreme,
long-denominator and float nodes and for exact and float windows; the
Schur-complement threshold and the level quadratic read from one pass
against the minimal measure's reciprocal value and against exact samples.
The integer images of the [a, b] and (0, 1] transforms are checked against
the `Fraction` formulas they replace, and every verdict against
`classify_form` run on those.  A long window, dilated t -> lam t by
`_Window.of`, gives every verdict, polynomial, threshold and entry that its
lam = 1 image gives.
The moments and geometric sums that measures read off their integer images
are checked against the plain sums over planted atoms, and those of float
measures (atoms and tilts, recurrences, measures on [0, 1] with a float
mass at zero), with the reciprocal values of float windows, against the
exact reading of their binary-exact data, rounded once.  The atom counts a
given branch window admits, read from one verdict, are checked against one
`_branch_k_compatible` check per count, on every small window and on
planted ones.
"""

import contextlib
import itertools
import math
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, strategies as st

import momentkit.numeric as numeric
import momentkit.positivity as positivity
import momentkit.principal as principal
from momentkit.alternating import CAMeasure, has_ca_extension
from momentkit.backward import ExtensionClass, classify_backward, forced_value
from momentkit.completion import _LevelValues, _admissible_two_ks, _branch_k_compatible
from momentkit.extremal import (_schur_quadratic, _schur_threshold, compact_reciprocal_values,
                                reciprocal_extremes_compact, reciprocal_inf_half_open,
                                reciprocal_inf_ray, reciprocal_value_from_poly)
from momentkit.measure import AtomicMeasure, MomentRecurrence, moment_row, moments, tilt
from momentkit.errors import DegenerateInput, MomentKitError
from momentkit.numeric import (FormClass, Polynomial, _dilated_scale, _hankel_image,
                               _integer_scale, _minor_pass, _to_float, as_fraction,
                               classify_form, count_positive_roots, det, det_poly, real_roots,
                               root_enclosures, root_precision, vandermonde_masses)
from momentkit.positivity import (Compact, HalfOpen, PositivityClass, Ray, _Window,
                                  _classify_limit, _determinate_poly, _ends, _limit_window,
                                  _support_ints, _support_poly,
                                  classify, classify_compact, compact_criterion_matrices, index,
                                  ray_limit_matrices, recover_minimal_measure,
                                  recover_support_and_masses)
from momentkit.principal import (PrincipalKind, _atom_ints, _bordered_ints, atom_polynomial,
                                 atoms_from_poly, bordered_hankel_poly, measure_from_poly,
                                 minimal_measure_half_open, minimal_measure_ray,
                                 principal_compact, principal_polynomial, root_bound)
from momentkit.tree import GeometricSumTail, MeasureTail

SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def _variations(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@st.composite
def forms(draw):
    """Sum of r rational rank-one squares, n <= 7, sometimes minus one."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    vectors = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n),
                            min_size=r, max_size=r))
    if draw(st.booleans()):
        weight = draw(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8))
        w = draw(st.lists(SMALL, min_size=n, max_size=n))
        negative = [(-weight, w)]
    else:
        negative = []
    terms = [(F(1), v) for v in vectors] + negative
    return [[sum((c * v[i] * v[j] for c, v in terms), F(0)) for j in range(n)]
            for i in range(n)]


POSITIVE = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8)


@st.composite
def hankel_windows(draw):
    """Entries s_0..s_(2n-2), n <= 5, of a planted measure of 0-4 atoms;
    some minus a rank-one Hankel term w x^k, some with one entry moved by
    +-1/den."""
    n = draw(st.integers(1, 5))
    atoms = draw(st.lists(st.tuples(SMALL, POSITIVE), max_size=4))
    entries = [sum((m * x ** k for x, m in atoms), F(0)) for k in range(2 * n - 1)]
    change = draw(st.sampled_from(("none", "rank-one", "entry")))
    if change == "rank-one":
        w, x = draw(POSITIVE), draw(SMALL)
        entries = [e - w * x ** k for k, e in enumerate(entries)]
    elif change == "entry":
        k = draw(st.integers(0, 2 * n - 2))
        entries[k] += draw(st.sampled_from((-1, 1))) * F(1, draw(st.integers(1, 9)))
    return entries


@given(hankel_windows(), forms())
def test_classify_form_matches_sympy_inertia(entries, rows):
    n = (len(entries) + 1) // 2
    exact = sympy.Matrix(n, n, lambda i, j: _sym(entries[i + j]))
    coeffs = exact.charpoly().all_coeffs()               # highest degree first
    negative = _variations([c * (-1) ** k for k, c in enumerate(reversed(coeffs))])
    zero = next(k for k, c in enumerate(reversed(coeffs)) if c != 0)
    if negative:
        want = FormClass.INDEFINITE
    elif zero:
        want = FormClass.POSITIVE_SEMIDEFINITE_SINGULAR
    else:
        want = FormClass.POSITIVE_DEFINITE
    assert classify_form(entries) is want

    # the pass's pivots are scale^k times the leading minors: positive for
    # its r steps, then the first that is not
    image = _hankel_image(entries)
    r, a, _ = _minor_pass(image, n)
    scale = image.unit
    minors = [F(a[k][k], scale ** (k + 1)) for k in range(min(r + 1, n))]
    assert minors == [exact[:k, :k].det() for k in range(1, len(minors) + 1)]
    assert all(d > 0 for d in minors[:r]) and (r == n or minors[r] <= 0)

    assert det(rows) == sympy.Matrix([[_sym(x) for x in row] for row in rows]).det()


EXTREME = st.builds(lambda m, e: F(m) * F(2) ** e,
                    st.integers(1, 15), st.integers(-40, 40))


@st.composite
def root_problems(draw):
    """A squarefree polynomial of degree <= 12 with planted rational roots
    (moderate, extreme in [2^-40, 2^40], clustered down to 2^-36 apart) and
    irrational pairs +-sqrt(q), and an interval that may end at a root."""
    roots = set(draw(st.lists(
        st.one_of(st.fractions(min_value=-20, max_value=20, max_denominator=16),
                  EXTREME),
        max_size=6)))
    if draw(st.booleans()):
        base = draw(st.fractions(min_value=0, max_value=4, max_denominator=16))
        gap = F(1, 2 ** draw(st.integers(10, 36)))
        roots.update(base + i * gap for i in range(1, draw(st.integers(2, 3)) + 1))
    squares = set(draw(st.lists(
        st.tuples(st.sampled_from((2, 3, 5, 7)),
                  st.one_of(st.fractions(min_value=F(1, 16), max_value=16,
                                         max_denominator=16),
                            EXTREME)),
        max_size=3)))
    roots = sorted(roots)[:12 - 2 * len(squares)]
    poly = Polynomial([draw(st.sampled_from((F(-3, 2), F(1), F(7, 5))))])
    for r in roots:
        poly = poly.mul_linear(-r, 1)
    for prime, s in squares:
        poly = poly.mul(Polynomial([-prime * s * s, 0, 1]))
    if poly.degree < 1:
        poly = poly.mul_linear(-1, 1)
        roots = [F(1)]
    bound = 1 + max(abs(c) for c in poly.coeffs) / abs(poly.coeffs[-1])
    ends = [-bound, bound, F(0)] + list(roots)
    lo, hi = sorted((draw(st.sampled_from(ends)), draw(st.sampled_from(ends))))
    if lo == hi:
        lo, hi = -bound, bound
    return poly, roots, lo, hi


@given(root_problems())
def test_real_roots_match_sympy(problem):
    poly, planted, lo, hi = problem
    width = root_precision()
    ours = real_roots(poly, lo, hi)
    x = sympy.Symbol("x")
    exact = sympy.Poly([_sym(c) for c in reversed(poly.coeffs)], x)
    theirs = exact.intervals(inf=_sym(lo), sup=_sym(hi), fast=True)
    assert len(ours) == len(theirs) == exact.count_roots(_sym(lo), _sym(hi))
    assert ours == sorted(ours) and len(set(ours)) == len(ours)
    # every root is real, so Descartes' rule counts those in (0, inf) and
    # (0, 1]; sympy counts closed intervals
    at_zero = poly(0) == 0
    assert count_positive_roots(poly.coeffs) == exact.count_roots(0) - at_zero
    assert count_positive_roots(poly.coeffs, True) == exact.count_roots(0, 1) - at_zero
    assert all(lo <= root <= hi for root in ours)
    for r in planted:
        # snapping is promised for den^2 * width < 1; every other planted
        # root is checked below like an irrational one
        if lo <= r <= hi and r.denominator ** 2 * width < 1:
            assert r in ours
    for root, ((a, b), _) in zip(ours, theirs):
        if a == b:
            assert root == a
        elif exact.eval(_sym(root)) != 0:
            # an irrational root: the enclosure around the midpoint holds it
            left, right = _sym(root - width / 2), _sym(root + width / 2)
            assert left <= b and a <= right
            assert exact.count_roots(left, right) == 1


RATIONAL_ATOM = st.builds(lambda m, q, e: F(m, q) * F(2) ** e, st.integers(1, 15),
                          st.sampled_from((1, 3, 5, 7, 9, 15)), st.integers(-36, 36))


@st.composite
def real_rooted_polynomials(draw):
    """A real-rooted squarefree polynomial: a product of distinct rational
    linear factors, or the support polynomial of the first 2r moments of a
    planted 1-4-atom measure, r <= its atom count (with roots at the atoms
    when r is the count, an orthogonal polynomial with irrational roots
    below it); atoms in [2^-40, 2^40], some at 1."""
    roots = st.one_of(st.just(F(1)), RATIONAL_ATOM,
                      st.fractions(min_value=-20, max_value=20, max_denominator=16)
                      .filter(bool))
    if draw(st.booleans()):
        poly = Polynomial([draw(st.sampled_from((F(-3, 2), F(1), F(7, 5))))])
        for r in draw(st.sets(roots, min_size=1, max_size=8)):
            poly = poly.mul_linear(-r, 1)
        return poly
    atoms = sorted(draw(st.sets(st.one_of(st.just(F(1)), RATIONAL_ATOM), min_size=1,
                                max_size=4)))
    masses = draw(st.lists(POSITIVE, min_size=len(atoms), max_size=len(atoms)))
    r = draw(st.integers(1, len(atoms)))
    window = [sum(m * x ** k for x, m in zip(atoms, masses)) for k in range(2 * r)]
    return _support_poly(_Window.of(window))


@given(real_rooted_polynomials())
def test_descartes_count_matches_sympy(poly):
    x = sympy.Symbol("x")
    exact = sympy.Poly([_sym(c) for c in reversed(poly.coeffs)], x)
    ints = numeric._integer_scale(poly.coeffs)[0]
    assert count_positive_roots(ints) == exact.count_roots(0)
    assert count_positive_roots(ints, True) == exact.count_roots(0, 1)


@st.composite
def long_denominator_roots(draw):
    """A rational in [-8, 8] with a denominator of up to 40 bits."""
    den = draw(st.integers(1, 2 ** draw(st.integers(0, 40))))
    return F(draw(st.integers(-8 * den, 8 * den)), den)


@st.composite
def seeded_problems(draw):
    """(poly, planted, lo, hi, repeated, huge): rational linear factors with
    denominators up to 2^40, sometimes a cluster 2^-30 apart, irreducible
    quadratics with a real or a complex pair, an interval that may leave
    roots outside; sometimes a factor squared, or a factor whose integer
    coefficients pass 2^1100, with its root `huge` (else None)."""
    planted = set(draw(st.lists(long_denominator_roots(), max_size=5)))
    if draw(st.booleans()):
        base = draw(long_denominator_roots())
        planted.update(base + i * F(1, 2 ** 30) for i in range(draw(st.integers(2, 3))))
    planted = sorted(planted)[:7]
    poly = Polynomial([draw(st.sampled_from((F(-3, 2), F(1), F(7, 5))))])
    for r in planted:
        poly = poly.mul_linear(-r, 1)
    coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=16)
    for b, c in draw(st.sets(st.tuples(coefficient, coefficient), max_size=2)):
        if not sympy.sqrt(_sym(b * b - 4 * c)).is_rational:
            poly = poly.mul(Polynomial([c, b, 1]))
    repeated = bool(planted) and draw(st.integers(0, 5)) == 0
    if repeated:
        poly = poly.mul_linear(-draw(st.sampled_from(planted)), 1)
    huge = None
    if draw(st.integers(0, 5)) == 0:
        den = 2 ** 1100 + draw(st.integers(1, 2 ** 20))
        huge = F(den + draw(st.sampled_from((-1, 1))), den)
        poly = poly.mul_linear(-huge, 1)
    if poly.degree < 1:
        poly, planted = poly.mul_linear(-1, 1), [F(1)]
    bound = root_bound(poly)
    ends = [-bound, bound, F(0), *planted]
    lo, hi = sorted((draw(st.sampled_from(ends)), draw(st.sampled_from(ends))))
    if lo == hi or draw(st.booleans()):
        lo, hi = -bound, bound
    return poly, planted, lo, hi, repeated, huge


@given(seeded_problems())
@example((Polynomial([-7, 2 ** 33]).mul_linear(F(-9, 8), 1), [F(7, 2 ** 33), F(9, 8)],
          F(7, 2 ** 34), F(9, 4), False, None))
@example((Polynomial([F(1, 5), -1, 1]).mul_linear(F(-12345678901, 2 ** 40), 1),
          [F(12345678901, 2 ** 40)], F(0), F(1), False, None))
def test_seeded_isolation_matches_descartes_and_sympy(problem):
    poly, planted, lo, hi, repeated, huge = problem
    descartes_only = mock.patch.object(numeric, "_seeded", return_value=None)
    if huge is not None:  # no float holds the coefficients: the seeds give up
        work = numeric._primitive(numeric._integer_scale(poly.coeffs)[0])
        assert numeric._seeded(work, lo, hi) is None
    if repeated:
        with pytest.raises(DegenerateInput):
            root_enclosures(poly, lo, hi)
        with descartes_only, pytest.raises(DegenerateInput):
            root_enclosures(poly, lo, hi)
        return
    # sympy isolates the roots of poly over (t - huge), whose coefficients
    # stay short; the root huge is counted apart
    x = sympy.Symbol("x")
    exact = sympy.Poly([_sym(c) for c in reversed(poly.coeffs)], x)
    if huge is not None:
        exact = exact.quo(sympy.Poly(x - _sym(huge), x))

    def count(a, b):
        """Roots of poly in the closed interval [a, b]."""
        return exact.count_roots(_sym(a), _sym(b)) + (huge is not None and a <= huge <= b)

    inside = [r for r in planted if lo <= r <= hi]
    fine = F(1, 2 ** 200)  # snaps every rational root of denominator below 2^100
    for path in (contextlib.nullcontext(), descartes_only):
        with path:
            enclosures = root_enclosures(poly, lo, hi)
            roots = real_roots(poly, lo, hi)
            snapped = real_roots(poly, lo, hi, precision=fine)
        assert len(enclosures) == len(roots) == count(lo, hi)
        # every open enclosure holds exactly one root; a settled one is a root
        for e in enclosures:
            if e.root is not None:
                assert lo <= e.root <= hi and poly(e.root) == 0
            else:
                a, b = F(e.lo, e.den), F(e.hi, e.den)
                assert count(a, b) - (poly(a) == 0) - (poly(b) == 0) == 1
        # the exact roots are the planted ones, in ascending order
        assert snapped == sorted(snapped)
        assert [r for r in snapped if poly(r) == 0 and r != huge] == inside
        # real_roots is an exact root or within width/2 of one root it does
        # not return exact (huge may lie 2^-1100 from a planted root)
        width = root_precision()
        assert roots == sorted(roots)
        for r in roots:
            if poly(r) != 0:
                near = [x for x in roots if poly(x) == 0 and abs(x - r) <= width / 2]
                assert count(r - width / 2, r + width / 2) - len(near) == 1


@st.composite
def longer_denominator_roots(draw):
    """A rational in [-8, 8] in lowest terms over 2^e or 3^e, above 2^20."""
    base, e = draw(st.sampled_from([(2, st.integers(21, 40)), (3, st.integers(14, 25))]))
    den = base ** draw(e)
    k = draw(st.integers(-8 * den // base, 8 * den // base - 1))
    return F(base * k + 1, den)


@given(longer_denominator_roots(), st.integers(0, 31))
def test_a_descartes_enclosure_settles_its_one_candidate(root, bits):
    # a rational root whose denominator is too long for the simplest-rational
    # snap at this width: refined to w with w |lead| < 2^32, its Descartes
    # enclosure tests the one candidate k/|lead| and settles the root
    poly = Polynomial([-2, 0, 1]).mul_linear(-root, 1)
    work = numeric._primitive(numeric._integer_scale(poly.coeffs)[0])
    width = F(2 ** bits, abs(work[-1]))
    assert root.denominator ** 2 * width >= 1
    bound = principal._cauchy_bound(work)
    assert root in [e.refine(width) for e in numeric._descartes_isolate(work, -bound, bound)]


UNIT_EXTREME = st.builds(lambda m, e: F(m, 16) / F(2) ** e,
                         st.integers(1, 15), st.integers(0, 36))


@st.composite
def planted_singular_windows(draw):
    """A 1-3 atom measure with atoms in [2^-40, 2^40] on the ray, or in
    [2^-40, 1] on (0, 1], seen through a window of length >= 2K + 1."""
    half_open = draw(st.booleans())
    if half_open:
        atom = st.one_of(st.just(F(1)), UNIT_EXTREME)
    else:
        atom = st.builds(lambda m, e: F(m) * F(2) ** e,
                         st.integers(1, 15), st.integers(-40, 36))
    atoms = sorted(draw(st.sets(atom, min_size=1, max_size=3)))
    masses = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
                           min_size=len(atoms), max_size=len(atoms)))
    n = draw(st.integers(2 * len(atoms), 2 * len(atoms) + 3))
    cut = F(1, 2 ** draw(st.integers(1, 60)))
    return (HalfOpen() if half_open else Ray()), AtomicMeasure(list(zip(atoms, masses))), n, cut


@given(planted_singular_windows())
def test_planted_singular_windows_classify_exactly(problem):
    domain, mu, n, cut = problem
    window = list(moments(mu, 0, n).values)
    at_one = isinstance(domain, HalfOpen) and mu.max_atom() == 1
    assert classify(window, domain).kind is PositivityClass.SINGULARLY_POSITIVE
    assert index(window, domain) == mu.support_size - F(int(at_one), 2)
    inf = reciprocal_inf_half_open if isinstance(domain, HalfOpen) else reciprocal_inf_ray
    assert inf(window) == mu.moment(-1)
    # the top even moment sits in the corner of the singular Hankel form,
    # whose kernel has a nonzero last entry: lowering it breaks positivity
    top = n - n % 2
    window[top] -= window[top] * cut
    assert classify(window, domain).kind is PositivityClass.NOT_POSITIVE


@st.composite
def planted_rational_measures(draw):
    """(domain, measure): 1-4 rational atoms in [2^-40, 2^40] on the ray,
    or their images in [2^-40, 1) on (0, 1], with rational masses."""
    half_open = draw(st.booleans())
    atom = RATIONAL_ATOM
    if half_open:
        atom = st.builds(lambda x: x if x < 1 else 1 / (4 * x), RATIONAL_ATOM)
    atoms = sorted(draw(st.sets(atom, min_size=1, max_size=4)))
    masses = draw(st.lists(POSITIVE, min_size=len(atoms), max_size=len(atoms)))
    return (HalfOpen() if half_open else Ray()), AtomicMeasure(list(zip(atoms, masses)))


@given(planted_rational_measures())
def test_planted_rational_atoms_round_trip_exactly(problem):
    domain, mu = problem
    k = mu.support_size

    def same(measure):
        return measure.exact and measure.atoms == mu.atoms

    # singular: the 2K + 1 moments determine mu
    assert same(recover_minimal_measure(list(moments(mu, 0, 2 * k).values), domain))
    # strict: the 2K moments have mu as their minimal measure, the measure
    # of the backward extension at its threshold s_(-1)
    window = list(moments(mu, 0, 2 * k - 1).values)
    minimal = minimal_measure_half_open if isinstance(domain, HalfOpen) else minimal_measure_ray
    assert same(minimal(window))
    verdict = classify_backward(window, mu.moment(-1), domain)
    assert verdict.kind is ExtensionClass.SINGULAR and same(verdict.measure)
    if isinstance(domain, HalfOpen):
        # the partial sums 1, 1 + s_0, ... are completely alternating, with
        # mu on (0, 1] and no mass at 0
        partial = [F(1)]
        for v in window:
            partial.append(partial[-1] + v)
        ca = has_ca_extension(partial)
        assert ca.has_extension and ca.measure.zero_mass == 0 and same(ca.measure.positive)


@st.composite
def planted_compact_windows(draw):
    """1-3 atoms on [a, b], some of them at a or b; a = 0 (with b = 1, the
    increment domain of completely alternating sequences) a quarter of the
    time."""
    if draw(st.integers(0, 3)) == 0:
        a, b = F(0), F(1)
    else:
        a = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
        b = a + draw(st.fractions(min_value=F(1, 7), max_value=30, max_denominator=7))
    inside = st.builds(lambda u: a + (b - a) * u,
                       st.fractions(min_value=F(1, 16), max_value=F(15, 16),
                                    max_denominator=16))
    atoms = sorted(draw(st.sets(st.one_of(st.sampled_from([a, b]), inside),
                                min_size=1, max_size=3)))
    masses = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
                           min_size=len(atoms), max_size=len(atoms)))
    return a, b, list(zip(atoms, masses))


@given(planted_compact_windows())
def test_planted_compact_windows_recover_exactly(problem):
    a, b, pairs = problem
    ends = sum(1 for x, _ in pairs if x in (a, b))
    planted_index = len(pairs) - F(ends, 2)
    first = int(2 * planted_index)  # the shortest window with index < (n+1)/2
    for n in range(first, 2 * len(pairs) + 4):
        window = [sum(m * x ** k for x, m in pairs) for k in range(n + 1)]
        assert classify_compact(window, a, b).kind is PositivityClass.SINGULARLY_POSITIVE
        if a > 0:
            assert index(window, Compact(a, b)) == planted_index
            mu = recover_minimal_measure(window, Compact(a, b))
            assert mu.exact and mu.atoms == tuple(pairs)
            continue
        assert recover_support_and_masses(window, a, b) == (pairs, True)
        c = [F(1)]
        for v in window:
            c.append(c[-1] + v)
        verdict = has_ca_extension(c)
        assert verdict.increment_class is PositivityClass.SINGULARLY_POSITIVE
        got = verdict.measure
        assert got.zero_mass == sum(m for x, m in pairs if x == 0)
        assert got.positive.exact and got.positive.atoms == tuple(p for p in pairs if p[0])


@st.composite
def planted_strict_windows(draw):
    """A 1-3 atom measure on the ray (atoms in [1/8, 24]) or inside (0, 1),
    seen through a strictly positive window of length 1..2K, and a step h."""
    half_open = draw(st.booleans())
    if half_open:
        atom = st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16)
    else:
        atom = st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8)
    atoms = sorted(draw(st.sets(atom, min_size=1, max_size=3)))
    masses = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
                           min_size=len(atoms), max_size=len(atoms)))
    mu = AtomicMeasure(list(zip(atoms, masses)))
    n = draw(st.integers(0, 2 * len(atoms) - 1))
    step = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    return (HalfOpen() if half_open else Ray()), list(moments(mu, 0, n).values), step


@given(planted_strict_windows())
def test_next_level_value_is_convex_quadratic_in_prepended_value(problem):
    """The completion search splits a level from this: the threshold of
    (x,) + window (its slot free) and the forced value of its first 2K
    entries (its slot forced) are exact convex quadratics in x above the
    threshold of the window -- third differences 0, second differences > 0."""
    domain, window, step = problem
    inf = reciprocal_inf_half_open if isinstance(domain, HalfOpen) else reciprocal_inf_ray
    theta = inf(window)
    xs = [theta + j * step for j in range(1, 5)]
    curves = [[inf((x,) + tuple(window)) for x in xs]]
    lengths = range(2, len(window) + 2, 2 if isinstance(domain, Ray) else 1)
    curves += [[forced_value(((x,) + tuple(window))[:two_k], domain) for x in xs]
               for two_k in lengths]
    for q in curves:
        second = [q[j + 2] - 2 * q[j + 1] + q[j] for j in range(2)]
        assert second[0] > 0 and second[1] == second[0]


@st.composite
def planted_extreme_strict_windows(draw):
    """A 1-4 atom measure on the ray or inside (0, 1), some atoms at the
    extremes of [2^-40, 2^40], seen through a strictly positive window of
    either parity (length 1..2K)."""
    half_open = draw(st.booleans())
    if half_open:
        atom = st.one_of(st.fractions(min_value=F(1, 16), max_value=F(15, 16),
                                      max_denominator=16), UNIT_EXTREME)
    else:
        atom = st.one_of(st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8),
                         EXTREME)
    atoms = sorted(draw(st.sets(atom, min_size=1, max_size=4)))
    masses = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
                           min_size=len(atoms), max_size=len(atoms)))
    n = draw(st.integers(0, 2 * len(atoms) - 1))
    mu = AtomicMeasure(list(zip(atoms, masses)))
    return (HalfOpen() if half_open else Ray()), tuple(moments(mu, 0, n).values)


@given(planted_extreme_strict_windows())
def test_schur_threshold_is_the_minimal_measures_reciprocal_value(problem):
    """The Schur complement of the slot's corner equals -P(0)/Q(0) of the
    atom polynomial of the minimal measure -- of the prefix without the top
    moment for an odd-length window on the ray, 0 for a single moment
    there."""
    domain, window = problem
    values = window[:-1] if isinstance(domain, Ray) and len(window) % 2 == 1 else window
    want = (reciprocal_value_from_poly(atom_polynomial(values, domain), values)
            if values else 0)
    assert _schur_threshold(_Window.of(window), domain) == want


@given(planted_extreme_strict_windows(), st.fractions(min_value=F(1, 9), max_value=9,
                                                      max_denominator=9))
def test_level_quadratic_matches_three_exact_samples(problem, step):
    """The coefficients one pass gives equal the quadratic through three
    exact samples, above the window's threshold, of the next threshold and
    of each forced value."""
    domain, window = problem
    inf = reciprocal_inf_half_open if isinstance(domain, HalfOpen) else reciprocal_inf_ray
    theta = inf(window)
    xs = [theta + j * step for j in (1, 2, 3)]
    lengths = range(2, len(window) + 2, 2 if isinstance(domain, Ray) else 1)
    cases = [(window, [inf((x,) + window) for x in xs])]
    cases += [(window[:two_k - 1], [forced_value(((x,) + window)[:two_k], domain) for x in xs])
              for two_k in lengths]
    for rest, samples in cases:
        a, b, c = _LevelValues(domain).quadratic(_Window.of(rest), theta)
        assert [(a * x + b) * x + c for x in (step, 2 * step, 3 * step)] == samples


# --------------------------------------------------------------------------
# the admissible atom counts of a given branch window
# --------------------------------------------------------------------------

def _admissible(rule, domain, given):
    """The 2K in 1..top + 3 (even on the ray) that `rule` admits for the
    given window, or the type and message of the error it raises."""
    step = 2 if isinstance(domain, Ray) else 1
    candidates = range(step, len(given) + 3, step)
    try:
        # the one verdict is read on the image of the given window, which
        # refuses what the domain's classify refuses
        return rule(domain, _limit_window(given) if rule is _admissible_two_ks else tuple(given),
                    candidates)
    except MomentKitError as exc:
        return type(exc), str(exc)


def _per_two_k(domain, given, candidates):
    """The reference: one `_branch_k_compatible` check per 2K."""
    return [two_k for two_k in candidates if _branch_k_compatible(domain, given, two_k - 1)]


@pytest.mark.parametrize("domain", [Ray(), HalfOpen()])
def test_one_verdict_admits_what_every_per_two_k_check_admits_on_small_windows(domain):
    for n in range(1, 6):
        for given in itertools.product(range(1, 5), repeat=n):
            given = tuple(F(v) for v in given)
            assert _admissible(_admissible_two_ks, domain, given) == \
                _admissible(_per_two_k, domain, given), given


@st.composite
def planted_given_windows(draw):
    """1-9 moments of a planted 1-4-atom measure on the ray (atoms in
    [1/8, 24]) or on (0, 1] (atom 1 allowed), 30 % of them with one entry
    moved by +-1/7."""
    half_open = draw(st.booleans())
    if half_open:
        atom = st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16)
    else:
        atom = st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8)
    atoms = draw(st.sets(atom, min_size=1, max_size=4))
    masses = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
                           min_size=len(atoms), max_size=len(atoms)))
    window = list(moments(AtomicMeasure(list(zip(sorted(atoms), masses))), 0,
                          draw(st.integers(0, 8))).values)
    if draw(st.integers(0, 9)) < 3:
        window[draw(st.integers(0, len(window) - 1))] += draw(st.sampled_from((F(1, 7),
                                                                               F(-1, 7))))
    return (HalfOpen() if half_open else Ray()), tuple(window)


@given(planted_given_windows())
def test_one_verdict_admits_what_every_per_two_k_check_admits_on_planted_windows(problem):
    """A strict window admits every 2K >= top + 1, a singular one twice its
    index when its own check passes, one that is not positive none: the
    same lists, and the same errors, as one check per 2K."""
    domain, given = problem
    assert _admissible(_admissible_two_ks, domain, given) == _admissible(_per_two_k, domain, given)


# --------------------------------------------------------------------------
# the integer Vandermonde solve and the support polynomial of the minor pass
# --------------------------------------------------------------------------

def _solves_the_moments(masses, atoms, window) -> bool:
    """sum_j m_j x_j^k = s_k for k < c, exactly: for distinct nodes the
    one solution of the Vandermonde system."""
    return all(sum(m * x ** k for m, x in zip(masses, atoms)) == window[k]
               for k in range(len(atoms)))


#: the midpoint of a width-2^-40 enclosure around a rational of small
#: denominator, as refined roots come back
MIDPOINT = st.builds(lambda c, j: c + F(2 * j + 1, c.denominator * 2 ** 41),
                     st.fractions(min_value=-4, max_value=4, max_denominator=16),
                     st.integers(-4, 3))


@given(st.sets(st.one_of(st.just(F(0)), SMALL, EXTREME, MIDPOINT), min_size=1, max_size=8),
       st.data())
def test_vandermonde_masses_match_the_general_solve(atoms, data):
    atoms = sorted(atoms)
    window = data.draw(st.lists(SMALL, min_size=len(atoms), max_size=len(atoms) + 2))
    assert _solves_the_moments(vandermonde_masses(atoms, window), atoms, window)


#: the midpoint of a width-2^-101 enclosure: a denominator of 100 bits or more
LONG_MIDPOINT = st.builds(lambda c, j: c + F(2 * j + 1, c.denominator * 2 ** 102),
                          st.one_of(EXTREME, POSITIVE), st.integers(-4, 3))
FLOAT_NODE = st.floats(min_value=2.0 ** -40, max_value=2.0 ** 40)


@given(st.one_of(st.sets(st.one_of(EXTREME, LONG_MIDPOINT), min_size=1, max_size=8),
                 st.sets(FLOAT_NODE, min_size=1, max_size=6)),
       st.data())
def test_lagrange_masses_match_the_dense_solve(atoms, data):
    """The Lagrange form on one integer image solves the Vandermonde system
    exactly, for nodes at the extremes of [2^-40, 2^40], enclosure midpoints
    with denominators of 100 bits or more, and floats: float input gets the
    solution of its binary-exact image, rounded once."""
    atoms = sorted(atoms)
    window = data.draw(st.lists(st.one_of(SMALL, st.floats(-9, 9)),
                                min_size=len(atoms), max_size=len(atoms) + 2))
    exact_atoms = [as_fraction(x) for x in atoms]
    exact_window = [as_fraction(v) for v in window]
    want = vandermonde_masses(exact_atoms, exact_window)
    assert _solves_the_moments(want, exact_atoms, exact_window)
    if any(isinstance(v, float) for v in atoms + window[:len(atoms)]):
        want = [_to_float(v) for v in want]
    assert vandermonde_masses(atoms, window) == want


def test_lagrange_masses_refuse_coinciding_atoms():
    with pytest.raises(DegenerateInput):
        vandermonde_masses([F(1, 3), F(2), F(1, 3)], [1, 2, 3])


def _bordered_layout(entries):
    """det_poly rows of a window of 2m entries: H_m over one more row."""
    m = len(entries) // 2
    return [[entries[i + j] for j in range(m)] for i in range(m + 1)]


@st.composite
def planted_bordered_windows(draw):
    """(a, b, window): a 1-4 atom measure inside [a, b], some atoms at the
    extremes of [2^-40, 2^40], seen through 2m, 2m + 1 or 2m + 2 moments,
    m <= atoms; a window of 2m entries and every transform of an even
    number of entries then has a positive definite leading block."""
    size = draw(st.integers(1, 4))
    atoms = sorted(draw(st.sets(st.one_of(POSITIVE, EXTREME), min_size=size, max_size=size)))
    masses = draw(st.lists(POSITIVE, min_size=size, max_size=size))
    a, b = atoms[0] / 2, 2 * atoms[-1]
    m = draw(st.integers(1, size))
    length = draw(st.sampled_from((2 * m, 2 * m + 1, 2 * m + 2)))
    mu = AtomicMeasure(list(zip(atoms, masses)))
    return a, b, list(moments(mu, 0, length - 1).values)


def _bordered_poly(form, lam, floats):
    """The bordered-Hankel polynomial of a form of a window dilated by lam,
    read from `principal._bordered_ints`: its coefficients, rounded once for
    a float window."""
    ints, num, den = _bordered_ints(form, lam)
    coeffs = [F(x * num, den) for x in ints]
    return Polynomial([_to_float(c) for c in coeffs] if floats else coeffs)


def _even_forms(w, a, b):
    """The transforms of a `_Window` on [a, b] that have an even number of
    entries."""
    if len(w.ints) % 2 == 1:
        return [w.lower(a), w.upper(b)]
    return [w.interior(a, b).hankel()]


@given(planted_bordered_windows())
def test_bordered_polynomials_are_the_bordered_determinants(problem):
    """`bordered_hankel_poly` and `_bordered_ints`, one full-rank minor pass
    and a back substitution, equal `det_poly` of the bordered layout, for
    exact windows and, rounded once, on the binary-exact image of floats."""
    a, b, window = problem
    if len(window) % 2 == 0:
        for values in (window, [float(v) for v in window]):
            # the window of 2m + 2 entries may show more than its atoms
            if classify_form([as_fraction(x) for x in values[:-1]]) is FormClass.POSITIVE_DEFINITE:
                assert bordered_hankel_poly(values) == det_poly(_bordered_layout(values))
    for floats in (False, True):
        values = [float(v) for v in window] if floats else window
        w = _Window.of(values, None, (a, b))
        for form in _even_forms(w, a, b):
            entries = [F(x, form.unit * w.lam ** k) for k, x in enumerate(form.ints)]
            if classify_form(entries[:-1]) is not FormClass.POSITIVE_DEFINITE:
                assert floats  # rounding may leave the float image singular
                continue
            want = det_poly(_bordered_layout(entries))
            if floats:
                want = Polynomial([_to_float(c) for c in want.coeffs])
            assert _bordered_poly(form, w.lam, floats) == want


def _form_and_factor(where, s):
    """The entries of the form whose bordered determinant the atom
    polynomial of `where` (see `principal._atom_ints`) reads from the window
    s, and the coefficients of its end factor, () for none."""
    n = len(s) - 1
    if not isinstance(where, tuple):  # minimal on the ray (odd n) or on (0, 1]
        return (s, ()) if n % 2 else ([s[k] - s[k + 1] for k in range(n)], (1, -1))
    a, b, kind = where
    if n % 2:
        return (s, ()) if kind is PrincipalKind.LOWER else (
            [(a + b) * s[k + 1] - a * b * s[k] - s[k + 2] for k in range(n - 1)],
            (-a * b, a + b, -1))
    if kind is PrincipalKind.LOWER:
        return [s[k + 1] - a * s[k] for k in range(n)], (-a, 1)
    return [b * s[k] - s[k + 1] for k in range(n)], (b, -1)


@given(planted_bordered_windows())
def test_every_atom_polynomial_is_a_bordered_determinant_times_its_end_factor(problem):
    """`_atom_ints`, the one function that builds the atom polynomials of
    the minimal measures on the ray and on (0, 1] (both parities) and of the
    lower and upper principal measures on [a, b] (both parities), is
    `det_poly` of the bordered layout of its form times the end factor,
    exactly, the factor multiplied in on integers: on an exact window, and
    on the binary-exact image of a float one, whose views round it once.
    On (0, 1] the window is that of the measure carried into (0, 1/4] by
    t -> t / 2b."""
    a, b, window = problem
    half = [x / (2 * b) ** k for k, x in enumerate(window)]
    cases = [(HalfOpen(), half), ((a, b, PrincipalKind.LOWER), window),
             ((a, b, PrincipalKind.UPPER), window)]
    cases += [(Ray(), window)] if len(window) % 2 == 0 else []
    for (where, values), floats in itertools.product(cases, (False, True)):
        data = [float(v) for v in values] if floats else values
        form, factor = _form_and_factor(where, [as_fraction(v) for v in data])
        w = _Window.of(data)
        if classify_form(form[:-1]) is not FormClass.POSITIVE_DEFINITE:
            # H(s) of 2m + 2 entries may show more than the atoms, and
            # rounding may leave a float image singular
            with pytest.raises(DegenerateInput):
                _atom_ints(w, where)
            continue
        want = det_poly(_bordered_layout(form))
        if factor:
            want = want.mul(Polynomial(factor))
        ints, num, den = _atom_ints(w, where)
        assert Polynomial([F(x * num, den) for x in ints]) == want
        if floats:
            want = Polynomial([_to_float(c) for c in want.coeffs])
        view = (principal_polynomial(data, *where) if isinstance(where, tuple)
                else atom_polynomial(data, where))
        assert view == want


@given(planted_bordered_windows())
def test_dilated_image_is_the_window_of_the_dilated_measure(problem):
    """`_dilated_scale` gives the exact image of lam^k s_k over its least
    common denominator, keeps lam > 1 only on a window of 8 entries or more
    whose integers it shrinks in product (unit^2 > unit_lam^2 lam^n), and
    strips the powers of an atom's denominator."""
    _, _, window = problem
    ints, unit, lam = _dilated_scale(window)
    assert [F(x, unit * lam ** k) for k, x in enumerate(ints)] == window
    assert math.gcd(unit, *ints) == 1
    plain, plain_unit = _integer_scale(window)
    if lam == 1:
        assert (ints, unit) == (plain, plain_unit)
    else:
        assert len(window) >= 8 and unit ** 2 * lam ** (len(window) - 1) < plain_unit ** 2
    single = [F(2, 7) ** k for k in range(8)]
    assert _dilated_scale(single) == ([2 ** k for k in range(8)], 1, 7)
    assert _dilated_scale(single[:7]) == (*_integer_scale(single[:7]), 1)
    # lam = 3 would make the integers longer: 1, 3, ..., 3^6, 3^6 over 1
    assert _dilated_scale([1] * 7 + [F(1, 3)]) == ([3] * 7 + [1], 3, 1)
    # the one lam of a window: its 7-entry prefix and its float image keep 1
    assert _Window.of(single).lam == 7 and _Window.of(single[:7]).lam == 1
    assert _Window.of([float(v) for v in single]).lam == 1


@given(st.integers(1, 4), st.data(), st.booleans())
def test_bordered_polynomials_refuse_a_vanishing_leading_minor(m, data, floats):
    """A window of 2m entries of a measure with fewer than m atoms has
    det H_m = 0: both constructions raise, where `det_poly` gives a
    polynomial of lower degree.  Float windows take dyadic atoms and masses,
    whose moments are floats exactly.  An indefinite leading block is
    refused too."""
    dyadic = st.sampled_from([F(2) ** e for e in range(-3, 4)])
    atom, mass = (dyadic, dyadic) if floats else (st.one_of(POSITIVE, EXTREME), POSITIVE)
    atoms = data.draw(st.sets(atom, max_size=m - 1))
    masses = data.draw(st.lists(mass, min_size=len(atoms), max_size=len(atoms)))
    window = [sum((w * x ** k for x, w in zip(atoms, masses)), F(0)) for k in range(2 * m)]
    if floats:
        window = [float(v) for v in window]
    assert det_poly(_bordered_layout(window)).degree < m
    with pytest.raises(DegenerateInput):
        bordered_hankel_poly(window)
    w = _Window.of(window)
    with pytest.raises(DegenerateInput):
        _bordered_ints(w.hankel(), w.lam)
    with pytest.raises(DegenerateInput):
        bordered_hankel_poly([1, 2, 1, 5])


@st.composite
def planted_support_windows(draw):
    """0-4 atoms in the ray, (0, 1] or [a, b] (endpoints included), seen
    through a window of either parity that shows their whole rank."""
    kind = draw(st.sampled_from(("ray", "half-open", "compact")))
    if kind == "ray":
        domain, atom = Ray(), st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8)
    elif kind == "half-open":
        domain, atom = HalfOpen(), st.one_of(
            st.just(F(1)), st.fractions(min_value=F(1, 16), max_value=F(15, 16),
                                        max_denominator=16))
    else:
        a = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
        b = a + draw(st.fractions(min_value=F(1, 7), max_value=30, max_denominator=7))
        domain, atom = Compact(a, b), st.one_of(
            st.sampled_from([a, b]),
            st.builds(lambda u: a + (b - a) * u,
                      st.fractions(min_value=F(1, 16), max_value=F(15, 16),
                                   max_denominator=16)))
    size = draw(st.integers(0, 4))
    atoms = sorted(draw(st.sets(atom, min_size=size, max_size=size)))
    masses = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
                           min_size=size, max_size=size))
    n = draw(st.integers(max(2 * size - 1, 0), 2 * size + 3))
    window = [sum((m * x ** k for x, m in zip(atoms, masses)), F(0)) for k in range(n + 1)]
    return domain, size, window


def _det_times(window, monic):
    """`monic` times det H_r of the window's binary-exact image, r its
    degree (`numeric.det`): the bordered-Hankel polynomial of s_0..s_(2r-1)
    when `monic` is their support polynomial."""
    r = monic.degree
    det_h = det([[as_fraction(window[i + j]) for j in range(r)] for i in range(r)])
    return Polynomial([c * det_h for c in monic.coeffs])


def _monic_bordered(window, r):
    if r == 0:
        return Polynomial([1])
    p = bordered_hankel_poly(window[:2 * r])
    return Polynomial([c / p.coeffs[-1] for c in p.coeffs])


@given(planted_support_windows())
def test_support_poly_of_the_minor_pass_is_the_monic_bordered_polynomial(problem):
    domain, rank, window = problem
    ends = _ends(domain)
    assert _support_poly(_Window.of(window), ends) == _monic_bordered(window, rank)
    # the float image: both read from the same binary-exact moments
    image, float_ends = [float(v) for v in window], tuple(float(e) for e in ends)
    got = _support_poly(_Window.of(image, None, float_ends), float_ends)
    if got is not None:
        want = _monic_bordered(image, got.degree)
        assert len(got.coeffs) == len(want.coeffs)
        for x, y in zip(got.coeffs, want.coeffs):
            assert abs(x - y) <= 1e-12 * abs(y)


@given(st.lists(st.tuples(st.fractions(min_value=F(1, 8), max_value=24, max_denominator=8),
                         POSITIVE), min_size=1, max_size=5, unique_by=lambda atom: atom[0]),
       st.integers(1, 4))
def test_strict_odd_ray_window_reads_its_bordered_polynomial_from_the_pass(atoms, m):
    """The bordered-Hankel polynomial of a strict window s_0..s_(2m-1) on
    the ray is the full-rank monic support polynomial times det H_m; float
    windows round the same exact coefficients: the unrounded ones of the
    integers `_support_ints` keeps."""
    m = min(m, len(atoms))
    window = [sum((x_m * x ** k for x, x_m in atoms), F(0)) for k in range(2 * m)]
    w = _Window.of(window)
    assert _classify_limit(w, Ray()).is_strict
    assert bordered_hankel_poly(window) == _det_times(window, _support_poly(w))
    image = [float(v) for v in window]
    ints = _support_ints(_Window.of(image))
    monic = Polynomial([F(x, ints[-1]) for x in ints]) if ints else None
    if monic is not None and monic.degree == m:
        want = _det_times(image, monic)
        assert bordered_hankel_poly(image) == Polynomial([_to_float(c) for c in want.coeffs])


@given(planted_support_windows(), st.data())
def test_a_window_off_by_one_over_den_fails_its_moment_check(problem, data):
    domain, rank, window = problem
    if rank == 0:
        return
    poly = _support_poly(_Window.of(window), _ends(domain))
    lo, hi = (domain.a, domain.b) if isinstance(domain, Compact) else (
        F(0), F(1) if isinstance(domain, HalfOpen) else root_bound(poly))
    pairs, exact = atoms_from_poly(poly, window, lo, hi)
    assert exact and len(pairs) == rank
    k = data.draw(st.integers(rank, len(window) - 1))
    den = data.draw(st.integers(1, 10 ** 12))
    window[k] += data.draw(st.sampled_from((1, -1))) * F(1, den)
    with pytest.raises(DegenerateInput, match="principal measure fails its moment window"):
        atoms_from_poly(poly, window, lo, hi)


@st.composite
def planted_singular_measures(draw):
    """(domain, window): 1-4 atoms on the ray (in [2^-36, 2^40]), on (0, 1]
    (their images x / (1 + x), and the atom 1) or on [a, b] (the ends
    too), two of them a third of the time the irrational conjugate pair of
    mass 1/2 each at the roots of t^2 - 3t + 1, resp. of u^2 - u + 1/5 in
    (0, 1] mapped onto [a, b], seen through a singular window of 2K + 1 to
    2K + 3 moments."""
    kind = draw(st.sampled_from(("ray", "half-open", "compact")))
    if kind == "ray":
        domain, atom, pair = Ray(), RATIONAL_ATOM, (F(3), F(1))
    elif kind == "half-open":
        domain, pair = HalfOpen(), (F(1), F(1, 5))
        atom = st.one_of(st.just(F(1)), RATIONAL_ATOM.map(lambda x: x / (1 + x)))
    else:
        a = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
        d = draw(st.fractions(min_value=F(1, 7), max_value=30, max_denominator=7))
        domain, pair = Compact(a, a + d), (2 * a + d, a * a + a * d + d * d / 5)
        atom = st.one_of(st.sampled_from([a, a + d]),
                         RATIONAL_ATOM.map(lambda x: a + d * x / (1 + x)))
    paired = draw(st.integers(0, 2)) == 0
    size = draw(st.integers(1, 2 if paired else 4))
    atoms = sorted(draw(st.sets(atom, min_size=size, max_size=size)))
    masses = draw(st.lists(POSITIVE, min_size=size, max_size=size))
    k = size + 2 * paired
    n = draw(st.integers(2 * k, 2 * k + 2))
    window = [sum((m * x ** j for x, m in zip(atoms, masses)), F(0)) for j in range(n + 1)]
    if paired:  # the pair's power sums, by its recurrence
        (s, p), sums = pair, [F(2), pair[0]]
        while len(sums) <= n:
            sums.append(s * sums[-1] - p * sums[-2])
        window = [v + sums[j] / 2 for j, v in enumerate(window)]
    return domain, window


def _float_reading(ints, w, lo, hi):
    """The (position, mass) pairs of the roots in [lo, hi] (hi None for the
    Cauchy bound) of an integer polynomial kept on the float window w, read
    as the float contract reads them, but with each root enclosed to
    2^-200 and the masses solved at those roots from the window's
    binary-exact moments (`vandermonde_masses`): each root clamped to
    [lo, hi] and rounded once, each mass rounded once.  DegenerateInput
    when the roots fall short of the degree."""
    lo = as_fraction(lo)
    hi = principal._cauchy_bound(ints) if hi is None else as_fraction(hi)
    enclosures = numeric._isolate(ints, *numeric._widened(lo, hi))
    if len(enclosures) < len(ints) - 1:
        raise DegenerateInput("fewer roots than the degree")
    roots = [e.refine(F(1, 2 ** 200)) for e in enclosures]
    masses = vandermonde_masses(roots, [as_fraction(v) for v in w.values])
    return [(_to_float(min(max(x, lo), hi)), _to_float(m)) for x, m in zip(roots, masses)]


def _within(got, want, rel=1e-12) -> bool:
    """Pairs of floats within `rel` relative of `want`'s, entry by entry."""
    return len(got) == len(want) and all(
        isinstance(x, float) and abs(x - y) <= rel * abs(y)
        for pair, ref in zip(got, want) for x, y in zip(pair, ref))


def _reads_as(op, reading) -> bool:
    """The pairs `op()` returns are `_within` those of `reading()`, or both
    raise DegenerateInput."""
    try:
        want = reading()
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            op()
        return True
    return _within(op(), want)


@given(planted_singular_measures(), st.booleans())
def test_singular_measures_and_indices_read_on_the_support_integers(problem, floats):
    """The measure and index of a singular window, read on the integers of
    its support polynomial (`positivity._support_ints`).  On an exact window
    they are those read from the polynomial its verdict carries: the
    measure of `measure_from_poly` on the domain (`atoms_from_poly` for
    `recover_support_and_masses`) and the degree less 1/2 for each end that
    is a root.  On its float image, with float ends on [a, b], the measure
    is the integers read at 2^-200 and rounded (`_float_reading`), and an
    end counts where the unrounded monic polynomial reads as zero with the
    pass's tolerance, |p(x)| <= eps max(1, sum |c_j x^j|)."""
    domain, window = problem
    if floats:
        window = [float(v) for v in window]
        if isinstance(domain, Compact):
            domain = Compact(float(domain.a), float(domain.b))
    verdict = classify(window, domain)
    if verdict.kind is not PositivityClass.SINGULARLY_POSITIVE:
        assert floats
        return
    support, ends = verdict.support, _ends(domain)
    if isinstance(domain, Compact):
        lo, hi = domain.a, domain.b
    else:
        lo, hi = F(0), F(1) if isinstance(domain, HalfOpen) else root_bound(support)
    if floats:
        w = _Window.of(window, None, ends)
        ints = _support_ints(w, ends)

        def want():
            return _float_reading(ints, w, lo, None if isinstance(domain, Ray) else hi)
        assert _reads_as(lambda: recover_minimal_measure(window, domain).atoms, want)
        if isinstance(domain, Compact):
            assert _reads_as(lambda: recover_support_and_masses(window, lo, hi)[0], want)
        monic = [F(x, ints[-1]) for x in ints]
        on_ends = sum(abs(sum(c * as_fraction(x) ** j for j, c in enumerate(monic)))
                      <= as_fraction(numeric.DEFAULT_EPS) * max(
                          1, sum(abs(c * as_fraction(x) ** j) for j, c in enumerate(monic)))
                      for x in ends)
    else:
        if isinstance(domain, Compact):
            assert (_outcome(recover_support_and_masses, window, lo, hi)
                    == _outcome(atoms_from_poly, support, window, lo, hi))
        got = _outcome(recover_minimal_measure, window, domain)
        want = _outcome(measure_from_poly, support, window, lo, hi)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.atoms == want.atoms and got.exact is want.exact
        on_ends = sum(support(x) == 0 for x in ends)
    idx = support.degree - F(on_ends, 2)
    assert index(window, domain) == idx and (not isinstance(domain, Ray) or idx.denominator == 1)


@st.composite
def planted_float_windows(draw):
    """(domain, window): the float image of the window of 1-4 atoms on the
    ray, on (0, 1] (the atom 1 too) or on [a, b] (both ends too, float ends),
    seen through K to 2K + 3 moments: strict or singular."""
    domain, size, window = draw(planted_support_windows().filter(lambda p: p[1] > 0))
    n = draw(st.integers(size - 1, len(window) - 1))
    if isinstance(domain, Compact):
        domain = Compact(float(domain.a), float(domain.b))
    return domain, [float(v) for v in window[:n + 1]]


def _float_cases(domain, window):
    """(operation, reading) pairs of a float window: each returns (position,
    mass) pairs, the operation's and `_float_reading`'s of the integers it
    reads (`_atom_ints`, `_support_ints`)."""
    verdict = classify(window, domain)
    if not verdict.is_positive:
        return []
    ends = _ends(domain)
    if isinstance(domain, Compact):
        a, b = domain.a, domain.b
        w = _Window.of(window, None, ends)
        if verdict.is_strict:
            return [(lambda kind=kind: principal_compact(window, a, b, kind).atoms,
                     lambda kind=kind: _float_reading(_atom_ints(w, (a, b, kind))[0], w, a, b))
                    for kind in PrincipalKind]
        want = lambda: _float_reading(_support_ints(w, ends), w, a, b)  # noqa: E731
        return [(lambda: recover_minimal_measure(window, domain).atoms, want),
                (lambda: recover_support_and_masses(window, a, b)[0], want)]
    w, hi = _Window.of(window), F(1) if isinstance(domain, HalfOpen) else None
    if not verdict.is_strict:
        return [(lambda: recover_minimal_measure(window, domain).atoms,
                 lambda: _float_reading(_support_ints(w), w, 0, hi))]
    if isinstance(domain, HalfOpen):
        return [(lambda: minimal_measure_half_open(window).atoms,
                 lambda: _float_reading(_atom_ints(w, domain)[0], w, 0, hi))]
    if len(window) % 2 == 1:  # a MinimalRayFamily
        return []
    return [(lambda: minimal_measure_ray(window).atoms,
             lambda: _float_reading(_atom_ints(w, domain)[0], w, 0, hi))]


def _ca_case(window):
    """`has_ca_extension` of the partial sums 1, 1 + s_0, ... of a window on
    (0, 1], as its mass at zero (the pair (0, mass)) and its atoms on
    (0, 1], and its `_float_reading` on the increments it reads; None when
    those increments are not positive on [0, 1]."""
    c = [1.0]
    for v in window:
        c.append(c[-1] + v)
    deltas = [c[k + 1] - c[k] for k in range(len(window))]
    ends = (F(0), F(1))
    if not classify_compact(deltas, *ends).is_positive:
        return None

    def got():
        # the mass at zero is a float on float input, 0.0 where there is none
        measure = has_ca_extension(c).measure
        assert isinstance(measure.zero_mass, float)
        return [(0.0, measure.zero_mass), *measure.positive.atoms]

    def want():
        if classify_compact(deltas, *ends).is_strict:
            w = _Window.of(deltas)
            return [(0.0, 0.0), *_float_reading(_atom_ints(w, HalfOpen())[0], w, *ends)]
        w = _Window.of(deltas, None, ends)
        ints = _support_ints(w, ends)
        if positivity._reads_root(w, ints, 0):
            ints = [0, *ints[1:]]
        pairs = _float_reading(ints, w, *ends)
        return [(0.0, sum(m for x, m in pairs if x == 0)), *[p for p in pairs if p[0] != 0]]
    return got, want


def _float_image(domain, atoms, n):
    """(domain, window) of the float image of the moments s_0..s_n of the
    (atom, mass) pairs, float ends on [a, b]."""
    if isinstance(domain, Compact):
        domain = Compact(float(domain.a), float(domain.b))
    return domain, [float(sum(m * x ** k for x, m in atoms)) for k in range(n + 1)]


@given(planted_float_windows())
# close atoms on [a, b], one at an end: the masses solved at the rounded
# roots of a rounded polynomial were off by 1.4e-8 and 9.0e-9 relative
@example(_float_image(Compact(F(80, 9), F(632, 63)),
                      [(F(80, 9), F(13, 8)), (F(587, 63), F(55, 8)), (F(596, 63), F(59, 8))], 5))
@example(_float_image(Compact(F(32, 9), F(998, 63)),
                      [(F(643, 72), F(13, 4)), (F(2831, 252), F(63, 8)), (F(7597, 504), F(5, 4)),
                       (F(998, 63), F(21, 4))], 11))
def test_float_measures_are_their_kept_integers_read_exactly_and_rounded(problem):
    """The float contract: the minimal and principal measures of a float
    window (`minimal_measure_ray`, `minimal_measure_half_open`,
    `principal_compact`), its singular measure (`recover_minimal_measure`,
    `recover_support_and_masses`) and the measure of `has_ca_extension` on
    increments are the exact reading of the integers kept on the window's
    binary-exact image, rounded once: each position and mass is within
    1e-12 relative of `_float_reading` of those integers, which encloses
    each root to 2^-200."""
    domain, window = problem
    cases = _float_cases(domain, window)
    if isinstance(domain, HalfOpen):
        cases += [_ca_case(window) or (list, list)]
    for op, reading in cases:
        assert _reads_as(op, reading)


# --------------------------------------------------------------------------
# the integer image of a window against the Fraction transforms
# --------------------------------------------------------------------------

def _reference_transforms(window, a, b) -> tuple:
    """s_(k+1) - a s_k, b s_k - s_(k+1) and (a+b) s_(k+1) - ab s_k - s_(k+2),
    computed in Fractions."""
    n = len(window) - 1
    return ([window[k + 1] - a * window[k] for k in range(n)],
            [b * window[k] - window[k + 1] for k in range(n)],
            [(a + b) * window[k + 1] - a * b * window[k] - window[k + 2] for k in range(n - 1)])


def _reference_support(window, ends):
    """Monic support polynomial from the Fraction forms: the bordered
    polynomial of rank r, r the number of positive leading minors of H(s)
    in the support shape, times (t - a)(t - b) over the interior window when
    r exceeds (n + 1) / 2."""
    n = len(window) - 1
    order, r = n // 2 + 1, 0
    while r < order and det([window[i:i + r + 1] for i in range(r + 1)]) > 0:
        r += 1
    if 2 * r <= n + 1:
        return _monic_bordered(window, r)
    a, b = ends
    inner = _reference_support(_reference_transforms(window, a, b)[2], ())
    return inner.mul(Polynomial([a * b, -(a + b), 1]))


def _reference_kind(forms):
    """The verdict of a pair of Fraction forms, None for one to settle by
    the support polynomial."""
    kinds = [classify_form(f) for f in forms]
    if FormClass.INDEFINITE in kinds:
        return PositivityClass.NOT_POSITIVE
    if kinds == [FormClass.POSITIVE_DEFINITE] * 2:
        return PositivityClass.STRICTLY_POSITIVE
    return None


@st.composite
def transform_windows(draw):
    """A window of a planted 0-4 atom measure, atoms in [a, b] (ends
    included) or anywhere in [-9, 9], one entry moved by +-1/den a third of
    the time, and rational a < b, a <= 0 a third of the time."""
    a = draw(st.one_of(st.fractions(min_value=-4, max_value=0, max_denominator=9),
                       st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
                       st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)))
    b = a + draw(st.fractions(min_value=F(1, 7), max_value=20, max_denominator=7))
    inside = st.builds(lambda u: a + (b - a) * u,
                       st.fractions(min_value=0, max_value=1, max_denominator=16))
    atoms = draw(st.lists(st.tuples(st.one_of(inside, SMALL), POSITIVE), max_size=4))
    # 8 entries or more, part of the time, so that the window is dilated
    n = draw(st.one_of(st.integers(0, 8), st.integers(7, 12)))
    window = [sum((m * x ** k for x, m in atoms), F(0)) for k in range(n + 1)]
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, n))
        window[k] += draw(st.sampled_from((-1, 1))) * F(1, draw(st.integers(1, 9)))
    return window, a, b


@given(transform_windows())
@example(([F(1, 3) ** k + F(2, 5) ** k for k in range(9)], F(1, 4), F(1, 2)))
def test_integer_transforms_are_positive_multiples_of_the_fraction_ones(problem):
    """Entry k of every form is unit * lam^(k + shift) times the Fraction
    reference, shift 0 for H(s), 1 for s_(k+1) - a s_k and b s_k - s_(k+1)
    and 2 for the interior window, whose lam is the window's; the unit of
    each form takes up its lam^shift.  The example is dilated (lam = 15)."""
    window, a, b = problem
    w = _Window.of(window)
    lam = w.lam
    lower, upper, interior = _reference_transforms(window, a, b)
    for form, ref, shift in ((w.hankel(), window, 0), (w.lower(a), lower, 1),
                             (w.upper(b), upper, 1), (w.interior(a, b), interior, 2)):
        assert form.unit > 0 and form.unit % lam ** shift == 0
        unit = form.unit // lam ** shift
        assert form.ints == [unit * lam ** (k + shift) * x for k, x in enumerate(ref)]
    assert w.interior(a, b).lam == lam

    n = len(window) - 1
    forms = (window, interior) if n % 2 == 0 else (lower, upper)
    verdict = classify_compact(window, a, b)
    want = _reference_kind(forms) or PositivityClass.SINGULARLY_POSITIVE
    assert verdict.kind is want
    if want is PositivityClass.SINGULARLY_POSITIVE:
        assert verdict.support == _reference_support(window, (a, b))

    if any(v < 0 for v in window):
        return
    lower, upper, interior = _reference_transforms(window, 0, 1)
    for domain, forms in ((Ray(), (window[:n // 2 * 2 + 1], window[1:(n + 1) // 2 * 2])),
                          (HalfOpen(), (window, interior) if n % 2 == 0 else (lower, upper))):
        verdict = classify(window, domain)
        want = _reference_kind(forms)
        assert verdict.is_strict is (want is PositivityClass.STRICTLY_POSITIVE)
        if want is PositivityClass.NOT_POSITIVE:
            assert verdict.kind is want
        if verdict.kind is PositivityClass.SINGULARLY_POSITIVE:
            assert verdict.support == _reference_support(window, ())


# --------------------------------------------------------------------------
# the dilation of a long window is invisible
# --------------------------------------------------------------------------

#: a rational with a denominator of 20 to 40 bits
LONG_DENOMINATOR = st.builds(F, st.integers(1, 2 ** 40), st.integers(2 ** 20, 2 ** 40))


@st.composite
def planted_long_windows(draw):
    """(domain, window): a planted measure of 4-8 atoms at the extremes of
    [2^-40, 2^40] or with long denominators, seen through 8 to 2K + 1
    entries, one entry moved by +-1/den a third of the time.  On (0, 1] the
    atoms are x / (1 + x), some with the atom 1; on [a, b] the ends are the
    outer atoms or lie beyond them."""
    kind = draw(st.sampled_from(("ray", "half-open", "compact")))
    size = draw(st.integers(4, 8))
    atoms = draw(st.sets(st.one_of(EXTREME, LONG_DENOMINATOR), min_size=size, max_size=size))
    if kind == "half-open":
        atoms = {x / (1 + x) for x in atoms} | ({F(1)} if draw(st.booleans()) else set())
    atoms = sorted(atoms)
    masses = draw(st.lists(POSITIVE, min_size=len(atoms), max_size=len(atoms)))
    n = draw(st.integers(7, 2 * len(atoms)))
    window = [sum((m * x ** k for x, m in zip(atoms, masses)), F(0)) for k in range(n + 1)]
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, n))
        window[k] += draw(st.sampled_from((-1, 1))) * F(1, draw(st.integers(1, 10 ** 12)))
    if kind == "ray":
        return Ray(), window
    if kind == "half-open":
        return HalfOpen(), window
    if draw(st.booleans()):
        return Compact(atoms[0], atoms[-1]), window
    return Compact(atoms[0] / 2, 2 * atoms[-1]), window


def _plain_scale(values):
    return (*_integer_scale(values), 1)


@contextlib.contextmanager
def _undilated():
    """Every window and bordered image built with lam = 1: none of the
    windows `_Window.of` holds is handed out inside, or kept after."""
    positivity._held = ()
    try:
        with mock.patch.object(positivity, "_dilated_scale", _plain_scale):
            yield
    finally:
        positivity._held = ()


def _slot_quadratic(rest, domain):
    return _schur_quadratic(_Window.of((0,) + rest), domain)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MomentKitError as exc:
        return type(exc).__name__, str(exc)


@given(planted_long_windows())
def test_dilation_is_invisible(problem):
    """A window of 8 entries or more, dilated as `_Window.of` decides, gives
    what the lam = 1 window of the plain constructor gives: verdicts,
    support and bordered polynomials, the determinacy test, the Schur
    threshold and level quadratic, atom and principal polynomials and the
    criterion entries.  A 7-entry window and a float window keep lam = 1."""
    domain, window = problem
    w, plain = _Window.of(window), _Window(window, *_integer_scale(window), None, None)
    assert plain.lam == 1
    ends = _ends(domain)
    assert _support_poly(w, ends) == _support_poly(plain, ends)
    if isinstance(domain, Compact):
        a, b = domain.a, domain.b
        if len(window) % 2 == 1:
            assert w.hankel_class() is plain.hankel_class()
            assert w.interior(a, b).hankel_class() is plain.interior(a, b).hankel_class()
        else:
            assert classify_form(w.lower(a)) is classify_form(plain.lower(a))
            assert classify_form(w.upper(b)) is classify_form(plain.upper(b))
        calls = [(classify_compact, window, a, b), (compact_criterion_matrices, window, a, b),
                 (principal_polynomial, window, a, b, PrincipalKind.LOWER),
                 (principal_polynomial, window, a, b, PrincipalKind.UPPER)]
    else:
        assert _classify_limit(w, domain) == _classify_limit(plain, domain)
        assert _determinate_poly(w, domain) == _determinate_poly(plain, domain)
        assert _schur_threshold(w, domain) == _schur_threshold(plain, domain)
        monic = _support_poly(w)
        if monic is not None:  # the bordered polynomial of the leading 2r entries
            r, want = monic.degree, _det_times(window, monic)
            assert _bordered_poly(w.hankel(0, 2 * r), w.lam, False) == want
            assert _bordered_poly(plain.hankel(0, 2 * r), 1, False) == want
        calls = [(classify, window, domain), (_slot_quadratic, tuple(window[1:]), domain),
                 (atom_polynomial, window, domain), (ray_limit_matrices, window)]
    dilated = [_outcome(*call) for call in calls]
    with _undilated():
        assert [_outcome(*call) for call in calls] == dilated
    assert _Window.of(window[:7]).lam == 1
    assert _Window.of([float(v) for v in window]).lam == 1


# --------------------------------------------------------------------------
# moments on the integer image of a measure
# --------------------------------------------------------------------------

ORDERS = range(-8, 17)
MANTISSA = st.fractions(min_value=1, max_value=2, max_denominator=64)
MASS = st.fractions(min_value=F(1, 64), max_value=64, max_denominator=64)


@st.composite
def planted_measures(draw, unit=False):
    """1-4 distinct rational atoms in [2^-40, 2^40] with rational masses;
    with `unit`, atoms in [2^-40, 1) plus the atom 1."""
    exponents = st.integers(-40, -1) if unit else st.integers(-40, 39)
    atoms = draw(st.sets(st.builds(lambda m, e: m * F(2) ** e, MANTISSA, exponents),
                         min_size=1, max_size=4))
    if unit:
        atoms = {x for x in atoms if x < 1} | {F(1)}
    return [(x, draw(MASS)) for x in sorted(atoms)]


def _reference(atoms, k):
    return sum((m * x ** k for x, m in atoms), F(0))


def _recurrence(atoms, first, extra):
    """The moment recurrence of the atoms' polynomial, seeded at `first`
    with `extra` moments beyond its order."""
    poly = Polynomial([1])
    for x, _ in atoms:
        poly = poly.mul(Polynomial([-x, 1]))
    window = [_reference(atoms, first + i) for i in range(len(atoms) + extra)]
    return MomentRecurrence(poly, first, window)


class _Moments:
    """A measure seen through its `moment` method alone."""

    def __init__(self, measure):
        self.moment = measure.moment


def _floats(atoms):
    return AtomicMeasure([(float(x), float(m)) for x, m in atoms])


def _binary_exact(atoms):
    """The float atoms' binary-exact images."""
    return [(F(float(x)), F(float(m))) for x, m in atoms]


@given(planted_measures(), st.integers(-6, 6), st.integers(0, 2),
       st.permutations(list(ORDERS)))
def test_image_moments_match_the_plain_sums(atoms, first, extra, order):
    """Moments and weight rows on the integer image equal the plain sums,
    also read through `moment` alone.  A float measure's moments and rows
    are the correctly rounded plain sums and ratios of its binary-exact
    atoms, and read through `moment` alone its rows are b / a of those
    float moments, byte for byte."""
    mu = AtomicMeasure(atoms)
    rec = _recurrence(atoms, first, extra)
    # asked in any order, so the recurrence runs both ways from its seed
    for k in order:
        want = _reference(atoms, k)
        assert mu.moment(k) == want and rec.moment(k) == want
    ratios = [_reference(atoms, k + 1) / _reference(atoms, k) for k in range(16)]
    for measure in (AtomicMeasure(atoms), _recurrence(atoms, first, extra)):
        assert MeasureTail((), measure).weight_sq_row(17) == ratios
        assert MeasureTail((), _Moments(measure)).weight_sq_row(17) == ratios
    floats, exact = _floats(atoms), _binary_exact(atoms)
    moments = [floats.moment(k) for k in range(17)]
    assert moments == [float(_reference(exact, k)) for k in range(17)]
    assert MeasureTail((), floats).weight_sq_row(17) == [
        float(_reference(exact, k + 1) / _reference(exact, k)) for k in range(16)]
    assert MeasureTail((), _Moments(floats)).weight_sq_row(17) == [
        b / a for a, b in zip(moments, moments[1:])]


@given(planted_measures(unit=True), MASS, st.integers(-6, 6), st.integers(0, 2),
       st.permutations(list(range(17))))
def test_image_geometric_sums_match_the_plain_sums(atoms, zero_mass, first, extra, order):
    """Geometric sums and their weight rows on the integer image equal the
    plain sums, also read through `moment` alone.  A float measure's rows
    are the correctly rounded ratios of the exact sums of its binary-exact
    atoms and mass at zero, and read through `moment` alone those of the
    exact sums of its float moments' binary-exact images."""
    ca = CAMeasure(zero_mass, AtomicMeasure(atoms))
    recurrent = CAMeasure(0, _recurrence(atoms, first, extra))
    for n in order:
        want = sum((_reference(atoms, k) for k in range(n)), F(0))
        assert ca.geometric_sum(n) == (zero_mass if n else 0) + want
        assert recurrent.geometric_sum(n) == want
    for zero, tau in ((zero_mass, CAMeasure(zero_mass, AtomicMeasure(atoms))),
                      (0, CAMeasure(0, _recurrence(atoms, first, extra)))):
        gammas = [1 + (zero if n else 0) + sum((_reference(atoms, k) for k in range(n)), F(0))
                  for n in range(17)]
        ratios = [b / a for a, b in zip(gammas, gammas[1:])]
        assert GeometricSumTail((), tau).weight_sq_row(17) == ratios
        assert GeometricSumTail((), _Moments(tau)).weight_sq_row(17) == ratios
    exact = _binary_exact(atoms)
    for zero in (0.0, float(zero_mass)):
        tau = CAMeasure(zero, _floats(atoms))
        gammas = [1 + (F(zero) if n else 0) + sum((_reference(exact, k) for k in range(n)), F(0))
                  for n in range(17)]
        assert GeometricSumTail((), tau).weight_sq_row(17) == [
            float(b / a) for a, b in zip(gammas, gammas[1:])]
        gammas = [F(1)]
        for k in range(16):
            gammas.append(gammas[-1] + F(tau.moment(k)))
        assert GeometricSumTail((), _Moments(tau)).weight_sq_row(17) == [
            float(b / a) for a, b in zip(gammas, gammas[1:])]


def _rounded(got, want):
    """Floats `got`, byte for byte the correctly rounded exact `want`."""
    assert all(isinstance(x, float) for x in got)
    return [x.hex() for x in got] == [float(x).hex() for x in want]


def _recurrence_moment(coeffs, first, window, k):
    """Moment k of the recurrence sum_j c_j s_(n+j) = 0 seeded with
    `window` from index `first`, run in `Fraction`s."""
    values, d = dict(enumerate(window, first)), len(coeffs) - 1
    lo, hi = first, first + len(window) - 1
    while hi < k:
        hi += 1
        values[hi] = -sum(coeffs[j] * values[hi - d + j] for j in range(d)) / coeffs[d]
    while lo > k:
        lo -= 1
        values[lo] = -sum(coeffs[j] * values[lo + j] for j in range(1, d + 1)) / coeffs[0]
    return values[k]


def _float_reciprocal_cases(domain, window):
    """(got, want) pairs of the reciprocal values of a float window: a
    strict one's principal values on [a, b] and the extremes they order,
    against the exact values of its binary-exact image; a singular one's
    infimum on the ray or on (0, 1], against -q(0)/p(0) summed in
    `Fraction`s on the support integers kept on the window."""
    verdict = classify(window, domain)
    exact = [F(v) for v in window]
    if isinstance(domain, Compact):
        if not verdict.is_strict:
            return []
        a, b = domain.a, domain.b
        values = compact_reciprocal_values(exact, F(a), F(b))
        cases = [(list(compact_reciprocal_values(window, a, b)), values)]
        if float(values[0]) != float(values[1]):
            bounds = reciprocal_extremes_compact(window, a, b)
            cases.append(([bounds.t_lo, bounds.t_hi], sorted(values)))
        return cases
    if verdict.kind is not PositivityClass.SINGULARLY_POSITIVE:
        return []
    p = _support_ints(_Window.of(window))
    want = -sum(p[k] * exact[k - 1] for k in range(1, len(p))) / F(p[0])
    inf = reciprocal_inf_ray if isinstance(domain, Ray) else reciprocal_inf_half_open
    return [([inf(window)], [want])]


@given(planted_measures(), planted_measures(unit=True), MASS, st.integers(-6, 6),
       st.integers(0, 2), st.permutations(range(-4, 11)), planted_float_windows())
def test_float_readings_are_their_binary_exact_data_read_exactly(
        atoms, unit_atoms, zero_mass, first, extra, order, problem):
    """Every moment, row value, ratio and tilt mass of a float measure, and
    every reciprocal value of a float window, is the exact reading of its
    binary-exact data rounded once, byte for byte: an AtomicMeasure and its
    tilts (plain sums over the binary-exact atoms), a MomentRecurrence
    asked below and above its seed (its recurrence run in `Fraction`s on
    its binary-exact polynomial and window), a CAMeasure with a float mass
    at zero, 0.0 too, and the principal values, extremes and singular
    infima of `_float_reciprocal_cases`."""
    mu, exact = _floats(atoms), _binary_exact(atoms)
    assert _rounded([mu.moment(k) for k in range(-6, 7)],
                    [_reference(exact, k) for k in range(-6, 7)])
    row = moment_row(mu, -3, 6)
    assert _rounded([row.value(i) for i in range(10)], [_reference(exact, k) for k in range(-3, 7)])
    assert _rounded(row.ratios(), [_reference(exact, k + 1) / _reference(exact, k)
                                   for k in range(-3, 6)])
    for j in (-2, 1, 3):
        tilted = tilt(mu, j)
        assert [x for x, _ in tilted.atoms] == [x for x, _ in mu.atoms]
        assert _rounded([m for _, m in tilted.atoms], [m * x ** j for x, m in exact])
        assert _rounded([tilted.moment(k) for k in range(-3, 4)],
                        [_reference(exact, k + j) for k in range(-3, 4)])

    poly = Polynomial([1])
    for x, _ in atoms:
        poly = poly.mul(Polynomial([-x, 1]))
    coeffs = [float(c) for c in poly.coeffs]
    window = [float(_reference(atoms, first + i)) for i in range(len(atoms) + extra)]
    rec = MomentRecurrence(Polynomial(coeffs), first, window)
    want = [_recurrence_moment([F(c) for c in coeffs], first, [F(v) for v in window], first + i)
            for i in range(-4, 11)]
    assert _rounded([rec.moment(first + i) for i in order], [want[i + 4] for i in order])
    row = moment_row(MomentRecurrence(Polynomial(coeffs), first, window), first - 4, first + 10)
    assert _rounded([row.value(i) for i in range(15)], want)
    assert _rounded(row.ratios(), [b / a for a, b in zip(want, want[1:])])

    unit, unit_exact = _floats(unit_atoms), _binary_exact(unit_atoms)
    for zero in (0.0, float(zero_mass)):
        tau = CAMeasure(zero, unit)
        want = [(F(zero) if k == 0 else 0) + _reference(unit_exact, k) for k in range(9)]
        assert _rounded([tau.moment(k) for k in range(9)], want)
        assert _rounded([tau.total_mass()], want[:1])
        row = moment_row(tau, 0, 8)
        assert _rounded([row.value(i) for i in range(9)], want)
        assert _rounded(row.ratios(), [b / a for a, b in zip(want, want[1:])])
        assert _rounded([tau.geometric_sum(n) for n in range(1, 9)],
                        [sum(want[:n]) for n in range(1, 9)])
    row = moment_row(CAMeasure(0.0, unit), -3, 3)
    assert _rounded([row.value(i) for i in range(7)],
                    [_reference(unit_exact, k) for k in range(-3, 4)])

    for got, want in _float_reciprocal_cases(*problem):
        assert _rounded(got, want)
