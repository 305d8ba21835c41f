import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import momentkit

from momentkit.errors import DegenerateInput, DomainError, NotAMomentSequence
from momentkit.measure import AtomicMeasure, moments
from momentkit.positivity import (Compact, HalfOpen, PositivityClass, Ray,
                                  classify, classify_compact, classify_half_open,
                                  classify_ray, compact_criterion_matrices, index,
                                  ray_limit_matrices, recover_minimal_measure, stampfli_check)
from conftest import random_half_open_measure, random_rational_measure

S = PositivityClass.STRICTLY_POSITIVE
G = PositivityClass.SINGULARLY_POSITIVE
N = PositivityClass.NOT_POSITIVE


def test_classify_compact_examples():
    assert classify_compact([2, 3, 5], 1, 2).kind is G
    assert classify_compact([2, 3, 5], F(1, 2), 4).kind is S
    assert classify_compact([1, 2, 5], 1, 2).kind is N


def test_classify_compact_domain_error():
    with pytest.raises(DomainError):
        classify_compact([1, 1], 2, 1)


def test_classify_ray_examples():
    assert classify_ray([2, 3, 5, 9]).kind is S
    assert classify_ray([1, 1, 1]).kind is G
    assert classify_ray([1, 2, 3]).kind is N


def test_criterion_forms_are_hankel_entries():
    s = [1, 2, 3, 4, 5, 6]
    assert ray_limit_matrices(s) == ([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert ray_limit_matrices(s[:5]) == ([1, 2, 3, 4, 5], [2, 3, 4])
    assert ray_limit_matrices([7]) == ([7], [])
    # (a+b) s_(k+1) - ab s_k - s_(k+2), and s_(k+1) - a s_k, b s_k - s_(k+1)
    assert compact_criterion_matrices(s[:5], 1, 2) == ([1, 2, 3, 4, 5], [1, 1, 1])
    assert compact_criterion_matrices(s[:4], 1, 2) == ([1, 1, 1], [0, 1, 2])
    assert compact_criterion_matrices([7], 1, 2) == ([7], [])
    # 9 and 10 moments of the atoms 1/3 and 2/5: the window is dilated by
    # 15, and the entries read back are still the window's own
    a, b = F(1, 4), F(1, 2)
    for length in (9, 10):
        s = [F(1, 3) ** k + F(2, 5) ** k for k in range(length)]
        n = length - 1
        assert ray_limit_matrices(s) == (s[:n // 2 * 2 + 1], s[1:(n + 1) // 2 * 2])
        lower = [s[k + 1] - a * s[k] for k in range(n)]
        upper = [b * s[k] - s[k + 1] for k in range(n)]
        interior = [(a + b) * s[k + 1] - a * b * s[k] - s[k + 2] for k in range(n - 1)]
        want = (s, interior) if n % 2 == 0 else (lower, upper)
        assert compact_criterion_matrices(s, a, b) == want


def test_criterion_forms_refuse_what_the_classifiers_refuse():
    # as classify_ray and classify_compact do
    with pytest.raises(DomainError, match="empty sequence"):
        ray_limit_matrices([])
    for a, b in ((2, 1), (1, 1)):
        with pytest.raises(DomainError, match="compact interval needs a < b"):
            compact_criterion_matrices([1, 2, 3], a, b)


def test_classify_ray_negative_entry():
    with pytest.raises(DomainError):
        classify_ray([1, -1])


def test_classify_half_open_examples():
    assert classify_half_open([3, 2, F(3, 2)]).kind is S
    assert classify_half_open([1, 1, 1]).kind is G
    assert classify_half_open([1, 2, 4]).kind is N


def test_index_examples():
    assert index([2, 3, 5, 9], Ray()) == 2
    assert index([1, 1, 1, 1], Ray()) == 1
    assert index([1, 1], HalfOpen()) == F(1, 2)
    assert index([2, 3, 5], Compact(1, 2)) == 1
    assert index([2, 3, 5], Compact(F(1, 2), 4)) == F(3, 2)


def test_index_rejects_non_positive():
    with pytest.raises(NotAMomentSequence):
        index([1, 2, 3], Ray())


def test_zero_sequence():
    assert classify_ray([0, 0, 0]).kind is G
    assert index([0, 0], Ray()) == 0
    assert recover_minimal_measure([0, 0], Ray()).support_size == 0


def test_round_trip_strict_and_index(rng):
    # K-atom measure, window of length 2K: strictly positive with index K
    for _ in range(150):
        k = rng.randint(1, 4)
        mu = random_rational_measure(rng, k)
        window = moments(mu, 0, 2 * k - 1)
        assert classify_ray(window).kind is S
        assert index(window, Ray()) == k


def test_enlargement_monotonicity(rng):
    for _ in range(200):
        mu = random_rational_measure(rng, rng.randint(1, 3))
        window = moments(mu, 0, rng.randint(1, 4))
        lo, hi = mu.atoms[0][0], mu.atoms[-1][0]
        a, b = lo / 2, 2 * hi + 1
        if classify_compact(window, a, b).kind is S:
            assert classify_compact(window, a / 2, b + 3).kind is S


def test_singular_recovery_examples():
    mu = recover_minimal_measure([2, 3, 5], Compact(1, 2))
    assert mu.atoms == ((1, 1), (2, 1))
    mu = recover_minimal_measure([1, 1, 1], Ray())
    assert mu.atoms == ((1, 1),)
    mu = recover_minimal_measure([1, 1], HalfOpen())
    assert mu.atoms == ((1, 1),)


def test_singular_recovery_random(rng):
    # a K-atom measure seen through a window of length 2K+1 is singular and
    # uniquely recoverable
    for _ in range(80):
        k = rng.randint(1, 3)
        mu = random_rational_measure(rng, k)
        window = moments(mu, 0, 2 * k)
        assert classify_ray(window).kind is G
        assert recover_minimal_measure(window, Ray()) == mu
        assert index(window, Ray()) == k


def test_index_upper_bounds(rng):
    for _ in range(100):
        mu = random_rational_measure(rng, rng.randint(1, 3))
        n = rng.randint(0, 4)
        window = moments(mu, 0, n)
        assert index(window, Ray()) <= -((n + 1) // -2)
        on_unit = random_half_open_measure(rng, rng.randint(1, 2))
        window = moments(on_unit, 0, n)
        assert index(window, HalfOpen()) <= F(n + 1, 2)


def test_half_open_strict_needs_interior(rng):
    # measures with an endpoint atom at 1 and k interior atoms: strictly
    # positive iff the window is short enough
    for _ in range(40):
        k = rng.randint(1, 2)
        mu = random_half_open_measure(rng, k + 1, include_one=True)
        window = moments(mu, 0, 2 * k)   # index k + 1/2 = (n+1)/2: strict
        assert classify_half_open(window).kind is S
        longer = moments(mu, 0, 2 * k + 2)
        assert classify_half_open(longer).kind is G


def test_classify_dispatch():
    assert classify([1, 1], Ray()).kind is S
    assert classify([1, 1], HalfOpen()).kind is G
    assert classify([1, 1], Compact(F(1, 2), 2)).kind is S


def test_extreme_singular_windows():
    # one atom outside [2^-12, 2^12], where a grid of compact intervals
    # [2^-q, 2^q] with q <= 12 never looks
    for window, domain, atom in [((1, 2 ** 13, 2 ** 26), Ray(), F(2 ** 13)),
                                 ((1, F(1, 2 ** 13), F(1, 2 ** 26)), Ray(), F(1, 2 ** 13)),
                                 ((1, F(1, 2 ** 14), F(1, 2 ** 28)), HalfOpen(), F(1, 2 ** 14))]:
        assert classify(window, domain).kind is G
        assert index(window, domain) == 1
        mu = recover_minimal_measure(window, domain)
        assert mu.exact and mu.atoms == ((atom, 1),)


def test_extreme_compact_singular_windows():
    # delta at 2^-22 comes back exact, and so does the extreme atom 7/2^33
    # beside 9/8: the bracket around its float seed is narrow enough for
    # refine to settle it
    a, b = F(1, 2 ** 23), F(1, 2 ** 21)
    for n in (2, 3):
        window = [3 * F(1, 2 ** 22) ** k for k in range(n + 1)]
        assert index(window, Compact(a, b)) == 1
        mu = recover_minimal_measure(window, Compact(a, b))
        assert mu.exact and mu.atoms == ((F(1, 2 ** 22), 3),)
    planted = [(F(7, 2 ** 33), 2), (F(9, 8), 5)]
    window = [sum(m * x ** k for x, m in planted) for k in range(5)]
    assert index(window, Compact(F(7, 2 ** 34), F(9, 4))) == 2
    mu = recover_minimal_measure(window, Compact(F(7, 2 ** 34), F(9, 4)))
    assert mu.exact and mu.atoms == tuple(planted)


def test_float_compact_singular_windows():
    # delta_1 + 3 delta_2 on [1/2, 8] seen through float windows
    domain = Compact(F(1, 2), 8)
    for n in (4, 5, 6):
        window = [1.0 + 3.0 * 2.0 ** k for k in range(n + 1)]
        assert classify(window, domain).kind is G
        assert index(window, domain) == 2
        mu = recover_minimal_measure(window, domain)
        assert not mu.exact and mu.support_size == 2
        for (x, m), (px, pm) in zip(mu.atoms, [(1, 1), (2, 3)]):
            assert abs(x - px) <= 1e-9 and abs(m - pm) <= 1e-9


def test_float_verdicts(rng):
    assert classify_ray([1.0, 0.1, 0.01]).kind is G
    assert classify_half_open([1.0, 0.1, 0.01]).kind is G
    assert classify_ray([1.0, 2.0, 4.0]).kind is G
    assert classify_half_open([1.0, 2.0, 4.0]).kind is N
    assert classify_ray([1, 1, 1, 1, 2]).kind is N
    assert classify_half_open([1, 1, 1, 1, 2]).kind is N
    # w delta_x + (1 - w) delta_1 seen through four moments: singular on
    # (0, 1], although rounding moves the computed atom 1 off 1 about half
    # the time
    for _ in range(40):
        x, w = rng.random(), rng.random()
        window = [w * x ** k + (1 - w) for k in range(4)]
        assert classify_half_open(window).kind is G
        assert index(window, HalfOpen()) == F(3, 2)
    # clustered atoms (25/8, 22/7, 24/7 on the ray; 2/7, 7/8, 8/9, 1 on
    # (0, 1]): the float support polynomial is good to about 1e-9 only
    clustered = [([F(1), F(1), F(5, 4)], [F(25, 8), F(22, 7), F(24, 7)], Ray(), 3),
                 ([F(1), F(2), F(3, 2), F(5, 2)], [F(2, 7), F(7, 8), F(8, 9), F(1)],
                  HalfOpen(), F(7, 2))]
    for masses, atoms, domain, k in clustered:
        window = [float(sum(m * a ** j for m, a in zip(masses, atoms))) for j in range(9)]
        assert classify(window, domain).kind is G
        assert index(window, domain) == k


def _planted_compact_window(rng):
    """A float window of 1-3 atoms on quarter points of [a, b], b <= 3a,
    endpoints included, one to four moments past singularity: (a, b,
    atoms, masses, index, window).  Atoms a quarter of the interval apart
    keep the measure determined by the float moments to about 1e-7."""
    a = F(rng.randint(1, 12), rng.randint(1, 4))
    b = a * (1 + F(rng.randint(1, 8), 4))
    atoms = sorted(rng.sample([a + (b - a) * F(i, 4) for i in range(5)], rng.randint(1, 3)))
    masses = [F(rng.randint(1, 20), rng.randint(1, 5)) for _ in atoms]
    idx = len(atoms) - F(sum(x in (a, b) for x in atoms), 2)
    n = int(2 * idx) + rng.randint(0, 3)
    window = [float(sum(m * x ** j for x, m in zip(atoms, masses))) for j in range(n + 1)]
    return a, b, atoms, masses, idx, window


def test_float_planted_compact_singular_windows():
    # float windows run through the exact kernel on their binary-exact
    # image: the index is read right and the measure comes back to 1e-6
    rng = random.Random(20261018)
    for _ in range(300):
        a, b, atoms, masses, idx, window = _planted_compact_window(rng)
        domain = Compact(a, b)
        assert classify(window, domain).kind is G
        assert index(window, domain) == idx
        mu = recover_minimal_measure(window, domain)
        assert len(mu.atoms) == len(atoms)
        for (x, m), (px, pm) in zip(mu.atoms, zip(atoms, masses)):
            assert abs(x - px) <= 1e-6 * px and abs(m - pm) <= 1e-6 * pm


def test_float_clustered_endpoint_window():
    # delta_3 + delta_{151/50} + delta_{13/4} on [3, 13/4]: numpy's roots of
    # the support polynomial missed a root by the endpoint; exact isolation
    # on the binary-exact image finds all three.  Two atoms 1/50 apart pass
    # the rounding of the moments on to the atoms at about 2e-8, and on to
    # the masses at about 2e-6.
    atoms = [F(3), F(151, 50), F(13, 4)]
    domain = Compact(F(3), F(13, 4))
    for n in (5, 6):
        window = [float(sum(x ** j for x in atoms)) for j in range(n + 1)]
        assert classify(window, domain).kind is G
        assert index(window, domain) == 2
        mu = recover_minimal_measure(window, domain)
        assert len(mu.atoms) == 3
        for (x, m), px in zip(mu.atoms, atoms):
            assert abs(x - px) <= 1e-7 and abs(m - 1) <= 1e-5


def test_float_window_singular_by_its_forms_only():
    # strictly positive, but singular to within 1e-9 of its largest Hankel
    # entry: each zero test is scaled by the entry it belongs to, so every
    # form reads definite, as the exact window does
    window = [21 / 4, 803 / 20, 30777 / 100, 1182203 / 500, 45504417 / 2500]
    domain = Compact(F(1, 2), 8)
    exact = [F(21, 4), F(803, 20), F(30777, 100), F(1182203, 500), F(45504417, 2500)]
    assert classify(exact, domain).kind is classify(window, domain).kind is S
    assert index(window, domain) == index(exact, domain) == F(5, 2)
    with pytest.raises(DegenerateInput):
        recover_minimal_measure(window, domain)


def test_float_endpoint_atoms_far_apart():
    # 18 delta_(10/3) + 17 delta_(103/3): the transforms of the float moments
    # cancel to rounding noise, which reads as zero relative to the terms
    # they are computed from
    a, b = F(10, 3), F(103, 3)
    domain = Compact(a, b)
    for n in (4, 5, 6):
        window = [18 * float(a) ** k + 17 * float(b) ** k for k in range(n + 1)]
        assert classify(window, domain).kind is G
        assert index(window, domain) == 1
        mu = recover_minimal_measure(window, domain)
        assert len(mu.atoms) == 2
        for (x, m), (px, pm) in zip(mu.atoms, [(a, 18), (b, 17)]):
            assert abs(x - px) <= 1e-9 * px and abs(m - pm) <= 1e-9 * pm


def test_float_integer_windows_match_exact():
    # the float image of an integer window is exact, so its verdict and
    # index are the exact ones: every window of length <= 5 with entries
    # 0..3, on each kind of domain
    domains = [Ray(), HalfOpen(), Compact(F(1, 2), 8), Compact(1, 3)]

    def result(window, domain):
        verdict = classify(window, domain)
        return verdict.kind, (index(window, domain) if verdict.is_positive else None)

    for length in range(1, 6):
        for window in itertools.product(range(4), repeat=length):
            for domain in domains:
                assert result(list(window), domain) == result([float(x) for x in window], domain)


def test_float_singular_classification_imports_no_numpy():
    # numpy adds about 12 MB to a process; classifying float windows near
    # the singular boundary, recovering their measures and isolating the
    # roots of a float polynomial must not load it
    code = "\n".join([
        "import sys",
        "from momentkit.numeric import Polynomial, real_roots",
        "from momentkit.positivity import (Compact, HalfOpen, Ray, classify, index,",
        "                                  recover_minimal_measure)",
        "for window in [(1.0, 0.1, 0.01), (1.0, 2.0, 4.0), (1.0, 1 / 3, 1 / 9),",
        "               (1.0, 0.75, 0.625, 0.5625), (1.0, 1.0, 1.0, 1.0 + 1e-12)]:",
        "    for domain in (Ray(), HalfOpen()):",
        "        if classify(window, domain).is_positive:",
        "            index(window, domain)",
        "window = [1.0 + 3.0 * 2.0 ** k for k in range(6)]",
        "assert recover_minimal_measure(window, Compact(0.5, 8.0)).support_size == 2",
        "assert len(real_roots(Polynomial([-2.0, 0.0, 1.0]), -2.0, 2.0)) == 2",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(momentkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("call, named", [
    (lambda: classify_ray([1.0, float("nan")]), "nan"),
    (lambda: classify_half_open([float("inf"), 1.0]), "inf"),
    (lambda: classify_compact([1.0, 2.0], 1, float("inf")), "inf"),
    (lambda: classify_compact([1, 2, 3], float("-inf"), 2.0), "-inf"),
    (lambda: index([1.0, float("nan"), 1.0], Compact(1, 2)), "nan"),
    (lambda: recover_minimal_measure([1.0, float("inf")], HalfOpen()), "inf"),
    (lambda: compact_criterion_matrices([1.0, 2.0, 5.0], 1, float("inf")), "inf"),
    (lambda: stampfli_check(1, 2, 3, float("inf")), "inf"),
    (lambda: stampfli_check(1.0, float("nan"), 3.0, 4.0, squared=True), "nan"),
])
def test_non_finite_float_input_is_a_domain_error(call, named):
    # a float window is imaged in binary-exact fractions, which a nan or an
    # infinite value or interval end has none of: it escaped as ValueError
    # or OverflowError.  An infinite Stampfli weight held (lhs inf), and a
    # nan one was "not positive"
    with pytest.raises(DomainError, match=f"non-finite value {named} "):
        call()


def test_a_singular_ray_window_with_a_long_lead_recovers_exact_atoms():
    # `windows` benchmark seed 3749, problem 97: the roots of the support
    # polynomial, whose leading coefficient is long, are isolated by
    # Descartes bisection, and the atom 7/2^22 came back as the midpoint of
    # its enclosure; it is settled once the enclosure is narrow enough to
    # test its one candidate k/|lead|
    atoms = AtomicMeasure([(F(3, 2 ** 21), F(116533, 97941971)),
                           (F(7, 2 ** 22), F(446686, 361654681)),
                           (F(1879048192), F(545237, 21089856))])
    mu = recover_minimal_measure(moments(atoms, 0, 6).values, Ray())
    assert mu.exact and mu == atoms
