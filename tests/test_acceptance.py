"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from fractions import Fraction as F

import pytest

from momentkit.alternating import CAMeasure, ca_backward_extend
from momentkit.backward import (ExtensionClass, classify_backward,
                                minimal_measure_with_reciprocal, reciprocal_moment)
from momentkit.completion import (SolveStatus, solve_che, solve_subnormal,
                                  stampfli_check, flatness_verifier)
from momentkit.extremal import reciprocal_inf_ray
from momentkit.measure import moments
from momentkit.oracle import OracleConfig, grid_classify
from momentkit.positivity import PositivityClass, Ray, classify_ray, index
from momentkit.tree import BranchClass, PartialWeights
from conftest import random_half_open_measure, random_rational_measure

STRICT = PositivityClass.STRICTLY_POSITIVE


def _report(name, detail):
    print(f"\n[acceptance] {name}: PASS ({detail})")


def test_criterion_01_reciprocal_inf_closed_form():
    for lam_sq in (2, 4, 9):
        got = reciprocal_inf_ray([1, lam_sq])
        assert got == F(1, lam_sq), (lam_sq, got)
    _report("1 odd-case reciprocal infimum", "exact 1/lambda^2 for lambda^2 in {2,4,9}")


def test_criterion_02_even_limit_squares():
    timings = []
    for s_minus1, lam_sq in ((2, 4), (3, 2), (F(3, 2), 9)):
        start = time.time()
        got = reciprocal_inf_ray([s_minus1, 1, lam_sq])
        elapsed = time.time() - start
        assert isinstance(got, F), (s_minus1, lam_sq, got)
        assert got == F(s_minus1) ** 2, (s_minus1, lam_sq, got)
        assert elapsed < 1.0
        timings.append(elapsed)
    _report("2 even-case infimum", f"exactly s_-1^2, max {max(timings):.3f}s")


def test_criterion_03_che_region_grid():
    lo, hi = F(1, 2), F(3)
    step = (hi - lo) / 49
    feasible = boundary = 0
    for i in range(50):
        for j in range(50):
            trunk_sq = lo + i * step
            total = lo + j * step
            in_region = trunk_sq >= 1 and 1 <= total <= 2 - 1 / trunk_sq
            out = solve_che(PartialWeights([trunk_sq], [BranchClass(total, (), None)]))
            assert out.status is not SolveStatus.UNKNOWN
            assert out.feasible == in_region, (trunk_sq, total)
            if out.feasible:
                feasible += 1
                rho = out.certificate.root_measure
                mass = trunk_sq - 1
                atom = trunk_sq * (total - 1) / (trunk_sq - 1)
                if atom == 0:
                    assert rho.zero_mass == mass
                else:
                    assert rho.positive.atoms == ((atom, mass),)
                if atom == 1:
                    boundary += 1
    _report("3 che region 50x50", f"{feasible} feasible cells, atom/mass exact")


def _random_quadruple(rng):
    while True:
        vals = sorted({F(rng.randint(1, 60), rng.randint(1, 16)) for _ in range(4)})
        if len(vals) == 4:
            return vals


def test_criterion_04_stampfli_cross_check():
    rng = random.Random(404)
    quad_count = 0
    for trial in range(500):
        sq = _random_quadruple(rng)
        if trial % 25 == 0:
            # exact boundary cases: the fourth square equals the bound
            a, b, c = sq[0], sq[1], sq[2]
            sq = [a, b, c, c + a * (c - b) ** 2 / (c * (b - a))]
        pw = PartialWeights([], [BranchClass(sq[0], tuple(sq[1:]), 1)])
        out = solve_subnormal(pw, K="auto")
        verdict = stampfli_check(*sq, squared=True)
        assert out.status is not SolveStatus.UNKNOWN, sq
        assert out.feasible == verdict.holds, sq
        quad_count += 1
    _report("4 four-weight cross-check", f"{quad_count} quadruples incl. exact boundaries")


def test_criterion_05_round_trip_recovery():
    rng = random.Random(505)
    for _ in range(500):
        k = rng.randint(1, 4)
        mu = random_rational_measure(rng, k)
        window = moments(mu, 0, 2 * k - 1)
        assert classify_ray(window).kind is STRICT
        assert index(window, Ray()) == k
        from momentkit.principal import minimal_measure_ray
        got = minimal_measure_ray(window)
        assert got == mu
    _report("5 round-trip recovery", "500 measures, K <= 4, exact")


def test_criterion_06_backward_trichotomy():
    s = [2, 3, 5, 9]
    assert classify_backward(s, F(3, 2)).kind is ExtensionClass.SINGULAR
    verdict = classify_backward(s, F(3, 2))
    assert verdict.measure.atoms == ((1, 1), (2, 1))
    for x in (F(3, 2) + F(1, 10 ** 9), 2, 100):
        assert classify_backward(s, x).kind is ExtensionClass.STRICT
    for x in (0, 1, F(3, 2) - F(1, 10 ** 9)):
        assert classify_backward(s, x).kind is ExtensionClass.NOT_EXTENSION
    _report("6 backward trichotomy", "threshold 3/2 exact, singular measure recovered")


def test_criterion_07_classifier_vs_grid():
    rng = random.Random(707)
    cfg = OracleConfig(grid_q=10)
    disagreements = 0
    singular_slack = 0
    trials = 1000
    for trial in range(trials):
        if trial % 3 == 0:
            k = rng.randint(1, 3)
            mu = random_rational_measure(rng, k, num_max=12, den_max=8)
            n = rng.randint(1, 4)
            seq = list(moments(mu, 0, n).values)
        elif trial % 3 == 1:
            seq = [F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
        else:
            k = rng.randint(1, 2)
            mu = random_rational_measure(rng, k, num_max=10, den_max=6)
            seq = list(moments(mu, 0, 2 * k).values)  # singular windows
        lib = classify_ray(seq).kind
        grid = grid_classify(seq, Ray(), cfg)
        if lib in (STRICT, PositivityClass.NOT_POSITIVE):
            if grid is not lib:
                disagreements += 1
        elif grid is not lib:
            singular_slack += 1
    assert disagreements == 0
    assert singular_slack <= trials // 100
    _report("7 classifier vs grid", f"{trials} trials, 0 strict/not disagreements, "
            f"{singular_slack} coarse-grid singular slack")


def test_criterion_08_reciprocal_bijection():
    rng = random.Random(808)
    for _ in range(100):
        k = rng.randint(1, 3)
        mu = random_rational_measure(rng, k)
        window = moments(mu, 0, 2 * k - 2)
        x = reciprocal_moment(mu)
        back = minimal_measure_with_reciprocal(window, x)
        assert back == mu
        assert reciprocal_moment(back) == x
    _report("8 reciprocal bijection", "100 even instances, both compositions exact")


def test_criterion_09_ca_zero_mass_dichotomy():
    rng = random.Random(909)
    zero_branch = positive_branch = 0
    for trial in range(200):
        tau = random_half_open_measure(rng, rng.randint(1, 2))
        r = rng.randint(1, 3)
        c0 = 2 * sum(tau.moment(-(j + 1)) for j in range(r)) + rng.randint(1, 3)
        c = [c0]
        for n in range(1, 4):
            c.append(c0 + sum(tau.moment(j) for j in range(n)))
        prefix = []
        value = c0
        for j in range(r - 1):
            value = value - tau.moment(-(j + 1))
            prefix.append(value)
        bound = value - tau.moment(-r)
        equality = trial % 2 == 0
        deepest = bound if equality else bound * F(rng.randint(1, 3), 4)
        prefix.append(deepest)
        result = ca_backward_extend(c, list(reversed(prefix)), CAMeasure(0, tau))
        assert result.ok
        assert (result.rho.zero_mass == 0) == equality
        if equality:
            zero_branch += 1
        else:
            positive_branch += 1
    assert zero_branch >= 90 and positive_branch >= 90
    _report("9 zero-mass dichotomy", f"{zero_branch} equality / {positive_branch} slack branches")


def _closed_form_feasible(trunk_sq, masses, tails_sq):
    """Independent closed form for two branches, one trunk level, two atoms
    per branch: with b_i = W_i / t_i and a_i = W_i / t_i^2, the completion
    exists iff the slice {sum b_i r_i = 1, r_i > 1} is nonempty and the
    infimum of sum a_i theta r_i^2 (theta -> 1) stays below 1/trunk_sq."""
    b = [m / t for m, t in zip(masses, tails_sq)]
    a = [m / t ** 2 for m, t in zip(masses, tails_sq)]
    if sum(b) >= 1:
        return False
    # KKT point of min sum a r^2 on the slice
    denom = b[0] ** 2 / a[0] + b[1] ** 2 / a[1]
    r_star = [(b[i] / a[i]) / denom for i in range(2)]
    if all(r > 1 for r in r_star):
        best = 1 / denom
    else:
        best = None
        for pinned in range(2):
            other = 1 - pinned
            r_other = (1 - b[pinned]) / b[other]
            if r_other <= 1:
                continue
            value = a[pinned] + a[other] * r_other ** 2
            best = value if best is None else min(best, value)
        if best is None:
            return False
    return best < 1 / trunk_sq


def test_criterion_10_coupled_family_vs_direct_search():
    rng = random.Random(1010)
    agree = feasible_count = 0
    margin = 1e-8
    trials = 0
    while trials < 30:
        trunk_sq = F(rng.randint(2, 12), rng.randint(1, 4))
        masses = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(2)]
        tails = [F(rng.randint(5, 20), rng.randint(1, 4)) for _ in range(2)]
        if any(t <= 1 for t in tails):
            continue
        want = _closed_form_feasible(trunk_sq, masses, tails)
        # skip the (excluded) boundary band
        b = [m / t for m, t in zip(masses, tails)]
        if abs(float(sum(b)) - 1.0) < 1e-6:
            continue
        pw = PartialWeights([trunk_sq],
                            [BranchClass(masses[0], (tails[0],), 1),
                             BranchClass(masses[1], (tails[1],), 1)])
        out = solve_subnormal(pw, K=(2, 2))
        if out.status is SolveStatus.UNKNOWN:
            # only tolerable within the declared tolerance of the boundary
            assert False, f"unknown verdict for {trunk_sq}, {masses}, {tails}"
        assert out.feasible == want, (trunk_sq, masses, tails)
        agree += 1
        feasible_count += out.feasible
        if out.feasible:
            assert out.certificate.verify()
        trials += 1
    assert feasible_count >= 5 and agree - feasible_count >= 5
    _report("10 coupled-level family", f"30 instances, {feasible_count} feasible, "
            f"agreement within {margin}")


def test_criterion_11_certificates_reverify_and_flatness():
    reverified = 0
    # subnormal certificates across the admissible K
    for sq in ((1, 4, 9, 16), (F(1, 2), 1, 4, 36)):
        out = solve_subnormal(PartialWeights([], [BranchClass(sq[0], tuple(sq[1:]), 1)]))
        assert out.feasible and out.certificate.verify(depth=12)
        reverified += 1
    out = solve_subnormal(PartialWeights([1], [BranchClass(1, (4,), 1),
                                               BranchClass(1, (4,), 1)]), K=(2, 2))
    assert out.feasible and out.certificate.verify(depth=12)
    reverified += 1
    # completely hyperexpansive certificates, including an r-flat one
    out = solve_che(PartialWeights([2], [BranchClass(F(5, 4), (), None)]))
    assert out.feasible and out.certificate.verify(depth=12)
    reverified += 1
    flat = PartialWeights([2], [BranchClass(F(5, 8), (F(11, 10), F(23, 22)), 1),
                                BranchClass(F(5, 8), (F(11, 10), F(23, 22)), 1)])
    out = solve_che(flat)
    assert out.feasible and out.certificate.verify(depth=12)
    assert flatness_verifier(out.certificate.full, 3,
                             taus=out.certificate.measures).two_flat
    reverified += 1
    out = solve_che(PartialWeights([], [BranchClass(2, (F(3, 2),), 1),
                                        BranchClass(2, (F(5, 4),), 1)]))
    assert out.feasible and out.certificate.verify(depth=12)
    reverified += 1
    _report("11 certificates re-verify", f"{reverified} certificates at depth 12, "
            "r-flat construction is 2-flat")
