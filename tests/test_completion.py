import math
from fractions import Fraction as F

import pytest

from momentkit.completion import (SolveStatus, flat_che_completion,
                                  flatness_verifier, kappa_infinite_probe,
                                  solve_che, solve_subnormal, stampfli_check)
from momentkit.errors import BadIndex, PreconditionError
from momentkit.measure import MomentRecurrence
from momentkit.positivity import Ray, index
from momentkit.tree import BranchClass, PartialWeights


def quad(sq):
    """A four-weight classical prescription: one branch, no trunk."""
    return PartialWeights([], [BranchClass(sq[0], tuple(sq[1:]), 1)])


def test_solve_subnormal_single_level_example():
    pw = PartialWeights([], [BranchClass(F(1, 4), (), 1), BranchClass(F(1, 4), (), 1)])
    out = solve_subnormal(pw, K=(1, 1))
    assert out.feasible
    assert [m.atoms for m in out.certificate.measures] == [((1, 1),), ((1, 1),)]
    assert out.certificate.verify()


def test_solve_subnormal_bad_index():
    pw = PartialWeights([], [BranchClass(F(1, 4), (), 1)])
    with pytest.raises(BadIndex):
        solve_subnormal(pw, K=(7,))


def test_solve_subnormal_refuses_a_fractional_atom_count():
    # an atom count is a whole number: 3/2 is not truncated to 1, also where
    # 2K = 3 lies inside the range of counts (p + kappa + 1 = 4)
    for tail in ((), (F(2), F(3))):
        pw = PartialWeights([], [BranchClass(F(1, 4), tail, 1)])
        for k in (F(3, 2), "3/2", 1.5):
            with pytest.raises(BadIndex, match="atom count 3/2 outside"):
                solve_subnormal(pw, K=(k,))
    pw = PartialWeights([], [BranchClass(F(1, 4), (), 1)])
    assert solve_subnormal(pw, K=(F(1),)).certificate.K == (1,)


def test_solve_subnormal_matches_four_weight_inequality(rng):
    for _ in range(60):
        vals = sorted({F(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(4)})
        if len(vals) < 4:
            continue
        out = solve_subnormal(quad(vals), K="auto")
        verdict = stampfli_check(*vals, squared=True)
        assert out.status is not SolveStatus.UNKNOWN
        assert out.feasible == verdict.holds
        if out.feasible:
            assert out.certificate.verify()


def test_solve_subnormal_boundary_four_weights():
    # exact boundary: feasible through the recursively generated completion
    bound = F(9) + F(1) * (F(9) - F(4)) ** 2 / (F(9) * (F(4) - F(1)))
    out = solve_subnormal(quad((1, 4, 9, bound)), K="auto")
    assert out.feasible
    below = solve_subnormal(quad((1, 4, 9, bound - F(1, 10 ** 9))), K="auto")
    assert below.status is SolveStatus.INFEASIBLE


def test_solve_subnormal_coupled_levels():
    # two branches, one equality level feeding a bound level
    feasible = PartialWeights([1], [BranchClass(1, (4,), 1), BranchClass(1, (4,), 1)])
    out = solve_subnormal(feasible, K=(2, 2))
    assert out.feasible and out.certificate.verify()
    infeasible = PartialWeights([3], [BranchClass(1, (4,), 1), BranchClass(1, (4,), 1)])
    out = solve_subnormal(infeasible, K=(2, 2))
    assert out.status is SolveStatus.INFEASIBLE
    assert "level 1" in out.reason


def test_certificate_sequences_have_requested_index(rng):
    for _ in range(10):
        lam2_sq = F(rng.randint(2, 9), rng.randint(1, 3))
        pw = PartialWeights([1], [BranchClass(1, (lam2_sq,), 1),
                                  BranchClass(1, (lam2_sq + 1,), 1)])
        out = solve_subnormal(pw, K=(2, 2))
        if not out.feasible:
            continue
        for seq, k, mu in zip(out.certificate.sequences, out.certificate.K,
                              out.certificate.measures):
            assert index(seq.values, Ray()) == k
            assert mu.moment(0) == 1


def test_solve_che_paper_example_region():
    pw = PartialWeights([2], [BranchClass(F(5, 4), (), None)])
    out = solve_che(pw)
    assert out.feasible
    rho = out.certificate.root_measure
    assert rho.positive.atoms == ((F(1, 2), 1),)
    assert out.certificate.verify()
    out = solve_che(PartialWeights([2], [BranchClass(F(8, 5), (), None)]))
    assert out.status is SolveStatus.INFEASIBLE


def test_solve_che_isometry():
    out = solve_che(PartialWeights([], [BranchClass(1, (), None)]))
    assert out.feasible
    assert out.certificate.measures[0].total_mass() == 0


def test_solve_che_general_path():
    pw = PartialWeights([], [BranchClass(2, (F(3, 2),), 1), BranchClass(2, (F(5, 4),), 1)])
    out = solve_che(pw, K="auto")
    assert out.feasible and out.certificate.verify()
    # tails at exactly 2 make the root increments non-monotone: infeasible
    pw = PartialWeights([], [BranchClass(1, (2,), 1), BranchClass(1, (F(9, 4),), 1)])
    out = solve_che(pw, K="auto")
    assert out.status is SolveStatus.INFEASIBLE


def test_solve_che_requires_tails_above_one():
    pw = PartialWeights([], [BranchClass(1, (F(1, 2),), 1), BranchClass(1, (2,), 1)])
    with pytest.raises(PreconditionError):
        solve_che(pw)


def test_flat_che_agreement():
    for trunk, mass, tail, want in [
        ((2,), F(5, 4), (), SolveStatus.FEASIBLE),
        ((2,), F(8, 5), (), SolveStatus.INFEASIBLE),
        ((2,), F(5, 4), (F(23, 20),), SolveStatus.FEASIBLE),
        ((F(3, 2),), F(12, 5), (F(4, 3),), SolveStatus.INFEASIBLE),
    ]:
        pw = PartialWeights(list(trunk), [BranchClass(mass / 2, tail, 1),
                                          BranchClass(mass / 2, tail, 1)])
        a = solve_che(pw)
        b = flat_che_completion(pw)
        assert a.status is want and b.status is want
        if a.feasible:
            assert a.certificate.verify() and b.certificate.verify()


def test_flat_che_rejects_non_flat():
    pw = PartialWeights([], [BranchClass(1, (2,), 1), BranchClass(1, (3,), 1)])
    with pytest.raises(PreconditionError):
        flat_che_completion(pw)


def test_flatness_verifier():
    # prescribed tails are the gamma ratios of the shared one-atom measure,
    # so the flat completion exists and every generation matches
    pw = PartialWeights([2], [BranchClass(F(5, 8), (F(11, 10), F(23, 22)), 1),
                              BranchClass(F(5, 8), (F(11, 10), F(23, 22)), 1)])
    out = solve_che(pw)
    assert out.feasible
    assert out.certificate.measures[0].positive.atoms == ((F(1, 2), F(1, 10)),)
    verdict = flatness_verifier(out.certificate.full, 3,
                                taus=out.certificate.measures)
    assert verdict.two_flat
    verdict = flatness_verifier(out.certificate.full, 2)
    assert verdict.two_flat


def test_kappa_probe_isometry():
    report = kappa_infinite_probe([1, 1, 1, 1], [BranchClass(1, (), 1)], 3)
    assert report.verdict == "FeasibleTowardInfinity"
    assert report.uniform_norm_sq == 2.0
    assert all(status == "Feasible" for _, status, _ in report.per_kappa)


def test_kappa_probe_stops_at_infeasible():
    report = kappa_infinite_probe([F(1, 4), 1, 1], [BranchClass(1, (), 1)], 2)
    assert report.verdict == "Infeasible"
    assert report.stopped_at == 2


def test_kappa_probe_refuses_a_negative_range():
    # kappa_max = -1 ran no prefix and still reported FeasibleTowardInfinity
    with pytest.raises(BadIndex, match="kappa_max"):
        kappa_infinite_probe([1, 1], [BranchClass(1, (), 1)], -1)


def test_kappa_probe_monotone_norms():
    # norms reported per prefix form the empirical bound sequence
    report = kappa_infinite_probe([2, F(3, 2), F(5, 4)], [BranchClass(1, (), 1)], 2)
    assert report.verdict in ("FeasibleTowardInfinity", "Infeasible", "Unknown")
    assert len(report.per_kappa) >= 1


def test_stampfli_examples():
    # corrected four-weight bound: (1,2,3,4) clears 268/27 and is completable
    v = stampfli_check(1, 2, 3, 4)
    assert v.holds and v.rhs == F(268, 27)
    assert stampfli_check(1, 2, 3, 5).holds
    assert not stampfli_check(1, 2, 3, F(315, 100)).holds
    with pytest.raises(PreconditionError):
        stampfli_check(1, 3, 2, 4)
    near_flat = stampfli_check(1, 2, F(20001, 10000), 3)
    assert near_flat.holds  # bound collapses toward the third square


def test_infinite_first_mass_infeasible():
    pw = PartialWeights([], [BranchClass(math.inf, (), None)])
    assert solve_subnormal(pw).status is SolveStatus.INFEASIBLE
    assert solve_che(pw).status is SolveStatus.INFEASIBLE


def test_even_top_certificate_path():
    # forcing the maximal atom count on an even total window crosses the
    # one-more-extension certificate path
    out = solve_subnormal(quad((1, 4, 9, 16)), K=(3,))
    assert out.feasible
    assert out.certificate.K == (3,)
    mu = out.certificate.measures[0]
    assert mu.moment(0) == 1 and mu.moment(1) == 4
    assert out.certificate.verify(depth=12)


def test_auto_k_multi_class():
    pw = PartialWeights([], [BranchClass(F(1, 8), (2,), 1),
                             BranchClass(F(1, 8), (3,), 1)])
    out = solve_subnormal(pw, K="auto")
    assert out.feasible
    assert out.certificate.verify()


def test_certificate_weights_match_measure_moments():
    out = solve_subnormal(quad((1, 4, 9, 16)), K="auto")
    cert = out.certificate
    from momentkit.tree import vertex_moments
    mu = cert.measures[0]
    seq = vertex_moments(cert.full, (1, 1), 10)
    for n, value in enumerate(seq.values):
        assert value == mu.moment(n)


def test_norm_bound_matches_support():
    from momentkit.tree import is_bounded
    out = solve_subnormal(quad((1, 4, 9, 16)), K="auto")
    cert = out.certificate
    bound = is_bounded(cert.full).norm_sq_bound
    top = cert.measures[0].max_atom()
    assert abs(float(bound) - float(top)) < 1e-9 * max(1.0, float(top))


def test_che_certificate_indices():
    from momentkit.positivity import HalfOpen, index
    pw = PartialWeights([], [BranchClass(2, (F(3, 2),), 1), BranchClass(2, (F(5, 4),), 1)])
    out = solve_che(pw, K="auto")
    assert out.feasible
    for seq, k in zip(out.certificate.sequences, out.certificate.K):
        assert index(seq.values, HalfOpen()) == k


def test_solve_subnormal_two_trunk_levels():
    # built from (delta_1 + delta_2)/2: equalities pin both trunk levels and
    # the deepest slot is forced, leaving slack at the bound
    pw = PartialWeights([F(6, 5), 1], [BranchClass(F(4, 3), (F(3, 2),), 1)])
    out = solve_subnormal(pw, K=(2,))
    assert out.feasible
    seq = out.certificate.sequences[0]
    assert seq.values == (F(9, 16), F(5, 8), F(3, 4), 1, F(3, 2))
    assert out.certificate.measures[0].atoms == ((1, F(1, 2)), (2, F(1, 2)))
    assert out.certificate.verify(depth=12)


def test_solve_che_two_trunk_levels():
    # built from delta_1 / 10: every trunk level follows the single-atom
    # measure, including a singular forced window at the deepest slot
    pw = PartialWeights([F(9, 8), F(3, 2)], [BranchClass(F(10, 9), (F(11, 10),), 1)])
    out = solve_che(pw, K=(F(3, 2),))
    assert out.feasible
    tau = out.certificate.measures[0]
    assert tau.positive.atoms == ((1, F(1, 10)),)
    assert out.certificate.verify(depth=12)


def test_flat_che_irrational_atoms_certificate_verifies():
    # the shared measure's atoms are irrational roots, known only by
    # enclosures; the certificate must still verify exactly
    tail = (F(188533, 181648), F(962996, 942665))
    pw = PartialWeights([F(169957, 150040), F(217558, 115981)],
                        [BranchClass(F(1271536, 6628323), tail, 1),
                         BranchClass(F(5812736, 6628323), tail, 1)])
    out = flat_che_completion(pw)
    assert out.status is SolveStatus.FEASIBLE
    positive = out.certificate.measures[0].positive
    assert isinstance(positive, MomentRecurrence) and not positive.atoms_hint.exact
    assert out.certificate.verify(64)


# planted, feasible non-flat CHE problems (benchmark corpus `che`, seeds 626
# and 13) that a split taken from the least next-level load alone declared
# Infeasible: level 1 has no free class, so its load must meet the target
@pytest.mark.parametrize("trunk_sq, masses, tails", [
    ((F(6483, 5581), F(145106, 86815)), (F(4235, 6483), F(968, 2161)),
     ((F(1459, 1331),), (F(1363, 1331),))),
    ((F(457, 411), F(5343, 3190)), (F(256, 457), F(224, 457)),
     ((F(33, 32),), (F(65, 64),))),
    ((F(682, 571), F(11991, 8090)), (F(90, 341), F(288, 341)),
     ((F(28, 27),), (F(29, 27),))),
])
def test_che_split_meets_forced_level(trunk_sq, masses, tails):
    pw = PartialWeights(trunk_sq, [BranchClass(m, t, 1) for m, t in zip(masses, tails)])
    out = solve_che(pw, K="auto")
    assert out.status is SolveStatus.FEASIBLE
    assert out.certificate.verify(64)


def test_subnormal_split_keeps_masses_and_norm_moderate():
    # planted (benchmark corpus `subnormal`, seed 303): a split at the end of
    # its range put an atom near 3e8 with mass 6e-18 into the certificate
    pw = PartialWeights(
        (F(4967099865, 5072317937), F(918084474279063, 3604497452852708)),
        [BranchClass(F(36465, 142702), (F(73, 65), F(25825, 16352)), 1),
         BranchClass(F(24310, 10193), (F(2543, 462), F(113753, 15258)), 1)])
    out = solve_subnormal(pw, K="auto")
    assert out.feasible and out.certificate.verify(64)
    assert out.certificate.norm_sq < 100
    for mu in out.certificate.measures:
        atoms = getattr(mu, "atoms_hint", mu).atoms
        assert all(float(mass) > 1e-12 for _, mass in atoms)


def test_programming_errors_propagate(monkeypatch):
    from momentkit import completion

    def broken(*args):
        raise ZeroDivisionError("injected")

    # every threshold and forced value, in the search and in the atom-count
    # checks, is read through `_threshold`
    monkeypatch.setattr(completion, "_threshold", broken)
    pw = PartialWeights([1], [BranchClass(1, (4,), 1), BranchClass(1, (4,), 1)])
    with pytest.raises(ZeroDivisionError):
        solve_subnormal(pw, K=(2, 2))
    pw = PartialWeights([], [BranchClass(2, (F(3, 2),), 1), BranchClass(2, (F(5, 4),), 1)])
    with pytest.raises(ZeroDivisionError):
        solve_che(pw, K="auto")


# float copies of planted, feasible problems (benchmark corpus `subnormal`,
# seed 41 problem 0 and seed 42 problem 46): a level with every class forced
# carries a load one ulp off its target, which the band must count as met
@pytest.mark.parametrize("trunk_sq, masses, tails", [
    ((F(195, 107), F(1605, 1826)), (F(35, 26), F(15, 26)),
     ((F(5, 3), F(5, 3)), (F(3), F(3)))),
    ((F(2496, 2039), F(79521, 148205)), (F(39, 80), F(39, 80), F(117, 160)),
     ((F(6), F(6)), (F(13, 5), F(13, 5)), (F(1), F(1)))),
])
def test_float_forced_level_within_band(trunk_sq, masses, tails):
    pw = PartialWeights([float(t) for t in trunk_sq],
                        [BranchClass(float(m), tuple(float(x) for x in t), 1)
                         for m, t in zip(masses, tails)])
    out = solve_subnormal(pw, K="auto")
    assert out.status is SolveStatus.FEASIBLE, out.reason
    assert out.certificate.verify(64)
