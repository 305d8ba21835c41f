import math
from fractions import Fraction as F

import pytest

from momentkit.alternating import CAMeasure
from momentkit.errors import CertificateInvalid, DegenerateInput, ZeroAtomError
from momentkit.measure import AtomicMeasure, moments
from momentkit.tree import (BranchClass, FullBranch, FullWeights, GeometricSumTail,
                            ListTail, MeasureTail, PartialWeights, TreeShape,
                            is_bounded, verify_che_certificate,
                            verify_subnormal_certificate, vertex_moments)
from conftest import random_rational_measure


def _flat_full(first_masses, weight_sq=1):
    return FullWeights([], [FullBranch(m, ListTail([weight_sq]), 1)
                            for m in first_masses])


def test_tree_shape_validation():
    TreeShape(2, 0)
    TreeShape(math.inf, 3)
    with pytest.raises(DegenerateInput):
        TreeShape(0, 1)
    with pytest.raises(DegenerateInput):
        TreeShape(1, -1)


def test_partial_weights_structure():
    pw = PartialWeights([2], [BranchClass(F(5, 4), (), None)])
    assert pw.kappa == 1 and pw.p == 1 and pw.eta == math.inf
    pw = PartialWeights.from_branch_lists([], [[F(1, 4), 2], [F(1, 4), 3]])
    assert pw.p == 2 and pw.first_mass_total == F(1, 2)
    with pytest.raises(DegenerateInput):
        PartialWeights([], [BranchClass(1, (2,)), BranchClass(1, ())])


def test_vertex_moments_examples():
    fw = _flat_full([F(1, 2), F(1, 2)])
    assert vertex_moments(fw, (1, 1), 3).values == (1, 1, 1, 1)
    assert vertex_moments(fw, 0, 1).values == (1, 1)
    classical = FullWeights([], [FullBranch(1, ListTail([2, 3, 4], repeat_last=True), 1)])
    assert vertex_moments(classical, (1, 1), 2).values == (1, 2, 6)
    two = FullWeights([], [FullBranch(F(1, 4), ListTail([2]), 1),
                           FullBranch(F(3, 4), ListTail([5]), 1)])
    assert vertex_moments(two, 0, 1).values == (1, 1)  # 1/4 + 3/4
    assert vertex_moments(two, 0, 2).values == (1, 1, F(1, 4) * 2 + F(3, 4) * 5)


def test_vertex_moments_through_trunk():
    fw = FullWeights([4, 9], [FullBranch(F(1, 2), ListTail([3]), 1)])
    seq = vertex_moments(fw, -2, 4)
    assert seq.values == (1, 9, 36, 18, 54)


def test_is_bounded_examples():
    assert is_bounded(_flat_full([1, 1])).norm_sq_bound == 2
    diverging = FullWeights([], [FullBranch(math.inf, ListTail([1]), None)])
    assert not is_bounded(diverging).bounded
    growing = FullWeights([], [FullBranch(1, ListTail([1, 4, 9], declared_sup=math.inf), 1)])
    assert not is_bounded(growing).bounded


def test_norm_matches_measure_support(rng):
    for _ in range(20):
        mu = random_rational_measure(rng, rng.randint(1, 3))
        mu = AtomicMeasure([(p, m / mu.total_mass()) for p, m in mu.atoms])
        total = F(1, 2)  # keep the branching sum below the top atom? not needed
        fw = FullWeights([], [FullBranch(total, MeasureTail([], mu), 1)])
        bound = is_bounded(fw).norm_sq_bound
        assert bound == max(mu.max_atom(), total)


def test_verify_subnormal_examples():
    mu = AtomicMeasure([(1, 1)])
    good = FullWeights([], [FullBranch(F(1, 4), MeasureTail([], mu), 1),
                            FullBranch(F(1, 4), MeasureTail([], mu), 1)])
    assert verify_subnormal_certificate(good, [mu, mu])
    bad = FullWeights([], [FullBranch(1, MeasureTail([], mu), 1),
                           FullBranch(1, MeasureTail([], mu), 1)])
    with pytest.raises(CertificateInvalid):
        verify_subnormal_certificate(bad, [mu, mu])


def test_verify_subnormal_trunk_chain(rng):
    # build a certificate by hand: one branch, trunk chosen to satisfy the
    # equalities exactly
    for _ in range(10):
        mu = random_rational_measure(rng, 2)
        mu = AtomicMeasure([(p, m / mu.total_mass()) for p, m in mu.atoms])
        w1_sq = F(1, 2)
        trunk0 = 1 / (w1_sq * mu.moment(-2) / (w1_sq * mu.moment(-1)))
        # level 0: w1^2 * m(-1) = 1 requires w1^2 = 1/m(-1)
        w1_sq = 1 / mu.moment(-1)
        trunk0 = (w1_sq * mu.moment(-2)) ** -1
        fw = FullWeights([trunk0], [FullBranch(w1_sq, MeasureTail([], mu), 1)])
        assert verify_subnormal_certificate(fw, [mu])


def test_verify_subnormal_mismatch_names_identity():
    mu = AtomicMeasure([(1, 1)])
    other = AtomicMeasure([(2, 1)])
    fw = FullWeights([], [FullBranch(F(1, 4), MeasureTail([], mu), 1)])
    with pytest.raises(CertificateInvalid) as err:
        verify_subnormal_certificate(fw, [other])
    assert "moment 1" in str(err.value)
    heavy = AtomicMeasure([(1, 2)])
    fw = FullWeights([], [FullBranch(F(1, 4), MeasureTail([], heavy), 1)])
    with pytest.raises(CertificateInvalid) as err:
        verify_subnormal_certificate(fw, [heavy])
    assert err.value.identity == "branch 1: zeroth moment is 1"


def test_verify_che_mismatch_names_identity():
    tau = CAMeasure(0, AtomicMeasure([(F(1, 2), F(1, 10))]))
    fw = FullWeights([], [FullBranch(1, GeometricSumTail([3], tau), 1)])
    with pytest.raises(CertificateInvalid) as err:
        verify_che_certificate(fw, [tau])
    assert err.value.identity == "branch 1: geometric sum 1 equals the weight product"


def test_verify_che_examples():
    # isometry with an infinite trunk
    zero = CAMeasure(0, AtomicMeasure([]))
    fw = FullWeights([1, 1, 1], [FullBranch(F(1, 2), GeometricSumTail([], zero), 1),
                                 FullBranch(F(1, 2), GeometricSumTail([], zero), 1)],
                     kappa_infinite=True)
    assert verify_che_certificate(fw, [zero, zero])
    # the one-trunk single-atom certificate
    tau = CAMeasure(0, AtomicMeasure([(F(1, 2), F(1, 10))]))
    fw = FullWeights([2], [FullBranch(F(5, 4), GeometricSumTail([], tau), 1)])
    assert verify_che_certificate(fw, [tau])
    with pytest.raises(ZeroAtomError):
        verify_che_certificate(fw, [CAMeasure(F(1, 10), AtomicMeasure([]))])


def test_verify_che_rejects_wrong_trunk():
    tau = CAMeasure(0, AtomicMeasure([(F(1, 2), F(1, 10))]))
    # deepest level: 1 + (3/2)(5/4)(2/5) = 7/4 exceeds the trunk square 3/2
    fw = FullWeights([F(3, 2)], [FullBranch(F(5, 4), GeometricSumTail([], tau), 1)])
    with pytest.raises(CertificateInvalid):
        verify_che_certificate(fw, [tau])


def test_certificate_without_branch_class_is_refused():
    for verifier in (verify_subnormal_certificate, verify_che_certificate):
        with pytest.raises(CertificateInvalid, match="at least one branch class"):
            verifier(FullWeights([], []), [])
        with pytest.raises(CertificateInvalid, match="at least one branch class"):
            verifier(FullWeights([2], []), [], 64)
