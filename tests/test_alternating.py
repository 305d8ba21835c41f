from fractions import Fraction as F

import pytest

from momentkit.alternating import (CAMeasure, ca_backward_extend, ca_scale,
                                   has_ca_extension)
from momentkit.errors import DomainError, ZeroAtomError
from momentkit.measure import AtomicMeasure, MomentRecurrence, moment_row
from momentkit.numeric import Polynomial
from conftest import random_half_open_measure


def test_has_ca_extension_examples():
    v = has_ca_extension([1, 2, 3])
    assert v.has_extension and v.measure.positive.atoms == ((1, 1),)
    assert not has_ca_extension([1, 2, 4]).has_extension
    v = has_ca_extension([5, 5, 5])
    assert v.has_extension and v.measure.total_mass() == 0


@pytest.mark.parametrize("c, kind", [([0.125], None), ([1.0, 1.0, 1.0], "SingularlyPositive"),
                                     ([1.0, 2.0, 2.5], "StrictlyPositive"),
                                     ([1.0, 2.0, 2.5, 2.75], "SingularlyPositive"),
                                     ([1.0, 3.0, 4.0, 4.5, 4.75], "SingularlyPositive")])
def test_float_ca_extensions_carry_a_float_zero_mass(c, kind):
    # one value, a constant sequence, strict increments and singular ones
    # with no atom at 0: on float input the mass at zero is the float 0.0,
    # and every moment of the measure a float
    v = has_ca_extension(c)
    assert v.has_extension and (v.increment_class and v.increment_class.value) == kind
    assert isinstance(v.measure.zero_mass, float) and v.measure.zero_mass == 0
    assert isinstance(v.measure.total_mass(), float)
    assert moment_row(v.measure, 0, 3).floats


def test_reconstruction_identity(rng):
    # c_0 plus geometric sums of the measure reproduce the sequence exactly;
    # data is sized so the minimal-index measure is the generator itself
    for _ in range(60):
        k = rng.randint(1, 3)
        odd_window = rng.random() < 0.5
        tau = random_half_open_measure(rng, k, include_one=not odd_window)
        length = 2 * k + 1 if odd_window else 2 * k
        c0 = F(rng.randint(0, 5), rng.randint(1, 3))
        c = [c0]
        for n in range(1, length):
            c.append(c0 + sum(tau.moment(j) for j in range(n)))
        v = has_ca_extension(c)
        assert v.has_extension
        got = v.measure
        assert got.zero_mass == 0 and got.positive == tau
        for n in range(1, len(c)):
            assert c[0] + got.geometric_sum(n) == c[n]


def test_geometric_sum_matches_moments():
    # closed form for rational atoms below 1, term by term for the atom 1
    # and for floats; the zero mass counts once n >= 1
    for zero, atoms in [(F(2), [(F(1, 3), F(1)), (F(1), F(2))]),
                        (F(0), [(F(7, 2 ** 33), F(5, 3))]),
                        (0.5, [(0.25, 1.5), (1.0, 0.5)])]:
        tau = CAMeasure(zero, AtomicMeasure(atoms))
        for n in range(6):
            want = (zero if n else 0) + sum(m * x ** k for x, m in atoms for k in range(n))
            assert tau.geometric_sum(n) == want
        if zero:  # a negative moment of a measure charging zero: the row raises as `moment` does
            for read in (lambda: tau.moment(-1), lambda: moment_row(tau, -2, 1)):
                with pytest.raises(ZeroAtomError):
                    read()


def test_minimal_measure_prefers_zero_free(rng):
    # strictly positive increments of even length: the zero-avoiding
    # principal choice carries the atom 1 instead of one at 0
    for _ in range(20):
        tau = random_half_open_measure(rng, 2)
        c = [1]
        for n in range(1, 4):
            c.append(1 + sum(tau.moment(k) for k in range(n)))
        v = has_ca_extension(c)
        assert v.has_extension
        assert v.measure.zero_mass == 0


def test_ca_scale():
    assert ca_scale([1, 2, 3], 2) == (2, 4, 6)
    assert ca_scale([5, 5, 5], 3) == (15, 15, 15)
    assert ca_scale([1, 2], 1) == (1, 2)
    with pytest.raises(DomainError):
        ca_scale([1, 2], 0)


def test_ca_scale_commutes_with_measure(rng):
    for _ in range(30):
        tau = random_half_open_measure(rng, rng.randint(1, 2))
        c = [2]
        for n in range(1, 4):
            c.append(2 + sum(tau.moment(k) for k in range(n)))
        lam = F(rng.randint(1, 6), rng.randint(1, 4))
        scaled = ca_scale(c, lam)
        v1 = has_ca_extension(c)
        v2 = has_ca_extension(scaled)
        assert v2.measure.total_mass() == lam * v1.measure.total_mass()
        assert v2.measure.positive == v1.measure.scaled(lam).positive


def test_ca_backward_examples():
    tau = CAMeasure(0, AtomicMeasure([(1, 1)]))
    r = ca_backward_extend([2, 3, 4], [1], tau)
    assert r.ok and r.rho.zero_mass == 0 and r.rho.positive.atoms == ((1, 1),)
    assert r.zero_mass_is_zero
    r = ca_backward_extend([2, 3, 4], [F(1, 2)], tau)
    assert r.ok and r.rho.zero_mass == F(1, 2)
    assert not r.zero_mass_is_zero
    r = ca_backward_extend([2, 3, 4], [F(3, 2)], tau)
    assert not r.ok and "5/2" in r.violated


def test_recurrence_part_scales_and_extends_backward():
    # atoms (1 +- 5^(-1/2)) / 2, the roots of t^2 - t + 1/5, with mass 1/2 each
    hint = AtomicMeasure([(F(553, 2000), F(1, 2)), (F(1447, 2000), F(1, 2))], exact=False)
    rec = MomentRecurrence(Polynomial([F(1, 5), -1, 1]), 0, [1, F(1, 2)], atoms_hint=hint)
    tau = CAMeasure(0, rec)
    s = {k: rec.moment(k) for k in range(-3, 5)}
    assert s[-1] == F(5, 2) and s[2] == F(3, 10)
    scaled = tau.scaled(3)
    assert isinstance(scaled.positive, MomentRecurrence)
    assert [scaled.moment(k) for k in range(-3, 5)] == [3 * s[k] for k in range(-3, 5)]
    assert scaled.positive.atoms_hint == hint.scaled(3)
    c = [2 + sum(s[k] for k in range(n)) for n in range(4)]
    slack = F(1, 7)
    c_1 = c[0] - s[-1]
    r = ca_backward_extend(c, [c_1 - s[-2] - slack, c_1], tau)
    assert r.ok and r.rho.zero_mass == slack
    assert isinstance(r.rho.positive, MomentRecurrence)
    assert [r.rho.positive.moment(k) for k in range(-1, 5)] == [s[k - 2] for k in range(-1, 5)]
    assert r.rho.positive.atoms_hint.atoms == tuple((x, m / x ** 2) for x, m in hint.atoms)
    r = ca_backward_extend(c, [c_1 - s[-2] + slack, c_1], tau)
    assert not r.ok


def test_ca_backward_rejects_zero_mass_tau():
    tau = CAMeasure(1, AtomicMeasure([(1, 1)]))
    with pytest.raises(ZeroAtomError):
        ca_backward_extend([2, 3, 4], [1], tau)


def test_ca_backward_zero_mass_iff_equality(rng):
    # both branches of the zero-mass dichotomy, on random data
    hit_zero = hit_positive = 0
    for trial in range(200):
        tau = random_half_open_measure(rng, rng.randint(1, 2))
        r = rng.randint(1, 3)
        # keep every prefix slot positive: start well above the reciprocal load
        c0 = 2 * sum(tau.moment(-(k + 1)) for k in range(r)) + rng.randint(1, 3)
        c = [c0]
        for n in range(1, 4):
            c.append(c0 + sum(tau.moment(k) for k in range(n)))
        prefix = []
        value = c0
        for k in range(r - 1):
            value = value - tau.moment(-(k + 1))
            prefix.append(value)
        equality = trial % 2 == 0
        deepest_bound = value - tau.moment(-r)
        assert deepest_bound > 0
        deepest = deepest_bound if equality else deepest_bound * F(rng.randint(1, 4), 5)
        prefix.append(deepest)
        result = ca_backward_extend(c, list(reversed(prefix)),
                                    CAMeasure(0, tau))
        assert result.ok
        assert result.zero_mass_is_zero == (result.rho.zero_mass == 0)
        if equality:
            assert result.rho.zero_mass == 0
            hit_zero += 1
        else:
            if deepest != deepest_bound:
                assert result.rho.zero_mass > 0
                hit_positive += 1
        # reconstruction: rho matches the reciprocal tilt plus the slack
        assert result.rho.positive == AtomicMeasure(
            [(p, m * p ** -r) for p, m in tau.atoms])
    assert hit_zero > 30 and hit_positive > 30


def test_ca_backward_violation_reports_bound():
    tau = CAMeasure(0, AtomicMeasure([(F(1, 2), F(1, 8))]))
    c = [3, 3 + F(1, 8), 3 + F(3, 16)]
    # interior equality forces c_-1 = 3 - 1/4; deepest needs c_-2 <= 9/4
    result = ca_backward_extend(c, [2, F(11, 4)], tau)
    assert result.ok and result.rho.zero_mass == F(1, 4)
    result = ca_backward_extend(c, [F(5, 2), F(11, 4)], tau)
    assert not result.ok and "slot" in result.violated
    result = ca_backward_extend(c, [2, F(27, 10)], tau)  # breaks the equality chain
    assert not result.ok
