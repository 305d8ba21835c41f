import math
from fractions import Fraction as F

import pytest

from momentkit.errors import NotStrictlyPositive
from momentkit.extremal import (compact_reciprocal_values, reciprocal_extremes_compact,
                                reciprocal_inf_half_open, reciprocal_inf_ray,
                                reciprocal_sup_ray_bounds, reciprocal_value_from_poly,
                                unbounded_reciprocal_witness)
from momentkit.measure import moments
from momentkit.positivity import classify_compact, PositivityClass
from momentkit.principal import PrincipalKind, principal_compact, principal_polynomial
from conftest import random_rational_measure


def test_compact_extremes_examples():
    eb = reciprocal_extremes_compact([2, 3, 5], 1, 4)
    assert eb.t_lo == F(125, 91) + F(1, 52)
    assert eb.t_hi == F(3, 2)
    assert eb.attained_lo.moment(-1) == eb.t_lo
    assert eb.attained_hi.moment(-1) == eb.t_hi
    eb = reciprocal_extremes_compact([1, 1], F(1, 2), 2)
    assert eb.t_lo == 1  # the interior single-atom measure
    assert eb.t_hi == F(3, 2)


def test_extremes_strictly_separated(rng):
    for _ in range(40):
        k = rng.randint(1, 3)
        mu = random_rational_measure(rng, k)
        n = rng.randint(1, 2 * k - 1) if k > 1 else 1
        window = moments(mu, 0, n)
        a, b = mu.atoms[0][0] / 2, mu.atoms[-1][0] * 2 + 1
        eb = reciprocal_extremes_compact(window, a, b)
        assert eb.t_lo < eb.t_hi
        # every representing measure sits inside the bounds
        assert eb.t_lo <= mu.moment(-1) <= eb.t_hi


def test_cross_check_signed_formula(rng):
    # the determinant identity reproduces the direct principal integrals
    for _ in range(40):
        mu = random_rational_measure(rng, rng.randint(1, 2))
        n = rng.randint(1, 3)
        window = list(moments(mu, 0, n).values)
        a, b = mu.atoms[0][0] / 2, mu.atoms[-1][0] * 2 + 1
        if classify_compact(window, a, b).kind is not PositivityClass.STRICTLY_POSITIVE:
            continue
        for kind in PrincipalKind:
            value = reciprocal_value_from_poly(
                principal_polynomial(window, a, b, kind), window)
            measure = principal_compact(window, a, b, kind)
            if measure.exact:
                assert measure.moment(-1) == value
            else:
                assert abs(float(measure.moment(-1)) - float(value)) < 1e-8


def test_reciprocal_inf_ray_paper_values():
    for lam_sq in (2, 4, 9):
        assert reciprocal_inf_ray([1, lam_sq]) == F(1, lam_sq)
    assert reciprocal_inf_ray([2, 3, 5, 9]) == F(3, 2)


def test_reciprocal_inf_ray_even_limit():
    for s_minus1, lam_sq in ((2, 4), (3, 2), (F(3, 2), 9)):
        value = reciprocal_inf_ray([s_minus1, 1, lam_sq])
        assert isinstance(value, F)
        assert value == F(s_minus1) ** 2


def test_reciprocal_inf_single_moment():
    assert reciprocal_inf_ray([7]) == 0


def test_reciprocal_inf_requires_positive():
    with pytest.raises(NotStrictlyPositive):
        reciprocal_inf_ray([1, 2, 3])


def test_reciprocal_inf_half_open_examples():
    assert reciprocal_inf_half_open([1]) == 1
    assert reciprocal_inf_half_open([3, 2, F(3, 2)]) == 5
    assert reciprocal_inf_half_open([1, 1]) == 1


def test_unbounded_witness():
    for seq, target in (([2, 3, 5, 9], 100), ([1, 1], 10), ([2, 3, 5], 1000)):
        a, b = unbounded_reciprocal_witness(seq, target)
        lo, hi = compact_reciprocal_values(seq, a, b)
        assert max(lo, hi) > target
    assert reciprocal_sup_ray_bounds([1, 1]).t_hi == math.inf


def test_compact_value_monotonicity(rng):
    # infimum nonincreasing in b, supremum nondecreasing as a shrinks
    for _ in range(40):
        k = rng.randint(1, 3)
        mu = random_rational_measure(rng, k)
        n = rng.randint(1, max(2 * k - 1, 1))
        window = moments(mu, 0, n)
        a = mu.atoms[0][0] / 2
        b = mu.atoms[-1][0] * 2 + 1
        lows, highs = [], []
        for step in range(3):
            lo, hi = compact_reciprocal_values(window, a / (2 ** step), b * (2 ** step))
            lows.append(min(lo, hi))
            highs.append(max(lo, hi))
        assert lows[0] >= lows[1] >= lows[2]
        assert highs[0] <= highs[1] <= highs[2]


def test_even_inf_strict_against_family(rng):
    # the even-case infimum is strictly below every minimal measure's value
    from momentkit.backward import minimal_measure_with_reciprocal
    for _ in range(15):
        mu = random_rational_measure(rng, rng.randint(2, 3))
        window = moments(mu, 0, 2 * mu.support_size - 2)
        t = reciprocal_inf_ray(window)
        x = mu.moment(-1)
        assert x > t
        other = minimal_measure_with_reciprocal(window, x + 1)
        assert other.moment(-1) > t


def test_even_inf_truncation_observation(rng):
    # dropping the top moment does not change the even-case infimum: the
    # theorem reciprocal_inf_ray rests on
    for _ in range(10):
        mu = random_rational_measure(rng, 2)
        window = list(moments(mu, 0, 2).values)
        assert reciprocal_inf_ray(window) == reciprocal_inf_ray(window[:2])


def test_even_inf_knife_edge(rng):
    # the infimum is not attained: prepending it gives no extension, and
    # anything above it a strict one; float input lands on the exact value
    from momentkit.backward import ExtensionClass, classify_backward
    for _ in range(40):
        mu = random_rational_measure(rng, rng.randint(2, 3))
        window = list(moments(mu, 0, 2 * mu.support_size - 2).values)
        t = reciprocal_inf_ray(window)
        assert isinstance(t, F)
        assert classify_backward(window, t).kind is ExtensionClass.NOT_EXTENSION
        assert classify_backward(window, t + F(1, 10 ** 12)).kind is ExtensionClass.STRICT
        approx = reciprocal_inf_ray([float(v) for v in window])
        assert abs(approx - float(t)) <= 1e-9 * float(t)
