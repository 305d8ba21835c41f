from fractions import Fraction as F

from momentkit.extremal import reciprocal_inf_ray
from momentkit.measure import moments
from momentkit.oracle import OracleConfig, grid_classify, random_measure, sweep_reciprocal
from momentkit.positivity import (Compact, HalfOpen, PositivityClass, Ray,
                                  classify_half_open, classify_ray)
from conftest import random_rational_measure

S = PositivityClass.STRICTLY_POSITIVE
N = PositivityClass.NOT_POSITIVE


def test_random_measure_reproducible():
    cfg = OracleConfig(seed=1)
    assert random_measure(cfg, 5) == random_measure(cfg, 5)
    assert random_measure(cfg, 5) != random_measure(cfg, 6)
    assert random_measure(OracleConfig(seed=1, atoms_min=1, atoms_max=1), 0).support_size == 1
    assert random_measure(cfg, 2, atoms=4).support_size == 4


def test_grid_classify_examples():
    assert grid_classify([2, 3, 5, 9], Ray()) is S
    assert grid_classify([1, 2, 3], Ray()) is N
    assert grid_classify([1, 1, 1], Ray()) is PositivityClass.SINGULARLY_POSITIVE
    assert grid_classify([2, 3, 5], Compact(1, 2)) is PositivityClass.SINGULARLY_POSITIVE


def test_grid_agrees_with_classifier(rng):
    cfg = OracleConfig(grid_q=10)
    coarse = 0
    trials = 200
    for _ in range(trials):
        if rng.random() < 0.5:
            k = rng.randint(1, 3)
            mu = random_rational_measure(rng, k, num_max=12, den_max=8)
            n = rng.randint(1, 4)
            seq = list(moments(mu, 0, n).values)
        else:
            seq = [F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
        lib = classify_ray(seq).kind
        grid = grid_classify(seq, Ray(), cfg)
        if lib is S or lib is N:
            assert grid is lib, (seq, lib, grid)
        elif grid is not lib:
            coarse += 1  # documented coarse-grid slack on the singular boundary
    assert coarse <= trials // 100


def test_sweep_brackets_library_values(rng):
    cfg = OracleConfig(resolution=500)
    checked = 0
    for _ in range(25):
        k = rng.randint(1, 2)
        mu = random_rational_measure(rng, k, num_max=12, den_max=6)
        n = 2 * k - 1
        seq = list(moments(mu, 0, n).values)
        t = float(reciprocal_inf_ray(seq))
        lo, hi = sweep_reciprocal(seq, Ray(), cfg)
        assert lo == lo and lo >= t - 2e-3 * max(1.0, t)
        assert lo <= t + 2e-3 * max(1.0, t)
        assert hi >= t
        checked += 1
    assert checked == 25


def test_sweep_brackets_even_infimum(rng):
    # the even-window infimum is not attained, so the LP over a bounded grid
    # sits just above it; rows where the LP fails are skipped and counted
    cfg = OracleConfig(resolution=500)
    checked = failed = 0
    for _ in range(15):
        mu = random_rational_measure(rng, rng.randint(2, 3), num_max=12, den_max=6)
        seq = list(moments(mu, 0, 2 * mu.support_size - 2).values)
        t = float(reciprocal_inf_ray(seq))
        lo, _ = sweep_reciprocal(seq, Ray(), cfg)
        if lo != lo:
            failed += 1
            continue
        assert lo >= t - 2e-3 * max(1.0, t), (seq, lo, t)
        assert abs(lo - t) <= 1e-2 * t, (seq, lo, t)
        checked += 1
    assert checked >= 12, (checked, failed)


def test_sweep_known_values():
    cfg = OracleConfig(resolution=700)
    lo, _ = sweep_reciprocal([2, 3, 5], Ray(), cfg)
    assert abs(lo - 4 / 3) < 1e-4
    lo, _ = sweep_reciprocal([2, 3, 5, 9], Ray(), cfg)
    assert abs(lo - 1.5) < 1e-6
    lo, _ = sweep_reciprocal([1, 4], Ray(), cfg)
    assert abs(lo - 0.25) < 1e-6
    lo, _ = sweep_reciprocal([3, 2, F(3, 2)], HalfOpen(), cfg)
    assert abs(lo - 5) < 1e-4


def test_grid_agrees_half_open(rng):
    from momentkit.measure import moments
    from conftest import random_half_open_measure
    cfg = OracleConfig(grid_q=10)
    coarse = 0
    for trial in range(120):
        if trial % 2 == 0:
            mu = random_half_open_measure(rng, rng.randint(1, 2),
                                          include_one=rng.random() < 0.5)
            seq = list(moments(mu, 0, rng.randint(1, 4)).values)
        else:
            seq = [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
        lib = classify_half_open(seq).kind
        grid = grid_classify(seq, HalfOpen(), cfg)
        if lib in (S, N):
            assert grid is lib, (seq, lib, grid)
        elif grid is not lib:
            coarse += 1
    assert coarse <= 2
