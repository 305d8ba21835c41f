"""Independent brute-force validators.

Nothing here reuses the Hankel/principal machinery: positivity is decided by
floating eigenvalues of the criterion forms rebuilt from scratch, and the
reciprocal-integral envelope comes from a linear program over measures
supported on a fine geometric grid.  These validators exist to cross-check
the exact classifiers and threshold computations, so independence matters
more than speed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from ._record import FrozenRecord
from .measure import AtomicMeasure
from .positivity import Compact, Domain, HalfOpen, PositivityClass


class OracleConfig(FrozenRecord):
    _fields = ("trials", "atoms_min", "atoms_max", "position_num_max", "position_den_max",
               "mass_num_max", "mass_den_max", "seed", "resolution", "grid_q", "half_open")

    def __init__(self, trials: int = 100, atoms_min: int = 1, atoms_max: int = 4,
                 position_num_max: int = 24, position_den_max: int = 12,
                 mass_num_max: int = 12, mass_den_max: int = 8, seed: int = 0,
                 resolution: int = 900, grid_q: int = 10, half_open: bool = False):
        self.__dict__.update(
            trials=trials, atoms_min=atoms_min, atoms_max=atoms_max,
            position_num_max=position_num_max, position_den_max=position_den_max,
            mass_num_max=mass_num_max, mass_den_max=mass_den_max, seed=seed,
            resolution=resolution, grid_q=grid_q, half_open=half_open)


def random_measure(cfg: OracleConfig, trial: int = 0,
                   atoms: Optional[int] = None) -> AtomicMeasure:
    """Deterministic random measure with distinct rational atoms; the trial
    index derives an independent stream from the seed."""
    rng = random.Random(cfg.seed * 1_000_003 + trial)
    count = atoms if atoms is not None else rng.randint(cfg.atoms_min, cfg.atoms_max)
    positions = set()
    while len(positions) < count:
        num = rng.randint(1, cfg.position_num_max)
        den = rng.randint(1, cfg.position_den_max)
        pos = Fraction(num, den)
        if cfg.half_open and pos > 1:
            pos = Fraction(den, num) if num else Fraction(1)
            if pos > 1:
                continue
        positions.add(pos)
    pairs = []
    for pos in sorted(positions):
        mass = Fraction(rng.randint(1, cfg.mass_num_max),
                        rng.randint(1, cfg.mass_den_max))
        pairs.append((pos, mass))
    return AtomicMeasure(pairs)


# --------------------------------------------------------------------------
# eigenvalue-based grid classifier
# --------------------------------------------------------------------------

def _eig_class(mat: np.ndarray, tol: float) -> PositivityClass:
    if mat.size == 0:
        return PositivityClass.STRICTLY_POSITIVE
    eig = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.abs(mat).max()))
    if eig.min() < -tol * scale:
        return PositivityClass.NOT_POSITIVE
    if eig.min() <= tol * scale:
        return PositivityClass.SINGULARLY_POSITIVE
    return PositivityClass.STRICTLY_POSITIVE


def _compact_class_eig(values, a: float, b: float, tol: float = 1e-11) -> PositivityClass:
    s = [float(v) for v in values]
    n = len(s) - 1
    if n % 2 == 0:
        m = n // 2
        h1 = np.array([[s[i + j] for j in range(m + 1)] for i in range(m + 1)])
        t = [(a + b) * s[k + 1] - a * b * s[k] - s[k + 2] for k in range(n - 1)]
        h2 = np.array([[t[i + j] for j in range(m)] for i in range(m)]) if m else np.zeros((0, 0))
    else:
        m = (n - 1) // 2
        lo = [s[k + 1] - a * s[k] for k in range(n)]
        hi = [b * s[k] - s[k + 1] for k in range(n)]
        h1 = np.array([[lo[i + j] for j in range(m + 1)] for i in range(m + 1)])
        h2 = np.array([[hi[i + j] for j in range(m + 1)] for i in range(m + 1)])
    c1, c2 = _eig_class(h1, tol), _eig_class(h2, tol)
    if PositivityClass.NOT_POSITIVE in (c1, c2):
        return PositivityClass.NOT_POSITIVE
    if PositivityClass.SINGULARLY_POSITIVE in (c1, c2):
        return PositivityClass.SINGULARLY_POSITIVE
    return PositivityClass.STRICTLY_POSITIVE


def grid_classify(values, domain: Domain, cfg: OracleConfig = OracleConfig()) -> PositivityClass:
    """Positivity verdict straight from the definition: try compact
    intervals from an expanding grid and take the best verdict found."""
    if isinstance(domain, Compact):
        return _compact_class_eig(values, float(domain.a), float(domain.b))
    best = PositivityClass.NOT_POSITIVE
    for q in range(1, cfg.grid_q + 1):
        a = 2.0 ** -q
        b = 1.0 if isinstance(domain, HalfOpen) else 2.0 ** q
        verdict = _compact_class_eig(values, a, b)
        if verdict is PositivityClass.STRICTLY_POSITIVE:
            return verdict
        if verdict is PositivityClass.SINGULARLY_POSITIVE:
            best = verdict
    return best


# --------------------------------------------------------------------------
# reciprocal-integral envelope by linear programming
# --------------------------------------------------------------------------

def _lp_envelope(values, grid: np.ndarray, maximize: bool):
    from scipy.optimize import linprog

    powers = np.vstack([grid ** k for k in range(len(values))])
    rhs = np.array([float(v) for v in values])
    row_scale = np.where(np.abs(rhs) > 0, np.abs(rhs), 1.0)
    a_eq = powers / row_scale[:, None]
    b_eq = rhs / row_scale
    # column scaling keeps the huge range of grid powers tractable
    col_scale = np.maximum(np.abs(a_eq).max(axis=0), 1e-300)
    a_eq = a_eq / col_scale[None, :]
    cost = (1.0 / grid) / col_scale
    if maximize:
        cost = -cost
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(grid), method="highs")
    if not res.success:
        return None
    return (-res.fun if maximize else res.fun), res.x / col_scale


def sweep_reciprocal(values, domain: Domain, cfg: OracleConfig = OracleConfig()):
    """Empirical (min, max) of the reciprocal integral over representing
    measures: a grid LP, refined once around the optimal support.  The max
    on unbounded domains grows with the grid and is only a lower bound on
    the true supremum."""
    if isinstance(domain, Compact):
        lo, hi = float(domain.a), float(domain.b)
    elif isinstance(domain, HalfOpen):
        lo, hi = 2.0 ** -14, 1.0
    else:
        lo, hi = 2.0 ** -14, 2.0 ** 14
    out = []
    for maximize in (False, True):
        grid = np.geomspace(lo, hi, cfg.resolution)
        best = _lp_envelope(values, grid, maximize)
        if best is None:
            out.append(math.nan)
            continue
        value, weights = best
        for _ in range(2):
            # an atom counts by its largest moment contribution, not its
            # mass: a far atom with tiny mass can carry the top moment
            contrib = weights * np.maximum(1.0, grid ** (len(values) - 1))
            support = grid[contrib > 1e-12 * max(contrib.max(), 1e-30)]
            if support.size == 0:
                break
            pieces = [np.geomspace(max(x / 1.25, lo), min(x * 1.25, hi),
                                   max(cfg.resolution // max(support.size, 1), 48))
                      for x in support]
            grid = np.unique(np.concatenate(pieces + [support]))
            refined = _lp_envelope(values, grid, maximize)
            if refined is None:
                break
            value, weights = refined
        out.append(value)
    return tuple(out)
