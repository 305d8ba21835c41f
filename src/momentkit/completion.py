"""Feasibility solvers for the two completion problems.

Each branch of the tree contributes a moment window built from its squared
weights; completing the shift means extending every branch window backwards
(one value per trunk level) so that weighted sums of the new values hit the
trunk targets -- equalities at every level except the deepest, which is a
bound.  A slot is *forced* when the requested atom count makes the window
singular (its value is the exact reciprocal infimum of the next 2K entries)
and *free* otherwise (any value strictly above the running threshold).

The level search distributes each level's residual across the free branches,
biasing the split by a one-parameter line search on the next level's
threshold load when needed.  Every constructed point is verified exactly;
infeasibility is only declared from threshold lower bounds, and search
exhaustion yields Unknown, never a fabricated verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .alternating import CAMeasure, has_ca_extension
from .backward import forced_value, minimal_measure_window
from .errors import (BadIndex, DegenerateInput, PreconditionError, Unsupported)
from .measure import AtomicMeasure, MomentRecurrence, MomentSequence, tilt
from .numeric import Polynomial, Scalar, as_fraction, format_scalar
from .positivity import HalfOpen, PositivityClass, Ray, classify_half_open, classify_ray
from .principal import bordered_hankel_poly
from .tree import (BranchClass, FullBranch, FullWeights, GeometricSumTail,
                   MeasureTail, PartialWeights, verify_che_certificate,
                   verify_subnormal_certificate)

SNAP_DENOMINATOR = 2 ** 48
UNKNOWN_BAND = 1e-9


class SolveStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


@dataclass
class CompletionCertificate:
    kind: str
    partial: PartialWeights
    K: tuple
    sequences: tuple
    measures: tuple
    full: FullWeights
    norm_sq: Scalar
    root_measure: Optional[CAMeasure] = None

    def verify(self, depth: int = 12) -> bool:
        if self.kind == "subnormal":
            return verify_subnormal_certificate(self.full, self.measures, depth)
        return verify_che_certificate(self.full, self.measures, depth)

    def completed_weights_sq(self, count: Optional[int] = None):
        """Per class, the squared weights of generations 1..p+8 (first entry
        is the class first-weight mass)."""
        p = self.partial.p
        count = count if count is not None else p + 8
        out = []
        for cls in self.full.classes:
            row = [cls.first_mass]
            row.extend(cls.generator.weight_sq(j) for j in range(2, count + 1))
            out.append(tuple(row))
        return out

    def to_json(self) -> dict:
        def fmt(x):
            return format_scalar(x) if not isinstance(x, float) else repr(x)

        measures = []
        for mu in self.measures:
            if hasattr(mu, "to_json"):
                measures.append(mu.to_json())
            else:
                measures.append(repr(mu))
        out = {
            "kind": self.kind,
            "K": [fmt(Fraction(k)) if not isinstance(k, float) else k for k in self.K],
            "sequences": [s.to_json() for s in self.sequences],
            "measures": measures,
            "weights_sq": [[fmt(w) for w in row] for row in self.completed_weights_sq()],
            "trunk_sq": [fmt(t) for t in self.full.trunk_sq],
            "norm_sq": fmt(self.norm_sq) if not isinstance(self.norm_sq, float) else self.norm_sq,
        }
        if self.root_measure is not None:
            out["root_measure"] = self.root_measure.to_json()
        return out


@dataclass
class SolveOutcome:
    status: SolveStatus
    certificate: Optional[CompletionCertificate] = None
    reason: Optional[str] = None
    details: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.FEASIBLE


# --------------------------------------------------------------------------
# shared level machinery
# --------------------------------------------------------------------------

@dataclass
class _DomainOps:
    domain: object
    classify: Callable

    def is_strict(self, seq) -> bool:
        return self.classify(seq).kind is PositivityClass.STRICTLY_POSITIVE

    def threshold(self, seq) -> Scalar:
        """Strict-slot threshold for prepending: the reciprocal infimum,
        exact for exact input."""
        from .extremal import reciprocal_inf_half_open, reciprocal_inf_ray
        if isinstance(self.domain, Ray):
            return reciprocal_inf_ray(seq)
        return reciprocal_inf_half_open(seq)

    def forced(self, seq, big_n):
        return forced_value(list(seq[:big_n + 1]), self.domain)


_RAY_OPS = _DomainOps(Ray(), classify_ray)
_HALF_OPS = _DomainOps(HalfOpen(), classify_half_open)


def _snap(value, headroom) -> Fraction:
    """Rational near a float search point, coarse enough to stay stable."""
    if not isinstance(value, float):
        return as_fraction(value)
    f = Fraction(value).limit_denominator(SNAP_DENOMINATOR)
    return f


def _golden_min(fn, lo: float, hi: float, iters: int = 48) -> float:
    """Golden-section minimizer for a unimodal objective on [lo, hi]."""
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return c if fc <= fd else d


@dataclass
class _LevelProblem:
    ops: _DomainOps
    masses: tuple           # first-weight mass per class
    big_ns: tuple           # 2K_i - 1 per class
    p_top: int              # length of the given window per class
    targets: tuple          # per level, the right-hand side for the mass sum
    kappa: int              # deepest level index; that level is the bound


def _slot_is_free(big_n: int, p_top: int, level: int) -> bool:
    # slot -(level+1) is strict iff -(level+1) >= (p_top - 1) - big_n
    return big_n >= p_top + level


def _compare_to_target(lower, target, is_bound):
    """(feasible?, provably_infeasible?, within_band?) of a level whose free
    values must push the mass sum strictly above `lower`."""
    if not isinstance(lower, float) and not isinstance(target, float):
        if lower >= target:
            return False, True, False
        return True, False, False
    flo, ftg = float(lower), float(target)
    band = UNKNOWN_BAND * max(1.0, abs(ftg))
    if flo >= ftg + band:
        return False, True, False
    if flo >= ftg - band:
        return False, False, True
    return True, False, False


def _search_levels(problem: _LevelProblem, seqs, level: int = 0):
    """Recursive level filler.  Returns (status, payload): the completed
    per-class windows on success, a reason string otherwise."""
    ops = problem.ops
    if level > problem.kappa:
        return SolveStatus.FEASIBLE, seqs
    target = problem.targets[level]
    is_bound = (level == problem.kappa)

    forced_vals = {}
    free_idx = []
    for c, seq in enumerate(seqs):
        if _slot_is_free(problem.big_ns[c], problem.p_top, level):
            free_idx.append(c)
        else:
            forced_vals[c] = ops.forced(seq, problem.big_ns[c])
    forced_sum = sum((problem.masses[c] * v for c, v in forced_vals.items()),
                     Fraction(0))

    if not free_idx:
        ok = (forced_sum <= target) if is_bound else (forced_sum == target)
        if not ok:
            rel = "exceeds" if forced_sum > target else "misses"
            return SolveStatus.INFEASIBLE, (
                f"level {level}: forced load {forced_sum} {rel} target {target}")
        next_seqs = [(forced_vals[c],) + tuple(seqs[c]) for c in range(len(seqs))]
        return _search_levels(problem, next_seqs, level + 1)

    thresholds = {c: ops.threshold(seqs[c]) for c in free_idx}
    lower = forced_sum + sum(problem.masses[c] * thresholds[c] for c in free_idx)
    feasible_here, provably_bad, banded = _compare_to_target(lower, target, is_bound)
    if provably_bad:
        return SolveStatus.INFEASIBLE, (
            f"level {level}: threshold load {lower} precludes target {target}")
    if banded:
        return SolveStatus.UNKNOWN, (
            f"level {level}: target within tolerance of the threshold load {lower}")
    residual = target - lower  # > 0 up to the float band

    def build_point(shares, consume) -> Optional[dict]:
        """Per-class snapped rational values: free class `pos` receives
        shares[pos] of the consumed residual; on equality levels the last
        free class closes the sum exactly."""
        xs = {}
        for pos, c in enumerate(free_idx):
            if not is_bound and pos == len(free_idx) - 1:
                continue
            bump_mass = float(consume) * float(residual) * float(shares[pos])
            x = _snap(float(thresholds[c]) + bump_mass / float(problem.masses[c]), None)
            xs[c] = x
        if not is_bound:
            last = free_idx[-1]
            remaining = target - forced_sum - sum(
                problem.masses[c] * xs[c] for c in free_idx[:-1])
            xs[last] = remaining / problem.masses[last]
        else:
            total = forced_sum + sum(problem.masses[c] * xs[c] for c in free_idx)
            if not total <= target:
                return None
        for c in free_idx:
            if xs[c] <= 0 or not ops.is_strict((xs[c],) + tuple(seqs[c])):
                return None
        return xs

    nfree = len(free_idx)
    candidates = []
    uniform = [Fraction(1, nfree)] * nfree
    if is_bound:
        candidates.extend([(uniform, Fraction(1, 2)), (uniform, Fraction(9, 10)),
                           (uniform, Fraction(1, 100))])
    else:
        minimizing = None
        if nfree == 2 and level < problem.kappa:
            # split driven by the next level's threshold load
            def load(lam: float) -> float:
                total = 0.0
                for pos, c in enumerate(free_idx):
                    share = lam if pos == 0 else 1.0 - lam
                    x = (float(thresholds[c])
                         + share * float(residual) / float(problem.masses[c]))
                    try:
                        nxt = ops.threshold((x,) + tuple(float(v) for v in seqs[c]))
                    except Exception:
                        return math.inf
                    total += float(problem.masses[c]) * float(nxt)
                return total

            lam = _golden_min(load, 1e-9, 1.0 - 1e-9)
            minimizing = [Fraction(lam).limit_denominator(10 ** 9),
                          1 - Fraction(lam).limit_denominator(10 ** 9)]
            candidates.append((minimizing, Fraction(1)))
        candidates.append((uniform, Fraction(1)))
        if nfree >= 2:
            for j in range(nfree):
                biased = [Fraction(1, 50)] * nfree
                biased[j] = 1 - Fraction(nfree - 1, 50)
                candidates.append((biased, Fraction(1)))

    unknown_seen = None
    child_infeasible = []
    for pick, (shares, consume) in enumerate(candidates):
        point = build_point(shares, consume)
        if point is None:
            continue
        next_seqs = []
        for c in range(len(seqs)):
            v = point[c] if c in point else forced_vals[c]
            next_seqs.append((v,) + tuple(seqs[c]))
        status, payload = _search_levels(problem, next_seqs, level + 1)
        if status is SolveStatus.FEASIBLE:
            return status, payload
        if status is SolveStatus.UNKNOWN:
            unknown_seen = payload
        else:
            child_infeasible.append((pick, payload))
    if unknown_seen is not None:
        return SolveStatus.UNKNOWN, unknown_seen
    if not is_bound and child_infeasible:
        # the first candidate minimizes the downstream load (two free
        # classes) or is the only degree of freedom (one free class); if
        # even it leads to a certified dead end, the level is infeasible
        if nfree == 1 or (nfree == 2 and child_infeasible[0][0] == 0):
            return SolveStatus.INFEASIBLE, child_infeasible[0][1]
        return SolveStatus.UNKNOWN, child_infeasible[0][1]
    return SolveStatus.UNKNOWN, f"level {level}: allocation attempts exhausted"


# --------------------------------------------------------------------------
# index compatibility with the prescribed branch data
# --------------------------------------------------------------------------

def _branch_k_compatible(ops: _DomainOps, given, big_n: int) -> bool:
    """Can the prescribed window carry a minimal measure with this 2K-1?
    Slots at depth >= given-length - big_n are strict (one suffix check
    suffices), deeper prescribed slots must equal their forced values."""
    given = tuple(given)
    top = len(given) - 1
    k0 = max(0, top - big_n)
    if not ops.is_strict(given[k0:]):
        return False
    for k in range(k0 - 1, -1, -1):
        window = given[k + 1:k + big_n + 2]
        if not ops.is_strict(window):
            return False
        if given[k] != ops.forced(given[k + 1:], big_n):
            return False
    return True


def _admissible_ks(ops, given, k_max_twice: int):
    """All 2K values in 1..k_max_twice (even on the ray) compatible with the
    given window."""
    out = []
    step = 2 if isinstance(ops.domain, Ray) else 1
    for two_k in range(step, k_max_twice + 1, step):
        if two_k % 2 and isinstance(ops.domain, Ray):
            continue
        if _branch_k_compatible(ops, given, two_k - 1):
            out.append(two_k)
    return out


def _k_vectors(per_class_options):
    """Lexicographic product, smallest vectors first."""
    if not per_class_options:
        yield ()
        return
    head, rest = per_class_options[0], per_class_options[1:]
    for choice in head:
        for tail in _k_vectors(rest):
            yield (choice,) + tail


# --------------------------------------------------------------------------
# certificate assembly
# --------------------------------------------------------------------------

def _window_poly(window, domain) -> Polynomial:
    window = list(window)
    if isinstance(domain, Ray) or len(window) % 2 == 0:
        return bordered_hankel_poly(window)
    diffs = [window[k] - window[k + 1] for k in range(len(window) - 1)]
    inner = bordered_hankel_poly(diffs) if diffs else Polynomial([1])
    return inner.mul_linear(1, -1)


def _certificate_measure(window, first_index: int, full_window, domain):
    """Measure for a completed branch: explicit atoms when they are exact,
    otherwise a moment recurrence seeded with the full extension (exact
    moments either way).  `window` holds the deepest 2K entries, with
    `full_window` the whole extension starting at `first_index`."""
    zero_based = minimal_measure_window(window, domain)
    shifted = tilt(zero_based, -first_index)
    if zero_based.exact:
        return shifted
    poly = _window_poly(window, domain)
    return MomentRecurrence(poly, first_index, list(full_window), atoms_hint=shifted)


class RecurrentCAMeasure:
    """CAMeasure-shaped wrapper over a moment recurrence (no mass at zero)."""

    zero_mass = Fraction(0)

    def __init__(self, recurrence: MomentRecurrence):
        self.recurrence = recurrence

    def moment(self, k: int) -> Scalar:
        return self.recurrence.moment(k)

    def total_mass(self) -> Scalar:
        return self.recurrence.moment(0)

    def geometric_sum(self, n: int) -> Scalar:
        return sum((self.recurrence.moment(k) for k in range(n)), Fraction(0))

    @property
    def positive(self):
        return self.recurrence.atoms_hint

    def to_json(self) -> dict:
        return self.recurrence.to_json()


def _norm_sq_bound(full: FullWeights, measures) -> Scalar:
    candidates = [float(full.first_mass_total)]
    candidates.extend(float(t) for t in full.trunk_sq)
    for mu in measures:
        try:
            candidates.append(float(mu.max_atom()))
        except Exception:
            sup = mu.positive.max_atom() if getattr(mu, "positive", None) and \
                mu.positive.atoms else 0.0
            candidates.append(float(sup))
    return max(candidates)


# --------------------------------------------------------------------------
# subnormal completions
# --------------------------------------------------------------------------

def _given_subnormal_window(cls: BranchClass):
    seq = [Fraction(1)]
    for t in cls.tail_sq:
        seq.append(seq[-1] * t)
    return tuple(seq)


def _subnormal_targets(pw: PartialWeights):
    targets = []
    prod = Fraction(1)
    for k in range(pw.kappa + 1):
        targets.append(1 / prod)
        if k < pw.kappa:
            prod = prod * pw.trunk_sq[k]
    return tuple(targets)


def solve_subnormal(pw: PartialWeights, K="auto") -> SolveOutcome:
    """Decide whether the prescribed weights extend to a subnormal shift
    whose branch measures have the requested atom counts (K per class, or
    "auto" to sweep the admissible counts)."""
    kappa, p = pw.kappa, pw.p
    if pw.first_mass_total == math.inf:
        return SolveOutcome(SolveStatus.INFEASIBLE,
                            reason="branching square sum diverges")
    givens = [_given_subnormal_window(cls) for cls in pw.classes]
    k_cap = -((p + kappa + 1) // -2)
    if K == "auto":
        options = []
        for given in givens:
            opts = _admissible_ks(_RAY_OPS, given, 2 * k_cap)
            if not opts:
                return SolveOutcome(
                    SolveStatus.INFEASIBLE,
                    reason="a branch window admits no minimal atom count")
            options.append([o // 2 for o in opts])
        vectors = list(_k_vectors(options))
    else:
        K = tuple(int(k) for k in K)
        if len(K) != len(pw.classes):
            raise BadIndex("one atom count per branch class is required")
        for k in K:
            if not 1 <= k <= k_cap:
                raise BadIndex(f"atom count {k} outside [1, {k_cap}]")
        for k, given in zip(K, givens):
            if not _branch_k_compatible(_RAY_OPS, given, 2 * k - 1):
                return SolveOutcome(
                    SolveStatus.INFEASIBLE,
                    reason=f"prescribed weights incompatible with {k} atoms")
        vectors = [K]

    targets = _subnormal_targets(pw)
    masses = tuple(cls.first_mass for cls in pw.classes)
    unknown = None
    reasons = []
    for vec in vectors:
        problem = _LevelProblem(_RAY_OPS, masses, tuple(2 * k - 1 for k in vec),
                                p, targets, kappa)
        try:
            status, payload = _search_levels(problem, [tuple(g) for g in givens])
        except Exception as exc:  # kernel guarantees violated along a path
            status, payload = SolveStatus.UNKNOWN, f"K={vec}: search aborted: {exc}"
        if status is SolveStatus.FEASIBLE:
            return _subnormal_certificate(pw, vec, payload)
        if status is SolveStatus.UNKNOWN:
            unknown = payload
        else:
            reasons.append(f"K={vec}: {payload}")
    if unknown is not None:
        return SolveOutcome(SolveStatus.UNKNOWN, reason=unknown)
    return SolveOutcome(SolveStatus.INFEASIBLE, reason="; ".join(reasons))


def _subnormal_certificate(pw: PartialWeights, vec, windows) -> SolveOutcome:
    kappa, p = pw.kappa, pw.p
    first_index = -kappa - 1
    sequences = []
    measures = []
    branches = []
    for cls, k_atoms, window in zip(pw.classes, vec, windows):
        window = list(window)
        sequences.append(MomentSequence(first_index, window))
        big_n = 2 * k_atoms - 1
        if big_n + 1 <= len(window):
            mu = _certificate_measure(window[:big_n + 1], first_index, window,
                                      Ray())
        else:
            # even-length window at the maximal atom count: extend once more
            theta = _RAY_OPS.threshold(window)
            probe = _accepted_extension(window, theta)
            mu = _certificate_measure([probe] + window[:big_n], first_index - 1,
                                      [probe] + window, Ray())
        measures.append(mu)
        branches.append(FullBranch(cls.first_mass,
                                   MeasureTail(cls.tail_sq, mu), cls.count))
    full = FullWeights(pw.trunk_sq, branches)
    verify_subnormal_certificate(full, measures)
    cert = CompletionCertificate("subnormal", pw, tuple(vec), tuple(sequences),
                                 tuple(measures), full,
                                 _norm_sq_bound(full, measures))
    return SolveOutcome(SolveStatus.FEASIBLE, cert)


def _accepted_extension(window, theta) -> Fraction:
    """A rational value strictly above the threshold of `window`, chosen to
    keep the resulting minimal measure's atom sum small (the root-sum bound
    that controls the norm of the completion)."""
    window = list(window)

    def atom_sum(x: float) -> float:
        try:
            poly = bordered_hankel_poly([x] + [float(v) for v in window])
        except Exception:
            return math.inf
        lead = poly.coeffs[-1]
        if lead == 0:
            return math.inf
        return abs(-poly.coeffs[-2] / lead)

    base = max(float(theta), 0.0)
    lam = _golden_min(lambda t: atom_sum(base + t), 1e-9, max(8 * base, 8.0))
    candidates = [base + lam, base * 1.5 + 1e-6, base * 2 + 1, base + 1]
    for value in candidates:
        snapped = _snap(value, None)
        if snapped > 0 and _RAY_OPS.is_strict((snapped,) + tuple(window)):
            return snapped
    raise DegenerateInput("no strict extension value found")


# --------------------------------------------------------------------------
# completely hyperexpansive completions
# --------------------------------------------------------------------------

def _given_che_window(cls: BranchClass):
    prods = [Fraction(1)]
    for t in cls.tail_sq:
        prods.append(prods[-1] * t)
    return tuple(prods[k + 1] - prods[k] for k in range(len(cls.tail_sq)))


def _che_targets(pw: PartialWeights):
    total = pw.first_mass_total
    targets = [total - 1]
    prod = Fraction(1)
    for k in range(1, pw.kappa + 1):
        prod = prod * pw.trunk_sq[k - 1]
        targets.append((pw.trunk_sq[k - 1] - 1) / prod)
    return tuple(targets)


def solve_che(pw: PartialWeights, K="auto") -> SolveOutcome:
    """Decide whether the prescribed weights extend to a completely
    hyperexpansive shift with the requested branch measure indices.

    Single-generation data (p = 1) always reduces to the flat construction.
    """
    kappa, p = pw.kappa, pw.p
    if pw.first_mass_total == math.inf:
        return SolveOutcome(SolveStatus.INFEASIBLE,
                            reason="branching square sum diverges")
    if p == 1 or _is_flat(pw):
        return flat_che_completion(pw)
    for cls in pw.classes:
        for t in cls.tail_sq:
            if not t > 1:
                raise PreconditionError(
                    "tail weights must exceed 1 for the non-flat solver")
    givens = [_given_che_window(cls) for cls in pw.classes]
    two_k_cap = p + kappa
    if K == "auto":
        options = []
        for given in givens:
            opts = _admissible_ks(_HALF_OPS, given, two_k_cap)
            if not opts:
                return SolveOutcome(
                    SolveStatus.INFEASIBLE,
                    reason="a branch window admits no minimal index")
            options.append([Fraction(o, 2) for o in opts])
        vectors = list(_k_vectors(options))
    else:
        K = tuple(Fraction(k) for k in K)
        if len(K) != len(pw.classes):
            raise BadIndex("one index per branch class is required")
        for k in K:
            if (2 * k).denominator != 1 or not Fraction(1, 2) <= k <= Fraction(two_k_cap, 2):
                raise BadIndex(f"index {k} outside [1/2, {Fraction(two_k_cap, 2)}]")
        for k, given in zip(K, givens):
            if not _branch_k_compatible(_HALF_OPS, given, int(2 * k) - 1):
                return SolveOutcome(
                    SolveStatus.INFEASIBLE,
                    reason=f"prescribed weights incompatible with index {k}")
        vectors = [K]

    targets = _che_targets(pw)
    if any(t < 0 for t in targets):
        return SolveOutcome(SolveStatus.INFEASIBLE,
                            reason="a trunk target is negative")
    masses = tuple(cls.first_mass for cls in pw.classes)
    unknown = None
    reasons = []
    for vec in vectors:
        problem = _LevelProblem(_HALF_OPS, masses,
                                tuple(int(2 * k) - 1 for k in vec),
                                p - 1, targets, kappa)
        try:
            status, payload = _search_levels(problem, [tuple(g) for g in givens])
        except Exception as exc:
            status, payload = SolveStatus.UNKNOWN, f"K={vec}: search aborted: {exc}"
        if status is SolveStatus.FEASIBLE:
            return _che_certificate(pw, vec, payload)
        if status is SolveStatus.UNKNOWN:
            unknown = payload
        else:
            reasons.append(f"K={vec}: {payload}")
    if unknown is not None:
        return SolveOutcome(SolveStatus.UNKNOWN, reason=unknown)
    return SolveOutcome(SolveStatus.INFEASIBLE, reason="; ".join(reasons))


def _che_certificate(pw: PartialWeights, vec, windows) -> SolveOutcome:
    kappa = pw.kappa
    first_index = -kappa - 1
    sequences, measures, branches = [], [], []
    for cls, k_idx, window in zip(pw.classes, vec, windows):
        window = list(window)
        sequences.append(MomentSequence(first_index, window))
        big_n = int(2 * k_idx) - 1
        mu = _certificate_measure(window[:big_n + 1], first_index, window,
                                  HalfOpen())
        tau = CAMeasure(0, mu) if isinstance(mu, AtomicMeasure) else RecurrentCAMeasure(mu)
        measures.append(tau)
        branches.append(FullBranch(cls.first_mass,
                                   GeometricSumTail(cls.tail_sq, tau), cls.count))
    full = FullWeights(pw.trunk_sq, branches)
    verify_che_certificate(full, measures)
    cert = CompletionCertificate("che", pw, tuple(vec), tuple(sequences),
                                 tuple(measures), full,
                                 _che_norm_sq(pw, measures))
    return SolveOutcome(SolveStatus.FEASIBLE, cert)


def _che_norm_sq(pw: PartialWeights, measures) -> Scalar:
    candidates = [float(pw.first_mass_total)]
    candidates.extend(float(t) for t in pw.trunk_sq)
    for cls, tau in zip(pw.classes, measures):
        candidates.append(float(1 + tau.total_mass()))
        if cls.tail_sq:
            candidates.append(float(max(cls.tail_sq)))
    return max(candidates)


def _is_flat(pw: PartialWeights) -> bool:
    tails = {cls.tail_sq for cls in pw.classes}
    return len(tails) == 1


def _root_sequence(pw: PartialWeights):
    """Vertex moment values of the deepest trunk vertex of the completed
    shift, as far as the prescribed data determines them."""
    kappa, p = pw.kappa, pw.p
    c = [Fraction(1)]
    for n in range(1, kappa + 1):
        c.append(c[-1] * pw.trunk_sq[kappa - n])
    tail = pw.classes[0].tail_sq
    total = pw.first_mass_total
    prod = Fraction(1)
    for n in range(kappa + 1, kappa + p + 1):
        steps = n - kappa
        if steps >= 2:
            prod = prod * tail[steps - 2]
        c.append(c[kappa] * total * prod)
    return c


def flat_che_completion(pw: PartialWeights) -> SolveOutcome:
    """Completely hyperexpansive completion for branch data that coincides
    from the second generation on: feasibility reduces to completely
    alternating extendability of the deepest vertex's moment sequence, and
    the certificate is 2-generation flat (one shared branch measure)."""
    if not _is_flat(pw):
        raise PreconditionError("branch tails differ; flat construction unavailable")
    if pw.first_mass_total == math.inf:
        return SolveOutcome(SolveStatus.INFEASIBLE,
                            reason="branching square sum diverges")
    kappa = pw.kappa
    root_seq = _root_sequence(pw)
    verdict = has_ca_extension(root_seq)
    if not verdict.has_extension:
        return SolveOutcome(
            SolveStatus.INFEASIBLE,
            reason="root vertex sequence has no completely alternating extension")
    rho = verdict.measure
    scale = pw.first_mass_total
    for t in pw.trunk_sq:
        scale = scale * t
    # the root measure is t^-(kappa+1) d(scale * tau) plus its mass at zero
    shared = CAMeasure(0, AtomicMeasure(
        [(pos, m * pos ** (kappa + 1) / scale) for pos, m in rho.positive.atoms],
        exact=rho.positive.exact))
    branches = [FullBranch(cls.first_mass,
                           GeometricSumTail(cls.tail_sq, shared), cls.count)
                for cls in pw.classes]
    full = FullWeights(pw.trunk_sq, branches)
    taus = [shared] * len(pw.classes)
    verify_che_certificate(full, taus)
    first_index = -kappa - 1
    seq_values = [shared.moment(k) for k in range(first_index, pw.p - 1)]
    sequences = tuple(MomentSequence(first_index, seq_values)
                      for _ in pw.classes)
    idx = Fraction(0)
    for pos, _ in shared.positive.atoms:
        idx += Fraction(1, 2) if pos == 1 else 1
    cert = CompletionCertificate("che-flat", pw, tuple([idx] * len(pw.classes)),
                                 sequences, tuple(taus), full,
                                 _che_norm_sq(pw, taus), root_measure=rho)
    return SolveOutcome(SolveStatus.FEASIBLE, cert)


# --------------------------------------------------------------------------
# probes and classical checks
# --------------------------------------------------------------------------

@dataclass
class ProbeReport:
    verdict: str           # "FeasibleTowardInfinity" | "Infeasible" | "Unknown"
    per_kappa: tuple       # (kappa, status name, norm_sq or None)
    uniform_norm_sq: Optional[float] = None
    stopped_at: Optional[int] = None


def kappa_infinite_probe(trunk_sq_stream, classes, kappa_max: int,
                         K="auto") -> ProbeReport:
    """Run the finite-trunk solver for every trunk prefix up to kappa_max
    and report the norm bounds; 'feasible toward infinity' is an empirical
    statement about the prefixes, never a proof."""
    trunk_sq_stream = list(trunk_sq_stream)
    if len(trunk_sq_stream) < kappa_max:
        raise Unsupported("trunk prefix shorter than the probe range")
    rows = []
    norms = []
    for kappa in range(kappa_max + 1):
        pw = PartialWeights(trunk_sq_stream[:kappa], classes)
        outcome = solve_subnormal(pw, K)
        norm = None
        if outcome.feasible:
            norm = float(outcome.certificate.norm_sq)
            norms.append(norm)
        rows.append((kappa, outcome.status.value, norm))
        if outcome.status is SolveStatus.INFEASIBLE:
            return ProbeReport("Infeasible", tuple(rows), stopped_at=kappa)
        if outcome.status is SolveStatus.UNKNOWN:
            return ProbeReport("Unknown", tuple(rows), stopped_at=kappa)
    return ProbeReport("FeasibleTowardInfinity", tuple(rows),
                       uniform_norm_sq=max(norms) if norms else None)


@dataclass(frozen=True)
class StampfliVerdict:
    holds: bool
    lhs: Scalar
    rhs: Scalar


def stampfli_check(l1, l2, l3, l4, squared: bool = False) -> StampfliVerdict:
    """Four-weight completion inequality for the classical shift: with
    squares a < b < c < d the completion exists iff

        d >= c + a (c - b)^2 / (c (b - a)),

    the right side being the fourth moment ratio of the recursively
    generated two-atom completion of the first three weights."""
    vals = [l1, l2, l3, l4]
    vals = [v if isinstance(v, float) else Fraction(v) for v in vals]
    if not all(v > 0 for v in vals):
        raise PreconditionError("weights must be positive")
    if not vals[0] < vals[1] < vals[2] < vals[3]:
        raise PreconditionError("weights must be strictly increasing")
    a, b, c, d = [v if squared else v * v for v in vals]
    rhs = c + a * (c - b) ** 2 / (c * (b - a))
    return StampfliVerdict(d >= rhs, d, rhs)


@dataclass(frozen=True)
class FlatnessVerdict:
    two_flat: bool
    witness: Optional[tuple] = None  # (class index, generation, value, reference)


def flatness_verifier(w: FullWeights, r: int, taus=None, depth: int = 12) -> FlatnessVerdict:
    """For a verified completely hyperexpansive shift that is r-generation
    flat, confirm 2-generation flatness up to the verification depth.  A
    violation would contradict the structure theory, so it is reported as a
    witness rather than silently accepted."""
    if r < 2:
        raise PreconditionError("flatness is defined from generation 2 on")
    if taus is not None:
        verify_che_certificate(w, taus, depth)
    # r-flatness precondition
    ref = w.classes[0]
    for idx, cls in enumerate(w.classes[1:], start=2):
        for j in range(max(r, 2), depth + 2):
            if cls.generator.weight_sq(j) != ref.generator.weight_sq(j):
                raise PreconditionError(
                    f"class {idx} is not {r}-generation flat at generation {j}")
    for idx, cls in enumerate(w.classes[1:], start=2):
        for j in range(2, depth + 2):
            got = cls.generator.weight_sq(j)
            want = ref.generator.weight_sq(j)
            if got != want:
                return FlatnessVerdict(False, (idx, j, got, want))
    return FlatnessVerdict(True)
