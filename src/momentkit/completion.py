"""Feasibility solvers for the two completion problems.

Each branch of the tree contributes a moment window built from its squared
weights; completing the shift extends every branch window backwards (one
value per trunk level) so that weighted sums of the new values hit the
trunk targets -- equalities at every level but the deepest, a bound.  A slot
is *forced* when the atom count makes the window singular (its value is the
reciprocal infimum of the next 2K entries), else *free* (any value strictly
above the running threshold).

Each level's residual is split over the free branches in closed form: a
branch's next-level value is an exact convex quadratic in the value
prepended here, so the split minimising the next level's least load follows
from equal slopes, in rationals.  That decides the next level exactly, but
an equality level with no free branch is met on a two-branch line whose
step may be irrational (Unknown).  With two or more levels left the
minimiser is greedy, so uniform and biased splits are tried too.

Each branch is one integer image (`positivity._Window`) from its verdict,
which reads the atom counts K it admits (`_admissible_two_ks`), to its
certificate measure, its minimal measure (`principal._minimal`), which the
checker verifies again: a level extends it by `_Window.prepended`, a forced
value cuts it by `_Window.prefix`, and each threshold (`_threshold`), forced
value and level quadratic is computed once per solve, in one table keyed by
image that every K vector searched reads (`_LevelValues`).

`kappa_infinite_probe` is the one answer outside the exact contract: its
"FeasibleTowardInfinity" is an empirical statement about finite prefixes.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Optional

from ._record import FrozenRecord, Record
from ._recurrence import MomentRecurrence
from .alternating import CAMeasure, has_ca_extension
from .extremal import _reciprocal_inf, _schur_threshold
from .errors import BadIndex, DegenerateInput, MomentKitError, PreconditionError, Unsupported
from .measure import AtomicMeasure, MomentSequence, tilt
from .numeric import Scalar, _to_float, format_scalar, root_precision
from .positivity import (HalfOpen, Ray, _Window, _classify_limit, _limit_window, _odd_half_open,
                         _verdict_index)
from . import positivity as _positivity
from .principal import HINT_BITS, _atom_poly, _masses, _minimal, _minimal_roots, _one_per_root
from .tree import BranchClass, CompletionCertificate, FullWeights, PartialWeights

UNKNOWN_BAND = 1e-9

# the classical four-weight check is closed-form window arithmetic, so it
# lives in `positivity` and a `stampfli` file loads no completion layer;
# re-exported here beside the solvers it cross-checks
StampfliVerdict = _positivity.StampfliVerdict
stampfli_check = _positivity.stampfli_check


class SolveStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


class SolveOutcome(Record):
    """details defaults to a fresh empty dict."""

    _fields = ("status", "certificate", "reason", "details")

    def __init__(self, status: SolveStatus, certificate: Optional[CompletionCertificate] = None,
                 reason: Optional[str] = None, details: Optional[dict] = None):
        self.status, self.certificate, self.reason = status, certificate, reason
        self.details = {} if details is None else details

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.FEASIBLE


# --------------------------------------------------------------------------
# shared level machinery
# --------------------------------------------------------------------------

def _threshold(w: _Window, domain) -> Scalar:
    """Strict-slot threshold for prepending to the window w: the reciprocal
    infimum, exact for exact input, read from one Schur complement (the
    search's windows are strictly positive by construction), or from the
    verdict on w when its pass shows otherwise."""
    value = _schur_threshold(w, domain)
    if value is None:
        return _reciprocal_inf(w, _classify_limit(w, domain), domain)
    return value


def _schur_quadratic(w: _Window, domain) -> Optional[tuple]:
    """(a, b, c) with a x^2 + b x + c the `extremal._schur_threshold` of
    (x,) + rest, for a nonempty strictly positive `rest`, read from w, the
    image of (0,) + rest (`_Window.prepended`); None when its M is not
    positive definite.  x enters only the first entry of the border,
    b = x f + u with f the first unit vector (e_1 = x, or x - s_0 for an odd
    window on (0, 1], whose base is x), over an M that does not hold x.  So the
    infimum is (M^-1)_00 x^2 + 2 f^T M^-1 u x + u^T M^-1 u, plus x for an
    odd window on (0, 1], and one slot pass at x = 0 gives all three:
    (M^-1)_00 = D_(m-1) / D_m from two pivots, f^T M^-1 u from the last
    row that the pass reduced (M is in reverse order there) and
    u^T M^-1 u from the corner.  On a window dilated by lam these read
    (a / lam, b / lam, c / lam), and on the differences form
    (a / lam^2, (b - 1) / lam, c), so lam is multiplied back in (see
    `extremal._schur_threshold`).  Only the level search reads it."""
    r, a, _ = w.slot_pass(domain)
    m = len(w.ints) // 2
    if r != m:
        return None
    differences = _odd_half_open(w, domain)
    pivot, unit, lam = a[m - 1][m - 1], w.unit, w.lam
    square, scale = (lam * lam, 1) if differences else (lam, lam)
    quad = (Fraction(square * unit * (a[m - 2][m - 2] if m > 1 else 1), pivot),
            Fraction(2 * lam * a[m - 1][m], pivot) + int(differences),
            Fraction(-scale * a[m][m], unit * pivot))
    return tuple(map(_to_float, quad)) if w.floats else quad


class _LevelValues(dict):
    """One solve's thresholds (a forced value is that of a prefix) and
    `_schur_quadratic` coefficients, keyed by image (`_Window.key`):
    a quadratic's image (0,) + rest starts at 0, which no searched window's
    does.  Every 2K vector of the solve reads them from here."""

    def __init__(self, domain):
        super().__init__()
        self.domain = domain

    def threshold(self, w: _Window) -> Scalar:
        key = w.key()
        if key not in self:
            self[key] = _threshold(w, self.domain)
        return self[key]

    def quadratic(self, rest: _Window, theta) -> tuple:
        """(a, b, c) with next(theta + u) = a u^2 + b u + c, next(x) the
        threshold of (x,) + rest: a free slot's at the next level (rest the
        whole window) or a forced one's (rest its first 2K - 1 entries).  x
        sits only in the border of the Hankel corner whose Schur complement
        that is, so it is exactly convex quadratic in x (Curto-Fialkow).
        When the corner's M is not positive definite, no (x,) + rest is
        strictly positive."""
        w = rest.prepended(0)
        key = w.key()
        if key not in self:
            self[key] = _schur_quadratic(w, self.domain)
        if self[key] is None:
            raise DegenerateInput("next-level window is not strictly positive")
        a, b, c = self[key]
        b, c = 2 * a * theta + b, (a * theta + b) * theta + c
        if not a > 0:
            raise DegenerateInput("next-level value is not strictly convex")
        return a, b, c


class _LevelProblem(Record):
    _fields = ("table", "masses", "big_ns", "p_top", "targets", "kappa")

    def __init__(self, table: _LevelValues, masses: tuple, big_ns: tuple, p_top: int,
                 targets: tuple, kappa: int):
        self.table = table
        self.masses = masses    # first-weight mass per class
        self.big_ns = big_ns    # 2K_i - 1 per class
        self.p_top = p_top      # length of the given window per class
        self.targets = targets  # per level, the right-hand side for the mass sum
        self.kappa = kappa      # deepest level index; that level is the bound


def _slot_is_free(big_n: int, p_top: int, level: int) -> bool:
    # slot -(level+1) is strict iff -(level+1) >= (p_top - 1) - big_n
    return big_n >= p_top + level


def _within_band(lower, target) -> bool:
    """Float input only: `lower` is too close to `target` to call."""
    floats = isinstance(lower, float) or isinstance(target, float)
    return floats and abs(lower - target) <= UNKNOWN_BAND * max(1.0, abs(float(target)))


def _mass_sum(pairs, start=0) -> Scalar:
    """start + the sum of m * v over the (m, v) pairs: exact terms over one
    denominator, normalised once; with a float among them, in floats."""
    pairs = list(pairs)
    try:
        num, den = start.numerator, start.denominator
        for m, v in pairs:
            step = m.denominator * v.denominator
            num, den = num * step + m.numerator * v.numerator * den, den * step
    except AttributeError:  # a float has no numerator
        return start + sum(m * v for m, v in pairs)
    return Fraction(num, den)


def _sqrt_below(value):
    """A rational r <= sqrt(value) for value > 0: exact for a rational
    square, within a factor 2 when num * den >= 4; math.sqrt for a float."""
    if isinstance(value, float):
        return math.sqrt(value)
    return Fraction(math.isqrt(value.numerator * value.denominator), value.denominator)


class _Split(Record):
    """A level's split over its free classes and the least load of the next
    level, const + sum m_c q_c(u_c), u_c the value above the threshold."""
    _fields = ("masses", "quads", "const")

    def __init__(self, masses: list, quads: list, const: Scalar):
        self.masses, self.quads, self.const = masses, quads, const

    def values(self, u) -> list:
        return [(a * x + b) * x + c for (a, b, c), x in zip(self.quads, u)]

    def load(self, u, values=None) -> Scalar:  # values: those at u, if known
        values = self.values(u) if values is None else values
        return _mass_sum(zip(self.masses, values), self.const)

    def slope(self, u, i) -> Scalar:
        return 2 * self.quads[i][0] * u[i] + self.quads[i][1]

    def water_fill(self, residual):
        """Minimiser over u >= 0 with sum m_c u_c = residual > 0 (KKT): the
        unclamped classes share one slope lam, the clamped ones sit at
        u_c = 0 with b_c >= lam."""
        order = sorted(range(len(self.quads)), key=lambda i: self.quads[i][1])
        weight = shift = 0
        for k, i in enumerate(order):
            a, b, _ = self.quads[i]
            share = self.masses[i] / (2 * a)
            weight += share
            shift += share * b
            lam = (residual + shift) / weight
            if k + 1 == len(order) or lam <= self.quads[order[k + 1]][1]:
                break
        return [max((lam - b) / (2 * a), 0) for a, b, _ in self.quads]

    def off_boundary(self, u, margin):
        """u moved off u_c = 0, the load raised by at most `margin`: along the
        mass-preserving d it is L + g s + h s^2, so g s, h s^2 <= margin/2
        suffice, and half the way to 0 keeps the other classes positive."""
        zero = u.count(0)
        d = [1 / m if x == 0 else -zero / ((len(u) - zero) * m)
             for x, m in zip(u, self.masses)]
        g = sum(m * self.slope(u, i) * d[i] for i, m in enumerate(self.masses))
        h = sum(m * q[0] * di * di for m, q, di in zip(self.masses, self.quads, d))
        steps = [_sqrt_below(margin / (2 * h))] + [x / (-2 * di) for x, di in zip(u, d) if x > 0]
        step = min(steps + ([margin / (2 * abs(g))] if g else []))
        return [x + step * di for x, di in zip(u, d)]

    def meet(self, u, target):
        """A u > 0 with load exactly `target` (above the load at u), or None:
        along u + s (e_i/m_i - e_j/m_j) the load is L + g s + h s^2 with
        h = a_i/m_i + a_j/m_j, so s is rational for a square discriminant."""
        gap = target - self.load(u)
        for i, j in itertools.combinations(range(len(u)), 2):
            g = self.slope(u, i) - self.slope(u, j)
            h = self.quads[i][0] / self.masses[i] + self.quads[j][0] / self.masses[j]
            disc = g * g + 4 * h * gap
            root = _sqrt_below(disc)
            if root * root != disc and not isinstance(disc, float):
                continue
            for s in ((root - g) / (2 * h), (-root - g) / (2 * h)):
                v = list(u)
                v[i] += s / self.masses[i]
                v[j] -= s / self.masses[j]
                if all(x > 0 for x in v):
                    return v
        return None


def _split_level(problem: _LevelProblem, wins, forced_vals, thresholds, residual, level):
    """The split of two or more free classes minimising level + 1's least
    load: (values, every class's value at level + 1, None), or (None, None,
    (status, reason)) when no split can work or none is rational."""
    table, masses, big_ns, nxt = problem.table, problem.masses, problem.big_ns, level + 1
    target = problem.targets[nxt]
    free_next = [_slot_is_free(big_ns[c], problem.p_top, nxt) for c in thresholds]

    fixed = {c: table.threshold(wins[c].prefix(big_ns[c]).prepended(v))
             for c, v in forced_vals.items()}
    split = _Split([masses[c] for c in thresholds],
                   [table.quadratic(wins[c] if f else wins[c].prefix(big_ns[c]), theta)
                    for (c, theta), f in zip(thresholds.items(), free_next)],
                   _mass_sum((masses[c], v) for c, v in fixed.items()))
    u = lowest = split.water_fill(residual)
    values = split.values(u)
    least = split.load(u, values)
    clamped = any(x == 0 for x in u)
    if _within_band(least, target):
        return None, None, (SolveStatus.UNKNOWN, f"level {nxt}: target within tolerance of "
                                                 f"least load {format_scalar(least)}")
    if least > target or (least == target and (any(free_next) or clamped)):
        return None, None, (SolveStatus.INFEASIBLE,
                            f"level {nxt}: least load {format_scalar(least)} over the splits "
                            f"of level {level} precludes target {format_scalar(target)}")
    if least < target and not any(free_next) and nxt < problem.kappa:
        # an equality level with no free class: its load must meet the
        # target; a convex load is greatest at a vertex of the simplex
        top = max(split.load([residual / m if i == k else 0 for i, m in enumerate(split.masses)])
                  for k in range(len(u)))
        if top <= target:
            return None, None, (SolveStatus.INFEASIBLE,
                                f"level {nxt}: greatest load {format_scalar(top)} over the "
                                f"splits of level {level} misses target "
                                f"{format_scalar(target)}")
        u = split.meet(split.off_boundary(u, (target - least) / 2) if clamped else u, target)
        if u is None:
            return None, None, (SolveStatus.UNKNOWN,
                                f"level {level}: the split that meets level {nxt} is irrational")
    elif clamped:
        u = split.off_boundary(u, (target - least) / 2)
    fixed.update(zip(thresholds, values if u is lowest else split.values(u)))
    return {c: theta + x for (c, theta), x in zip(thresholds.items(), u)}, fixed, None


def _search_levels(problem: _LevelProblem, wins, level: int = 0, known=None):
    """Recursive level filler over the branch images `wins`.  Returns
    (status, payload): the completed images on success, a reason string
    otherwise.  `known` holds class values at this level (threshold or
    forced) the caller computed."""
    if level > problem.kappa:
        return SolveStatus.FEASIBLE, wins
    target = problem.targets[level]
    is_bound = (level == problem.kappa)
    known = known or {}

    def value(c, free):
        if c in known:
            return known[c]
        w = wins[c] if free else wins[c].prefix(problem.big_ns[c] + 1)
        return problem.table.threshold(w)

    free_idx = [c for c in range(len(wins))
                if _slot_is_free(problem.big_ns[c], problem.p_top, level)]
    forced_vals = {c: value(c, False) for c in range(len(wins)) if c not in free_idx}
    forced_sum = _mass_sum((problem.masses[c], v) for c, v in forced_vals.items())

    if not free_idx:
        # a float load within the band of the target meets it
        ok = _within_band(forced_sum, target) or (
            forced_sum <= target if is_bound else forced_sum == target)
        if not ok:
            rel = "exceeds" if forced_sum > target else "misses"
            return SolveStatus.INFEASIBLE, (
                f"level {level}: forced load {format_scalar(forced_sum)} {rel} target "
                f"{format_scalar(target)}")
        return _search_levels(problem, [w.prepended(forced_vals[c]) for c, w in enumerate(wins)],
                              level + 1)

    thresholds = {c: value(c, True) for c in free_idx}
    lower = _mass_sum(((problem.masses[c], thresholds[c]) for c in free_idx), forced_sum)
    if _within_band(lower, target):
        return SolveStatus.UNKNOWN, (
            f"level {level}: target within tolerance of the threshold load "
            f"{format_scalar(lower)}")
    if lower >= target:
        return SolveStatus.INFEASIBLE, (
            f"level {level}: threshold load {format_scalar(lower)} precludes target "
            f"{format_scalar(target)}")
    residual = target - lower
    nfree = len(free_idx)

    def shared(shares):
        return {c: thresholds[c] + residual * share / problem.masses[c]
                for c, share in zip(free_idx, shares)}, None

    failure = None
    if is_bound:
        # any point below the bound completes; take half the slack
        points = [shared([Fraction(1, 2 * nfree)] * nfree)]
    elif nfree == 1:
        # the only split; the next level decides it
        points = [shared([1])]
    else:
        point, nxt_known, failure = _split_level(problem, wins, forced_vals, thresholds,
                                                 residual, level)
        if failure is not None and failure[0] is SolveStatus.INFEASIBLE:
            return failure
        points = [(point, nxt_known)]
        if problem.kappa - level >= 2:
            # the minimiser is greedy with two or more levels left: uniform
            # and biased splits too, each built when it is reached
            biased = ([1 - Fraction(nfree - 1, 50) if i == j else Fraction(1, 50)
                       for i in range(nfree)] for j in range(nfree))
            points = itertools.chain(points, map(shared, itertools.chain(
                [[Fraction(1, nfree)] * nfree], biased)))

    first = None
    for point, nxt_known in points:
        outcome = failure  # when the minimiser has no rational point
        if point is not None:
            values = {**forced_vals, **point}
            outcome = _search_levels(problem, [w.prepended(values[c]) for c, w in enumerate(wins)],
                                     level + 1, nxt_known)
        if outcome[0] is SolveStatus.FEASIBLE:
            return outcome
        first = first or outcome
    # no point completes: the minimiser's outcome decides -- exact with one
    # level left, greedy with more
    return first


# --------------------------------------------------------------------------
# index compatibility with the prescribed branch data
# --------------------------------------------------------------------------

def _branch_k_compatible(domain, given, big_n: int) -> bool:
    """Can the prescribed window carry a minimal measure with this 2K-1?
    Slots at depth >= given-length - big_n are strict (one suffix check
    suffices), deeper prescribed slots must equal their forced values.
    The forced value of entry j - 1 reads the window given[j:j + big_n + 1],
    which must be strictly positive; j = k0 gives the suffix.  Each window
    is classified once, its M read from the slot pass of its threshold."""
    given = tuple(given)
    k0 = max(0, len(given) - 1 - big_n)
    for j in (range(k0, 0, -1) if k0 else [0]):
        w = _limit_window(given[j:j + big_n + 1])
        if not _classify_limit(w, domain).is_strict:
            return False
        if j and given[j - 1] != _threshold(w, domain):
            return False
    return True


def _admissible_two_ks(domain, w: _Window, candidates) -> list:
    """The 2K of `candidates` that `_branch_k_compatible` admits, read from one
    verdict on the image w of the given window (top its last index), its M
    read from the slot pass that gives the threshold.  With 2K - 1 >= top
    that check is "the window is strictly positive".  With 2K - 1 < top each
    deeper entry must be the forced value of the next 2K: the window is
    singular with index K (Curto-Fialkow recursiveness).  So a strict window
    admits every 2K >= top + 1, a singular one at most twice its index,
    checked once, and one that is not positive none."""
    given = w.values
    top = len(given) - 1
    verdict = _classify_limit(w, domain)
    if verdict.is_strict:
        return [two_k for two_k in candidates if two_k - 1 >= top]
    if not verdict.is_positive:
        return []
    two_k = int(2 * _verdict_index(given, verdict, domain, w=w))
    if two_k - 1 < top and two_k in candidates and _branch_k_compatible(domain, given, two_k - 1):
        return [two_k]
    return []


def _two_k_vectors(domain, wins, K, two_k_cap: int):
    """The atom-count vectors to search, as 2K per class (even on the ray),
    smallest first; or the Infeasible outcome that rules every one out.  K
    is "auto", which sweeps each 2K in 1..two_k_cap that its given window
    admits, read from one verdict on its image (`_admissible_two_ks`), or
    one K per class: ints on the ray, halves on (0, 1], each checked by
    `_branch_k_compatible`.  An explicit K outside that range, or not such a
    value, raises BadIndex."""
    ray = isinstance(domain, Ray)
    step, noun = (2, "atom count") if ray else (1, "index")
    if K == "auto":
        options = []
        for w in wins:
            opts = _admissible_two_ks(domain, w, range(step, two_k_cap + 1, step))
            if not opts:
                return SolveOutcome(SolveStatus.INFEASIBLE,
                                    reason=f"a branch window admits no minimal {noun}")
            options.append(opts)
        return list(itertools.product(*options))  # smallest vectors first
    K = tuple(Fraction(k) for k in K)
    if len(K) != len(wins):
        raise BadIndex(f"one {noun} per branch class is required")
    for k in K:
        if (2 * k).denominator != 1 or (2 * k) % step or not step <= 2 * k <= two_k_cap:
            raise BadIndex(f"{noun} {k} outside [{Fraction(step, 2)}, {Fraction(two_k_cap, 2)}]")
    for k, w in zip(K, wins):
        if not _branch_k_compatible(domain, w.values, int(2 * k) - 1):
            return SolveOutcome(SolveStatus.INFEASIBLE, reason=(
                f"prescribed weights incompatible with {k} atoms" if ray
                else f"prescribed weights incompatible with index {k}"))
    return [tuple(int(2 * k) for k in K)]


def _solve_vectors(domain, pw: PartialWeights, wins, vectors, p_top, targets) -> SolveOutcome:
    """The level search for each 2K vector in turn: the first Feasible one
    is certified, "subnormal" on the ray and "che" on (0, 1]; else Unknown
    if any vector was, else Infeasible with every vector's reason.  K is an
    int on the ray and a `Fraction` on (0, 1]."""
    masses = tuple(cls.first_mass for cls in pw.classes)
    table = _LevelValues(domain)
    unknown, reasons = None, []
    for two_ks in vectors:
        vec = tuple(two_k // 2 if isinstance(domain, Ray) else Fraction(two_k, 2)
                    for two_k in two_ks)
        problem = _LevelProblem(table, masses, tuple(two_k - 1 for two_k in two_ks),
                                p_top, targets, pw.kappa)
        try:
            status, payload = _search_levels(problem, wins)
        except MomentKitError as exc:  # kernel guarantees violated along a path
            status, payload = SolveStatus.UNKNOWN, f"K={vec}: search aborted: {exc}"
        if status is SolveStatus.FEASIBLE:
            return _certified("subnormal" if isinstance(domain, Ray) else "che", pw, vec,
                              *_branch_measures(domain, pw, two_ks, payload))
        if status is SolveStatus.UNKNOWN:
            unknown = payload
        else:
            reasons.append(f"K={vec}: {payload}")
    if unknown is not None:
        return SolveOutcome(SolveStatus.UNKNOWN, reason=unknown)
    return SolveOutcome(SolveStatus.INFEASIBLE, reason="; ".join(reasons))


# --------------------------------------------------------------------------
# certificate assembly
# --------------------------------------------------------------------------

def _minimal_hint(w: _Window, held: tuple, shift: int) -> AtomicMeasure:
    """The atoms of t^shift dmu, shift >= 0, mu the measure of w whose atom
    polynomial and roots are `held`, as `_minimal_roots` gives them, as an
    inexact AtomicMeasure of floats whose top position is exactly at or
    above the top atom.

    Each position and mass is within 2^-HINT_BITS relative of the atom and
    mass it stands for.  Each enclosure is narrowed to 2^-(HINT_BITS + 1)
    of its ends (`RootEnclosure.narrow`), which a seeded bracket already
    is; a position is the root, or the midpoint of its enclosure, and the
    top one the upper end of its enclosure, rounded up.  A mass is read by
    `_masses` to 2^-(HINT_BITS + 1) relative, its sign certified.  Both
    are rounded once to floats, unless one rounds to 0 or past the float
    range, when the hint keeps them exact.  A float window's positions are
    clamped to its interval, as `_atoms_and_image` clamps them."""
    ints, enclosures, lo, hi = held
    _one_per_root(enclosures, ints)
    masses = _masses(ints, enclosures, w.ints, w.unit, w.lam,
                     Fraction(1, 2 << HINT_BITS), shift)
    xs = []
    for e in enclosures:
        e.narrow(HINT_BITS + 1)
        xs.append(e.root if e.root is not None else Fraction(e.lo + e.hi, 2 * e.den))
    if xs and enclosures[-1].root is None:
        xs[-1] = Fraction(enclosures[-1].hi, enclosures[-1].den)
    if w.floats:
        xs = [min(max(x, lo), hi) for x in xs]
    rounded = [_to_float(x) for x in xs]
    if xs and rounded[-1] < xs[-1]:
        rounded[-1] = math.nextafter(rounded[-1], math.inf)
    rounded = [(x, _to_float(m)) for x, m in zip(rounded, masses)]
    if all(0 < v < math.inf for pair in rounded for v in pair):
        return AtomicMeasure(rounded, exact=False)
    return AtomicMeasure(list(zip(xs, masses)), exact=False)


def _certificate_measure(w: _Window, held: tuple, atoms, poly, first_index: int, full_window):
    """Measure of a completed branch, t^-first_index dmu, mu the measure
    of the window w whose atom polynomial and roots, isolated once, are
    `held` (as `principal._minimal_roots` gives them): explicit atoms when
    they are exact, otherwise a moment recurrence seeded with `full_window`
    from `first_index` (exact moments either way).  A root not proven
    irrational is refined to `root_precision()`, as `principal._minimal`
    reads it.  When every root of an exact window is rational, `atoms()`,
    mu, is read with shifted exponents (`tilt`).  Otherwise the recurrence
    runs on `poly()`, which vanishes at the atoms, and carries them as they
    stand at isolation, to 2^-HINT_BITS relative, its top position at or
    above the top atom (`_minimal_hint`)."""
    enclosures = held[1]
    if not w.floats:
        for e in enclosures:
            if e.root is None and not e.irrational:
                e.refine(root_precision())
        if all(e.root is not None for e in enclosures):
            return tilt(atoms(), -first_index)
    return MomentRecurrence(poly(), first_index, list(full_window),
                            atoms_hint=_minimal_hint(w, held, -first_index))


def _branch_measures(domain, pw: PartialWeights, two_ks, wins) -> tuple:
    """(sequences, measures): per class, the completed window (its image in
    `wins`) as a moment sequence from index -kappa - 1, and the
    `_certificate_measure` of the minimal measure of its deepest 2K
    entries."""
    sequences, measures = [], []
    for two_k, w in zip(two_ks, wins):
        window, start = list(w.values), -pw.kappa - 1
        sequences.append(MomentSequence(start, window))
        w = w.prefix(two_k)
        if two_k > len(window):
            # even-length window at the maximal atom count: extend once more,
            # at the far end of [theta, theta + 8 max(theta, 1)], across which
            # the atom sum (a norm bound) is fractional-linear and falls
            theta = _threshold(w, domain)
            probe = theta + 8 * max(theta, 1)
            w, start, window = w.prefix(two_k - 1).prepended(probe), start - 1, [probe] + window
        measures.append(_certificate_measure(
            w, _minimal_roots(w, domain), lambda w=w: _minimal(w, domain),
            lambda w=w: _atom_poly(w, domain), start, window))
    return tuple(sequences), tuple(measures)


def _certified(kind: str, pw: PartialWeights, K: tuple, sequences: tuple, measures,
               root_measure: Optional[CAMeasure] = None) -> SolveOutcome:
    """The Feasible outcome of a completion of kind `kind`, its certificate
    built and verified through that kind's entry in `tree`."""
    cert = CompletionCertificate.of(kind, pw, K, sequences, measures, root_measure)
    cert.verify()
    return SolveOutcome(SolveStatus.FEASIBLE, cert)


# --------------------------------------------------------------------------
# subnormal completions
# --------------------------------------------------------------------------

def _products(factors) -> list:
    """1, f_0, f_0 f_1, ...: the running products of `factors`."""
    return list(itertools.accumulate(factors, operator.mul, initial=Fraction(1)))


def _given_subnormal_window(cls: BranchClass):
    return tuple(_products(cls.tail_sq))


def _subnormal_targets(pw: PartialWeights):
    return tuple(1 / prod for prod in _products(pw.trunk_sq[:pw.kappa]))


def solve_subnormal(pw: PartialWeights, K="auto") -> SolveOutcome:
    """Decide whether the prescribed weights extend to a subnormal shift
    whose branch measures have the requested atom counts (K per class, or
    "auto" to sweep the admissible counts)."""
    if pw.first_mass_total == math.inf:
        return SolveOutcome(SolveStatus.INFEASIBLE, reason="branching square sum diverges")
    wins = [_limit_window(_given_subnormal_window(cls)) for cls in pw.classes]
    # 2K up to the completed window's length p + kappa + 1, rounded up to even
    vectors = _two_k_vectors(Ray(), wins, K, (pw.p + pw.kappa + 2) // 2 * 2)
    if isinstance(vectors, SolveOutcome):
        return vectors
    return _solve_vectors(Ray(), pw, wins, vectors, pw.p, _subnormal_targets(pw))


# --------------------------------------------------------------------------
# completely hyperexpansive completions
# --------------------------------------------------------------------------

def _given_che_window(cls: BranchClass):
    prods = _products(cls.tail_sq)
    return tuple(b - a for a, b in zip(prods, prods[1:]))


def _che_targets(pw: PartialWeights):
    prods = _products(pw.trunk_sq[:pw.kappa])[1:]
    return (pw.first_mass_total - 1,) + tuple((t - 1) / p for t, p in zip(pw.trunk_sq, prods))


def solve_che(pw: PartialWeights, K="auto") -> SolveOutcome:
    """Decide whether the prescribed weights extend to a completely
    hyperexpansive shift with the requested branch measure indices.

    Single-generation data (p = 1) always reduces to the flat construction.
    """
    kappa, p = pw.kappa, pw.p
    if pw.first_mass_total == math.inf:
        return SolveOutcome(SolveStatus.INFEASIBLE, reason="branching square sum diverges")
    if p == 1 or _is_flat(pw):
        return flat_che_completion(pw)
    if any(not t > 1 for cls in pw.classes for t in cls.tail_sq):
        raise PreconditionError("tail weights must exceed 1 for the non-flat solver")
    wins = [_limit_window(_given_che_window(cls)) for cls in pw.classes]
    vectors = _two_k_vectors(HalfOpen(), wins, K, p + kappa)
    if isinstance(vectors, SolveOutcome):
        return vectors
    targets = _che_targets(pw)
    if any(t < 0 for t in targets):
        return SolveOutcome(SolveStatus.INFEASIBLE, reason="a trunk target is negative")
    return _solve_vectors(HalfOpen(), pw, wins, vectors, p - 1, targets)


def _is_flat(pw: PartialWeights) -> bool:
    return len({cls.tail_sq for cls in pw.classes}) == 1


def _root_sequence(pw: PartialWeights):
    """Vertex moment values of the deepest trunk vertex of the completed
    shift, as far as the prescribed data determines them."""
    c = _products(reversed(pw.trunk_sq[:pw.kappa]))
    tail = pw.classes[0].tail_sq[:pw.p - 1]
    return c + [c[-1] * pw.first_mass_total * prod for prod in _products(tail)]


def flat_che_completion(pw: PartialWeights) -> SolveOutcome:
    """Completely hyperexpansive completion for branch data that coincides
    from the second generation on: feasibility reduces to completely
    alternating extendability of the deepest vertex's moment sequence, and
    the certificate is 2-generation flat (one shared branch measure)."""
    if not _is_flat(pw):
        raise PreconditionError("branch tails differ; flat construction unavailable")
    if pw.first_mass_total == math.inf:
        return SolveOutcome(SolveStatus.INFEASIBLE, reason="branching square sum diverges")
    verdict = has_ca_extension(_root_sequence(pw))
    if not verdict.has_extension:
        return SolveOutcome(SolveStatus.INFEASIBLE,
                            reason="root vertex sequence has no completely alternating extension")
    rho, first_index = verdict.measure, -pw.kappa - 1
    mu = rho.positive
    if mu.atoms:
        # the root measure is t^-(kappa+1) d(scale * tau) plus its mass at
        # zero: tau is t^(kappa+1) drho / scale, read on the increments
        # from `first` over scale, which represent t^first drho / scale
        w, roots, first = verdict._held
        *_, scale = itertools.accumulate(pw.trunk_sq, operator.mul, initial=pw.first_mass_total)
        w = _Window.of([d / scale for d in w.values[first:]])
        mu = _certificate_measure(w, roots, lambda: tilt(rho.positive.scaled(1 / scale), first),
                                  lambda: verdict.poly, first_index + first, w.values)
    sequence = MomentSequence(first_index, [mu.moment(k) for k in range(first_index, pw.p - 1)])
    idx = sum((Fraction(1, 2) if pos == 1 else 1 for pos, _ in rho.positive.atoms), Fraction(0))
    n = len(pw.classes)
    return _certified("che-flat", pw, (idx,) * n, (sequence,) * n, (mu,) * n, rho)


# --------------------------------------------------------------------------
# probes and classical checks
# --------------------------------------------------------------------------

class ProbeReport(Record):
    _fields = ("verdict", "per_kappa", "uniform_norm_sq", "stopped_at")

    def __init__(self, verdict: str, per_kappa: tuple, uniform_norm_sq: Optional[float] = None,
                 stopped_at: Optional[int] = None):
        self.verdict = verdict      # "FeasibleTowardInfinity" | "Infeasible" | "Unknown"
        self.per_kappa = per_kappa  # (kappa, status name, norm_sq or None)
        self.uniform_norm_sq, self.stopped_at = uniform_norm_sq, stopped_at


def kappa_infinite_probe(trunk_sq_stream, classes, kappa_max: int,
                         K="auto") -> ProbeReport:
    """Run the finite-trunk solver for every trunk prefix up to kappa_max
    and report the norm bounds; 'feasible toward infinity' is an empirical
    statement about the prefixes, never a proof.

    So a "FeasibleTowardInfinity" verdict is outside the exact contract
    that every other answer of the package keeps (exact, or an explicit
    Unknown): it certifies each prefix it ran, not the infinite trunk.  Its
    "Infeasible" and "Unknown", and the status of each per-kappa row, are
    exact.  A negative kappa_max, which would run no prefix, raises
    BadIndex."""
    if kappa_max < 0:
        raise BadIndex(f"kappa_max must be nonnegative, not {kappa_max}")
    trunk_sq_stream = list(trunk_sq_stream)
    if len(trunk_sq_stream) < kappa_max:
        raise Unsupported("trunk prefix shorter than the probe range")
    rows, norms = [], []
    for kappa in range(kappa_max + 1):
        pw = PartialWeights(trunk_sq_stream[:kappa], classes)
        outcome = solve_subnormal(pw, K)
        norm = float(outcome.certificate.norm_sq) if outcome.feasible else None
        norms += [norm] if outcome.feasible else []
        rows.append((kappa, outcome.status.value, norm))
        if outcome.status is SolveStatus.INFEASIBLE:
            return ProbeReport("Infeasible", tuple(rows), stopped_at=kappa)
        if outcome.status is SolveStatus.UNKNOWN:
            return ProbeReport("Unknown", tuple(rows), stopped_at=kappa)
    return ProbeReport("FeasibleTowardInfinity", tuple(rows),
                       uniform_norm_sq=max(norms) if norms else None)


class FlatnessVerdict(FrozenRecord):
    _fields = ("two_flat", "witness")

    def __init__(self, two_flat: bool, witness: Optional[tuple] = None):
        # witness: (class index, generation, value, reference)
        self.__dict__.update(two_flat=two_flat, witness=witness)


def flatness_verifier(w: FullWeights, r: int, taus=None, depth: int = 12) -> FlatnessVerdict:
    """For a verified completely hyperexpansive shift that is r-generation
    flat, confirm 2-generation flatness up to the verification depth.  A
    violation would contradict the structure theory, so it is reported as a
    witness rather than silently accepted."""
    if r < 2:
        raise PreconditionError("flatness is defined from generation 2 on")
    if taus is not None:
        CompletionCertificate("che", None, None, None, taus, w, None).verify(depth)
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
