"""Directed trees with one branching point: weights, boundedness, vertex
moment sequences, and completion certificates.

The tree has a trunk of kappa vertices 0, -1, ..., -(kappa-1) feeding a
single branching vertex 0 with eta outgoing branches (i, 1), (i, 2), ...
Branches are grouped into classes sharing the same squared weights from the
second generation on; a class carries the total squared first weight of its
members, which is the only way first weights ever enter any criterion.
Infinite eta is supported exactly for this finitely-described (cofinitely
flat) shape.

All weights are handled squared: the criteria are polynomial in the squares
and stay rational for inputs like sqrt(2).

Certificate checks and weight rows take exact moments and geometric sums
from the integer image of each measure (see `measure`).  A branch identity
compares a moment or a gamma_n = 1 + tau_0 + ... + tau_(n-1) with an exact
weight product by one integer cross product, with nothing normalised; a
trunk level sums its classes' reciprocal moments over the product of their
denominators (`_trunk_sums`) and compares the sum with its target by one
cross product; a recurrence's polynomial is compared with the support
polynomial of its window on integers (`_positive_on`).  A completed weight,
a ratio of consecutive moments or of consecutive gamma_n, is one quotient
of two integer numerators, e.g. G_n / (Q G_(n-1)); the JSON weight rows
print only the prescribed generations 1..p, the measures give the rest.
Float measures and first masses are read the same way, on their
binary-exact images, rounded once; the float band is applied where a
float row or target is compared (`_holds`, `_meets`).
A first mass that is not finite fails its identity, one that is not
positive its own (`_check_counts`).

A completion certificate (`CompletionCertificate`) is of kind "subnormal",
"che" or "che-flat", and one table, `_KINDS`, maps each kind to all that
depends on it: the domain of its measures, its tail type, whether a measure
is the part on (0, 1] of an `alternating.CAMeasure`, its verifier and its
norm_sq formula.  The solvers build a certificate (`CompletionCertificate.of`),
CLI `verify` reads one back (`from_json`), and both verify it with the one
`verify`: the kind's verifier, then every other claim it prints, each when
present (`_check_claims`): norm_sq, K, sequences and a flat certificate's
root measure.  A new kind is one more entry in the table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from ._record import FrozenRecord, Record
from ._recurrence import MomentRecurrence
from .errors import CertificateInvalid, DegenerateInput, Unsupported, ZeroAtomError
from .measure import AtomicMeasure, MomentSequence, geometric_row, moment_row
from .numeric import (Scalar, _horner, _read, _shifted, _to_float, _variations, as_fraction,
                      format_scalar, parse_scalar)
from .positivity import HalfOpen, Ray, _Window, _determinate_poly, _support_ints


def _pos_sq(x, what: str):
    if not isinstance(x, float):
        x = as_fraction(x)
    if not x > 0:
        raise DegenerateInput(f"{what} must be positive")
    return x


class TreeShape(FrozenRecord):
    """eta branches (math.inf allowed), trunk length kappa >= 0
    (math.inf means the one-sided infinite trunk)."""

    _fields = ("eta", "kappa")

    def __init__(self, eta: Union[int, float], kappa: Union[int, float]):
        if eta != math.inf and (int(eta) != eta or eta < 1):
            raise DegenerateInput("eta must be a positive integer or inf")
        if kappa != math.inf and (int(kappa) != kappa or kappa < 0):
            raise DegenerateInput("kappa must be a nonnegative integer or inf")
        self.__dict__.update(eta=eta, kappa=kappa)


class BranchClass(FrozenRecord):
    """A group of branches sharing their squared weights from generation 2
    on.  first_mass is the total squared first weight over the group
    (math.inf for an infinite group with a fixed positive first weight);
    count is None for infinite groups."""

    _fields = ("first_mass", "tail_sq", "count")

    def __init__(self, first_mass, tail_sq=(), count=1):
        if first_mass != math.inf:
            first_mass = _pos_sq(first_mass, "first-weight mass")
        tail_sq = tuple(_pos_sq(t, "branch weight square") for t in tail_sq)
        self.__dict__.update(first_mass=first_mass, tail_sq=tail_sq, count=count)


class PartialWeights(FrozenRecord):
    """Prescribed data of the completion problem: trunk squared weights
    (lambda_0^2, lambda_{-1}^2, ..., lambda_{-(kappa-1)}^2) and branch
    classes with p prescribed generations (tail_sq has length p-1).
    first_mass_total, the classes' first-weight masses summed, is read once
    here; it is not a field."""

    _fields = ("trunk_sq", "classes", "p")

    def __init__(self, trunk_sq, classes, p=None):
        trunk_sq = tuple(_pos_sq(t, "trunk weight square") for t in trunk_sq)
        classes = tuple(classes)
        if not classes:
            raise DegenerateInput("at least one branch class is required")
        lengths = {len(c.tail_sq) for c in classes}
        if len(lengths) != 1:
            raise DegenerateInput("branch classes must share the generation depth")
        depth = lengths.pop() + 1
        if p is None:
            p = depth
        if p != depth:
            raise DegenerateInput(f"p={p} inconsistent with tails of length {depth - 1}")
        self.__dict__.update(trunk_sq=trunk_sq, classes=classes, p=int(p),
                             first_mass_total=sum(c.first_mass for c in classes))

    @property
    def kappa(self) -> int:
        return len(self.trunk_sq)

    @property
    def eta(self):
        if any(c.count is None for c in self.classes):
            return math.inf
        return sum(c.count for c in self.classes)

    @staticmethod
    def from_branch_lists(trunk_sq, branches_sq, counts=None) -> "PartialWeights":
        """branches_sq: one list (lambda_{i,1}^2, ..., lambda_{i,p}^2) per
        branch (class)."""
        classes = []
        for i, br in enumerate(branches_sq):
            count = 1 if counts is None else counts[i]
            classes.append(BranchClass(br[0] if count in (1, None) or count == 1
                                       else br[0] * count,
                                       tuple(br[1:]), count))
        return PartialWeights(trunk_sq, classes)


# --------------------------------------------------------------------------
# completed weights
# --------------------------------------------------------------------------

class ListTail:
    """Branch weight-square generator backed by an explicit list for
    generations 2..(len+1); beyond it, either repeats the last value or is
    undefined.  declared_sup lets callers describe unbounded analytic data."""

    def __init__(self, weights_sq, repeat_last=True, declared_sup=None):
        self.weights_sq = tuple(_pos_sq(w, "weight square") for w in weights_sq)
        self.repeat_last = repeat_last
        self.declared_sup = declared_sup

    def weight_sq(self, j: int):
        idx = j - 2
        if idx < len(self.weights_sq):
            return self.weights_sq[idx]
        if self.repeat_last and self.weights_sq:
            return self.weights_sq[-1]
        raise Unsupported(f"generation {j} beyond the described tail")

    def sup_weight_sq(self):
        if self.declared_sup is not None:
            return self.declared_sup
        if not self.weights_sq:
            raise Unsupported("empty weight description")
        return max(self.weights_sq)


class _RatioTail:
    """Branch weight squares: prescribed squares for generations 2..p, then
    ratios read from a measure, its `source`.  Each subclass gives the
    ratios at n = lo..hi-1 as ratios of consecutive values of an integer
    `_Row` (`_ratio_row`: the row and the index they start from)."""

    def __init__(self, prefix_sq):
        self.prefix_sq = tuple(_pos_sq(w, "weight square") for w in prefix_sq)

    def weight_sq(self, j: int):
        idx = j - 2
        if idx < len(self.prefix_sq):
            return self.prefix_sq[idx]
        return self._ratios(j - 2, j - 1)[0]

    def weight_sq_row(self, count: int) -> list:
        """weight_sq(j) for j = 2..count."""
        row = list(self.prefix_sq[:max(count - 1, 0)])
        return row + self._ratios(len(row), count - 1)

    def _ratios(self, lo: int, hi: int) -> list:
        row, start = self._ratio_row(lo, hi)
        return row.ratios(start)


class MeasureTail(_RatioTail):
    """Branch weight squares from a branch measure: prescribed squares for
    generations 2..p, then the measure's consecutive moment ratios."""

    def __init__(self, prefix_sq, measure):
        super().__init__(prefix_sq)
        self.measure = measure

    source = property(lambda self: self.measure)

    def _ratio_row(self, lo: int, hi: int) -> tuple:
        """moment(k + 1) / moment(k) for k = lo..hi-1: the row of the
        moments lo..hi, each ratio a quotient of two integer numerators."""
        return moment_row(self.measure, lo, hi), 0

    def sup_weight_sq(self):
        sup = self.measure.max_atom()
        if self.prefix_sq:
            sup = max(sup, max(self.prefix_sq))
        return sup


class GeometricSumTail(_RatioTail):
    """Branch weight squares of a completely hyperexpansive branch: ratios
    of 1 + integral(1 + ... + t^(n-1)) dtau."""

    def __init__(self, prefix_sq, tau):
        super().__init__(prefix_sq)
        self.tau = tau

    source = property(lambda self: self.tau)

    def _ratio_row(self, lo: int, hi: int) -> tuple:
        """gamma_(n+1) / gamma_n for n = lo..hi-1, with gamma_n run up one
        moment at a time: gamma_n = 1 + tau_0 + ... + tau_(n-1), each ratio
        a quotient of two integer numerators."""
        return geometric_row(self.tau, hi, Fraction(1)), lo

    def sup_weight_sq(self):
        # gamma ratios decrease toward 1 for measures on (0, 1]
        sup = self.weight_sq(len(self.prefix_sq) + 2)
        if self.prefix_sq:
            sup = max(sup, max(self.prefix_sq))
        return sup


class FullBranch(FrozenRecord):
    _fields = ("first_mass", "generator", "count")

    def __init__(self, first_mass: Scalar, generator: object, count: Optional[int] = 1):
        self.__dict__.update(first_mass=first_mass, generator=generator, count=count)


class FullWeights(FrozenRecord):
    """A completed weight assignment: finite trunk prefix plus per-class
    branch generators.  kappa_infinite marks shifts whose trunk extends
    isometrically to the left.  first_mass_total, as on PartialWeights, is
    read once here and is not a field."""

    _fields = ("trunk_sq", "classes", "kappa_infinite")

    def __init__(self, trunk_sq, classes, kappa_infinite=False):
        classes = tuple(classes)
        self.__dict__.update(
            trunk_sq=tuple(_pos_sq(t, "trunk weight square") for t in trunk_sq),
            classes=classes, kappa_infinite=bool(kappa_infinite),
            first_mass_total=sum(c.first_mass for c in classes))

    @property
    def kappa(self):
        return math.inf if self.kappa_infinite else len(self.trunk_sq)

    def branch_weight_sq(self, i: int, j: int):
        return self.classes[i - 1].generator.weight_sq(j)


def vertex_moments(w: FullWeights, u, n: int) -> MomentSequence:
    """Moment sequence (||S^m e_u||^2)_{m=0..n}: forward path products of
    squared weights, summed over branches past the branching vertex."""
    out = [Fraction(1)]
    if isinstance(u, tuple):
        i, j = u
        acc = Fraction(1)
        for m in range(1, n + 1):
            acc = acc * w.branch_weight_sq(i, j + m)
            out.append(acc)
        return MomentSequence(0, out)
    k = -u
    if k < 0 or (not w.kappa_infinite and k > len(w.trunk_sq)):
        raise DegenerateInput(f"vertex {u} outside the tree")
    trunk_acc = Fraction(1)
    for m in range(1, n + 1):
        if m <= k:
            # lambda_{-(k-m)}^2
            trunk_acc = trunk_acc * w.trunk_sq[k - m]
            out.append(trunk_acc)
        else:
            steps = m - k  # generations past the branching vertex
            total = Fraction(0)
            for c in w.classes:
                prod = Fraction(1)
                for j in range(2, steps + 1):
                    prod = prod * c.generator.weight_sq(j)
                total += c.first_mass * prod
            out.append(trunk_acc * total)
    return MomentSequence(0, out)


class BoundednessVerdict(FrozenRecord):
    _fields = ("bounded", "norm_sq_bound")

    def __init__(self, bounded: bool, norm_sq_bound: Scalar):
        # norm_sq_bound: sup over vertices of the outgoing square sums
        self.__dict__.update(bounded=bounded, norm_sq_bound=norm_sq_bound)


def is_bounded(w: FullWeights) -> BoundednessVerdict:
    """Evaluate the boundedness supremum (the squared operator norm): the
    branching vertex contributes the total first-weight mass, every other
    vertex a single squared weight."""
    candidates = [w.first_mass_total]
    candidates.extend(w.trunk_sq)
    for c in w.classes:
        candidates.append(c.generator.sup_weight_sq())
    if w.kappa_infinite:
        candidates.append(Fraction(1))  # isometric trunk continuation
    bound = max(candidates)
    return BoundednessVerdict(bound != math.inf, bound)


# --------------------------------------------------------------------------
# certificate verification
# --------------------------------------------------------------------------

def _tolerance(*vals) -> Optional[float]:
    """1e-9 relative to the largest operand when one is a float, 0 for
    exact operands; None, which fails the identity, when one is not
    finite."""
    if not any(isinstance(v, float) for v in vals):
        return 0
    sizes = [abs(float(v)) for v in vals]
    return 1e-9 * max(1.0, *sizes) if all(map(math.isfinite, sizes)) else None


def _eq(a, b) -> bool:
    """Exact equality for exact operands, tolerance band otherwise.  An
    exact `a` equal to `b` passes at once, so an identity that holds costs
    one comparison and no subtraction; everything else is read against the
    band (a float `a` always is)."""
    if a == b and not isinstance(a, float):
        return True
    band = _tolerance(a, b)
    return band is not None and abs(a - b) <= band


def _check(condition: bool, identity: str):
    if not condition:
        raise CertificateInvalid(f"violated: {identity}", identity=identity)


def _positive_on(mu, domain) -> bool:
    """Is a certificate measure a positive measure on the domain?

    An AtomicMeasure is positive by construction.  A CAMeasure is checked
    through its part on (0, 1].
    A moment recurrence of degree d is one exactly when its polynomial has
    d distinct roots in the domain, generates its seed window, and the
    Hankel form of its first 2d moments is positive definite (Curto and
    Fialkow, Houston J. Math. 17 (1991)): `_determinate_poly` of the seed
    window, run on to 2d moments, then returns the polynomial up to its
    leading coefficient; it counts the roots by Descartes' rule, exact on
    that real-rooted polynomial.  It runs on the moments of the
    recurrence's own image, and compares the polynomial on integers: the
    test's kept integers (`positivity._support_ints`) are primitive with a
    positive leading entry, as the image's q is.  A float recurrence
    (`row.floats`) runs on the float window of its moments, as its residual
    reads as zero only with the float zero test, and compares within `_eq`.
    Any other object with moments passes."""
    rec = getattr(mu, "positive", mu)
    if not isinstance(rec, MomentRecurrence):
        return True
    count = max(len(rec.window), 2 * rec.poly.degree)
    row = rec._row(rec.first_index, rec.first_index + count - 1)
    if row.floats:
        w = _Window.of([row.value(k) for k in range(count)])
    else:  # the image's moments over the denominator of the last one
        den = row.denominator(count - 1)
        w = _Window(None, [x * (den // row.denominator(k)) for k, x in enumerate(row.nums)],
                    den, None, None)
    p = _determinate_poly(w, domain)
    if p is None or p.degree != rec.poly.degree:
        return False
    if row.floats:
        return all(_eq(c, x / rec.poly.coeffs[-1]) for c, x in zip(p.coeffs, rec.poly.coeffs))
    return _support_ints(w) == rec._image().q


def _check_counts(w: FullWeights, measures):
    """One measure per branch class, at least one, each of positive first mass."""
    if not w.classes:
        raise CertificateInvalid("a certificate needs at least one branch class")
    if len(measures) != len(w.classes):
        raise CertificateInvalid("one measure per branch class is required")
    for idx, cls in enumerate(w.classes, start=1):
        _check(cls.first_mass > 0, f"branch {idx}: first mass is positive")


def _check_branches(w: FullWeights, measures, depth: int, kind: str, where: str,
                    row, name, first: int):
    """The branch checks of both verifiers: each measure mu is positive on
    the domain of the certificate kind `kind` (`_KINDS`, named `where`),
    then its identity value at n, named name(n), is
    prod_(j=2..n+1) weight_sq(j) for n = first..top.  The values are read
    as integer numerators from row(mu, top), the `measure._Row` of the
    values at n = 0..top, and compared on the integers (`_holds`)."""
    kind = _KINDS[kind]
    for idx, (cls, mu) in enumerate(zip(w.classes, measures), start=1):
        _check(_positive_on(mu, kind.domain), f"branch {idx}: measure is positive on {where}")
        gen = cls.generator
        # past generation p the weights of the kind's tail over mu itself
        # are read from mu, so the identity at n >= p follows from n - 1
        closes = isinstance(gen, kind.tail) and gen.source is mu
        top = len(gen.prefix_sq) if closes else depth
        values = row(mu, top)
        prod = Fraction(1)
        for n in range(first, top + 1):
            prod = prod * gen.weight_sq(n + 1) if n else prod
            _check(_holds(values, n, prod), f"branch {idx}: {name(n)}")


def _holds(values, n: int, x) -> bool:
    """`_eq` of value n of the `_Row` `values` and x: one integer cross
    product for an exact row and x, the float band for a float row or x."""
    if values.floats or isinstance(x, float):
        return _eq(values.value(n), x)
    return values.equals(n, x)


def _trunk_sums(w: FullWeights, measures, top: int) -> list:
    """sum_c first_mass_c * mu_c.moment(-(k + 1)) for k = 0..top, each as
    (N, D, floats) with D > 0 the product of the denominators of its terms:
    every moment is read as an integer numerator off its measure's row
    (`measure.moment_row` of moments -(top + 1)..-1), a float first mass on
    its binary-exact image, and nothing is normalised.  A first mass that
    is not finite has none: every sum is then that value."""
    masses = [cls.first_mass for cls in w.classes]
    bad = [m for m in masses if isinstance(m, float) and not math.isfinite(m)]
    if bad:
        return [(sum(bad), 1, True)] * (top + 1)
    rows = [moment_row(mu, -(top + 1), -1) for mu in measures]
    floats = any(isinstance(m, float) for m in masses) or any(row.floats for row in rows)
    masses = [as_fraction(m) for m in masses]
    sums, dens = [], [row.den for row in rows]
    for i in range(top + 1):  # moment i - top - 1, of level top - i
        if i:
            dens = [den * row.steps[i - 1] for den, row in zip(dens, rows)]
        n, d = 0, 1
        for m, row, den in zip(masses, rows, dens):
            den *= m.denominator
            n, d = n * den + m.numerator * row.nums[i] * d, d * den
        sums.append((n, d, floats))
    return sums[::-1]


def _meets(level: tuple, x, equality: bool, prod) -> bool:
    """N / D == x, or N / D <= x, for a level (N, D, floats) of
    `_trunk_sums` when `prod` is None; else 1 + T_k N / D against x, with
    `prod` = T_k.  Exactly, one integer cross product (N / D against
    (x - 1) / T_k); with a float, the float lhs within the band of `_eq`."""
    n, d, floats = level
    if floats or isinstance(x, float) or isinstance(prod, float):
        lhs = n / d if prod is None else 1 + prod * (n / d)
        band = _tolerance(lhs, x)
        return band is not None and (abs(lhs - x) <= band if equality else lhs <= x + band)
    if prod is not None:
        x = (x - 1) / prod
    lhs, rhs = n * x.denominator, x.numerator * d
    return lhs == rhs if equality else lhs <= rhs


def verify_subnormal_certificate(w: FullWeights, measures, depth: int = 12) -> bool:
    """Check a subnormal certificate exactly: every branch measure is a
    positive measure on (0, inf) whose moments 0..p-1 match the prescribed
    weight products, and the trunk reciprocal-moment chain holds at its
    kappa + 1 levels: at level k, sum_c first_mass_c mu_c(-(k + 1)) equals
    1 / (lambda_0^2 ... lambda_(-(k-1))^2), or is at most that at k = kappa,
    read as one integer cross product on the measures' images
    (`_trunk_sums`).  `depth` bounds only the checks that do not close
    after finitely many steps: the moment identities of a generator that is
    not a MeasureTail over the branch's own measure, and the prefix of an
    infinite trunk."""
    _check_counts(w, measures)
    _check_branches(w, measures, depth, "subnormal", "(0, inf)",
                    lambda mu, top: moment_row(mu, 0, top),
                    lambda n: f"moment {n} equals the weight product" if n
                    else "zeroth moment is 1", 0)
    kappa = len(w.trunk_sq)
    trunk_prod = Fraction(1)
    # all-equality chain when the trunk is infinite (checked on its finite
    # prefix); otherwise equalities then a final bound
    top = min(depth, kappa) if w.kappa_infinite else kappa
    sums = _trunk_sums(w, measures, top)
    for k in range(top + 1):
        equality = w.kappa_infinite or k < kappa
        _check(_meets(sums[k], 1 / trunk_prod, equality, None),
               f"trunk level {k}: reciprocal sum {'equality' if equality else 'bound'}")
        if k < kappa:
            trunk_prod = trunk_prod * w.trunk_sq[k]
    return True


def verify_che_certificate(w: FullWeights, taus, depth: int = 12) -> bool:
    """Check a completely hyperexpansive certificate exactly: every branch
    measure is a positive measure on (0, 1] without mass at zero whose
    gamma_n = 1 + tau_0 + ... + tau_(n-1), n = 1..p-1, match the prescribed
    weight products, and the trunk chain holds at its kappa + 1 levels:
    1 + T_k S_k equals the branching mass total at k = 0 and
    lambda_(-(k-1))^2 after, or is at most that at k = kappa, with S_k the
    mass-weighted sum of the moments -(k + 1) and T_k the product of the
    first k trunk squares; exactly, S_k is compared with (rhs - 1) / T_k by
    one integer cross product (`_trunk_sums`).
    The infinite-trunk case checks the isometry conditions directly.
    `depth` bounds only the checks that do not close after finitely many
    steps: the identities of a generator that is not a GeometricSumTail
    over the branch's own measure, and the isometry weights."""
    _check_counts(w, taus)
    for tau in taus:
        if tau.zero_mass != 0:
            raise ZeroAtomError("branch measures must not charge zero")
    if w.kappa_infinite:
        _check(all(_eq(t, 1) for t in w.trunk_sq), "isometry: trunk weights are 1")
        _check(_eq(w.first_mass_total, 1), "isometry: branching square sum is 1")
        for idx, (cls, tau) in enumerate(zip(w.classes, taus), start=1):
            _check(_eq(tau.total_mass(), 0), f"branch {idx}: isometry measure is zero")
            for j in range(2, depth + 2):
                _check(_eq(cls.generator.weight_sq(j), 1),
                       f"branch {idx}: isometry weights are 1")
        return True
    _check_branches(w, taus, depth, "che", "(0, 1]",
                    lambda tau, top: geometric_row(tau, top, Fraction(1)),
                    lambda n: f"geometric sum {n} equals the weight product", 1)
    kappa = len(w.trunk_sq)
    trunk_prod = Fraction(1)
    sums = _trunk_sums(w, taus, kappa)
    for k in range(kappa + 1):
        if k:
            trunk_prod = trunk_prod * w.trunk_sq[k - 1]
        rhs = w.trunk_sq[k - 1] if k else w.first_mass_total
        equality = k < kappa
        name = f"trunk level {k}: expansion {'equality' if equality else 'bound'}"
        _check(_meets(sums[k], rhs, equality, trunk_prod),
               name if kappa else "root level: expansion bound")
    return True


# --------------------------------------------------------------------------
# completion certificates
# --------------------------------------------------------------------------

class _Kind(FrozenRecord):
    """What a certificate kind fixes: the domain of its measures, the tail
    that reads a class's weights from its measure, whether a measure is the
    part on (0, 1] of an `alternating.CAMeasure` (an atom at 1 then counts
    1/2 in K, the index), whether it is flat and prints a root measure, its
    verifier, and its norm_sq formula: `norm_terms(full, measures)`, the
    values norm_sq bounds and the measures whose atoms it bounds."""

    _fields = ("domain", "tail", "on_unit", "flat", "verifier", "norm_terms")

    def __init__(self, domain, tail, on_unit, flat, verifier, norm_terms):
        self.__dict__.update(domain=domain, tail=tail, on_unit=on_unit, flat=flat,
                             verifier=verifier, norm_terms=norm_terms)

    def measure(self, mu, zero_mass=0):
        """mu as a branch measure of the kind: on (0, 1] the part of a
        CAMeasure with `zero_mass` at zero (so a subnormal one loads no
        `alternating`)."""
        if not self.on_unit:
            return mu
        from .alternating import CAMeasure
        return CAMeasure(zero_mass, mu)

    def read(self, obj: dict, exact_parse: bool):
        """A measure a certificate prints, read back as a `measure`."""
        cls = MomentRecurrence if obj.get("recurrence") is not None else AtomicMeasure
        zero = parse_scalar(str(obj.get("zero_mass", "0")), exact_parse) if self.on_unit else 0
        return self.measure(cls.from_json(obj, exact_parse), zero)


def _ray_terms(full: FullWeights, measures) -> tuple:
    """What a subnormal norm_sq bounds: the branching mass, the trunk
    squares, and the atoms of each measure (so every weight read from it)."""
    return [full.first_mass_total, *full.trunk_sq], list(measures)


def _unit_terms(full: FullWeights, taus) -> tuple:
    """What a completely hyperexpansive norm_sq bounds: the branching mass,
    the trunk squares, and per class 1 + tau[0, 1] and its prescribed tail
    squares (the gamma ratios past them fall toward 1)."""
    values, _ = _ray_terms(full, ())
    for cls, tau in zip(full.classes, taus):
        values += [1 + tau.total_mass(), *cls.generator.prefix_sq]
    return values, []


# each entry is a module attribute of its own, so that perfbench's tracer,
# which swaps a verifier for a wrapper in every module object holding it,
# reaches the table too
_SUBNORMAL = _Kind(Ray(), MeasureTail, False, False, verify_subnormal_certificate, _ray_terms)
_CHE = _Kind(HalfOpen(), GeometricSumTail, True, False, verify_che_certificate, _unit_terms)
_CHE_FLAT = _Kind(HalfOpen(), GeometricSumTail, True, True, verify_che_certificate, _unit_terms)

#: certificate kind -> everything that depends on it
_KINDS = {"subnormal": _SUBNORMAL, "che": _CHE, "che-flat": _CHE_FLAT}


def _top_atom(mu) -> Scalar:
    """A measure's top atom; a recurrence's is its hint's top position,
    at or above it, or without a hint the Cauchy root bound."""
    try:
        return mu.max_atom()
    except DegenerateInput:
        from .principal import root_bound
        return root_bound(mu.poly)


def _norm_sq_bound(kind: _Kind, full: FullWeights, measures) -> float:
    """The largest of what the kind's norm_sq bounds (`_Kind.norm_terms`),
    each measure read at its top atom (`_top_atom`), as saturating floats."""
    values, tops = kind.norm_terms(full, measures)
    return max(map(_to_float, values + [_top_atom(mu) for mu in tops]))


def _at_most(x, norm: float) -> bool:
    """x <= norm, an exact x rounded as `_norm_sq_bound` rounds it, a
    float x within the band of `_eq`."""
    if isinstance(x, float):
        return x <= norm or _eq(x, norm)
    return _to_float(x) <= norm


def _atoms_at_most(mu, norm: float) -> bool:
    """No atom of mu lies above norm.  A recurrence's polynomial q,
    real-rooted once `_positive_on` has accepted it, has no root above
    norm = u / v exactly when v^d q((t + u) / v) has no sign variation
    (Descartes), read on the integers of its image; a float one at norm
    widened by the band.  The atom hint is not read.  Any other object
    with moments passes."""
    if isinstance(mu, AtomicMeasure):
        return not mu.atoms or _at_most(mu.max_atom(), norm)
    if not isinstance(mu, MomentRecurrence) or norm == math.inf:
        return True
    image = mu._image()
    u, v = as_fraction(norm + _tolerance(norm) if image.floats else norm).as_integer_ratio()
    d = len(image.q) - 1
    return _variations(_shifted([c * v ** (d - j) for j, c in enumerate(image.q)], u)) == 0


def _atom_count(mu, at_one) -> Optional[Scalar]:
    """Atoms of mu (of its part on (0, 1]), one at 1 counting `at_one`: a
    recurrence's are the roots of its polynomial, its degree less
    1 - at_one when q(1) = 0, by one integer Horner sum (for a float
    recurrence within the band, relative to sum |q_j|).  None for any
    other object with moments."""
    mu = getattr(mu, "positive", mu)
    if isinstance(mu, AtomicMeasure):
        return sum((at_one if x == 1 else 1 for x, _ in mu.atoms), Fraction(0))
    if not isinstance(mu, MomentRecurrence):
        return None
    image = mu._image()
    h = _horner(image.q, 1, 1)
    at_root = _eq(_read(h, sum(map(abs, image.q)), True), 0) if image.floats else h == 0
    return mu.poly.degree - (1 - at_one) * at_root


def _check_root(full: FullWeights, measures, rho):
    """A flat certificate's root measure rho is that of the completely
    alternating moment sequence of the deepest trunk vertex: its mass is
    that vertex's squared weight less 1, and its part on (0, 1] is
    scale t^-(kappa + 1) dmu for each class's measure mu, scale being the
    branching mass times the trunk squares (`completion.flat_che_completion`
    builds mu so).  The parts are compared on their moments 0..2d-1, d the
    larger atom count: two measures of at most d atoms with those moments
    equal are equal.  A root measure of inexact atoms (irrational ones at
    their enclosures' midpoints, "exact": false) is not checked."""
    if not getattr(rho.positive, "exact", True):
        return
    kappa = len(full.trunk_sq)
    weight = full.trunk_sq[-1] if kappa else full.first_mass_total
    _check(_eq(rho.total_mass(), weight - 1), "root measure: mass is the root weight less 1")
    scale = full.first_mass_total
    for t in full.trunk_sq:
        scale = scale * t
    for idx, mu in enumerate(measures, start=1):
        top = 2 * int(max(_atom_count(rho, 1), _atom_count(mu, 1) or 0)) - 1
        if top < 0:
            continue
        ours, theirs = moment_row(rho.positive, 0, top), moment_row(mu, -kappa - 1, top - kappa - 1)
        _check(all(_holds(ours, k, scale * theirs.value(k)) for k in range(top + 1)),
               f"branch {idx}: root measure is the branch measure's")


def _check_claims(kind: _Kind, cert) -> None:
    """The fields a certificate prints beside its weights and measures,
    each when present: norm_sq is at least every value it bounds and no
    atom it bounds lies above it (`_Kind.norm_terms`), K[i] is measure
    i's atom count (`_atom_count`, an atom at 1 counting 1/2 on (0, 1]),
    sequences[i] are measure i's moments from their first index, read by
    one `moment_row` and compared on its integers (`_holds`), and a flat
    certificate's root measure is its branch measures' (`_check_root`)."""
    full, measures = cert.full, cert.measures
    if cert.norm_sq is not None:
        norm = _to_float(cert.norm_sq)
        values, tops = kind.norm_terms(full, measures)
        _check(all(_at_most(x, norm) for x in values), "norm_sq bounds the squared weights")
        for idx, mu in enumerate(tops, start=1):
            _check(_atoms_at_most(mu, norm), f"branch {idx}: norm_sq bounds the measure's atoms")
    if cert.K is not None:
        _check(len(cert.K) == len(measures), "one K per branch class")
        at_one = Fraction(1, 2) if kind.on_unit else 1
        for idx, (k, mu) in enumerate(zip(cert.K, measures), start=1):
            count = _atom_count(mu, at_one)
            _check(count is None or count == k, f"branch {idx}: K is the measure's atom count")
    if cert.sequences is not None:
        _check(len(cert.sequences) == len(measures), "one sequence per branch class")
        for idx, (seq, mu) in enumerate(zip(cert.sequences, measures), start=1):
            row = moment_row(mu, seq.first_index, seq.last_index)
            _check(all(_holds(row, j, x) for j, x in enumerate(seq.values)),
                   f"branch {idx}: sequence holds the measure's moments")
    if kind.flat and cert.root_measure is not None:
        _check_root(full, measures, cert.root_measure)


def _list(items) -> list:
    if not isinstance(items, list):
        raise TypeError(f"expected a list, got {items!r}")
    return items


class CompletionCertificate(Record):
    """A Feasible completion of kind "subnormal", "che" or "che-flat":
    `_KINDS` holds everything its kind decides, so a certificate is built
    (`of`), read back (`from_json`) and verified (`verify`) through that
    table alone.  K, sequences, norm_sq and root_measure are the claims
    the certificate prints beside its weights; one read from JSON has no
    `partial`, and None for a claim it does not print."""

    _fields = ("kind", "partial", "K", "sequences", "measures", "full", "norm_sq",
               "root_measure")

    def __init__(self, kind: str, partial: Optional[PartialWeights], K: Optional[tuple],
                 sequences: Optional[tuple], measures: tuple, full: FullWeights,
                 norm_sq: Optional[Scalar], root_measure=None):
        self.kind, self.partial, self.K, self.sequences = kind, partial, K, sequences
        self.measures, self.full, self.norm_sq = measures, full, norm_sq
        self.root_measure = root_measure

    @classmethod
    def of(cls, kind: str, partial: PartialWeights, K: tuple, sequences: tuple, measures,
           root_measure=None) -> "CompletionCertificate":
        """The certificate of a completion of `partial` whose class i reads
        measures[i] past its prescribed weights, with the norm_sq bound
        of its kind (`_norm_sq_bound`)."""
        entry = _KINDS[kind]
        measures = tuple(entry.measure(mu) for mu in measures)
        full = FullWeights(partial.trunk_sq, [
            FullBranch(c.first_mass, entry.tail(c.tail_sq, mu), c.count)
            for c, mu in zip(partial.classes, measures)])
        return cls(kind, partial, K, sequences, measures, full,
                   _norm_sq_bound(entry, full, measures), root_measure)

    def verify(self, depth: int = 12) -> bool:
        """The kind's verifier, to `depth` where a check does not close
        after finitely many steps, then every claim the certificate holds
        (`_check_claims`); raises CertificateInvalid naming the first
        violated identity."""
        kind = _KINDS[self.kind]
        kind.verifier(self.full, self.measures, depth)
        _check_claims(kind, self)
        return True

    def to_json(self) -> dict:
        """The certificate; `weights_sq` holds, per class, the squared
        weights of the prescribed generations 1..p, the first-weight mass
        first.  A later generation j is not printed: its square is the
        ratio of the measure's moments j - 1 and j - 2 (subnormal) or of
        gamma_(j-1) and gamma_(j-2) (che), as `FullWeights.branch_weight_sq`
        reads it.  A claim that is None is left out."""
        def scalar(x):
            return x if x is None or isinstance(x, float) else format_scalar(x)

        out = {
            "kind": self.kind,
            "K": None if self.K is None else [scalar(k) for k in self.K],
            "sequences": None if self.sequences is None else [s.to_json() for s in self.sequences],
            "measures": [mu.to_json() for mu in self.measures],
            "weights_sq": [[format_scalar(x) for x in (cls.first_mass, *cls.generator.prefix_sq)]
                           for cls in self.full.classes],
            "trunk_sq": [format_scalar(t) for t in self.full.trunk_sq],
            "norm_sq": scalar(self.norm_sq),
            "root_measure": None if self.root_measure is None else self.root_measure.to_json(),
        }
        return {key: value for key, value in out.items() if value is not None}

    @staticmethod
    def from_json(obj: dict, exact_parse: bool = True) -> "CompletionCertificate":
        """A certificate as `to_json` prints it.  Class i reads measure i
        past the first p - 1 entries after its first mass, p being obj's
        "p" or the row's length.  There is one class per row, even past
        the last measure, so that `verify` refuses a certificate whose
        measures and rows differ in number.  A malformed field raises
        KeyError, TypeError or ValueError (an unknown kind too)."""
        kind = obj["kind"]
        entry = _KINDS.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise ValueError(f"unknown certificate kind {kind!r}")

        def scalars(items):
            return [parse_scalar(str(v), exact_parse) for v in _list(items)]

        trunk_sq = scalars(obj["trunk_sq"])
        measures = tuple(entry.read(m, exact_parse) for m in _list(obj["measures"]))
        classes = []
        for i, row in enumerate(_list(obj["weights_sq"])):
            row = scalars(row)
            if not row:
                raise ValueError("empty branch")
            p = int(obj.get("p", len(row)))
            mu = measures[i] if i < len(measures) else None
            classes.append(FullBranch(row[0], entry.tail(row[1:p], mu), 1))
        full = FullWeights(trunk_sq, classes)
        K = tuple(scalars(obj["K"])) if "K" in obj else None
        sequences = None
        if "sequences" in obj:
            sequences = tuple(MomentSequence.from_json(s, exact_parse)
                              for s in _list(obj["sequences"]))
        norm_sq = obj.get("norm_sq")
        if norm_sq is not None and not isinstance(norm_sq, float):
            norm_sq = parse_scalar(str(norm_sq), exact_parse)
        root = obj.get("root_measure") if entry.flat else None
        root = None if root is None else entry.read(root, exact_parse)
        return CompletionCertificate(kind, None, K, sequences, measures, full, norm_sq, root)
