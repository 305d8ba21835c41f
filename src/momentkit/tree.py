"""Directed trees with one branching point: weights, boundedness, vertex
moment sequences, and certificate verification.

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
of two integer numerators, e.g. G_n / (Q G_(n-1)), and the JSON weight rows
print each reduced by one gcd.  Float measures and first masses are read
the same way, on their binary-exact images, rounded once; the float band
is applied where a float row or target is compared (`_holds`, `_meets`).
A first mass that is not finite fails its identity, one that is not
positive its own (`_check_counts`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from ._record import FrozenRecord
from ._recurrence import MomentRecurrence
from .errors import CertificateInvalid, DegenerateInput, Unsupported, ZeroAtomError
from .measure import MomentSequence, geometric_row, moment_row
from .numeric import Scalar, _read, as_fraction, format_ratio, format_scalar
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
    ratios read from a measure.  Each subclass gives the ratios at
    n = lo..hi-1 as ratios of consecutive values of an integer `_Row`
    (`_ratio_row`: the row and the index they start from)."""

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

    def weight_sq_text(self, count: int) -> list:
        """`weight_sq_row(count)` as `format_scalar` prints it; a ratio of
        an exact measure is printed from its two integer numerators, reduced
        by one gcd (`numeric.format_ratio`), with no `Fraction` built."""
        prefix = [format_scalar(x) for x in self.prefix_sq[:max(count - 1, 0)]]
        row, start = self._ratio_row(len(prefix), count - 1)
        make = (lambda n, d: format_scalar(_read(n, d, True))) if row.floats else format_ratio
        return prefix + row.ratios(start, make)

    def _ratios(self, lo: int, hi: int) -> list:
        row, start = self._ratio_row(lo, hi)
        return row.ratios(start)


class MeasureTail(_RatioTail):
    """Branch weight squares from a branch measure: prescribed squares for
    generations 2..p, then the measure's consecutive moment ratios."""

    def __init__(self, prefix_sq, measure):
        super().__init__(prefix_sq)
        self.measure = measure

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


def _check_branches(w: FullWeights, measures, depth: int, domain, where: str,
                    closes, row, name, first: int):
    """The branch checks of both verifiers: each measure mu is positive on
    `domain` (named `where`), then its identity value at n, named name(n),
    is prod_(j=2..n+1) weight_sq(j) for n = first..top.  The values are
    read as integer numerators from row(mu, top), the `measure._Row` of
    the values at n = 0..top, and compared on the integers (`_holds`)."""
    for idx, (cls, mu) in enumerate(zip(w.classes, measures), start=1):
        _check(_positive_on(mu, domain), f"branch {idx}: measure is positive on {where}")
        gen = cls.generator
        # past generation p the weights of a tail over mu itself are read
        # from mu (`closes`), so the identity at n >= p follows from n - 1
        top = len(gen.prefix_sq) if closes(gen, mu) else depth
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
    _check_branches(w, measures, depth, Ray(), "(0, inf)",
                    lambda gen, mu: isinstance(gen, MeasureTail) and gen.measure is mu,
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
    _check_branches(w, taus, depth, HalfOpen(), "(0, 1]",
                    lambda gen, tau: isinstance(gen, GeometricSumTail) and gen.tau is tau,
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
