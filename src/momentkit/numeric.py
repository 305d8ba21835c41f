"""Scalar, dense matrix, Hankel form and polynomial kernel.

One integer kernel serves every input.  It clears denominators once and then
runs on Python integers; an exact window of 8 entries or more is first
dilated by the one integer lam that `_dilated_scale` chooses for it, which
keeps those integers short.  One unpivoted Bareiss pass over the 2n - 1
entries of a Hankel form, given as integers times a positive unit
(`HankelImage`), decides it definite, singular or indefinite from its leading
minors and the Schur complement they leave (Sylvester; Curto and Fialkow).  A
caller that keeps the pass reads it again for a leading block
(`_pass_class`), or for a back substitution (`_pass_solution`) that gives a
support or bordered-Hankel polynomial (`_pass_bordered`), instead of
eliminating the form twice.  The associated polynomial q of an atom
polynomial p (`associated`) gives the mass q(x)/p'(x) at each root x of
p.  Roots are found from float seeds (Laguerre's method) that exact signs
certify (`_isolate`), and isolated by Descartes bisection on the primitive
integer polynomial when the certificate fails; Descartes' rule of signs
also counts them (`count_positive_roots`).  Signs are read by homogeneous
Horner at rational points.  `Fraction`s appear only in the results.  `det`
and `det_poly` are a plain Gaussian elimination over `Fraction`s, kept as a
reference for the tests; no library path calls them, so `_minor_pass` is
the package's only fraction-free elimination.

The Descartes fallback, the root isolation entry points `real_roots` and
`root_enclosures`, and the test references `simplest_between` and
`vandermonde_masses` (masses at given nodes, the Lagrange form of their
Vandermonde system) live in `_roots`, which a window call does not compile;
this module serves their public names on first use (`momentkit._serve`).

Exact input (`int` and `fractions.Fraction`) gives exact results.  Input
containing a `float` runs through the same code on its binary-exact image
(`as_fraction`) and gets floats back, rounded once.  A tolerance (`eps`,
default 1e-9) applies only where a float is read as zero: an entry of a
Schur complement in the pass over a Hankel form, relative to the size of the
terms its entries were computed from, and a root past an end (`_widened`).

Hankel forms here are catastrophically ill-conditioned, and the verdicts the
rest of the package needs (definite vs. singular vs. indefinite) sit exactly
on the knife edge, which is why rational arithmetic is the default and not an
option.
"""

from __future__ import annotations

import functools
import math
import os
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from . import _serve
from ._record import FrozenRecord
from .errors import DegenerateInput, DomainError, ShapeError

__getattr__, __dir__ = _serve(__name__, {
    "_roots": ("real_roots", "root_enclosures", "simplest_between", "vandermonde_masses")})

Scalar = Union[Fraction, int, float]

#: Default width of the rational enclosure returned for irrational roots.
DEFAULT_ROOT_PRECISION = Fraction(1, 10**12)

#: Default relative tolerance for floating-point sign tests.
DEFAULT_EPS = 1e-9


# --------------------------------------------------------------------------
# scalar helpers
# --------------------------------------------------------------------------

def parse_scalar(text: str, exact: bool = True) -> Scalar:
    """Parse a decimal or ``p/q`` string.

    Exact mode maps decimal strings to their exact rational value.  A
    ``p/q`` of two integers with q != 0 is read as one `Fraction(p, q)`;
    every other ``p/q`` is the quotient of two `Fraction` parses, which
    also gives the errors (a "_" is left to them, because `Fraction` reads
    one only from Python 3.11 on).  An integer past Python's limit on the
    digits of an int's str, as `format_scalar` prints a long exact value,
    is read through `decimal` (`_long_int`).  In float mode a ``p/q``
    whose quotient is past the float range raises DomainError naming it.
    """
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            p, q = (int(num), int(den)) if "_" not in text else (0, 0)
        except ValueError:
            p, q = _long_int(num.strip()), _long_int(den.strip())
            if p is None or q is None:
                p = q = 0
        value = Fraction(p, q) if q else Fraction(num.strip()) / Fraction(den.strip())
        if exact:
            return value
        try:
            return float(value)
        except OverflowError:
            shown = repr(text) if len(text) <= 40 else f"{text[:37]!r}..."
            raise DomainError(f"{shown} is past the float range") from None
    if exact:
        try:
            return Fraction(text)
        except ValueError:
            value = _long_int(text)
            if value is None:
                raise
            return Fraction(value)
    return float(text)


def _long_int(text: str) -> Optional[int]:
    """The int of an ASCII string of digits, sign optional, read through
    `decimal`, which has no limit on their number: the inverse of
    `format_scalar`'s fallback.  None for any other string.  The limit of
    `int` is not lifted, because `sys.set_int_max_str_digits` acts on the
    whole process."""
    body = text[1:] if text[:1] in ("+", "-") else text
    if not (body.isascii() and body.isdigit()):
        return None
    from decimal import Decimal
    return int(Decimal(text))


def format_scalar(x: Scalar) -> str:
    """repr of a float; "p/q", or "p" when q = 1, of an exact value: the
    `str` of its `Fraction`, through `decimal` past the int digit limit."""
    if isinstance(x, float):
        return repr(x)
    x = x if isinstance(x, Fraction) else Fraction(x)
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal
        num, den = str(Decimal(x.numerator)), str(Decimal(x.denominator))
        return num if den == "1" else f"{num}/{den}"


def format_ratio(num: int, den: int) -> str:
    """`format_scalar(Fraction(num, den))` of two integers, reduced by one
    gcd when den > 0 and no `Fraction` is built within the digit limit."""
    if den <= 0:
        return format_scalar(Fraction(num, den))
    g = math.gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:  # past Python's limit on the digits of an int's str
        return format_scalar(Fraction(num, den))


def as_fraction(x: Scalar) -> Fraction:
    """Exact conversion (binary-exact for floats)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _to_float(x: Fraction) -> float:
    """float(x), saturating to +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _read(num: int, den: int, floats: bool) -> Scalar:
    """num / den, one `Fraction`, rounded once where `floats`."""
    value = Fraction(num, den)
    return _to_float(value) if floats else value


def _integer_scale(values) -> tuple:
    """(ints, L) for exact `values`: L is their least common denominator and
    ints[i] = L * values[i], computed without rational arithmetic."""
    scale = math.lcm(*{x.denominator for x in values})
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _simplest(lo: int, hi: int, den: int) -> tuple:
    """(p, q): the rational with the smallest denominator in the closed
    interval [lo/den, hi/den], lo <= hi, den > 0; q > 0 and gcd(p, q) = 1."""
    if lo <= 0 <= hi:
        return 0, 1
    if hi < 0:
        p, q = _simplest(-hi, -lo, den)
        return -p, q
    # continued-fraction descent on [a/b, c/d]; p1/q1, p0/q0 are the last
    # two convergents of the common expansion
    a, b, c, d = lo, den, hi, den
    p1, p0, q1, q0 = 1, 0, 0, 1
    while True:
        whole, rest = divmod(a, b)
        if rest == 0:
            tail = whole
            break
        if (whole + 1) * d <= c:
            tail = whole + 1
            break
        a, b, c, d = d, c - whole * d, b, rest
        p1, p0, q1, q0 = p1 * whole + p0, p1, q1 * whole + q0, q1
    return p1 * tail + p0, q1 * tail + q0


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------

class Polynomial(FrozenRecord):
    """Dense univariate polynomial, coefficients lowest degree first.

    Trailing zero coefficients are stripped at construction; the zero
    polynomial is represented by an empty coefficient tuple.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        coeffs = [c if isinstance(c, (Fraction, float)) else Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.__dict__.update(coeffs=tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def mul(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def mul_linear(self, c0: Scalar, c1: Scalar) -> "Polynomial":
        """Multiply by (c0 + c1*t)."""
        return self.mul(Polynomial([c0, c1]))

    def shifted_quotient_at_zero(self) -> "Polynomial":
        """(p(t) - p(0)) / t."""
        return Polynomial(self.coeffs[1:])


# --------------------------------------------------------------------------
# integer polynomials, certified float seeds and Descartes root isolation
# --------------------------------------------------------------------------
#
# An integer polynomial is a list of ints, lowest degree first, with a
# nonzero leading entry.  Dividing one by a positive constant changes none of
# the signs below, so every polynomial is kept primitive.

def _horner(coeffs, num: int, den: int) -> int:
    """den^d * p(num/den) for d = deg p: the homogeneous form
    sum c_i num^i den^(d-i), with the sign of p(num/den) when den > 0."""
    acc = 0
    power = 1
    for c in reversed(coeffs):
        acc = acc * num + c * power
        power *= den
    return acc


def _primitive(ints) -> list:
    """Divide integer coefficients by their (positive) content."""
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _derivative(coeffs) -> list:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _deflate(coeffs, root: Fraction) -> list:
    """Quotient by (den t - num) at a root num/den; integral and primitive
    again by Gauss's lemma."""
    num, den = root.numerator, root.denominator
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = (coeffs[i] + num * acc) // den
        out[i - 1] = acc
    return out


def _shifted(coeffs, by: int = 1) -> list:
    """Coefficients of p(t + by), by the Taylor shift of Horner's rule."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] += by * a[k + 1]
    return a


def _variations(coeffs) -> int:
    """Sign variations of a coefficient list, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_positive_roots(coeffs, to_one: bool = False) -> int:
    """Roots in (0, inf), or with `to_one` in (0, 1], of a real-rooted
    polynomial (rational coefficients, lowest degree first) by Descartes'
    rule of signs: var(p), less var(p(1 + t)) on (0, 1], where a root at 1
    is the root t = 0 of p(1 + t), not positive.  The rule is exact when
    every root is real, as for every polynomial counted here: orthogonal for
    a positive definite Hankel block, it has real, simple roots (Szego,
    *Orthogonal Polynomials*, 1939, Thm 3.3.1)."""
    count = _variations(coeffs)
    return count - _variations(_shifted(coeffs)) if to_one else count


def root_precision() -> Fraction:
    """Target enclosure width for irrational roots, and relative width of
    the masses at them (`principal._masses`): MOMENTKIT_PRECISION if set,
    a positive finite number (else DomainError), parsed once per value."""
    return _precision(os.environ.get("MOMENTKIT_PRECISION"))


@functools.lru_cache(maxsize=8)
def _precision(env: Optional[str]) -> Fraction:
    try:
        width = as_fraction(parse_scalar(env)) if env else DEFAULT_ROOT_PRECISION
    except (ValueError, ZeroDivisionError):
        width = 0
    if width <= 0:
        raise DomainError(f"MOMENTKIT_PRECISION must be a positive finite number, not {env!r}")
    return width


class RootEnclosure:
    """One root in a list from `root_enclosures`.

    `root` holds the value once it is known: a rational root, or for float
    input the root rounded to a float.  Otherwise lo/den < root < hi/den
    isolates a simple root of the integer polynomial `coeffs`, which is
    nonzero at both ends, and `refine` narrows that interval in place: a
    later call with a finer width continues the same bisection.  The
    interval is a bracket of relative half-width 2^-46 (or 2^-30) around a
    certified float seed, narrower than `root_precision()` for most roots,
    or an interval of the Descartes bisection; `coeffs` has the roots
    settled before the enclosure was made deflated out, none at an end.
    `irrational` is True when the root is proven irrational: the
    enclosure's one candidate k/|lead| failed (`_test_lead`).
    """

    __slots__ = ("coeffs", "lo", "hi", "den", "root", "irrational")

    def __init__(self, coeffs=None, lo: int = 0, hi: int = 0, den: int = 1,
                 root: Optional[Scalar] = None):
        self.coeffs, self.lo, self.hi, self.den, self.root = coeffs, lo, hi, den, root
        self.irrational = False

    def refine(self, width) -> Scalar:
        """The root when it is known (see `root`), otherwise the midpoint of
        an enclosure of width <= `width`.  A rational root num/den in lowest
        terms is found whenever den^2 * width < 1: it is then the simplest
        rational of the final enclosure, and whatever den once the enclosure
        is at most 2^SNAP_BITS times wider than 1/|lead| (`_test_lead`).  A
        root proven irrational is never tested for one."""
        if self.root is not None:
            return self.root
        coeffs, lo, hi, den = self.coeffs, self.lo, self.hi, self.den
        width = Fraction(width)
        lo_positive = _horner(coeffs, lo, den) > 0
        rounds = 0
        while (hi - lo) * width.denominator > width.numerator * den:
            # the snap only shortens the loop: once the simplest rational of
            # an enclosure is the root, it is the simplest of every later one
            if not self.irrational and (
                    rounds & (rounds - 1) == 0 and self._try_exact_root(lo, hi, den)
                    or self._test_lead(lo, hi, den, lo_positive)):
                return self.root
            lo, hi, den, mid = 2 * lo, 2 * hi, 2 * den, lo + hi
            value = _horner(coeffs, mid, den)
            if value == 0:
                self.root = Fraction(mid, den)
                return self.root
            if (value > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
            rounds += 1
        self.lo, self.hi, self.den = lo, hi, den
        if not self.irrational and (self._try_exact_root(lo, hi, den)
                                    or self._test_lead(lo, hi, den, lo_positive)):
            return self.root
        mid = Fraction(lo + hi, 2 * den)
        if not self.irrational and _horner(coeffs, mid.numerator, mid.denominator) == 0:
            self.root = mid
        return mid

    def _test_lead(self, a: int, b: int, scale: int, positive_at_a: bool) -> bool:
        """Whether the root is rational, tested once [a/scale, b/scale] is at
        most 2^SNAP_BITS times wider than 1/lead, lead = |coeffs[-1]|:
        bisected below 1/lead, it holds the one candidate k/lead of a rational
        root, which settles `root` or proves it `irrational`."""
        lead = abs(self.coeffs[-1])
        if (b - a) * lead >= scale << SNAP_BITS:
            return False
        while (b - a) * lead >= scale:
            a, b, scale, mid = 2 * a, 2 * b, 2 * scale, a + b
            value = _horner(self.coeffs, mid, scale)
            if value == 0:
                self.root = Fraction(mid, scale)
                return True
            if (value > 0) == positive_at_a:
                a = mid
            else:
                b = mid
        k = -(-a * lead // scale)
        if k * scale <= b * lead and _horner(self.coeffs, k, lead) == 0:
            self.root = Fraction(k, lead)
            return True
        self.irrational = True
        return False

    def _try_exact_root(self, lo: int, hi: int, den: int) -> bool:
        """Settle `root` if the simplest rational in [lo/den, hi/den] is one."""
        num, q = _simplest(lo, hi, den)
        if _horner(self.coeffs, num, q) == 0:
            self.root = Fraction(num, q)
            return True
        return False

    def narrow(self, bits: int) -> None:
        """Unless the root is known, narrow the enclosure to a width of at
        most 2^-bits of its larger end in magnitude; that ends, since the
        root is not 0, and leaves lo and hi of one sign."""
        while self.root is None:
            top = max(abs(self.lo), abs(self.hi))
            if (self.hi - self.lo) << bits <= top:
                break
            self.refine(Fraction(top, self.den << bits))

    def to_float(self, lo: Fraction, hi: Fraction) -> float:
        """The root clamped to [lo, hi] as a float: the midpoint of an enclosure
        narrowed to 2^-64 of its ends, which rounds as the root unless nearer a tie."""
        self.narrow(64)
        x = self.root if self.root is not None else Fraction(self.lo + self.hi, 2 * self.den)
        return _to_float(min(max(x, lo), hi))


#: Relative half-widths of the windows around a float seed, in bits: the
#: window its simplest rational is taken from, and the brackets tried, in
#: order, around a seed that is not a rational root.
SNAP_BITS = 32
BRACKET_BITS = (46, 30)

#: Laguerre steps per root before its seed is taken as it stands.
SEED_STEPS = 60


def _laguerre_seeds(coeffs, lo: float) -> Optional[list]:
    """Float approximations of the deg p roots of the integer polynomial
    `coeffs`, each found by Laguerre's method on p divided by the roots
    found before it (implicit deflation).

    Every run starts at min(lo, -F), F = 2 max_k |c_(d-k) / c_d|^(1/k)
    being Fujiwara's bound on |root|: left of every root, and about as far
    from the roots found as from those left, so that their terms do not
    cancel p'/p down to rounding noise.  On a real-rooted p each run then
    climbs to the least root left (Laguerre's method is globally convergent
    there).  A run stops once its step is below the last bit of x, or p(x)
    is below the rounding bound of its Horner sum.  None when an iterate
    stops being finite; OverflowError when p does not fit in floats."""
    c = [float(x) for x in reversed(coeffs)]
    start = min(lo, -2.0 * max(abs(a / c[0]) ** (1.0 / k) for k, a in enumerate(c) if k))
    found = []
    for m in range(len(c) - 1, 0, -1):
        x = start
        for _ in range(SEED_STEPS):
            p = dp = half_ddp = noise = 0.0
            size = abs(x)
            for a in c:
                half_ddp = half_ddp * x + dp
                dp = dp * x + p
                p = p * x + a
                noise = noise * size + abs(p)
            if abs(p) <= noise * 2.0 ** -52:
                break
            g = dp / p
            h = g * g - 2.0 * half_ddp / p
            for r in found:
                d = 1.0 / (x - r)
                g -= d
                h -= d * d
            root = math.sqrt(max((m - 1) * (m * h - g * g), 0.0))
            step = m / (g + root if g >= 0 else g - root)
            x -= step
            if not math.isfinite(x):
                return None
            if abs(step) <= abs(x) * 2.0 ** -52:
                break
        found.append(x)
    return found


def _around(x: float, bits: int) -> tuple:
    """(a, b, den) with [a/den, b/den] = [x - |x| 2^-bits, x + |x| 2^-bits]
    exactly."""
    num, den = x.as_integer_ratio()
    return (num << bits) - abs(num), (num << bits) + abs(num), den << bits


def _seeded(work, lo: Fraction, hi: Fraction) -> Optional[list]:
    """`_isolate`'s interior RootEnclosures of the primitive integer
    polynomial `work`, deg >= 2, from float seeds (`_laguerre_seeds`)
    certified exactly; None when the certificate fails, for Descartes
    bisection (`_descartes_isolate`) to decide.

    Each seed's simplest rational within 2^-SNAP_BITS of it, relative, is
    tested by integer Horner and, when it is a root, deflated out.  Each
    other seed gets a bracket of relative half-width 2^-BRACKET_BITS, the
    first whose ends have opposite exact signs of the deflated polynomial,
    kept on its integer ends.  A bracket at most 2^SNAP_BITS times wider
    than 1/|lead| tests its one candidate k/|lead| as it is made
    (`RootEnclosure._test_lead`), and is kept, its root proven irrational,
    when it fails.  So there are deg p exact roots and brackets, one per
    seed.  The result
    stands only when they lie strictly inside (lo, hi) and are pairwise
    disjoint: then each bracket holds a root of the deflated polynomial,
    and the count leaves room for no other, so every root of p is real,
    simple and in one of them."""
    try:
        seeds = _laguerre_seeds(work, float(lo))
    except (OverflowError, ZeroDivisionError):
        return None
    if seeds is None:
        return None
    found, rest = [], []
    for x in seeds:
        num, q = _simplest(*_around(x, SNAP_BITS))
        if _horner(work, num, q) == 0:
            found.append(_exact_root(Fraction(num, q)))
            work = _deflate(work, found[-1].root)
        else:
            rest.append(x)
    for x in rest:
        for bits in BRACKET_BITS:
            a, b, scale = _around(x, bits)
            va, vb = _horner(work, a, scale), _horner(work, b, scale)
            if (va > 0 and vb < 0) or (va < 0 and vb > 0):
                e = RootEnclosure(work, a, b, scale)
                e._test_lead(a, b, scale, va > 0)
                found.append(e if e.root is None else _exact_root(e.root))
                break
        else:
            return None
    found = _ascending(found)
    first, last = found[0], found[-1]
    if (first.lo * lo.denominator <= lo.numerator * first.den
            or hi.numerator * last.den <= last.hi * hi.denominator
            or any(right.lo * left.den <= left.hi * right.den
                   for left, right in zip(found, found[1:]))):
        return None
    return found


def _exact_root(root: Fraction) -> RootEnclosure:
    """The RootEnclosure of a rational root, its ends the root."""
    return RootEnclosure(None, root.numerator, root.numerator, root.denominator, root)


def _ascending(found: list) -> list:
    """RootEnclosures sorted by their lower ends, compared exactly on integers."""
    return sorted(found, key=functools.cmp_to_key(lambda u, v: u.lo * v.den - v.lo * u.den))


def _widened(lo: Fraction, hi: Fraction, eps: float = DEFAULT_EPS) -> tuple:
    """(lo - d, hi + d), d = eps * max(1, |lo|, |hi|): where float input is
    isolated, so that a root the rounding moved just past an end counts.  A
    d past the float range raises DomainError naming the interval."""
    ends = _to_float(lo), _to_float(hi)
    d = eps * max(1.0, *map(abs, ends))
    if not math.isfinite(d):
        raise DomainError(f"float roots sought on [{ends[0]!r}, {ends[1]!r}], "
                          "an interval past the float range")
    d = as_fraction(d)
    return lo - d, hi + d


def _isolate(ints, lo: Fraction, hi: Fraction) -> list:
    """`root_enclosures` on [lo, hi], lo <= hi, of the nonzero polynomial
    with integer coefficients `ints` (any nonzero multiple of it gives the
    same enclosures: they are made on its primitive part)."""
    if len(ints) == 1:
        return []
    work = _primitive(ints)
    first, last = [], []
    # endpoint roots, then strictly interior isolation
    if _horner(work, lo.numerator, lo.denominator) == 0:
        first.append(RootEnclosure(root=lo))
        work = _deflate(work, lo)
    if hi != lo and _horner(work, hi.numerator, hi.denominator) == 0:
        last.append(RootEnclosure(root=hi))
        work = _deflate(work, hi)
    # a root left at lo or hi after the deflation there is a repeated root
    if (_horner(work, lo.numerator, lo.denominator) == 0
            or _horner(work, hi.numerator, hi.denominator) == 0):
        raise DegenerateInput("polynomial has a repeated root")
    if len(work) <= 2:  # a constant, or a linear remainder with its root exact
        inside = [Fraction(-work[0], work[1])] if len(work) == 2 else []
        return first + [RootEnclosure(root=x) for x in inside if lo < x < hi] + last
    interior = _seeded(work, lo, hi)
    if interior is None:
        from ._roots import _descartes_isolate
        interior = _descartes_isolate(work, lo, hi)
    return first + interior + last


# --------------------------------------------------------------------------
# dense determinants (a reference for the tests)
# --------------------------------------------------------------------------

def _solve_upper(u, c) -> tuple:
    """(num, den) with x_i = num[i] / den solving the upper triangular
    integer system u x = c (nonzero diagonal), by back substitution over one
    common denominator."""
    n = len(c)
    num, den = [0] * n, 1
    for i in range(n - 1, -1, -1):
        total = c[i] * den - sum(u[i][j] * num[j] for j in range(i + 1, n))
        d = u[i][i]
        if d != 1:
            for j in range(i + 1, n):
                num[j] *= d
            den *= d
        num[i] = total
    return num, den


def det(rows) -> Scalar:
    """Determinant by one Gaussian elimination over `Fraction`s, swapping in
    a lower row at a zero pivot; a float for float input, from its
    binary-exact image.  A reference for the tests: no library path
    eliminates a dense layout (`_minor_pass` decides every Hankel form)."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ShapeError("determinant of a non-square layout")
    floats = any(isinstance(x, float) for r in rows for x in r)
    a = [[as_fraction(x) for x in r] for r in rows]
    value = Fraction(1)
    for k in range(n):
        row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if row is None:
            value = Fraction(0)
            break
        if row != k:
            a[k], a[row] = a[row], a[k]
            value = -value
        piv, top = a[k][k], a[k]
        value *= piv
        for below in a[k + 1:]:
            f = below[k] / piv
            for j in range(k + 1, n):
                below[j] -= f * top[j]
    return _to_float(value) if floats else value


def det_poly(rows, degrees: Optional[Sequence[int]] = None) -> Polynomial:
    """Determinant of a layout whose last column is monomials t^degrees[j].

    The coefficient of t^degrees[j] is the cofactor of that column's row j:
    the `det` of the layout with the unit vector e_j as last column.  Float
    input runs on its binary-exact image and gets float coefficients.  A
    reference for the tests, like `det`.
    """
    m = len(rows) - 1
    if m < 0:
        raise ShapeError("empty layout")
    for r in rows:
        if len(r) != m:
            raise ShapeError("rows plus monomial column must form a square layout")
    if degrees is None:
        degrees = list(range(m + 1))
    if len(degrees) != m + 1:
        raise ShapeError("one monomial degree per row is required")
    floats = any(isinstance(x, float) for r in rows for x in r)
    rows = [[as_fraction(x) for x in r] for r in rows]
    coeffs = [0] * (max(degrees) + 1)
    for j, degree in enumerate(degrees):
        coeffs[degree] += det([r + [int(i == j)] for i, r in enumerate(rows)])
    return Polynomial([_to_float(c) for c in coeffs] if floats else coeffs)


def associated(p: Sequence, s: Sequence):
    """The coefficients q_0, ..., q_(d-1), lowest degree first and yielded
    in that order, of the associated polynomial

        q(t) = L_s[(p(t) - p(u)) / (t - u)],   q_i = sum_(k > i) p_k s_(k-1-i),

    of p = (p_0, ..., p_d) under the functional L_s(u^k) = s_k; they read
    s_0..s_(d-1).  Let a measure with leading moments s have its atoms at
    simple roots of p.  Then q(x) = m p'(x) at each atom x of mass m, the
    Gauss-Christoffel weight of Gaussian quadrature (Karlin and Studden,
    *Tchebycheff Systems*, 1966, ch. II), and -q(0)/p(0) is the measure's
    integral of 1/t.  Each coefficient is summed from k = i + 1 up."""
    d = len(p) - 1
    for i in range(d):
        yield sum(p[k] * s[k - 1 - i] for k in range(i + 1, d + 1))


# --------------------------------------------------------------------------
# Hankel forms
# --------------------------------------------------------------------------

class FormClass(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE_SINGULAR = "PositiveSemidefiniteSingular"
    INDEFINITE = "Indefinite"


class HankelImage(NamedTuple):
    """The entries of a Hankel form as integers: ints[k] = unit * entry k for
    a positive integer `unit`, which changes the sign of no minor and of no
    Schur complement, so the form keeps its class (Sylvester).  A form of a
    window dilated by lam (`_dilated_scale`) has ints[k] = unit * lam^k *
    entry k: the image of D H D, D = diag(lam^i), which keeps the class
    too.  `tols` is None for exact entries; for float input tols[k] is the
    magnitude, in the form's own units, up to which an entry i + j = k of a
    Schur complement (a pivot included) reads as zero."""

    ints: list
    unit: int
    tols: Optional[list] = None


def _tolerances(eps: Optional[float], sizes) -> list:
    """Zero thresholds eps * max(1, w_k) (eps defaults to DEFAULT_EPS), w_k
    being the size of the terms entry k was computed from, as exact
    rationals.  A threshold past the float range, of float input near its
    end, raises DomainError naming the size."""
    tol = DEFAULT_EPS if eps is None else eps
    tols = [tol * max(1.0, w) for w in sizes]
    for w, t in zip(sizes, tols):
        if not math.isfinite(t):
            raise DomainError(f"float input of size {w!r} has a zero test past the float range")
    return [as_fraction(t) for t in tols]


def _hankel_image(entries, eps: Optional[float] = None,
                  scales: Optional[Sequence[float]] = None) -> HankelImage:
    """The `HankelImage` of scalar entries, scaled once by their least common
    denominator; float input on its binary-exact image, read as zero
    relative to scales[k], by default |entries[k]|."""
    tols = None
    if any(isinstance(x, float) for x in entries):
        tols = _tolerances(eps, map(abs, entries) if scales is None else scales)
        entries = [as_fraction(x) for x in entries]
    return HankelImage(*_integer_scale(entries), tols)


#: The fewest entries of a window whose forms run on its dilated image
#: (`_dilated_scale`): on a shorter one a pass saves less than building the
#: image costs.
DILATION_MIN_LENGTH = 8


def _dilated_scale(values) -> tuple:
    """(ints, unit, lam): ints[k] = unit * lam^k * values[k] for exact
    `values`, the image of the window lam^k s_k, the moments of the measure
    carried by t -> lam t, over its least common denominator `unit`, for an
    integer lam >= 1.  lam is 1, and the image `_integer_scale`'s, for a
    window of fewer than DILATION_MIN_LENGTH entries or when dilating does
    not shrink the product of its integers.

    The moments of atoms P_i / Q have denominators that grow by a factor Q
    per index, so over their common denominator the low entries carry
    powers of Q they do not need.  lam = d_n / gcd(d_n, d_(n-1)) is the
    factor the last denominator adds to the one before, Q for those
    moments; entry k of the dilated window is its numerator times
    lam^k / g over d_k / g, g = gcd(d_k, lam^k).  The product of the
    integers shrinks by unit_lam^(n+1) lam^(n(n+1)/2) / unit^(n+1), so the
    image is kept when unit^2 > unit_lam^2 lam^n.  A Hankel form of the
    dilated window is D H D with D = diag(lam^i), so a pass over it takes
    the same steps and its leading minors are those of H times powers of
    lam."""
    if len(values) < DILATION_MIN_LENGTH:
        ints, unit = _integer_scale(values)
        return ints, unit, 1
    dens = [x.denominator for x in values]
    lam = dens[-1] // math.gcd(dens[-1], dens[-2])
    unit = math.lcm(*dens)
    if lam > 1:
        nums, reduced, power = [], [], 1
        for x, d in zip(values, dens):
            g = math.gcd(d, power)
            nums.append(x.numerator * (power // g))
            reduced.append(d // g)
            power *= lam
        shrunk = math.lcm(*reduced)
        if shrunk * shrunk * lam ** (len(values) - 1) < unit * unit:
            return [x * (shrunk // d) for x, d in zip(nums, reduced)], shrunk, lam
    return [x.numerator * (unit // d) for x, d in zip(values, dens)], unit, 1


def _minor_pass(image: HankelImage, order: int) -> tuple:
    """(r, a, bounds): one unpivoted Bareiss pass over the Hankel rows
    ints[i:i + w], i < order, w = len(ints) - order + 1, of an image.

    The pass takes one step per positive pivot and stops at the first that
    is not, r being the number of steps.  By Sylvester's identity
    a[k][k] = unit^(k+1) D_(k+1) for k <= min(r, order - 1), D_k being the
    leading minors.  After the r steps rows 0..r-1 are upper triangular and
    every further column has been reduced along with them (see
    `_pass_solution`); a[i][j], r <= i <= j, is unit * a[r-1][r-1] (unit
    at r = 0) times entry (i, j) of the Schur complement of the leading
    r x r block.  That block stays symmetric, so a step reduces row i only
    from column i on, with a[k][i] as the multiplier of a[i][k]: entries
    below the diagonal are left as they were and are never read.  A Schur
    complement entry, a pivot included, reads as zero when its magnitude is
    at most bounds[i + j]: 0 for exact input, the image of tols[i + j]
    otherwise."""
    ints, unit, tols = image

    def bound(k: int, prev: int) -> int:
        return tols[k].numerator * unit * prev // tols[k].denominator

    width = len(ints) - order + 1
    a = [ints[i:i + width] for i in range(order)]
    r, prev = 0, 1
    while r < order and a[r][r] > (0 if tols is None else bound(2 * r, prev)):
        piv, top = a[r][r], a[r]
        for i in range(r + 1, order):
            f = top[i]
            a[i][i:] = [(x * piv - f * t) // prev for x, t in zip(a[i][i:], top[i:])]
        prev = piv
        r += 1
    if tols is None:
        return r, a, [0] * len(ints)
    return r, a, [bound(k, prev) for k in range(len(ints))]


def _pass_class(minor_pass: tuple, order: int) -> FormClass:
    """Class of the leading order x order block of the Hankel rows that
    `_minor_pass` reduced, order at most the pass's own.

    The block is positive definite when its leading minors are all positive,
    and indefinite when one is negative before the first zero one.
    Otherwise D_1..D_r > 0 = D_(r+1), and by Curto and Fialkow
    ("Recursiveness, positivity, and truncated moment problems", Houston J.
    Math. 17 (1991)) the block is positive semidefinite exactly when the
    Schur complement of its leading r x r block is zero but for a last
    corner entry >= 0: the recurrence of entries 0..2r-1 generates the rest,
    and the last entry is at least the value it generates.  It is then
    singular.  Entries are read with the zero test of the pass."""
    r, a, bounds = minor_pass
    if r >= order:
        return FormClass.POSITIVE_DEFINITE
    block = [(a[i][j], bounds[i + j]) for i in range(r, order) for j in range(i, order)]
    corner, bound = block.pop()
    if corner < -bound or any(abs(x) > b for x, b in block):
        return FormClass.INDEFINITE
    return FormClass.POSITIVE_SEMIDEFINITE_SINGULAR


def classify_form(entries, eps: Optional[float] = None, *,
                  scales: Optional[Sequence[float]] = None) -> FormClass:
    """Class of the Hankel form (entries[i + j]), 0 <= i, j < order, given
    its 2 order - 1 entries or their `HankelImage`, from one `_minor_pass`
    (see `_pass_class`).  Float entries are read with the zero test of
    `_hankel_image`; `scales[k]` is the size of the terms entry k was
    computed from, |entries[k]| by default, and exact input ignores it.
    """
    image = entries if isinstance(entries, HankelImage) else _hankel_image(entries, eps, scales)
    order = (len(image.ints) + 1) // 2
    if len(image.ints) != max(2 * order - 1, 0):
        raise ShapeError("a Hankel form has an odd number of entries")
    return _pass_class(_minor_pass(image, order), order)


def _pass_solution(a, r: int) -> tuple:
    """(num, den) with x_i = num[i] / den solving H_r x = (h_0r, ...,
    h_(r-1)r), H_r the leading r x r block of the Hankel rows h that
    `_minor_pass` reduced to `a` in r steps.  Row operations act on column r
    as on the others, and every column has the same unit, so the reduced
    rows 0..r-1 give x by back substitution alone."""
    return _solve_upper(a[:r], [row[r] for row in a[:r]])


def _pass_bordered(a, r: int, unit: int, lam: int) -> tuple:
    """(ints, num, den) of the Hankel rows that `_minor_pass` reduced to `a`
    in r >= 1 steps over an image whose entry k is unit * lam^k times the
    form's: with c = n / d from `_pass_solution`, d > 0, the integers
    ints = (-n_0, -n_1 lam, ..., -n_(r-1) lam^(r-1), d lam^r) are
    d lam^r (t^r - sum c_j t^j), the monic support polynomial of the window
    itself (the pass over a window dilated by lam gives c_j lam^(r - j)),
    and num / den > 0 times them is the bordered-Hankel polynomial
    det H_r (t^r - sum c_j t^j), the determinant of H_r bordered by the row
    (h_r, ..., h_(2r-1), t^r) and the column (1, t, ..., t^r):
    det H_r = a[r-1][r-1] / (unit^r lam^(r^2 - r)) (Sylvester)."""
    num, den = _pass_solution(a, r)
    ints = [-x * lam ** j for j, x in enumerate(num)] + [den * lam ** r]
    return ints, a[r - 1][r - 1], ints[-1] * unit ** r * lam ** (r * r - r)
