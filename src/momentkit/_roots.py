"""Root isolation entry points, the Descartes fallback and two reference
helpers of the kernel in `numeric`.

`real_roots` and `root_enclosures` isolate the roots of a `Polynomial` in an
interval.  The library's own readers isolate on the integers kept on a
window (`numeric._isolate`, from `principal`), which falls back to
Descartes bisection here (`_descartes_isolate`) only when the certificate
of the float seeds fails.  `simplest_between` and `vandermonde_masses` are
references for the tests: no library path calls them.  Every public name
here is also served by `numeric` (see `momentkit._serve`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateInput, InsufficientMoments, ShapeError
from .numeric import (DEFAULT_EPS, Polynomial, RootEnclosure, Scalar, _ascending, _deflate,
                      _derivative, _exact_root, _horner, _integer_scale, _isolate, _primitive,
                      _shifted, _simplest, _to_float, _variations, _widened, as_fraction,
                      associated, root_precision)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator in the closed interval [lo, hi]."""
    lo, hi = sorted((Fraction(lo), Fraction(hi)))
    (lo_n, hi_n), den = _integer_scale((lo, hi))
    return Fraction(*_simplest(lo_n, hi_n, den))


def _shares_root(f, g) -> bool:
    """Whether the integer polynomials f and g share a root, by Euclid's
    algorithm (`_negated_remainder`); g may have zero leading entries, and
    g = 0 shares every root."""
    g = list(g)
    while g and g[-1] == 0:
        g.pop()
    while len(g) > 1:
        f, g = g, _negated_remainder(f, g)
    return not g


def _negated_remainder(f, g) -> list:
    """Primitive part of -rem(f, g), reached by scaling f by |lead(g)| (a
    positive factor) before each reduction step; [] when g divides f."""
    f = list(f)
    lead = g[-1]
    factor, orient = abs(lead), (1 if lead > 0 else -1)
    dg = len(g) - 1
    while len(f) > dg:
        top = f[-1] * orient
        shift = len(f) - 1 - dg
        f = [c * factor for c in f]
        for i, c in enumerate(g):
            f[shift + i] -= top * c
        while f and f[-1] == 0:
            f.pop()
    return _primitive([-c for c in f]) if f else []


def _descartes_isolate(work, lo: Fraction, hi: Fraction) -> list:
    """`_isolate`'s interior RootEnclosures of the primitive integer
    polynomial `work`, deg >= 2, nonzero at lo and hi, by Descartes
    bisection (Collins and Akritas, 1976), the fallback of `_seeded`; a
    repeated root (gcd(p, p') != 1) raises DegenerateInput.  A node
    (a, a + width) / scale carries q(t), a positive multiple of p on it
    mapped to (0, 1); var((1 + t)^d q(1 / (1 + t))) bounds its roots, is
    exact at 0 and 1, and reaches those on small nodes of a squarefree p.
    Its halves carry 2^d q(t / 2) and that shifted by 1; a root at the
    midpoint is settled and deflated out of what later enclosures carry."""
    if _shares_root(work, _primitive(_derivative(work))):
        raise DegenerateInput("polynomial has a repeated root")
    (start, stop), den = _integer_scale((lo, hi))
    width, d = stop - start, len(work) - 1
    q = _shifted([c * den ** (d - i) for i, c in enumerate(work)], start)
    found, stack = [], [(start, den, [c * width ** i for i, c in enumerate(q)])]
    while stack:
        a, scale, q = stack.pop()
        count = _variations(_shifted(q[::-1]))
        if count == 1:
            found.append(RootEnclosure(work, a, a + width, scale))
        elif count > 1:
            left = [x << (d - i) for i, x in enumerate(q)]
            right = _shifted(left)
            if right[0] == 0:
                found.append(_exact_root(Fraction(2 * a + width, 2 * scale)))
                work = _deflate(work, found[-1].root)
            stack += [(2 * a + width, 2 * scale, right), (2 * a, 2 * scale, left)]
    return _ascending(found)


def root_enclosures(p: Polynomial, lo: Scalar, hi: Scalar,
                    eps: float = DEFAULT_EPS) -> list:
    """Every real root of `p` in [lo, hi], ascending, as a RootEnclosure.

    Roots at lo and hi come out exact and are deflated out of the primitive
    integer polynomial.  A linear remainder has its root settled exactly.
    What is left of degree 2 or more is first solved
    from float seeds certified exactly (`_seeded`): a rational root whose
    seed snaps to it, or whose bracket is narrow enough to test its one
    candidate, comes out exact, every other root as a narrow bracket around
    its seed, marked `irrational` when its candidate failed.  The
    certificate holds only when every root of what is left is real, simple
    and strictly inside (lo, hi).  Otherwise Descartes bisection isolates
    the roots (`_descartes_isolate`).  Either way an interval is refined by
    `RootEnclosure.refine`.  Float input (in p, lo
    or hi) is isolated on its binary-exact image over the `_widened`
    interval; each root comes back settled as a float
    (`RootEnclosure.to_float`).  Repeated roots raise DegenerateInput:
    every polynomial this package feeds in here is guaranteed simple by the
    theory (see `count_positive_roots`), so a multiple root signals
    corrupted input.
    """
    if p.is_zero():
        raise DegenerateInput("zero polynomial has no isolated roots")
    floats = any(isinstance(x, float) for x in (*p.coeffs, lo, hi))
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo > hi:
        raise ShapeError("empty interval")
    if not floats:
        return _isolate(_integer_scale(p.coeffs)[0], lo, hi)
    return [RootEnclosure(root=e.to_float(lo, hi))
            for e in _isolate(_integer_scale([as_fraction(c) for c in p.coeffs])[0],
                              *_widened(lo, hi, eps))]


def real_roots(p: Polynomial, lo: Scalar, hi: Scalar,
               precision: Optional[Fraction] = None,
               eps: float = DEFAULT_EPS) -> list:
    """All real roots of `p` in [lo, hi], ascending.

    Exact input is isolated by `root_enclosures`; rational roots come back
    exact and irrational ones narrowed to enclosures of the requested width
    (their midpoints are returned).  A rational root num/den is exact in
    three ways: its float seed snaps to it, its enclosure gets at most
    2^SNAP_BITS times wider than 1/|lead| of the integer polynomial and its
    one candidate is tested (`RootEnclosure._test_lead`), or den^2 * w < 1,
    w the width of its final enclosure (at most `width`), so that it is the
    simplest rational there (`RootEnclosure.refine`).  A root none of these
    reaches may come back as an enclosure midpoint like an irrational one.
    Float input gets floats, refined to float precision whatever the width.
    Repeated roots raise DegenerateInput; see `root_enclosures`.
    """
    enclosures = root_enclosures(p, lo, hi, eps)
    width = precision if precision is not None else root_precision()
    return [e.refine(width) for e in enclosures]


def vandermonde_masses(atoms: Sequence[Scalar], window: Sequence[Scalar]):
    """Masses m_j at distinct `atoms` x_j that match the first c = len(atoms)
    moments of `window`: the solution of sum_j m_j x_j^k = s_k, k < c, in
    its Lagrange form m_j = q(x_j) / p'(x_j), p = prod (t - x_i) and q its
    `associated` polynomial.  On the images x_j = P_j / Q and s_k = S_k /
    unit, prod (Q t - P_i) = Q^c p(t) has the associated polynomial
    unit Q^c q, so m_j is its `_horner` at P_j over unit Q^c prod_(i != j)
    (P_j - P_i): O(c^2) integer work, no elimination.  No library path
    calls it.  Float input runs on its binary-exact image and gets floats
    back.  Coinciding atoms raise DegenerateInput."""
    c = len(atoms)
    if c == 0:
        return []
    if len(window) < c:
        raise InsufficientMoments("moment window shorter than atom count")
    floats = any(isinstance(x, float) for x in (*atoms, *window[:c]))
    P, Q = _integer_scale([as_fraction(x) for x in atoms])
    S, unit = _integer_scale([as_fraction(v) for v in window[:c]])
    p = [1]
    for x in P:  # times (Q t - x)
        p = [Q * b - x * a for a, b in zip(p + [0], [0] + p)]
    q = list(associated(p, S))
    slopes = [math.prod(x - y for i, y in enumerate(P) if i != j) for j, x in enumerate(P)]
    if 0 in slopes:
        raise DegenerateInput("coinciding atoms")
    out = [Fraction(_horner(q, x, Q), unit * Q ** c * slope) for x, slope in zip(P, slopes)]
    return [_to_float(v) for v in out] if floats else out
