"""Certificate verification: forged measures are rejected, the check is
finite, and the emitted JSON and weight rows match the generators."""

import argparse
import copy
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

import momentkit
from momentkit.alternating import CAMeasure
from momentkit.cli import run
from momentkit.completion import (CompletionCertificate, _norm_sq_bound, flat_che_completion,
                                  solve_che, solve_subnormal)
from momentkit.errors import CertificateInvalid, DegenerateInput, ZeroAtomError
from momentkit.measure import AtomicMeasure, MomentRecurrence, tilt
from momentkit.numeric import Polynomial, format_scalar
from momentkit.principal import root_bound
from momentkit.tree import (BranchClass, FullBranch, FullWeights, GeometricSumTail,
                            MeasureTail, PartialWeights, verify_che_certificate,
                            verify_subnormal_certificate)

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(momentkit.__file__))


def _poly(roots):
    poly = Polynomial([1])
    for x in roots:
        poly = poly.mul_linear(-x, 1)
    return poly


def _moment(pairs, k):
    return sum((m * x ** k for x, m in pairs), F(0))


def _recurrence(pairs, first_index, length):
    """Recurrence of the (possibly signed) combination of point masses,
    seeded with `length` of its moments from `first_index` on."""
    window = [_moment(pairs, first_index + i) for i in range(length)]
    return MomentRecurrence(_poly([x for x, _ in pairs]), first_index, window)


def _subnormal_cert(rec, p=1):
    """One-class, trunk-free subnormal certificate over `rec`: the weights
    of generations 2..p are its moment ratios, the first weight meets the
    root bound."""
    prefix = [rec.moment(n) / rec.moment(n - 1) for n in range(1, p)]
    s = rec.moment(-1)
    first = 1 / abs(s) if s != 0 else F(1)
    return FullWeights([], [FullBranch(first, MeasureTail(prefix, rec), 1)])


def _che_cert(tau):
    """One-class, trunk-free CHE certificate over `tau` with p = 1 and the
    root bound 1 + first * tau_(-1) <= first met when tau_(-1) < 1."""
    s = tau.moment(-1)
    first = 1 / (1 - s) if s < 1 else F(1)
    return FullWeights([], [FullBranch(first, GeometricSumTail([], tau), 1)])


def _verify_file(tmp_path, cert_json):
    path = tmp_path / "forged.json"
    path.write_text(json.dumps({"kind": "verify", "certificate": cert_json}),
                    encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "momentkit.cli", str(path), "--depth", "64"],
                          capture_output=True, text=True, env=env)
    return proc.returncode, json.loads(proc.stdout)


# --------------------------------------------------------------------------
# forged certificates
# --------------------------------------------------------------------------

# (kind, polynomial, first_index, seed window, first weight): each seed runs
# on to a moment sequence that satisfies every weight identity, but no
# positive measure on the domain has these moments
FORGED = {
    # t^2 + 1 seeded (1/2, 1): moments 1/2, 1, -1/2, -1, ...
    "complex-roots": ("subnormal", (1, 0, 1), -1, (F(1, 2), 1), F(1)),
    # (delta_-1 + delta_2) / 2: the Hankel form is positive definite
    "negative-root": ("subnormal", (-2, -1, 1), 0, (1, F(1, 2)), F(1)),
    # -delta_1 / 2 + 3 delta_2 / 2
    "not-positive-definite": ("subnormal", (2, -3, 1), 0, (1, F(5, 2)), F(1)),
    # (delta_1 + delta_2) / 2 has s_3 = 9/2, not 5
    "seed-not-generated": ("subnormal", (2, -3, 1), 0, (1, F(3, 2), F(5, 2), 5), F(1)),
    # delta_2 / 2 as a CHE branch measure
    "root-above-one": ("che", (-2, 1), -1, (F(1, 4),), F(2)),
}


def _forged(case):
    kind, coeffs, first_index, window, first = FORGED[case]
    rec = MomentRecurrence(Polynomial(list(coeffs)), first_index, list(window))
    cert_json = {"kind": kind, "trunk_sq": [], "weights_sq": [[format_scalar(first)]],
                 "measures": [rec.to_json()]}
    if kind == "subnormal":
        full = FullWeights([], [FullBranch(first, MeasureTail([], rec), 1)])
        return full, [rec], verify_subnormal_certificate, cert_json
    tau = CAMeasure(0, rec)
    full = FullWeights([], [FullBranch(first, GeometricSumTail([], tau), 1)])
    return full, [tau], verify_che_certificate, cert_json


@pytest.mark.parametrize("case", sorted(FORGED))
def test_forged_certificate_rejected(case, tmp_path):
    full, measures, verifier, cert_json = _forged(case)
    with pytest.raises(CertificateInvalid) as err:
        verifier(full, measures, 64)
    assert "positive" in str(err.value)
    code, payload = _verify_file(tmp_path, cert_json)
    assert code == 1 and payload["valid"] is False


IN_RAY = st.fractions(min_value=F(1, 12), max_value=16, max_denominator=12)
IN_HALF_OPEN = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)
MASS = st.fractions(min_value=F(1, 12), max_value=8, max_denominator=12)


@st.composite
def planted(draw):
    """A valid recurrence measure: distinct rational roots in the domain,
    positive masses, seeded from some index with d..d+2 moments."""
    che = draw(st.booleans())
    roots = draw(st.lists(IN_HALF_OPEN if che else IN_RAY, min_size=1, max_size=3,
                          unique=True))
    pairs = [(x, draw(MASS)) for x in roots]
    first_index = draw(st.integers(-2, 0))
    length = len(roots) + draw(st.integers(0, 2))
    return che, pairs, first_index, length


def _build(che, pairs, first_index, length):
    if che:
        s = _moment(pairs, -1)
        scale = 1 / (2 * abs(s)) if s != 0 else 1
        pairs = [(x, m * scale) for x, m in pairs]
        tau = CAMeasure(0, _recurrence(pairs, first_index, length))
        return _che_cert(tau), [tau], verify_che_certificate
    total = _moment(pairs, 0)
    pairs = [(x, m / total) for x, m in pairs]
    rec = _recurrence(pairs, first_index, length)
    return _subnormal_cert(rec, 1), [rec], verify_subnormal_certificate


@given(planted())
def test_planted_recurrences_verify(data):
    che, pairs, first_index, length = data
    full, measures, verifier = _build(che, pairs, first_index, length)
    assert verifier(full, measures, 64)
    if not che:
        # with the prescribed generations 2..3 drawn from the measure too
        rec = measures[0]
        assert verify_subnormal_certificate(_subnormal_cert(rec, 3), [rec], 12)


@given(planted(), st.sampled_from(["root", "mass", "seed"]), st.data())
def test_mutated_recurrences_rejected(data, mutation, extra):
    che, pairs, first_index, length = data
    pick = extra.draw(st.integers(0, len(pairs) - 1))
    x, m = pairs[pick]
    if mutation == "root":
        # one atom moves out of the domain: below 0, or above 1 on (0, 1]
        out = extra.draw(st.fractions(min_value=F(1, 12), max_value=8, max_denominator=12))
        pairs[pick] = (1 + out if che else -out, m)
    elif mutation == "mass":
        assume(len(pairs) >= 2)
        pairs[pick] = (x, -m)
        assume(_moment(pairs, 0) != 0)
    full, measures, verifier = _build(che, pairs, first_index, length)
    if mutation == "seed":
        rec = measures[0].positive if che else measures[0]
        spot = extra.draw(st.integers(rec.poly.degree, rec.poly.degree + 2))
        assume(spot < len(rec.window))
        window = list(rec.window)
        window[spot] += extra.draw(MASS)
        forged = MomentRecurrence(rec.poly, rec.first_index, window)
        if che:
            tau = CAMeasure(0, forged)
            full, measures = _che_cert(tau), [tau]
        else:
            full, measures = _subnormal_cert(forged, 1), [forged]
    with pytest.raises(CertificateInvalid) as err:
        verifier(full, measures, 64)
    assert "positive" in str(err.value)


# --------------------------------------------------------------------------
# trunk identities
# --------------------------------------------------------------------------

ATOM_IN_RAY = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16)
ATOM_IN_HALF_OPEN = st.fractions(min_value=F(1, 4), max_value=1, max_denominator=16)


@st.composite
def planted_trunks(draw):
    """(che, kappa, pairs, measures, first masses, tails, trunk squares) of
    a certificate whose trunk identities hold with the last level tight:
    1-3 classes, kappa 0..2, each class's measure of 1-2 rational atoms
    built by the AtomicMeasure constructor, reached through a tilt (its
    image read with shifted exponents), or a MomentRecurrence seeded from
    some index.  The trunk squares follow from the measures' reciprocal
    moments S_k = sum_c m_c mu_c(-(k + 1)): t_k = S_k / S_(k+1) with
    S_0 = 1 on the ray, t_(k-1) = 1 / (1 - T_(k-1) S_k), T the trunk
    product, with 1 + S_0 = sum_c m_c on (0, 1]."""
    che, kappa = draw(st.booleans()), draw(st.integers(0, 2))
    count = draw(st.integers(1, 3))
    pairs_by_class, measures, tails = [], [], []
    for _ in range(count):
        roots = draw(st.lists(ATOM_IN_HALF_OPEN if che else ATOM_IN_RAY, min_size=1, max_size=2,
                              unique=True))
        pairs = [(x, draw(MASS)) for x in roots]
        # a total mass of 1 on the ray; tau(-(kappa + 1)) = 1 / (8 count) on (0, 1]
        scale = 1 / (8 * count * _moment(pairs, -(kappa + 1))) if che else 1 / _moment(pairs, 0)
        pairs = [(x, m * scale) for x, m in pairs]
        kind = draw(st.sampled_from(["atomic", "tilted", "recurrence"]))
        if kind == "atomic":
            mu = AtomicMeasure(pairs)
        elif kind == "tilted":
            k = draw(st.integers(-1, 3))
            mu = tilt(AtomicMeasure([(x, m / x ** k) for x, m in pairs]), k)
        else:
            mu = _recurrence(pairs, draw(st.integers(-3, 0)), len(pairs) + draw(st.integers(0, 1)))
        p = draw(st.integers(1, 3))
        if che:
            gammas = [1 + sum(_moment(pairs, j) for j in range(n)) for n in range(p)]
            tails.append(GeometricSumTail([b / a for a, b in zip(gammas, gammas[1:])],
                                          CAMeasure(0, mu)))
            measures.append(tails[-1].tau)
        else:
            tails.append(MeasureTail([_moment(pairs, n) / _moment(pairs, n - 1) for n in range(1, p)],
                                     mu))
            measures.append(mu)
        pairs_by_class.append(pairs)
    weights = [draw(st.fractions(min_value=1, max_value=3, max_denominator=8)) for _ in measures]
    if che:
        total = sum(w * (1 - _moment(pairs, -1)) for w, pairs in zip(weights, pairs_by_class))
    else:
        total = sum(w * _moment(pairs, -1) for w, pairs in zip(weights, pairs_by_class))
    masses = [w / total for w in weights]
    sums = [sum(m * _moment(pairs, -(k + 1)) for m, pairs in zip(masses, pairs_by_class))
            for k in range(kappa + 1)]
    trunk, prod = [], F(1)
    for k in range(1, kappa + 1):
        trunk.append(1 / (1 - prod * sums[k]) if che else sums[k - 1] / sums[k])
        prod *= trunk[-1]
    return che, kappa, pairs_by_class, measures, masses, tails, trunk


def _trunk_certificate(data, masses=None, trunk=None):
    che, _, _, measures, planted_masses, tails, planted_trunk = data
    full = FullWeights(planted_trunk if trunk is None else trunk,
                       [FullBranch(m, tail, 1) for m, tail in
                        zip(planted_masses if masses is None else masses, tails)])
    return full, measures, verify_che_certificate if che else verify_subnormal_certificate


def _first_failing_level(data, masses, trunk):
    """The first trunk level whose identity fails, by plain `Fraction`
    arithmetic on the planted atoms; None when every level holds."""
    che, kappa, pairs_by_class = data[:3]
    prod = F(1)
    for k in range(kappa + 1):
        if k:
            prod *= trunk[k - 1]
        s = sum(m * _moment(pairs, -(k + 1)) for m, pairs in zip(masses, pairs_by_class))
        lhs, rhs = (1 + prod * s, trunk[k - 1] if k else sum(masses)) if che else (s, 1 / prod)
        if lhs > rhs or (k < kappa and lhs != rhs):
            return k
    return None


def _level_failure(call, level):
    """Whether `call` raises CertificateInvalid naming trunk level `level`
    (the root level of a trunk-free CHE certificate)."""
    with pytest.raises(CertificateInvalid) as err:
        call()
    identity = err.value.identity
    return identity.startswith(f"trunk level {level}:") or identity.startswith("root level")


@given(planted_trunks())
def test_planted_trunk_identities_verify(data):
    assert _first_failing_level(data, data[4], data[6]) is None
    full, measures, verifier = _trunk_certificate(data)
    assert verifier(full, measures, 64)


@given(planted_trunks(), st.data())
def test_moved_first_mass_or_trunk_square_fails_its_trunk_level(data, extra):
    che, kappa, _, _, masses, _, trunk = data
    masses, trunk = list(masses), list(trunk)
    moved = trunk if kappa and extra.draw(st.booleans()) else masses
    spot = extra.draw(st.integers(0, len(moved) - 1))
    moved[spot] += extra.draw(st.sampled_from([1, -1])) * F(1, 2 ** 20 * moved[spot].denominator)
    level = _first_failing_level(data, masses, trunk)
    if moved is masses or spot + 1 < kappa:
        # a first mass enters level 0 and t_j level j + 1: an equality there
        # fails either way
        assert level == (0 if moved is masses else spot + 1) or (level is None and kappa == 0)
    full, measures, verifier = _trunk_certificate(data, masses, trunk)
    if level is None:
        assert verifier(full, measures, 64)
    else:
        assert _level_failure(lambda: verifier(full, measures, 64), level)


@given(planted_trunks(), st.data())
def test_trunk_gap_passes_only_at_the_last_level(data, extra):
    che, kappa, _, _, masses, _, trunk = data
    level = extra.draw(st.integers(0, kappa))
    masses, trunk = list(masses), list(trunk)
    # a gap lhs < rhs at `level`: through the first masses at level 0, else
    # through t_(level-1), which the identity at `level` reads first
    gap = F(1, 1000)
    if level == 0:
        masses = [m * (1 + gap if che else 1 - gap) for m in masses]
    else:
        trunk[level - 1] *= 1 + gap if che else 1 - gap
    assert _first_failing_level(data, masses, trunk) == (None if level == kappa else level)
    full, measures, verifier = _trunk_certificate(data, masses, trunk)
    if level == kappa:
        assert verifier(full, measures, 64)
    else:
        assert _level_failure(lambda: verifier(full, measures, 64), level)


# --------------------------------------------------------------------------
# the check is finite
# --------------------------------------------------------------------------

class _Counting:
    """Measure wrapper that counts `moment` calls."""

    def __init__(self, measure):
        self.measure = measure
        self.zero_mass = getattr(measure, "zero_mass", 0)
        self.calls = 0

    def moment(self, k):
        self.calls += 1
        return self.measure.moment(k)

    def total_mass(self):
        return self.measure.total_mass()

    def geometric_sum(self, n):
        return sum((self.moment(k) for k in range(n)), F(0))


def _counted(cert):
    """The certificate over counting wrappers of its measures, with every
    generator's tail swapped to the wrapper of its own measure."""
    measures = [_Counting(mu) for mu in cert.measures]
    classes = []
    for cls, mu in zip(cert.full.classes, measures):
        gen = copy.copy(cls.generator)
        if isinstance(gen, GeometricSumTail):
            gen.tau = mu
        else:
            gen.measure = mu
        classes.append(FullBranch(cls.first_mass, gen, cls.count))
    full = FullWeights(cert.full.trunk_sq, classes)
    return CompletionCertificate(cert.kind, cert.partial, cert.K, cert.sequences,
                                 tuple(measures), full, cert.norm_sq,
                                 cert.root_measure), measures


def _seed7_problem2():
    """`subnormal` benchmark seed 7, problem 2: its third class gets a
    recurrence measure."""
    classes = [BranchClass(F(144, 565), (F(2, 5),), 1),
               BranchClass(F(360, 1921), (F(9),), 1),
               BranchClass(F(1008, 1921), (F(16, 7),), 1)]
    return PartialWeights([F(760716, 2734115)], classes)


def _certificates():
    tail = (F(188533, 181648), F(962996, 942665))
    irrational_flat = PartialWeights([F(169957, 150040), F(217558, 115981)],
                                     [BranchClass(F(1271536, 6628323), tail, 1),
                                      BranchClass(F(5812736, 6628323), tail, 1)])
    outcomes = [
        solve_subnormal(_seed7_problem2()),
        solve_subnormal(PartialWeights([F(6, 5), 1], [BranchClass(F(4, 3), (F(3, 2),), 1)]),
                        K=(2,)),
        solve_che(PartialWeights([], [BranchClass(2, (F(3, 2),), 1),
                                      BranchClass(2, (F(5, 4),), 1)])),
        solve_che(PartialWeights([F(9, 8), F(3, 2)], [BranchClass(F(10, 9), (F(11, 10),), 1)]),
                  K=(F(3, 2),)),
        flat_che_completion(irrational_flat),
    ]
    assert all(out.feasible for out in outcomes)
    return [out.certificate for out in outcomes]


def test_verification_cost_does_not_grow_with_depth():
    for cert in _certificates():
        counted, measures = _counted(cert)
        calls = []
        for depth in (12, 64):
            for mu in measures:
                mu.calls = 0
            assert counted.verify(depth)
            calls.append(sum(mu.calls for mu in measures))
        assert calls[0] == calls[1], (cert.kind, calls)


def test_weight_rows_match_generators():
    for cert in _certificates():
        count = cert.partial.p + 8
        rows = cert.to_json()["weights_sq"]
        for cls, row in zip(cert.full.classes, rows):
            want = [cls.first_mass] + [cls.generator.weight_sq(j) for j in range(2, count + 1)]
            assert row == [format_scalar(v) for v in want]


def _floats(pw):
    return PartialWeights([float(t) for t in pw.trunk_sq],
                          [BranchClass(float(c.first_mass), tuple(float(t) for t in c.tail_sq),
                                       c.count) for c in pw.classes])


def _row_tails():
    """(tail, exact): every tail of the inline certificates (MeasureTail
    over an AtomicMeasure and over a MomentRecurrence, GeometricSumTail over
    a CAMeasure of either), a CAMeasure tail with mass at zero, and the same
    shapes in floats."""
    tails = [(cls.generator, True) for cert in _certificates() for cls in cert.full.classes]
    for tail, _ in list(tails):
        if isinstance(tail, MeasureTail) and isinstance(tail.measure, AtomicMeasure):
            floats = AtomicMeasure([(float(x), float(m)) for x, m in tail.measure.atoms])
            tails.append((MeasureTail(tail.prefix_sq, floats), False))
        if isinstance(tail, GeometricSumTail) and isinstance(tail.tau.positive, AtomicMeasure):
            positive = tail.tau.positive
            floats = AtomicMeasure([(float(x), float(m)) for x, m in positive.atoms])
            tails += [(GeometricSumTail(tail.prefix_sq, CAMeasure(F(1, 3), positive)), True),
                      (GeometricSumTail(tail.prefix_sq, CAMeasure(0.0, floats)), False),
                      (GeometricSumTail(tail.prefix_sq, CAMeasure(1 / 3, floats)), False)]
    # float input gives float recurrences
    outcomes = [solve_subnormal(_floats(_seed7_problem2())),
                solve_che(_floats(PartialWeights([], [BranchClass(2, (F(3, 2),), 1),
                                                      BranchClass(2, (F(5, 4),), 1)])))]
    assert all(out.feasible for out in outcomes)
    tails += [(cls.generator, False) for out in outcomes for cls in out.certificate.full.classes]
    return tails


def _float_ratios(tail, measure, lo: int, count: int) -> list:
    """The ratios at n = lo..count-2 of a tail over an object whose
    `moment` returns floats: b / a of the float moments for a MeasureTail;
    for a GeometricSumTail the correctly rounded ratio of the exact sums
    gamma_n of the moments' binary-exact images."""
    if isinstance(tail, MeasureTail):
        moments = [measure.moment(k) for k in range(lo, count)]
        return [b / a for a, b in zip(moments, moments[1:])]
    gammas = [F(1)]
    for k in range(count - 1):
        gammas.append(gammas[-1] + F(measure.moment(k)))
    return [float(b / a) for a, b in zip(gammas[lo:], gammas[lo + 1:])]


def _binary_exact(measure):
    """The exact measure of a float measure's binary-exact data: its atoms,
    or its polynomial and seed window, and its mass at zero."""
    if isinstance(measure, CAMeasure):
        return CAMeasure(F(measure.zero_mass), _binary_exact(measure.positive))
    if isinstance(measure, MomentRecurrence):
        return MomentRecurrence(Polynomial([F(c) for c in measure.poly.coeffs]),
                                measure.first_index, [F(v) for v in measure.window])
    return AtomicMeasure([(F(x), F(m)) for x, m in measure.atoms])


def _rounded_ratios(tail, measure, lo: int, count: int) -> list:
    """The correctly rounded ratios at n = lo..count-2 of a tail over an
    exact measure: of its moments for a MeasureTail, of its sums gamma_n
    for a GeometricSumTail."""
    if isinstance(tail, MeasureTail):
        values = [measure.moment(k) for k in range(lo, count)]
    else:
        values = [1 + sum((measure.moment(k) for k in range(n)), F(0)) for n in range(lo, count)]
    return [float(b / a) for a, b in zip(values, values[1:])]


def test_weight_rows_match_weight_sq_for_every_tail_and_count():
    """Each tail's rows match its weight_sq, and are those of the same tail
    over a wrapper that has only `moment` (read on the row of its values),
    printed alike.  A float tail's own rows are the correctly rounded
    ratios of `_rounded_ratios` over its measure's binary-exact data, and
    those of its wrapper the float ratios of `_float_ratios` of the float
    moments the wrapper reads, each byte for byte and printed as
    `format_scalar` prints it."""
    shapes = set()
    for tail, exact in _row_tails():
        measure = tail.measure if isinstance(tail, MeasureTail) else tail.tau
        positive = getattr(measure, "positive", None)
        shapes.add((type(tail).__name__, type(measure).__name__, type(positive).__name__,
                    getattr(measure, "zero_mass", 0) != 0, exact))
        wrapped = type(tail)(tail.prefix_sq, _Counting(measure))
        top = len(tail.prefix_sq) + 1
        for count in list(range(top + 5)) + [top + 12]:
            row = tail.weight_sq_row(count)
            want = [tail.weight_sq(j) for j in range(2, count + 1)]
            assert len(row) == len(want)
            for got, ref in zip(row, want):
                if exact:
                    assert got == ref
                else:
                    assert abs(got - ref) <= 1e-12 * abs(ref)
            if exact:
                assert wrapped.weight_sq_row(count) == row
                assert wrapped.weight_sq_text(count) == tail.weight_sq_text(count)
                continue
            lo = min(len(tail.prefix_sq), max(count - 1, 0))
            assert row[lo:] == _rounded_ratios(tail, _binary_exact(measure), lo, count)
            unwrapped = wrapped.weight_sq_row(count)
            assert unwrapped[:lo] == row[:lo]
            assert unwrapped[lo:] == _float_ratios(tail, measure, lo, count)
            for got, text in ((row, tail.weight_sq_text(count)),
                              (unwrapped, wrapped.weight_sq_text(count))):
                assert text == [format_scalar(x) for x in got]
    for exact in (True, False):
        assert {("MeasureTail", "AtomicMeasure", "NoneType", False, exact),
                ("MeasureTail", "MomentRecurrence", "NoneType", False, exact),
                ("GeometricSumTail", "CAMeasure", "AtomicMeasure", False, exact),
                ("GeometricSumTail", "CAMeasure", "AtomicMeasure", True, exact),
                ("GeometricSumTail", "CAMeasure", "MomentRecurrence", False, exact)} <= shapes


# --------------------------------------------------------------------------
# the emitted JSON
# --------------------------------------------------------------------------

def test_certificate_json_does_not_depend_on_verification(tmp_path):
    cert = solve_subnormal(_seed7_problem2()).certificate
    assert any(isinstance(mu, MomentRecurrence) for mu in cert.measures)
    before = cert.to_json()
    assert cert.verify(64)
    assert cert.to_json() == before
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"kind": "verify", "certificate": before}), encoding="utf-8")
    payload, code = run(str(path))
    assert code == 0 and payload["valid"]


def _seed13_che_problem23():
    """`che` benchmark seed 13, problem 23: non-flat, and its second class
    gets a recurrence measure."""
    tails = ((F(1862, 1817), F(212, 209)), (F(353317, 334363), F(6207593, 6006389)))
    masses = (F(8505525994, 11457968149), F(3645225426, 11457968149))
    return PartialWeights([F(22915936298, 20589702443), F(597101370847, 332814164630)],
                          [BranchClass(m, t, 1) for m, t in zip(masses, tails)])


def _verify_run(tmp_path, certificate, arithmetic):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"kind": "verify", "certificate": certificate}),
                    encoding="utf-8")
    flags = argparse.Namespace(float=arithmetic == "float", tolerance=1e-9, depth=12, seed=0)
    return run(str(path), flags)


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_every_certificate_re_verifies_through_the_cli(tmp_path, arithmetic):
    certificates = _certificates() + [solve_che(_seed13_che_problem23()).certificate]
    # (kind, whether a measure is a recurrence)
    shapes = {(cert.kind, "recurrence" in mu)
              for cert in certificates for mu in cert.to_json()["measures"]}
    assert {("subnormal", True), ("che", False), ("che", True), ("che-flat", False),
            ("che-flat", True)} <= shapes
    for cert in certificates:
        blob = cert.to_json()
        payload, code = _verify_run(tmp_path, blob, arithmetic)
        assert code == 0 and payload["valid"], (cert.kind, payload)
        truncated = dict(blob, measures=blob["measures"][:-1])
        payload, code = _verify_run(tmp_path, truncated, arithmetic)
        assert code == 1 and payload["valid"] is False, (cert.kind, payload)


def _float_measure(mu):
    if isinstance(mu, CAMeasure):
        return CAMeasure(float(mu.zero_mass), _float_measure(mu.positive))
    if isinstance(mu, AtomicMeasure):
        return AtomicMeasure([(float(x), float(m)) for x, m in mu.atoms], exact=mu.exact)
    return MomentRecurrence(Polynomial([float(c) for c in mu.poly.coeffs]), mu.first_index,
                            [float(v) for v in mu.window], mu.atoms_hint)


def _moved(cert, convert, spot=None, factor=1):
    """The verification of `cert` with its trunk squares, first masses,
    prescribed squares and measures passed through `convert` (`float` or
    `F`), and trunk square `spot`, or the first mass of class 1 for spot -1,
    times `factor`: None when it holds, else the identity it names."""
    measures = [_float_measure(mu) if convert is float else mu for mu in cert.measures]
    trunk = [convert(t) for t in cert.full.trunk_sq]
    masses = [convert(cls.first_mass) for cls in cert.full.classes]
    if spot is not None:
        moved = masses if spot < 0 else trunk
        moved[max(spot, 0)] *= convert(factor)
    classes = [FullBranch(m, type(cls.generator)([convert(x) for x in cls.generator.prefix_sq],
                                                 mu), 1)
               for m, cls, mu in zip(masses, cert.full.classes, measures)]
    verifier = verify_subnormal_certificate if cert.kind == "subnormal" else verify_che_certificate
    try:
        assert verifier(FullWeights(trunk, classes), measures, 64)
    except CertificateInvalid as err:
        return err.identity
    return None


def test_float_copies_of_the_certificates_verify_within_the_band():
    """The float copy of each certificate verifies, and still does with a
    trunk target moved by 1e-12 relative; moved by 1e-6 it fails where the
    exact certificate moved alike fails, naming the same identity."""
    failed = 0
    for cert in _certificates():
        assert _moved(cert, float) is None
        for spot in [-1] + list(range(len(cert.full.trunk_sq))):
            for delta in (1e-12, -1e-12):
                assert _moved(cert, float, spot, 1 + delta) is None
            for delta in (1e-6, -1e-6):
                want = _moved(cert, F, spot, 1 + delta)
                assert _moved(cert, float, spot, 1 + delta) == want
                failed += want is not None
    assert failed == 15


DELTA_2 = AtomicMeasure([(2, 1)])
#: tau(-1) = 1/8 and tau(-2) = 1/4
TAU = CAMeasure(0, AtomicMeasure([(F(1, 2), F(1, 16))]))
NOT_POSITIVE = "branch 1: first mass is positive"


def _one_class(kind, mass, trunk_sq):
    """The verification of a one-class certificate with one trunk square:
    delta_2 on the ray, which holds for the mass 2 and the square 3/2, or
    TAU on (0, 1], for the mass 8/7 and any square of 7/5 or more; None
    when it holds, else the identity it names."""
    try:
        if kind == "subnormal":
            full = FullWeights([trunk_sq], [FullBranch(mass, MeasureTail([2], DELTA_2), 1)])
            assert verify_subnormal_certificate(full, [DELTA_2])
        else:
            tail = GeometricSumTail([F(17, 16)], TAU)
            full = FullWeights([trunk_sq], [FullBranch(mass, tail, 1)])
            assert verify_che_certificate(full, [TAU])
    except CertificateInvalid as err:
        return err.identity
    return None


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_first_mass_or_trunk_square_that_is_not_finite_fails(bad):
    """An infinite first mass fails trunk level 0, as every finite mass but
    the one that meets it does, and a NaN one is not positive; an infinite
    trunk square fails level 1 (on (0, 1] its bound, which every finite
    square of 7/5 or more meets).  A NaN square is refused when the weights
    are built."""
    for kind, mass, square, name in (("subnormal", 2.0, 1.5, "reciprocal sum"),
                                     ("che", 8 / 7, 2.0, "expansion")):
        assert _one_class(kind, mass, square) is None
        for wrong in (7.0, 1e300):
            assert _one_class(kind, wrong, square) == f"trunk level 0: {name} equality"
        assert _one_class(kind, bad, square) == (
            f"trunk level 0: {name} equality" if bad == math.inf else NOT_POSITIVE)
        assert _one_class(kind, mass, 1e300) == (
            "trunk level 1: reciprocal sum bound" if kind == "subnormal" else None)
        if bad == math.inf:
            assert _one_class(kind, mass, bad) == f"trunk level 1: {name} bound"
        else:
            with pytest.raises(DegenerateInput):
                _one_class(kind, mass, bad)
    # trunk-free on (0, 1]: the root bound holds for every finite mass of 8/7 or more
    tail = GeometricSumTail([F(17, 16)], TAU)
    assert verify_che_certificate(FullWeights([], [FullBranch(1e300, tail, 1)]), [TAU])
    with pytest.raises(CertificateInvalid, match="root level: expansion bound"
                       if bad == math.inf else NOT_POSITIVE):
        verify_che_certificate(FullWeights([], [FullBranch(bad, tail, 1)]), [TAU])


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_float_verify_refuses_a_first_mass_or_trunk_square_that_is_not_finite(
        tmp_path, bad):
    cert = {"kind": "subnormal", "trunk_sq": ["3/2"], "weights_sq": [["2", "2"]],
            "measures": [{"atoms": [{"x": "2", "m": "1"}]}]}
    payload, code = _verify_run(tmp_path, cert, "float")
    assert code == 0 and payload["valid"]
    payload, code = _verify_run(tmp_path, dict(cert, weights_sq=[[bad, "2"]]), "float")
    assert code == 1 and payload["valid"] is False
    assert payload["error"] == ("violated: trunk level 0: reciprocal sum equality"
                                if bad == "inf" else f"violated: {NOT_POSITIVE}")
    payload, code = _verify_run(tmp_path, dict(cert, trunk_sq=[bad]), "float")
    if bad == "inf":
        assert code == 1 and payload["error"] == "violated: trunk level 1: reciprocal sum bound"
    else:
        assert code == 1 and payload["error"]["kind"] == "DegenerateInput"
    che = {"kind": "che", "trunk_sq": [bad], "weights_sq": [["8/7", "17/16"]],
           "measures": [{"atoms": [{"x": "1/2", "m": "1/16"}]}]}
    payload, code = _verify_run(tmp_path, dict(che, trunk_sq=["2"]), "float")
    assert code == 0 and payload["valid"]
    payload, code = _verify_run(tmp_path, che, "float")
    if bad == "inf":
        assert code == 1 and payload["error"] == "violated: trunk level 1: expansion bound"
    else:
        assert code == 1 and payload["error"]["kind"] == "DegenerateInput"
    payload, code = _verify_run(tmp_path, dict(che, trunk_sq=[], weights_sq=[[bad, "17/16"]]),
                                "float")
    assert code == 1 and payload["error"] == ("violated: root level: expansion bound"
                                              if bad == "inf" else f"violated: {NOT_POSITIVE}")


@pytest.mark.parametrize("mass", [-1, 0, -1.0, math.nan], ids=["-1", "0", "-1.0", "nan"])
def test_a_first_mass_that_is_not_positive_fails(mass):
    """Without a trunk each chain is one bound, which a first mass of 0 or
    less can meet: delta_2 on the ray (the mass sum is at most 1 for every
    mass up to 2), and delta_(1/2) on (0, 1] (1 + 2 m is at most m for
    m <= -1).  Both verifiers refuse such a mass, and NaN, before any
    identity reads it, in any class."""
    half = CAMeasure(0, AtomicMeasure([(F(1, 2), 1)]))
    for verify, good, bad in (
            (verify_subnormal_certificate, (2, MeasureTail([2], DELTA_2), DELTA_2),
             (mass, MeasureTail([2], DELTA_2), DELTA_2)),
            (verify_che_certificate, (F(8, 7), GeometricSumTail([F(17, 16)], TAU), TAU),
             (mass, GeometricSumTail([2], half), half))):
        assert verify(FullWeights([], [FullBranch(good[0], good[1], 1)]), [good[2]])
        with pytest.raises(CertificateInvalid, match=NOT_POSITIVE):
            verify(FullWeights([], [FullBranch(bad[0], bad[1], 1)]), [bad[2]])
        full = FullWeights([], [FullBranch(good[0], good[1], 1), FullBranch(bad[0], bad[1], 1)])
        with pytest.raises(CertificateInvalid) as err:
            verify(full, [good[2], bad[2]])
        assert err.value.identity == "branch 2: first mass is positive"


@pytest.mark.parametrize("arithmetic, mass", [
    ("exact", "-1"), ("exact", "0"), ("exact", "-1.0"),
    ("float", "-1"), ("float", "0"), ("float", "-1.0"), ("float", "nan")])
def test_cli_verify_refuses_a_first_mass_that_is_not_positive(tmp_path, arithmetic, mass):
    for kind, x in (("subnormal", "2"), ("che", "1/2")):
        cert = {"kind": kind, "trunk_sq": [], "weights_sq": [[mass, "2"]],
                "measures": [{"atoms": [{"x": x, "m": "1"}]}]}
        payload, code = _verify_run(tmp_path, cert, arithmetic)
        assert code == 1 and payload["valid"] is False
        assert payload["error"] == f"violated: {NOT_POSITIVE}"


def test_recurrence_measure_with_mass_at_zero_is_refused(tmp_path):
    cert = solve_che(_seed13_che_problem23()).certificate
    blob = cert.to_json()
    assert "recurrence" in blob["measures"][1]
    blob["measures"][1]["zero_mass"] = "1/7"
    payload, code = _verify_run(tmp_path, blob, "exact")
    assert code == 1 and payload["valid"] is False
    assert payload["error"] == "branch measures must not charge zero"
    taus = [cert.measures[0], CAMeasure(F(1, 7), cert.measures[1].positive)]
    with pytest.raises(ZeroAtomError):
        verify_che_certificate(cert.full, taus)


def test_recurrence_json_is_its_seed():
    pairs = [(F(1, 2), F(1, 3)), (F(3), F(2, 3))]
    rec = _recurrence(pairs, -1, 3)
    blob = rec.to_json()
    rec.moment(40)
    rec.moment(-20)
    assert rec.to_json() == blob
    assert blob["first_index"] == -1 and len(blob["window"]) == 3


def test_norm_bound_of_recurrence_without_atoms():
    pairs = [(F(1, 2), F(1, 2)), (F(5), F(1, 2))]
    rec = _recurrence(pairs, 0, 2)
    full = FullWeights([], [FullBranch(F(1, 4), MeasureTail([], rec), 1)])
    assert _norm_sq_bound(full, [rec]) == float(root_bound(rec.poly))


# The emitted JSON of five certificates, byte for byte: (solver, trunk
# squares, first-weight masses, tails, JSON).  The certificate path reads
# integer images that need not be reduced (unnormalised masses, rows
# compared by cross products); the printed values must not show it.
PINNED_JSON = {
    # a subnormal branch with irrational atoms: a MomentRecurrence with its
    # float atom hint (`completion._minimal_hint`)
    "subnormal_recurrence": (solve_subnormal, ["20691/33508"], ["15/11"], [["125/57", "133/25"]],
        '{"kind": "subnormal", "K": ["2"], "sequences": [{"first_index": -2, "values":'
        ' ["24719/41775", "11/15", "1", "125/57", "35/3"]}], "measures": [{"recurrence'
        '": ["104/171", "-14144/25065", "1352/25065"], "first_index": -2, "window": ["'
        '24719/41775", "11/15", "1", "125/57", "35/3"], "atoms_approx": {"atoms": [{"x'
        '": "1.2200781304926922", "m": "0.8787111371428513"}, {"x": "9.2414603310459'
        '", "m": "0.12128886285714255"}], "exact": false}}], "weights_sq": [["15/11", '
        '"125/57", "133/25", "274047/32851", "32455127/3562611", "73942176533/80164163'
        '69", "8881098135453/961248294929", "20271681080633287/2193631239456891", "243'
        '5408468972051167/263531854048232731", "5559159270299452059693/601545891836096'
        '638249", "667871697141592367617013/72269070513892876776009"]], "trunk_sq": ["'
        '20691/33508"], "norm_sq": 9.2414603310459}'),
    # two classes and a trunk of two (`subnormal` benchmark seed 13, problem
    # 20): an atomic measure and a MomentRecurrence, so the trunk sums run
    # across classes and levels
    "subnormal_two_classes": (solve_subnormal, ["92520/98549", "417384/1108103"],
                              ["1120/771", "200/257"], [["397/98"], ["24/7"]],
        '{"kind": "subnormal", "K": ["1", "2"], "sequences": [{"first_index": -3, "val'
        'ues": ["941192/62570773", "9604/157609", "98/397", "1", "397/98"]}, {"first_i'
        'ndex": -3, "values": ["1152111487473679/540611478720000", "14241431741/113478'
        '48000", "196327/238200", "1", "24/7"]}], "measures": [{"atoms": [{"x": "397/9'
        '8", "m": "1"}]}, {"recurrence": ["170119103/295516875", "-15440520145589/1407'
        '8423925000", "19164087072053/105588179437500"], "first_index": -3, "window": '
        '["1152111487473679/540611478720000", "14241431741/11347848000", "196327/23820'
        '0", "1", "24/7"], "atoms_approx": {"atoms": [{"x": "0.580685030607346", "m": '
        '"0.4165824080374653"}, {"x": "5.46207091474608", "m": "0.5834175919625588"}]'
        ', "exact": false}}], "weights_sq": [["1120/771", "397/98", "397/98", "397/98"'
        ', "397/98", "397/98", "397/98", "397/98", "397/98", "397/98"], ["200/257", "2'
        '4/7", "52410/10241", "112342305/20715926", "9209617914075/1687396400074", "79'
        '52684065638567/1456101989668018", "3262203825308844395505/5972518751188334740'
        '78", "14086017182412916692849705/2578880864034151789459886", "115563129316475'
        '6566543248805875/211573856215466330448828282394", "99799141633061036070087065'
        '2572447/182713011657969111547597924534210"]], "trunk_sq": ["92520/98549", "41'
        '7384/1108103"], "norm_sq": 5.46207091474608}'),
    # one subnormal branch of one atom
    "subnormal_one_atom": (solve_subnormal, ["3/2"], ["2"], [["2"]],
        '{"kind": "subnormal", "K": ["1"], "sequences": [{"first_index": -2, "values"'
        ': ["1/4", "1/2", "1", "2"]}], "measures": [{"atoms": [{"x": "2", "m": "1"}]}'
        '], "weights_sq": [["2", "2", "2", "2", "2", "2", "2", "2", "2", "2"]], "trun'
        'k_sq": ["3/2"], "norm_sq": 2.0}'),
    # two completely hyperexpansive branches that differ (the non-flat solver)
    "che": (solve_che, ["457/411", "5343/3190"], ["256/457", "224/457"], [["33/32"], ["65/64"]],
        '{"kind": "che", "K": ["1", "1"], "sequences": [{"first_index": -3, "values":'
        ' ["1/4", "1/8", "1/16", "1/32"]}, {"first_index": -3, "values": ["1/8", "1/1'
        '6", "1/32", "1/64"]}], "measures": [{"atoms": [{"x": "1/2", "m": "1/32"}]}, '
        '{"atoms": [{"x": "1/2", "m": "1/64"}]}], "weights_sq": [["256/457", "33/32",'
        ' "67/66", "135/134", "271/270", "543/542", "1087/1086", "2175/2174", "4351/4'
        '350", "8703/8702"], ["224/457", "65/64", "131/130", "263/262", "527/526", "1'
        '055/1054", "2111/2110", "4223/4222", "8447/8446", "16895/16894"]], "trunk_sq'
        '": ["457/411", "5343/3190"], "norm_sq": 1.674921630094044}'),
    # a flat completely hyperexpansive problem, with its root measure
    "che_flat": (flat_che_completion, ["121/95"], ["12/11"], [["19/18", "59/57"]],
        '{"kind": "che-flat", "K": ["1"], "sequences": [{"first_index": -2, "values":'
        ' ["1/8", "1/12", "1/18", "1/27"]}], "measures": [{"atoms": [{"x": "2/3", "m"'
        ': "1/18"}]}], "weights_sq": [["12/11", "19/18", "59/57", "181/177", "551/543'
        '", "1669/1653", "5039/5007", "15181/15117", "45671/45543", "137269/137013", '
        '"412319/411807"]], "trunk_sq": ["121/95"], "norm_sq": 1.2736842105263158, "r'
        'oot_measure": {"atoms": [{"x": "2/3", "m": "33/190"}], "zero_mass": "1/10"}}'),
}


@pytest.mark.parametrize("case", sorted(PINNED_JSON))
def test_certificate_json_is_pinned(case):
    solve, trunk_sq, masses, tails, want = PINNED_JSON[case]
    pw = PartialWeights([F(t) for t in trunk_sq],
                        [BranchClass(F(m), tuple(F(x) for x in tail), 1)
                         for m, tail in zip(masses, tails)])
    cert = (solve(pw) if solve is flat_che_completion else solve(pw, "auto")).certificate
    assert json.dumps(cert.to_json()) == want
