"""Seeded planted corpora for the four benchmark workloads.

Every generator takes the seed as an argument and uses only the standard
library, so the truth it plants never comes from the code under test.  The
same seed gives the same problems, in the same order, byte for byte (see
`corpus_digest`).  Problems come in shuffled blocks with a fixed
composition, so every seed exercises the same mix of shapes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction as F

DOMAINS = ("ray", "half-open", "compact")
KINDS = ("strict", "singular")
K_RANGE = range(1, 9)          # atom count of the planted window measures
EXTREME_K = range(1, 4)        # atom count of the extreme window measures
EXTREME_EXP = 40               # extreme atoms lie in [2^-40, 2^40]
SHAPES = list(itertools.product((1, 2), (2, 3)))   # (kappa, p)
SUBNORMAL_ATOMS = (1, 2, 3)    # atom count of the largest subnormal branch measure
CLI_FILES_PER_KIND = 8


def fmt(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"momentkit-bench:{workload}:{seed}:{block}")


def moment(atoms, k: int) -> F:
    return sum((m * x ** k for x, m in atoms), F(0))


def _normalized(atoms):
    total = sum(m for _, m in atoms)
    return tuple((x, m / total) for x, m in atoms)


def _distinct(draw, count):
    seen = set()
    while len(seen) < count:
        seen.add(draw())
    return sorted(seen)


# --------------------------------------------------------------------------
# windows
# --------------------------------------------------------------------------

def _window_atoms(rng, domain, k, extreme):
    """Distinct atoms inside the open domain, plus the interval for compact."""
    if extreme:
        def draw():
            e = rng.randint(-EXTREME_EXP, 0 if domain == "half-open" else EXTREME_EXP)
            x = F(rng.randrange(1, 16, 2), 8) * F(2) ** e
            return x if domain != "half-open" or x < 1 else x / 4
        masses = [F(rng.randint(1, 2 ** 20), rng.randint(2 ** 20, 2 ** 30)) for _ in range(k)]
    else:
        if domain == "half-open":
            def draw():
                num = rng.randint(1, 16)
                return F(num, num + rng.randint(1, 16))
        else:
            def draw():
                return F(rng.randint(1, 24), rng.randint(1, 12))
        masses = [F(rng.randint(1, 12), rng.randint(1, 8)) for _ in range(k)]
    xs = _distinct(draw, k)
    interval = None
    if domain == "compact":
        interval = (xs[0] / 2, xs[-1] * 2)
    return tuple(zip(xs, masses)), interval


def _window_problem(rng, domain, kind, k, extreme):
    atoms, interval = _window_atoms(rng, domain, k, extreme)
    top = 2 * k - 1 if kind == "strict" else 2 * k
    return {"domain": domain, "kind": kind, "K": k, "extreme": extreme,
            "atoms": atoms, "interval": interval,
            "window": tuple(moment(atoms, j) for j in range(top + 1)),
            "reciprocal": moment(atoms, -1)}


def windows_block(seed: int, block: int):
    """One block: every (domain, kind, K) once, plus one extreme problem per
    (domain, kind); shuffled."""
    rng = _rng("windows", seed, block)
    plan = [(d, kind, k, False) for d in DOMAINS for kind in KINDS for k in K_RANGE]
    plan += [(d, kind, rng.choice(EXTREME_K), True) for d in DOMAINS for kind in KINDS]
    rng.shuffle(plan)
    return [_window_problem(rng, *spec) for spec in plan]


# --------------------------------------------------------------------------
# subnormal completions
# --------------------------------------------------------------------------

def _ray_measure(rng, k):
    xs = _distinct(lambda: F(rng.randint(1, 24), rng.randint(1, 12)), k)
    return _normalized([(x, F(rng.randint(1, 12), rng.randint(1, 8))) for x in xs])


def _perturb(rng, trunk_sq, masses, sign, trunk):
    """Scale one trunk square (`trunk`) or one first-weight mass by
    1 + sign * (1..10)/20; no truth is claimed."""
    trunk_sq, masses = list(trunk_sq), list(masses)
    factor = 1 + sign * F(rng.randint(1, 10), 20)
    if trunk:
        i = rng.randrange(len(trunk_sq))
        trunk_sq[i] *= factor
    else:
        i = rng.randrange(len(masses))
        masses[i] *= factor
    return tuple(trunk_sq), tuple(masses)


def _subnormal_problem(rng, kappa, p, classes, planted, atoms, perturbation):
    """Branch measures mu_c (total mass 1; the first with `atoms` atoms, the
    others with 1..`atoms`) and raw weights w_c; the first masses are scaled
    so that sum m_c mu_c(t^-1) = 1, the trunk squares make levels
    1..kappa-1 equalities and leave slack at the bound level."""
    measures = [_ray_measure(rng, atoms if c == 0 else rng.randint(1, atoms))
                for c in range(classes)]
    raw = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(classes)]
    level = [sum(w * moment(mu, -(k + 1)) for w, mu in zip(raw, measures))
             for k in range(kappa + 1)]
    masses = tuple(w / level[0] for w in raw)
    trunk_sq = [level[k - 1] / level[k] for k in range(1, kappa + 1)]
    trunk_sq[-1] *= 1 - F(rng.randint(1, 10), 20)
    tails = tuple(tuple(moment(mu, j + 1) / moment(mu, j) for j in range(p - 1))
                  for mu in measures)
    trunk_sq = tuple(trunk_sq)
    if not planted:
        trunk_sq, masses = _perturb(rng, trunk_sq, masses, *perturbation)
    return {"planted": planted, "kappa": kappa, "p": p, "trunk_sq": trunk_sq,
            "masses": masses, "tails": tails,
            "measures": tuple(measures) if planted else None}


def subnormal_block(seed: int, block: int):
    """Every (kappa, p, class count) once planted and once perturbed.  The
    atom count of the largest branch measure (1, 2 or 3) and the kind of
    perturbation (up or down; a trunk square or a first mass) are dealt out
    evenly over the block, so every block has the same mix of them."""
    rng = _rng("subnormal", seed, block)
    shapes = [(kappa, p, c) for kappa, p in SHAPES for c in (1, 2, 3)]
    plan = []
    for planted in (True, False):
        atoms = [SUBNORMAL_ATOMS[i % len(SUBNORMAL_ATOMS)] for i in range(len(shapes))]
        rng.shuffle(atoms)
        kinds = [None] * len(shapes)
        if not planted:
            kinds = list(itertools.product((-1, 1), (True, False))) * (len(shapes) // 4)
            rng.shuffle(kinds)
        plan += [(*shape, planted, k, kind) for shape, k, kind in zip(shapes, atoms, kinds)]
    rng.shuffle(plan)
    return [_subnormal_problem(rng, *spec) for spec in plan]


# --------------------------------------------------------------------------
# completely hyperexpansive completions
# --------------------------------------------------------------------------

def _tau_measure(rng, k):
    """Atoms in (0, 1), total mass small enough that tau(t^-3) < 1/4."""
    xs = _distinct(lambda: (lambda n: F(n, n + rng.randint(1, 8)))(rng.randint(2, 12)), k)
    atoms = [(x, F(rng.randint(1, 12), rng.randint(1, 8))) for x in xs]
    scale = F(rng.randint(1, 4), 16) / moment(atoms, -3)
    return tuple((x, m * scale) for x, m in atoms)


def _che_trunk(rng, masses, taus, kappa):
    """Trunk squares solving 1 + P_k * sum m_c tau_c(t^-(k+1)) = lambda_k^2
    at levels 1..kappa-1 and leaving slack at the bound level kappa."""
    trunk_sq, prod = [], F(1)
    for k in range(1, kappa + 1):
        load = prod * sum(m * moment(tau, -(k + 1)) for m, tau in zip(masses, taus))
        if load >= 1:
            return None
        value = 1 / (1 - load)
        if k == kappa:
            value *= 1 + F(rng.randint(1, 10), 20)
        trunk_sq.append(value)
        prod *= value
    return tuple(trunk_sq)


def _che_tail(tau, p):
    gamma = [F(1)]
    for j in range(p - 1):
        gamma.append(gamma[-1] + moment(tau, j))
    return tuple(gamma[j + 1] / gamma[j] for j in range(p - 1))


def _che_problem(rng, kappa, p, classes, flat):
    """tau_c on (0, 1) and raw weights w_c; the masses are scaled so that
    1 + sum m_c tau_c(t^-1) = sum m_c, the trunk follows `_che_trunk`."""
    while True:
        shared = _tau_measure(rng, rng.randint(1, 3))
        taus = [shared if flat else _tau_measure(rng, rng.randint(1, 3))
                for _ in range(classes)]
        tails = tuple(_che_tail(tau, p) for tau in taus)
        if not flat and len(set(tails)) < classes:
            continue
        raw = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(classes)]
        norm = sum(w * (1 - moment(tau, -1)) for w, tau in zip(raw, taus))
        masses = tuple(w / norm for w in raw)
        trunk_sq = _che_trunk(rng, masses, taus, kappa)
        if trunk_sq is not None:
            break
    return {"planted": True, "flat": flat, "kappa": kappa, "p": p,
            "trunk_sq": trunk_sq, "masses": masses, "tails": tails,
            "measures": tuple(taus)}


def che_block(seed: int, block: int):
    """Every non-flat (kappa, p, 2..3 classes) twice, plus a flat problem
    for every (kappa, 1..3 classes); all planted."""
    rng = _rng("che", seed, block)
    plan = [(kappa, p, c, False) for kappa, p in SHAPES for c in (2, 3)] * 2
    plan += [(kappa, rng.choice((2, 3)), c, True) for kappa in (1, 2) for c in (1, 2, 3)]
    rng.shuffle(plan)
    return [_che_problem(rng, *spec) for spec in plan]


BLOCKS = {"windows": windows_block, "subnormal": subnormal_block, "che": che_block}


def stream(workload: str, seed: int):
    """Endless stream of distinct problems, block by block."""
    for block in itertools.count():
        yield from BLOCKS[workload](seed, block)


def take(workload: str, seed: int, count: int):
    return list(itertools.islice(stream(workload, seed), count))


def problems(workload: str, seed: int, blocks: int):
    """The corpus of one run: the first `blocks` blocks."""
    return [p for block in range(blocks) for p in BLOCKS[workload](seed, block)]


# --------------------------------------------------------------------------
# cli problem files
# --------------------------------------------------------------------------

def _domain_json(problem):
    if problem["domain"] == "compact":
        a, b = problem["interval"]
        return {"domain": "compact", "a": fmt(a), "b": fmt(b)}
    return {"domain": problem["domain"]}


def _classes_json(problem):
    return [{"first_sq": fmt(m), "tail_sq": [fmt(t) for t in tail], "count": 1}
            for m, tail in zip(problem["masses"], problem["tails"])]


def _completion_json(kind, problem):
    return {"kind": kind, "trunk_sq": [fmt(t) for t in problem["trunk_sq"]],
            "classes": _classes_json(problem)}


def _certificate_json(problem, tamper):
    measures = []
    for mu in problem["measures"]:
        atoms = [{"x": fmt(x), "m": fmt(m)} for x, m in mu]
        measures.append({"atoms": atoms})
    if tamper:
        first = measures[0]["atoms"][0]
        first["m"] = fmt(F(first["m"]) * F(9, 10))
    rows = [[fmt(m)] + [fmt(t) for t in tail]
            for m, tail in zip(problem["masses"], problem["tails"])]
    return {"kind": "verify",
            "certificate": {"kind": "subnormal", "trunk_sq": [fmt(t) for t in problem["trunk_sq"]],
                            "weights_sq": rows, "measures": measures}}


def cli_files(seed: int):
    """(name, JSON object) for every CLI problem kind, CLI_FILES_PER_KIND
    each; small shapes, because the CLI workload measures start-up."""
    rng = _rng("cli", seed, 0)
    out = []

    def window(domain, kind, k):
        return _window_problem(rng, domain, kind, k, False)

    def seq(problem):
        return [fmt(v) for v in problem["window"]]

    for i in range(CLI_FILES_PER_KIND):
        domain = DOMAINS[i % 3]
        k = rng.randint(1, 3)
        w = window(domain, KINDS[i % 2], k)
        out.append(("classify", {"kind": "classify", "sequence": seq(w), **_domain_json(w)}))
        w = window(domain, "strict", k)
        out.append(("principal", {"kind": "principal", "sequence": seq(w), **_domain_json(w)}))
        w = window(domain, "strict", k)
        out.append(("t-value", {"kind": "t-value", "sequence": seq(w), **_domain_json(w)}))
        w = window(("ray", "half-open")[i % 2], "strict", k)
        x = w["reciprocal"] * (1 + F(i % 3, 8))
        out.append(("backward", {"kind": "backward", "sequence": seq(w), "x": fmt(x),
                                 **_domain_json(w)}))
        w = window("half-open", "strict", k)
        partial = [F(rng.randint(1, 4))]
        for v in w["window"]:
            partial.append(partial[-1] + v)
        out.append(("ca", {"kind": "ca", "sequence": [fmt(v) for v in partial]}))
        s = _subnormal_problem(rng, 1, 2, 1 + i % 2, True, 1 + i % 3, None)
        out.append(("subnormal", _completion_json("subnormal", s)))
        c = _che_problem(rng, 1, 2, 2, False)
        out.append(("che", _completion_json("che", c)))
        c = _che_problem(rng, 1 + i % 2, 2, 1 + i % 3, True)
        out.append(("flat-che", _completion_json("flat-che", c)))
        vals = _distinct(lambda: F(rng.randint(1, 40), rng.randint(1, 12)), 4)
        out.append(("stampfli", {"kind": "stampfli", "weights_sq": [fmt(v) for v in vals]}))
        s = _subnormal_problem(rng, 1 + i % 2, 2 + i % 2, 1 + i % 3, True, 1 + (i + 1) % 3, None)
        out.append(("verify", _certificate_json(s, tamper=i % 4 == 3)))
    return [(f"{kind}-{i:03d}", obj) for i, (kind, obj) in enumerate(out)]


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, F):
        return fmt(x)
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def corpus_bytes(workload: str, seed: int) -> bytes:
    """The first 64 problems (all files for `cli`) as canonical JSON."""
    items = cli_files(seed) if workload == "cli" else take(workload, seed, 64)
    return json.dumps(_jsonable(items), sort_keys=True).encode()


def corpus_digest(workload: str, seed: int) -> str:
    return hashlib.sha256(corpus_bytes(workload, seed)).hexdigest()
