"""The four workloads: a closed loop of one caller, per-problem checks, and
the metrics of one run.

A library workload solves a fixed seeded corpus once: every problem is new,
so a memo cache in the program gains nothing, and the counts of attempted
and failed operations depend on the seed only.  The corpus holds as many
blocks as the seed commit solves in `--seconds` on the nominal machine.
The `cli` workload runs its files as cold processes, round after round,
until `--seconds` have gone by, with a `--batch` run after every
COLD_PER_BATCH calls; a process keeps nothing from the one before it.  A
reference of `speed` is timed after every timed item (the kernel after a
library problem, the interpreter start-up after a process) and each
latency is scaled by the machine's speed around it.

Every library call goes through a module attribute (`mk.positivity.index`,
...), so the traced run sees it once `spans.Tracer.patched()` has swapped
the attribute.  Checks run after each call, outside its latency, and count
failures without stopping the run.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import corpus
from metrics import LADDER, TAIL_PERCENTILE, TIMED
from spans import LAYERS, Tracer
from speed import STARTUP_NOMINAL_S, Speed, Startup

SETUP_REPEATS = 7
TRIM = 0.3                   # share cut from each end before problems_per_s
#: seconds one corpus block takes at the seed commit on the nominal machine,
#: checks and reference kernels included
BLOCK_S = {"windows": 2.2, "subnormal": 2.5, "che": 1.2}
TRACE_SHARE = 0.25           # share of --seconds whose blocks the traced run solves
COLD_PER_KIND = 2            # cli files per problem kind run as cold processes
COLD_PER_BATCH = 4           # cli cold calls between two --batch runs
KERNELS_PER_PROBLEM = 2      # reference kernels after each library problem
KERNELS_PER_SETUP = 5        # reference kernels after each set-up
SETUP_WINDOW = 2             # set-ups on each side whose references scale one
VERIFY_DEPTH = 64
ABOVE = F(65, 64)            # backward value strictly above the threshold
WORK_DIR = ".perfbench"      # scratch space inside the checkout


def _modules(extra=()):
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"momentkit.{name}")
        for name in LAYERS + tuple(extra)})


def _plain_call(name, fn, *args):
    return fn(*args)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation by the check
        return exc


def _same_measure(mu, atoms) -> bool:
    return (not isinstance(mu, Exception) and mu.exact
            and tuple(mu.atoms) == tuple(atoms))


# --------------------------------------------------------------------------
# windows
# --------------------------------------------------------------------------

def _window_ops(mk, problem):
    """(operation, thunk, check) triples for one planted window."""
    P, B = mk.positivity, mk.backward
    window, k, atoms = problem["window"], problem["K"], problem["atoms"]
    recip = problem["reciprocal"]
    strict = problem["kind"] == "strict"
    want = "StrictlyPositive" if strict else "SingularlyPositive"

    def is_class(v):
        return v.kind.value == want

    def is_index(v):
        return v == k

    def is_measure(v):
        return _same_measure(v, atoms)

    def is_recip(v):
        return v == recip

    def singular_at(v):
        return v.kind.value == "Singular" and _same_measure(v.measure, atoms)

    def strict_above(v):
        return v.kind.value == "Strict"

    domain = problem["domain"]
    if domain == "ray":
        dom = P.Ray()
        ops = [("classify", lambda: P.classify_ray(window), is_class),
               ("index", lambda: P.index(window, dom), is_index),
               ("inf", lambda: mk.extremal.reciprocal_inf_ray(window), is_recip)]
        if strict:
            ops += [("measure", lambda: mk.principal.minimal_measure_ray(window), is_measure),
                    ("backward_at", lambda: B.classify_backward(window, recip, dom), singular_at),
                    ("backward_above",
                     lambda: B.classify_backward(window, recip * ABOVE, dom), strict_above)]
        else:
            ops.append(("measure", lambda: P.recover_minimal_measure(window, dom), is_measure))
    elif domain == "half-open":
        dom = P.HalfOpen()
        ops = [("classify", lambda: P.classify_half_open(window), is_class),
               ("index", lambda: P.index(window, dom), is_index),
               ("inf", lambda: mk.extremal.reciprocal_inf_half_open(window), is_recip),
               ("measure", lambda: mk.principal.minimal_measure_half_open(window), is_measure)]
        if strict:
            partial = [F(1)]
            for v in window:
                partial.append(partial[-1] + v)

            def ca_measure(v):
                return (v.has_extension and v.measure.zero_mass == 0
                        and _same_measure(v.measure.positive, atoms))

            ops += [("backward_at", lambda: B.classify_backward(window, recip, dom), singular_at),
                    ("backward_above",
                     lambda: B.classify_backward(window, recip * ABOVE, dom), strict_above),
                    ("ca", lambda: mk.alternating.has_ca_extension(partial), ca_measure)]
    else:
        a, b = problem["interval"]
        dom = P.Compact(a, b)
        ops = [("classify", lambda: P.classify_compact(window, a, b), is_class),
               ("index", lambda: P.index(window, dom), is_index)]
        if strict:
            lower = mk.principal.PrincipalKind.LOWER

            def brackets(v):
                return v.t_lo <= recip <= v.t_hi and recip in (v.t_lo, v.t_hi)

            ops += [("measure", lambda: mk.principal.principal_compact(window, a, b, lower),
                     is_measure),
                    ("extremes", lambda: mk.extremal.reciprocal_extremes_compact(window, a, b),
                     brackets)]
        else:
            ops.append(("measure", lambda: P.recover_minimal_measure(window, dom), is_measure))
    return ops


class Windows:
    imports = ("positivity", "principal", "extremal", "backward", "alternating")

    def solve(self, mk, problem):
        ops = _window_ops(mk, problem)
        return [(name, _attempt(thunk), check) for name, thunk, check in ops]

    def check(self, mk, problem, result, call):
        if isinstance(result, Exception):
            return 1, 1, False
        failed = 0
        for _, value, check in result:
            if isinstance(value, Exception) or _attempt(check, value) is not True:
                failed += 1
        return len(result), failed, False


# --------------------------------------------------------------------------
# completions
# --------------------------------------------------------------------------

def _partial_weights(mk, problem):
    classes = [mk.tree.BranchClass(m, tail, 1)
               for m, tail in zip(problem["masses"], problem["tails"])]
    return mk.tree.PartialWeights(problem["trunk_sq"], classes)


class Completion:
    """`subnormal` and `che`: one solve per problem; a Feasible answer
    includes `certificate.to_json()` in its latency."""

    def __init__(self, name):
        self.name = name
        self.imports = ("completion",)

    def solve(self, mk, problem):
        pw = _partial_weights(mk, problem)
        C = mk.completion
        if self.name == "subnormal":
            out = C.solve_subnormal(pw, "auto")
        elif problem["flat"]:
            out = C.flat_che_completion(pw)
        else:
            out = C.solve_che(pw, "auto")
        if out.certificate is not None:
            out.certificate.to_json()
        return out

    def check(self, mk, problem, result, call):
        if isinstance(result, Exception):
            return 1, 1, False
        status = result.status.value
        if status == "Infeasible" and problem["planted"]:
            return 1, 1, False
        if status == "Feasible":
            verified = _attempt(call, "bench.verify64", verify_deep, mk, result.certificate)
            return 1, int(verified is not True), False
        return 1, 0, status == "Unknown"


class _Moments:
    """A certificate measure with its moments cached.  The tree verifiers
    recompute every geometric sum from scratch, which makes depth 64 cost
    O(depth^2) moments per branch; with the cache it is O(depth)."""

    def __init__(self, measure):
        self.measure = measure
        self.zero_mass = getattr(measure, "zero_mass", 0)
        self._moments = {}
        self._sums = [0]

    def moment(self, k):
        if k not in self._moments:
            self._moments[k] = self.measure.moment(k)
        return self._moments[k]

    def total_mass(self):
        return self.measure.total_mass()

    def geometric_sum(self, n):
        if self.zero_mass != 0:
            return self.measure.geometric_sum(n)
        while len(self._sums) <= n:
            self._sums.append(self._sums[-1] + self.moment(len(self._sums) - 1))
        return self._sums[n]


def verify_deep(mk, cert, depth=VERIFY_DEPTH):
    """Re-verify a completion certificate to `depth` with the package's own
    verifier, over the certificate's measures behind a moment cache."""
    measures = [_Moments(mu) for mu in cert.measures]
    classes = []
    for cls, mu in zip(cert.full.classes, measures):
        generator = copy.copy(cls.generator)
        if hasattr(generator, "tau"):
            generator.tau = mu
        else:
            generator.measure = mu
        classes.append(mk.tree.FullBranch(cls.first_mass, generator, cls.count))
    full = mk.tree.FullWeights(cert.full.trunk_sq, classes, cert.full.kappa_infinite)
    if cert.kind == "subnormal":
        return mk.tree.verify_subnormal_certificate(full, measures, depth)
    return mk.tree.verify_che_certificate(full, measures, depth)


LIBRARY = {"windows": Windows(), "subnormal": Completion("subnormal"),
           "che": Completion("che")}


# --------------------------------------------------------------------------
# measurement helpers
# --------------------------------------------------------------------------

def _env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(root, args, **kwargs):
    return subprocess.run([sys.executable, *args], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=120, **kwargs)


def fresh_import_s(root: Path, modules) -> float:
    """Seconds a fresh interpreter spends importing `modules`."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(f"momentkit.{m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    proc = _python(root, ["-c", code], check=True)
    return float(proc.stdout)


def _wall(root, args) -> float:
    start = time.perf_counter()
    _python(root, args, check=True)
    return time.perf_counter() - start


def percentile(values, pct, steps=16):
    """The Harrell-Davis estimate of the `pct` percentile: a weighted mean
    of all order statistics, with the weights of the Beta(p(n+1), (1-p)(n+1))
    distribution over [i/n, (i+1)/n].  It moves less from seed to seed than
    a single order statistic does."""
    xs = sorted(values)
    n, p = len(xs), pct / 100
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ts = ((i * steps + j + 0.5) * h for j in range(steps))
        weights.append(sum(math.exp(log_c + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def typical_rate(latencies, trim=TRIM):
    """Problems per second at the trimmed mean latency: the mean of the
    latencies between the `trim` and 1 - `trim` quantiles, so that neither
    the few problems that take seconds nor the share of the slow and fast
    modes of `subnormal`, which moves from seed to seed, decides it."""
    xs = sorted(latencies)
    cut = int(len(xs) * trim)
    middle = xs[cut:len(xs) - cut]
    return len(middle) / sum(middle)


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


class Tally:
    """Latencies and outcome counts of one pass.  `unchecked` counts
    outputs the checks could not process; they are failures too."""

    def __init__(self):
        self.latencies = []
        self.busy = 0.0
        self.problems = 0
        self.attempted = 0
        self.failed = 0
        self.unknown = 0
        self.unchecked = 0
        self.verdicts = Counter()

    def add(self, latency, attempted=0, failed=0, unknown=False):
        self.latencies.append(latency)
        self.busy += latency
        self.problems += 1
        self.attempted += attempted
        self.failed += failed
        self.unknown += unknown


def _end_to_end(name, tally, typical, factors, rate, setup_s, rss_mb, raw_p50):
    """`tally` holds the checks, `typical` each problem's scaled latency,
    `factors` the speed factors that scaled them, `raw_p50` the median
    unscaled latency."""
    pct = TAIL_PERCENTILE[name]
    problems = tally.problems
    return {
        "problems_per_s": rate,
        "latency_p50_ms": percentile(typical, 50) * 1e3,
        "latency_tail_ms": percentile(typical, pct) * 1e3,
        "decided_share": 1 - tally.unknown / problems,
        "correct_share": 1 - tally.failed / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }, [f"latency_tail_ms is p{pct} of {len(typical)} latencies; ladder "
        + ", ".join(f"p{q} {percentile(typical, q) * 1e3:.4g} ms" for q in LADDER),
        f"unknown_share {tally.unknown / problems:.6g} share, "
        f"failed_share {tally.failed / tally.attempted:.6g} share",
        f"speed factor (reference median / nominal) min {min(factors):.3f}, "
        f"median {statistics.median(factors):.3f}, max {max(factors):.3f}; "
        f"unscaled median latency {raw_p50 * 1e3:.4g} ms"]


def scaled_setup_s(root, measure):
    """Median over SETUP_REPEATS set-ups.  `measure()` returns the seconds
    a fresh interpreter spent importing the layers under test, scaled by
    the start-up reference, and the seconds spent building the inputs,
    scaled by the kernel; both references run after each set-up."""
    kernel, startup = Speed(), Speed(Startup(root, _env(root)), STARTUP_NOMINAL_S)
    parts = []
    for _ in range(SETUP_REPEATS):
        import_s, build_s = measure()
        parts.append((import_s, build_s, kernel.sample(KERNELS_PER_SETUP), startup.sample()))
    return statistics.median(
        import_s / startup.factor(s, SETUP_WINDOW) + build_s / kernel.factor(k, SETUP_WINDOW)
        for import_s, build_s, k, s in parts)


# --------------------------------------------------------------------------
# library workloads
# --------------------------------------------------------------------------

def _unchecked(mk, problem, result, call):
    return 0, 0, False


def _loop(wl, mk, problems, tracer=None, check=True, speed=None):
    """One pass of the closed loop over `problems`; with `speed`, the
    reference kernel runs right after each problem, before its check.
    Returns the pass's tally."""
    call = tracer.call if tracer is not None else _plain_call
    checker = wl.check if check else _unchecked
    tally = Tally()
    for pid, problem in enumerate(problems):
        if tracer is not None:
            tracer.problem = pid
        start = time.perf_counter()
        result = _attempt(call, "bench.problem", wl.solve, mk, problem)
        latency = time.perf_counter() - start
        if speed is not None:
            speed.sample(KERNELS_PER_PROBLEM)
        outcome = _attempt(call, "bench.check", checker, mk, problem, result, call)
        if isinstance(outcome, Exception):
            tally.unchecked += 1
            outcome = (1, 1, False)
        tally.add(latency, *outcome)
        status = getattr(result, "status", None)
        if status is not None:
            tally.verdicts[status.value] += 1
    return tally


def corpus_blocks(name, seconds) -> int:
    """Blocks the seed commit solves in `seconds` on the nominal machine."""
    return max(1, round(seconds / BLOCK_S[name]))


def _setup_library(root, wl, name, seed, blocks):
    import_s = fresh_import_s(root, wl.imports)
    start = time.perf_counter()
    corpus.problems(name, seed, blocks)
    return import_s, time.perf_counter() - start


def run_library(root, name, seed, seconds, trace):
    wl = LIBRARY[name]
    if not trace:
        blocks = corpus_blocks(name, seconds)
        setup_s = scaled_setup_s(root, lambda: _setup_library(root, wl, name, seed, blocks))
        mk = _modules()
        problems = corpus.problems(name, seed, blocks)
        speed = Speed()
        tally = _loop(wl, mk, problems, speed=speed)
        factors = [speed.factor(i) for i in range(len(problems))]
        typical = [x / f for x, f in zip(tally.latencies, factors)]
        metrics, notes = _end_to_end(name, tally, typical, factors, typical_rate(typical),
                                     setup_s, _rss_mb(resource.RUSAGE_SELF),
                                     statistics.median(tally.latencies))
        return tally, metrics, notes
    mk = _modules()
    problems = corpus.problems(name, seed, corpus_blocks(name, seconds * TRACE_SHARE))
    # the traced pass checks; the untraced pass after it repeats the same
    # problems and only times them, for trace.overhead_share
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.patched():
        traced = _loop(wl, mk, problems, tracer)
    wall = time.perf_counter() - start
    plain = _loop(wl, mk, problems, check=False)
    metrics = layer_metrics(tracer, wall, plain, traced)
    _write_spans(root, tracer, name, seed)
    return traced, metrics, []


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def _write_files(directory: Path, seed):
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    paths = []
    for stem, obj in corpus.cli_files(seed):
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(path)
    return paths


def _strip(payload):
    return {k: v for k, v in payload.items() if k != "elapsed_s"}


class CliRun:
    def __init__(self, root, seed):
        self.root, self.seed = root, seed
        self.work = root / WORK_DIR / f"cli-{seed}-{os.getpid()}"
        self.files = self.work / "files"

    def setup(self):
        import_s = fresh_import_s(self.root, ("cli",))
        start = time.perf_counter()
        self.paths = _write_files(self.files, self.seed)
        return import_s, time.perf_counter() - start

    def reference(self, mk, call=_plain_call):
        """In-process `cli.run` per file: ({file name: (payload, exit code)},
        seconds per file)."""
        ref, seconds = {}, []
        for path in self.paths:
            start = time.perf_counter()
            ref[path.name] = call("bench.problem", mk.cli.run, str(path))
            seconds.append(time.perf_counter() - start)
        return ref, seconds

    def cold_paths(self):
        """The first COLD_PER_KIND files of every kind, in a seeded order."""
        seen, out = Counter(), []
        for path in self.paths:
            kind = path.stem.rsplit("-", 1)[0]
            seen[kind] += 1
            if seen[kind] <= COLD_PER_KIND:
                out.append(path)
        random.Random(f"cli-order:{self.seed}").shuffle(out)
        return out

    def cold(self, paths):
        """One `python -m momentkit.cli FILE` per file, one at a time."""
        calls = []
        for path in paths:
            start = time.perf_counter()
            proc = _python(self.root, ["-m", "momentkit.cli", str(path)])
            latency = time.perf_counter() - start
            calls.append((path.name, latency, proc.returncode, proc.stdout))
        return calls

    def batch(self):
        """One `python -m momentkit.cli --batch DIR`: (wall, payloads)."""
        for old in self.files.glob("*.result.json"):
            old.unlink()
        start = time.perf_counter()
        _python(self.root, ["-m", "momentkit.cli", "--batch", str(self.files)])
        wall = time.perf_counter() - start
        results = {}
        for path in self.paths:
            out = path.with_suffix(".result.json")
            results[path.name] = json.loads(out.read_text()) if out.exists() else None
        return wall, results

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _check_cli(ref, calls, batches):
    """Compare every payload with the in-process reference (apart from
    elapsed_s); exit code 3 is a failure too.  An operation is the cold
    call or the batch output of one file, however often it ran; it failed
    if any of its runs failed, and `tally.bad` names it."""
    tally = Tally()
    tally.bad, cold, undecided = set(), set(), set()
    for name, latency, code, stdout in calls:
        payload, want_code = ref[name]
        try:
            got = json.loads(stdout)
        except ValueError:
            got = None
        tally.latencies.append(latency)
        cold.add(name)
        if code == 2:
            undecided.add(name)
        if code == 3 or code != want_code or got is None or _strip(got) != _strip(payload):
            tally.bad.add(("cold", name))
    batched = set()
    for _, results in batches:
        for name, got in results.items():
            batched.add(name)
            if got is None or _strip(got) != _strip(ref[name][0]):
                tally.bad.add(("batch", name))
    tally.problems = len(cold)
    tally.attempted = len(cold) + len(batched)
    tally.failed = len(tally.bad)
    tally.unknown = len(undecided)
    return tally


def run_cli(root, seed, seconds, trace):
    run = CliRun(root, seed)
    try:
        if not trace:
            setup_s = scaled_setup_s(root, run.setup)
            mk = _modules(("cli",))
            ref, _ = run.reference(mk)
            paths = run.cold_paths()
            startup = Speed(Startup(root, _env(root)), STARTUP_NOMINAL_S)
            calls, batches, cold, walls = [], [], [], []
            start = time.perf_counter()
            # every file runs cold at least once, then the loop goes round
            # the files again until `seconds` have gone by
            while len(calls) < len(paths) or time.perf_counter() - start < seconds:
                calls += run.cold([paths[len(calls) % len(paths)]])
                cold.append((calls[-1][1], startup.sample()))
                if len(calls) % COLD_PER_BATCH == 0:
                    batches.append(run.batch())
                    walls.append((batches[-1][0], startup.sample()))
            # a file checked in several processes is one operation, failed
            # if any of them failed
            tally = _check_cli(ref, calls, batches)
            typical = [x / startup.factor(g) for x, g in cold]
            factors = [startup.factor(i) for i in range(len(startup.groups))]
            batch_s = statistics.median(x / startup.factor(g) for x, g in walls)
            rss = max(_rss_mb(resource.RUSAGE_CHILDREN), 1e-9)
            metrics, notes = _end_to_end("cli", tally, typical, factors,
                                         len(run.paths) / batch_s, setup_s, rss,
                                         statistics.median(x for x, _ in cold))
            notes.append(f"{len(calls)} cold calls, {len(batches)} --batch runs; "
                         "cold_call_p50_ms, cold_call_tail_ms and batch_files_per_s are "
                         "latency_p50_ms, latency_tail_ms and problems_per_s; the last is "
                         "the files over the median scaled --batch wall time")
            return tally, metrics, notes
        run.setup()
        mk = _modules(("cli",))
        bare = statistics.median(_wall(root, ["-c", "pass"]) for _ in range(SETUP_REPEATS))
        loaded = statistics.median(_wall(root, ["-c", "import momentkit.cli"])
                                   for _ in range(SETUP_REPEATS))
        numpy = _python(root, ["-c", "import sys, momentkit.cli; "
                                     "print(int('numpy' in sys.modules))"], check=True)
        ref, run_seconds = run.reference(mk)
        passes, plain = 0, Tally()
        while plain.busy < seconds * TRACE_SHARE:
            for latency in run.reference(mk)[1]:
                plain.add(latency)
            passes += 1
        tracer = Tracer()
        traced = Tally()
        start = time.perf_counter()
        with tracer.patched():
            for _ in range(passes):
                payloads, secs = run.reference(mk, tracer.call)
                for latency in secs:
                    traced.add(latency)
                traced.verdicts.update(p["status"] for p, _ in payloads.values()
                                       if "status" in p)
        wall = time.perf_counter() - start
        calls = run.cold(run.cold_paths())
        batches = [run.batch()]
        tally = _check_cli(ref, calls, batches)
        metrics = layer_metrics(tracer, wall, plain, traced)
        workers = os.cpu_count() or 1
        batch_wall, results = batches[0]
        busy = sum(r.get("elapsed_s", 0) for r in results.values() if r)
        metrics.update({
            "cli.import_s": loaded - bare,
            "cli.numpy_on_import": int(numpy.stdout),
            "cli.run_s": sum(run_seconds),
            "cli.process_overhead_ms": (statistics.median(c[1] for c in calls)
                                        - statistics.median(run_seconds)) * 1e3,
            "cli.batch.busy_share": busy / (batch_wall * workers),
            "unknown_share": tally.unknown / tally.problems,
            "failed_share": tally.failed / tally.attempted,
        })
        _write_spans(root, tracer, "cli", seed)
        return tally, metrics, []
    finally:
        run.cleanup()


# --------------------------------------------------------------------------
# per-layer metrics from the traced run
# --------------------------------------------------------------------------

def layer_metrics(tracer, wall, plain, traced):
    """Per-layer metrics from the spans under `bench.problem` roots; the
    benchmark's own time is `bench.*` self time plus everything under
    `bench.check` (the depth-64 re-verification included)."""
    stats, self_total = tracer.aggregate()
    problem = stats.get("bench.problem", {})
    check = stats.get("bench.check", {})
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tags": {}}

    def entry(name):
        return problem.get(name, empty)

    def tagged(name, tag, index):
        return entry(name)["tags"].get(tag, (0, 0.0))[index]

    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = entry(name)["calls"]
        out[f"{name}.self_s"] = entry(name)["self_s"]
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(e["self_s"] for n, e in problem.items()
                                     if n.startswith(layer + "."))
    out["bench.self_s"] += sum(e["self_s"] for e in check.values())
    ray = "extremal.reciprocal_inf_ray"
    verdicts = traced.verdicts
    solved = sum(verdicts.values())
    out.update({
        "numeric.simplest_between.calls": entry("numeric.simplest_between")["calls"],
        "positivity.classify_ray.nonstrict_self_s": tagged("positivity.classify_ray", "nonstrict", 1),
        f"{ray}.calls": entry(ray)["calls"],
        f"{ray}.even_calls": tagged(ray, "even", 0),
        f"{ray}.float_calls": tagged(ray, "float", 0),
        f"{ray}.total_s": entry(ray)["total_s"],
        "extremal.compact_reciprocal_values.calls":
            entry("extremal.compact_reciprocal_values")["calls"],
        "completion.solve_subnormal.self_s": entry("completion.solve_subnormal")["self_s"],
        "completion.solve_che.self_s": entry("completion.solve_che")["self_s"],
        "completion.flat_che_completion.calls": entry("completion.flat_che_completion")["calls"],
        "completion.feasible": verdicts["Feasible"],
        "completion.infeasible": verdicts["Infeasible"],
        "completion.unknown": verdicts["Unknown"],
        "completion.useful_share":
            (verdicts["Feasible"] + verdicts["Infeasible"]) / solved if solved else 0.0,
        "tree.verify64_s": check.get("bench.verify64", empty)["total_s"],
        "cli.import_s": 0.0, "cli.numpy_on_import": 0, "cli.run_s": 0.0,
        "cli.process_overhead_ms": 0.0, "cli.batch.busy_share": 0.0,
        "trace.overhead_share":
            (traced.busy - plain.busy) / plain.busy,
        "trace.accounted_share": self_total / wall,
        "trace.wall_s": wall,
        "unknown_share": traced.unknown / max(len(traced.latencies), 1),
        "failed_share": traced.failed / max(traced.attempted, 1),
    })
    return out


def _write_spans(root, tracer, name, seed):
    directory = root / WORK_DIR
    directory.mkdir(exist_ok=True)
    tracer.write(directory / f"spans-{name}-{seed}.tsv.gz")


def run(root, name, seed, seconds, trace):
    if name == "cli":
        return run_cli(root, seed, seconds, trace)
    return run_library(root, name, seed, seconds, trace)
