"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run; pytest
collects it when it is named on the command line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("windows", "subnormal", "che", "cli")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload):
    first = corpus.corpus_bytes(workload, 7)
    assert first == corpus.corpus_bytes(workload, 7)
    assert first != corpus.corpus_bytes(workload, 8)
    # another interpreter, another hash seed: still the same bytes
    code = ("import sys; sys.path.insert(0, 'perfbench'); import corpus; "
            f"print(corpus.corpus_digest({workload!r}, 7))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == corpus.corpus_digest(workload, 7)


def _snapshot():
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "momentkit" or name.startswith("momentkit."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if spans._is_package_object(value):
                    for field, inner in vars(value).items():
                        out[(name, attr, field)] = inner
    return out


def _resolve(key):
    value = vars(sys.modules[key[0]])[key[1]]
    return vars(value)[key[2]] if len(key) == 3 else value


def test_traced_run_restores_every_patched_attribute():
    mk = workloads._modules(("cli",))
    before = _snapshot()
    tracer = spans.Tracer()
    with tracer.patched():
        # aliases are patched, including fields of module-level objects
        assert mk.principal.det_poly is not before[("momentkit.principal", "det_poly")]
        assert mk.completion._RAY_OPS.classify is not before[
            ("momentkit.completion", "_RAY_OPS", "classify")]
        for name in ("windows", "subnormal", "che"):
            problems = corpus.take(name, 3, 4)
            workloads._loop(workloads.LIBRARY[name], mk, problems, tracer)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert all(_resolve(key) is value for key, value in before.items())
    # calls between layers were caught: det under bordered_hankel_poly
    names = [s[0] for s in tracer.spans]
    parents = {names[s[3]] for s in tracer.spans if s[0] == "numeric.det" and s[3] >= 0}
    assert "numeric.det_poly" in parents
    stats, self_total = tracer.aggregate()
    assert stats["bench.problem"]["completion.solve_subnormal"]["calls"] == 4
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert abs(self_total - roots) < 1e-6


def test_metric_names_match_benchmark_json():
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    ours = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    assert len(ours) == len(metrics.END_TO_END) + len(metrics.PER_LAYER)
    assert {n: m["unit"] for n, m in declared.items()} == ours
    for name, _, better, bound in metrics.END_TO_END:
        assert declared[name]["better"] == better and declared[name]["bound"] == bound
    assert all(metrics.NAME.fullmatch(name) for name in ours)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_emitted_metrics_are_declared(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.3",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] is True
    section = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for name, m in result["metrics"].items():
        assert metrics.NAME.fullmatch(name)
        assert m["unit"] == metrics.UNITS[name]
        assert isinstance(m["value"], (int, float))
    for name, *_ in metrics.END_TO_END if trace == "0" else ():
        assert result["metrics"][name]["value"] > 0


def test_wrong_answers_are_counted_as_failures():
    mk = workloads._modules(("cli",))
    call = workloads._plain_call
    # windows: a NotPositive verdict for a planted window
    problem = next(p for p in corpus.take("windows", 1, 60) if not p["extreme"])
    result = workloads.Windows().solve(mk, problem)
    attempted, failed, _ = workloads.Windows().check(mk, problem, result, call)
    assert failed == 0
    wrong = mk.positivity.PositivityVerdict(mk.positivity.PositivityClass.NOT_POSITIVE)
    result[0] = (result[0][0], wrong, result[0][2])
    assert workloads.Windows().check(mk, problem, result, call) == (attempted, 1, False)
    # completion: Infeasible for a planted-feasible problem
    sub = workloads.LIBRARY["subnormal"]
    planted = next(p for p in corpus.take("subnormal", 1, 24) if p["planted"])
    out = mk.completion.SolveOutcome(mk.completion.SolveStatus.INFEASIBLE)
    assert sub.check(mk, planted, out, call) == (1, 1, False)
    # the failure reaches failed_share (correct_share is its complement)
    tally = workloads.Tally()
    tally.add(0.01, attempted, 1, False)
    tally.add(0.01, 1, 1, False)
    values, notes = workloads._end_to_end("subnormal", tally, tally.latencies, [1.0],
                                          1.0, 1.0, 1.0, 0.01)
    assert values["correct_share"] == 1 - 2 / (attempted + 1)
    assert f"failed_share {2 / (attempted + 1):.6g} share" in notes[1]
    # cli: a payload that differs from in-process cli.run
    ref = {"a.json": ({"class": "StrictlyPositive", "elapsed_s": 0.1}, 0)}
    good = [("a.json", 0.2, 0, json.dumps({"class": "StrictlyPositive", "elapsed_s": 0.3}))]
    bad = [("a.json", 0.2, 0, json.dumps({"class": "NotPositive", "elapsed_s": 0.3}))]
    assert workloads._check_cli(ref, good, []).failed == 0
    assert workloads._check_cli(ref, bad, []).failed == 1
    assert workloads._check_cli(ref, [("a.json", 0.2, 3, "{}")], []).failed == 1
    # a file run cold several times is one operation, failed if any run failed
    assert workloads._check_cli(ref, good * 3, []).attempted == 1
    tally = workloads._check_cli(ref, good + bad + good, [])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_counts_depend_on_the_seed_only():
    # a run checks a fixed corpus once, so two runs count the same operations
    counts = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "che", "--seed", "4", "--seconds", "2")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]
    blocks = workloads.corpus_blocks("che", 2)
    assert counts[0][0] == len(corpus.problems("che", 4, blocks))


@pytest.mark.parametrize("workload", ("windows", "subnormal", "che"))
def test_no_problem_repeats_within_a_run(workload):
    # every timed problem is new, so a memo cache in the program gains nothing
    problems = corpus.problems(workload, 5, 3)
    keys = {json.dumps(corpus._jsonable(p), sort_keys=True) for p in problems}
    assert len(keys) == len(problems)


def test_speed_factor_is_the_median_kernel_time_around_an_item():
    sp = speed.Speed()
    sp.groups = [[x * speed.NOMINAL_S] for x in (1.0, 1.0, 2.0, 4.0, 4.0, 4.0)]
    assert sp.factor(0, window=1) == pytest.approx(1.0)
    assert sp.factor(2, window=1) == pytest.approx(2.0)
    assert sp.factor(4, window=1) == pytest.approx(4.0)
    assert sp.factor(5, window=1) == pytest.approx(4.0)
    index = sp.sample(3)
    assert index == 6 and len(sp.groups[index]) == 3


def test_percentile_estimate():
    xs = [float(i) for i in range(1, 102)]
    assert workloads.percentile(xs, 50) == pytest.approx(51.0, abs=1e-6)
    assert workloads.percentile(xs, 90) == pytest.approx(91.0, abs=0.5)
    assert workloads.percentile([3.0], 90) == 3.0


def test_startup_reference_loads_none_of_the_program():
    code = speed.STARTUP_CODE + "; import sys; print(any('momentkit' in m for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads._env(ROOT),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reference_kernel_is_fixed():
    # the kernel is the benchmark's own code: the same value in every run
    assert speed.kernel() == speed.kernel()


def test_planted_truth_holds_for_the_generated_measures():
    for problem in corpus.take("windows", 2, 54):
        atoms = problem["atoms"]
        assert problem["window"][0] == sum(m for _, m in atoms)
        assert problem["reciprocal"] == sum(m / x for x, m in atoms)
        if problem["domain"] == "half-open":
            assert all(0 < x < 1 for x, _ in atoms)
        if problem["domain"] == "compact":
            a, b = problem["interval"]
            assert all(a < x < b for x, _ in atoms)
    for problem in corpus.take("subnormal", 2, 24):
        if problem["planted"]:
            level0 = sum(m * corpus.moment(mu, -1)
                         for m, mu in zip(problem["masses"], problem["measures"]))
            assert level0 == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "windows", "--seed", "1", "--seconds", "1",
                timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
