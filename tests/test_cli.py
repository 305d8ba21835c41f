import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import momentkit
from momentkit.cli import main, run

# the child interpreter imports the same momentkit as this test process
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(momentkit.__file__))


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "momentkit.cli", *args],
                          capture_output=True, text=True, env=_child_env())


def _run_python_ok(code):
    """Run `code` in a fresh interpreter; it must exit 0 (its asserts hold)."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_t_value_example(tmp_path):
    path = _write(tmp_path, "t.json", {"kind": "t-value", "domain": "ray",
                                       "sequence": ["1", "4"]})
    proc = _run_cli([path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_inf"] == "1/4"


def test_che_float_example(tmp_path):
    path = _write(tmp_path, "che.json",
                  {"kind": "che", "kappa": 1, "p": 1,
                   "trunk": ["1.4142135"], "branch_l1_sq_sum": "1.25"})
    proc = _run_cli([path, "--float"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["status"] == "Feasible"
    atom = payload["certificate"]["root_measure"]["atoms"][0]
    assert abs(float(atom["x"]) - 0.5) < 1e-6
    assert abs(float(atom["m"]) - 1.0) < 1e-6


# Flat CHE files whose root increments carry mass at zero.  In float
# arithmetic the support polynomial of those increments kept a constant of
# about -2e-17 (the first) or put its root at about 4e-15 inside (0, 1]
# (the second), and the certificate failed verification.
FLAT_CHE_ZERO_MASS = [
    {"kind": "flat-che", "trunk_sq": ["1298/1181", "3543/1855"],
     "classes": [{"first_sq": f, "tail_sq": ["4475/4394"], "count": 1}
                 for f in ("338/649", "169/1298", "507/1298")]},
    {"kind": "flat-che", "trunk_sq": ["373/328", "1968/1265"],
     "classes": [{"first_sq": f, "tail_sq": ["2081/2000"], "count": 1}
                 for f in ("1400/4103", "3000/4103")]},
]


@pytest.mark.parametrize("obj", FLAT_CHE_ZERO_MASS)
def test_float_flat_che_books_the_mass_at_zero(tmp_path, obj):
    path = _write(tmp_path, "flat.json", obj)
    exact, code = run(path)
    assert code == 0
    flags = argparse.Namespace(float=True, tolerance=1e-9, depth=12, seed=0)
    payload, code = run(path, flags)
    assert code == 0 and payload["status"] == "Feasible"
    want, got = exact["certificate"]["root_measure"], payload["certificate"]["root_measure"]
    assert abs(float(got["zero_mass"]) - float(F(want["zero_mass"]))) < 1e-12
    assert len(got["atoms"]) == len(want["atoms"])
    for a, b in zip(got["atoms"], want["atoms"]):
        assert abs(float(a["x"]) - float(F(b["x"]))) < 1e-12
        assert abs(float(a["m"]) - float(F(b["m"]))) < 1e-12
    # the recurrence runs from the first increment past the mass at zero
    for measure in payload["certificate"]["measures"]:
        assert measure["first_index"] == -len(obj["trunk_sq"])
    verify = _write(tmp_path, "verify.json",
                    {"kind": "verify", "certificate": payload["certificate"]})
    checked, code = run(verify, flags)
    assert code == 0 and checked["valid"]


#: Feasible files whose certificates hold an exact value past the float
#: range: their norm bounds once raised OverflowError, and the weight rows
#: of the first print integers of more than 4300 digits
OVERFLOW_FILES = [
    {"kind": "subnormal", "trunk_sq": ["3/8"],
     "classes": [{"first_sq": "1/2", "tail_sq": ["7/3e-500"], "count": 1}]},
    {"kind": "flat-che", "trunk_sq": ["1e400"],
     "classes": [{"first_sq": "3/2", "tail_sq": [], "count": 1}]},
]


@pytest.mark.parametrize("obj", OVERFLOW_FILES)
def test_a_certificate_past_the_float_range_prints_as_json(tmp_path, obj):
    proc = _run_cli([_write(tmp_path, "big.json", obj)])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "Feasible"
    assert payload["certificate"]["norm_sq"] == float("inf")


def test_a_certificate_past_the_int_digit_limit_reads_back(tmp_path):
    # its weight row prints a prescribed square of more than 4300 digits,
    # which int() refuses: `verify` exited 3 with "cannot parse '...'"
    big = dict(OVERFLOW_FILES[0], classes=[{"first_sq": "1/2", "tail_sq": ["7/3e-5000"],
                                            "count": 1}])
    proc = _run_cli([_write(tmp_path, "big.json", big)])
    certificate = json.loads(proc.stdout)["certificate"]
    assert max(len(v) for row in certificate["weights_sq"] for v in row) > 4300
    proc = _run_cli([_write(tmp_path, "verify.json",
                            {"kind": "verify", "certificate": certificate})])
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["valid"] is True


def test_a_certificate_past_the_float_range_reads_in_float_mode_as_a_domain_error(tmp_path):
    # read with --float, a weight whose quotient is past the float range
    # ended in an OverflowError traceback and exit 1
    proc = _run_cli([_write(tmp_path, "big.json", OVERFLOW_FILES[0])])
    certificate = json.loads(proc.stdout)["certificate"]
    proc = _run_cli([_write(tmp_path, "verify.json",
                            {"kind": "verify", "certificate": certificate}), "--float"])
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "DomainError"
    assert error["message"].endswith("'... is past the float range")


#: float files near the ends of the float range, each of which ended in an
#: OverflowError traceback and exit 1, and the end of its DomainError
NEAR_RANGE_END = [
    # the zero test of the determinacy test, |c|_1 max|s| (numeric._tolerances)
    *[({"kind": kind, "domain": "half-open", "sequence": ["5/4", "1e308"], "x": "3"},
       "is too large for the zero test of the determinacy test")
      for kind in ("classify", "principal", "t-value", "backward")],
    # the zero test of an [a, b] transform (numeric._tolerances)
    ({"kind": "classify", "domain": "compact", "a": "1", "b": "1e300",
      "sequence": ["1", "1e308", "1e308"]}, "has a zero test past the float range"),
    # the interval a float atom polynomial is isolated on (numeric._widened)
    ({"kind": "subnormal", "trunk_sq": ["3/8"],
      "classes": [{"first_sq": "1/2", "tail_sq": ["1e308"], "count": 1}]},
     "an interval past the float range"),
]


@pytest.mark.parametrize("obj, message", NEAR_RANGE_END)
def test_float_input_near_the_range_end_is_a_domain_error(tmp_path, obj, message):
    proc = _run_cli(["--float", _write(tmp_path, "p.json", obj)])
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "DomainError" and error["message"].endswith(message)


def test_a_search_value_past_the_float_range_ends_the_vector(tmp_path):
    # a split over a class of mass 5e-324 prepends inf to its window
    # (positivity._ratio): an OverflowError traceback and exit 1 before
    obj = {"kind": "subnormal", "trunk_sq": ["3/8"],
           "classes": [{"first_sq": "5e-324", "tail_sq": ["2", "3"], "count": 1}]}
    proc = _run_cli(["--float", _write(tmp_path, "p.json", obj)])
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "Unknown"
    assert payload["reason"].endswith("float value inf is past the float range")


def test_a_cold_call_of_a_tree_kind_reads_its_file_with_the_running_cli(tmp_path):
    # under `python -m momentkit.cli` the tree kinds' handlers (`_cli_trees`)
    # raise the InputError of the cli module that runs: an input error of
    # theirs exits 3 with JSON, as one of the window kinds' does
    path = _write(tmp_path, "bad.json", {"kind": "subnormal", "trunk_sq": [],
                                         "branches_sq": [[]]})
    proc = _run_cli([path])
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == {"kind": "input", "message": "empty branch"}


def test_classify_example_exit_code(tmp_path):
    path = _write(tmp_path, "c.json", {"kind": "classify", "domain": "ray",
                                       "sequence": ["1", "2", "3"]})
    proc = _run_cli([path])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["class"] == "NotPositive"


@pytest.mark.parametrize("domain", [{"domain": "ray"}, {"domain": "half-open"},
                                    {"domain": "compact", "a": "1", "b": "2"}])
def test_empty_window_is_refused_on_every_domain(tmp_path, domain):
    from momentkit.backward import classify_backward
    from momentkit.errors import DomainError
    from momentkit.extremal import reciprocal_inf_half_open, reciprocal_inf_ray
    from momentkit.positivity import Compact, HalfOpen, Ray, classify, index
    dom = {"ray": Ray(), "half-open": HalfOpen()}.get(domain["domain"], Compact(1, 2))
    for call in (classify, index):
        with pytest.raises(DomainError, match="empty sequence"):
            call([], dom)
    if not isinstance(dom, Compact):
        inf = reciprocal_inf_ray if isinstance(dom, Ray) else reciprocal_inf_half_open
        with pytest.raises(DomainError, match="empty sequence"):
            inf([])
        with pytest.raises(DomainError, match="empty sequence"):
            classify_backward([], 1, dom)
    path = _write(tmp_path, "empty.json", {"kind": "classify", "sequence": [], **domain})
    for args in ([path], ["--float", path]):
        proc = _run_cli(args)
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"error": {"kind": "DomainError",
                                                     "message": "empty sequence"}}


def test_malformed_input_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    proc = _run_cli([str(path)])
    assert proc.returncode == 3
    assert "error" in json.loads(proc.stdout)
    path2 = _write(tmp_path, "unknown.json", {"kind": "mystery"})
    proc = _run_cli([str(path2)])
    assert proc.returncode == 3


def test_certificate_verify_round_trip(tmp_path):
    problem = _write(tmp_path, "sub.json",
                     {"kind": "subnormal", "trunk_sq": [],
                      "branches_sq": [["1", "4", "9", "16"]]})
    payload, code = run(problem)
    assert code == 0
    verify = _write(tmp_path, "verify.json",
                    {"kind": "verify", "p": 4, "certificate": payload["certificate"]})
    payload2, code2 = run(verify)
    assert code2 == 0 and payload2["valid"]
    # a corrupted certificate fails
    broken = json.loads(json.dumps(payload["certificate"]))
    broken["trunk_sq"] = ["2"]
    verify_bad = _write(tmp_path, "verify_bad.json",
                        {"kind": "verify", "p": 4, "certificate": broken})
    payload3, code3 = run(verify_bad)
    assert code3 == 1 and not payload3["valid"]


def test_che_verify_round_trip(tmp_path):
    problem = _write(tmp_path, "che2.json",
                     {"kind": "che", "trunk_sq": ["2"], "branch_l1_sq_sum": "5/4"})
    payload, code = run(problem)
    assert code == 0
    verify = _write(tmp_path, "verify.json",
                    {"kind": "verify", "p": 1, "certificate": payload["certificate"]})
    payload2, code2 = run(verify)
    assert code2 == 0 and payload2["valid"]


def test_exit_codes_stable_across_modes(tmp_path):
    # off-boundary problems get the same exit code in both arithmetic modes
    cases = [
        ({"kind": "classify", "domain": "ray", "sequence": ["2", "3", "5", "9"]}, 0),
        ({"kind": "classify", "domain": "ray", "sequence": ["1", "2", "3"]}, 1),
        ({"kind": "stampfli", "weights": ["1", "2", "3", "5"]}, 0),
    ]
    for obj, want in cases:
        path = _write(tmp_path, "case.json", obj)
        assert _run_cli([path]).returncode == want
        assert _run_cli([path, "--float"]).returncode == want


def test_batch_mode(tmp_path):
    _write(tmp_path, "a.json", {"kind": "t-value", "domain": "ray",
                                "sequence": ["1", "4"]})
    _write(tmp_path, "b.json", {"kind": "classify", "domain": "ray",
                                "sequence": ["1", "2", "3"]})
    proc = _run_cli(["--batch", str(tmp_path)])
    assert proc.returncode == 1  # worst exit code across the batch
    results = sorted(p.name for p in tmp_path.glob("*.result.json"))
    assert results == ["a.result.json", "b.result.json"]
    a = json.loads((tmp_path / "a.result.json").read_text())
    assert a["t_inf"] == "1/4"


# one small file of every kind the benchmark's corpus writes; "verify"
# checks the certificate of the subnormal file
BATCH_KINDS = {
    "classify": {"kind": "classify", "domain": "half-open", "sequence": ["3", "2", "3/2"]},
    "principal": {"kind": "principal", "domain": "compact", "a": "1/2", "b": "4",
                  "sequence": ["1", "3/2", "5/2", "9/2"]},
    "t-value": {"kind": "t-value", "domain": "ray", "sequence": ["1", "4"]},
    "backward": {"kind": "backward", "domain": "ray", "sequence": ["2", "3", "5", "9"],
                 "x": "1"},
    "ca": {"kind": "ca", "sequence": ["4", "25/6", "403/96"]},
    "subnormal": {"kind": "subnormal", "trunk_sq": [], "branches_sq": [["1", "4", "9", "16"]]},
    "che": {"kind": "che", "trunk_sq": ["2"], "branch_l1_sq_sum": "5/4"},
    "flat-che": FLAT_CHE_ZERO_MASS[1],
    "stampfli": {"kind": "stampfli", "weights_sq": ["1/4", "11/12", "13/6", "26/7"]},
}


def _strip(payload):
    return {k: v for k, v in payload.items() if k != "elapsed_s"}


def test_batch_writes_the_run_payload_of_every_kind(tmp_path, capsys):
    for kind, obj in BATCH_KINDS.items():
        _write(tmp_path, f"{kind}.json", obj)
    certificate = run(tmp_path / "subnormal.json")[0]["certificate"]
    _write(tmp_path, "verify.json", {"kind": "verify", "certificate": certificate})
    paths = sorted(tmp_path.glob("*.json"))
    want = {path: run(path) for path in paths}
    code = main(["--batch", str(tmp_path)])
    outs = [path.with_suffix(".result.json") for path in paths]
    assert capsys.readouterr().out.splitlines() == [str(out) for out in outs]
    assert code == max(c for _, c in want.values())
    for out, (payload, _) in zip(outs, want.values()):
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert _strip(json.loads(text)) == _strip(payload), out
    # the result files of a second run are not read as problems
    assert main(["--batch", str(tmp_path)]) == code
    assert len(capsys.readouterr().out.splitlines()) == len(paths)


def test_batch_with_a_malformed_file_exits_3_and_writes_the_others(tmp_path, capsys):
    _write(tmp_path, "a.json", BATCH_KINDS["t-value"])
    (tmp_path / "b.json").write_text("{not json", encoding="utf-8")
    _write(tmp_path, "c.json", BATCH_KINDS["stampfli"])
    assert main(["--batch", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        str(tmp_path / f"{stem}.result.json") for stem in "abc"]
    assert json.loads((tmp_path / "a.result.json").read_text())["t_inf"] == "1/4"
    assert json.loads((tmp_path / "b.result.json").read_text())["error"]["kind"] == "input"
    assert json.loads((tmp_path / "c.result.json").read_text())["holds"] is True


def test_batch_runs_in_one_process(tmp_path):
    # a batch solves its files one after another: no worker pool is loaded
    for kind in ("subnormal", "che", "classify"):
        _write(tmp_path, f"{kind}.json", BATCH_KINDS[kind])
    _run_python_ok(
        "import contextlib, io, sys, momentkit.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['--batch', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "assert not loaded, loaded\n")


def test_stampfli_file_loads_no_completion_layer(tmp_path):
    path = _write(tmp_path, "stampfli.json", BATCH_KINDS["stampfli"])
    _run_python_ok(
        "import sys, momentkit.cli as cli\n"
        f"payload, code = cli.run({path!r})\n"
        "assert code == 0 and payload['holds'], payload\n"
        "layers = ('completion', 'tree', 'alternating', 'extremal', 'principal', 'backward')\n"
        "loaded = [m for m in layers if 'momentkit.' + m in sys.modules]\n"
        "assert not loaded, loaded\n")


def test_precision_environment_variable(tmp_path):
    from momentkit.numeric import Polynomial, real_roots
    old = os.environ.get("MOMENTKIT_PRECISION")
    os.environ["MOMENTKIT_PRECISION"] = "1/1000"
    try:
        (root,) = real_roots(Polynomial([-2, 0, 1]), 0, 2)
        assert abs(float(root) - 2 ** 0.5) < 1e-3
    finally:
        if old is None:
            del os.environ["MOMENTKIT_PRECISION"]
        else:
            os.environ["MOMENTKIT_PRECISION"] = old


@pytest.mark.parametrize("value", ["0", "-1/1000", "0/7", "abc", "inf", "nan", "1/0", " "])
def test_precision_environment_variable_refuses_what_is_not_positive(monkeypatch, tmp_path,
                                                                    value):
    # a width of 0 once made the refinement of an irrational root loop
    # forever, a negative one was read as its absolute value, and a word
    # escaped as ValueError
    from momentkit.errors import DomainError
    from momentkit.numeric import root_precision
    from momentkit.principal import minimal_measure_ray
    monkeypatch.setenv("MOMENTKIT_PRECISION", value)
    for call in (root_precision, lambda: minimal_measure_ray([1, 3, 11, 45])):
        with pytest.raises(DomainError, match="MOMENTKIT_PRECISION"):
            call()
    path = _write(tmp_path, "p.json", {"kind": "principal", "domain": "ray",
                                       "sequence": ["1", "3", "11", "45"]})
    payload, code = run(path)
    assert code == 1 and payload["error"]["kind"] == "DomainError"


def test_backward_and_ca_kinds(tmp_path):
    path = _write(tmp_path, "bw.json", {"kind": "backward", "domain": "ray",
                                        "sequence": ["2", "3", "5", "9"], "x": "1"})
    payload, code = run(path)
    assert code == 1 and payload["class"] == "NotExtension"
    path = _write(tmp_path, "ca.json", {"kind": "ca", "sequence": ["1", "2", "4"]})
    payload, code = run(path)
    assert code == 1 and not payload["has_extension"]


def test_import_loads_no_numpy():
    # numpy adds about 0.14 s to every cold call; only the oracle kind needs it
    code = ("import sys, momentkit.cli; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    _run_python_ok(code)


def test_classify_file_loads_no_completion_layer(tmp_path):
    # a cold call loads only the layers its kind needs: a classify file,
    # strict or singular on any domain, never loads the completion search
    # or the certificate verifiers
    files = [_write(tmp_path, f"classify-{i}.json", obj) for i, obj in enumerate([
        {"kind": "classify", "domain": "ray", "sequence": ["1", "1", "1", "1", "1"]},
        {"kind": "classify", "domain": "half-open", "sequence": ["3", "2", "3/2"]},
        {"kind": "classify", "domain": "compact", "a": "1", "b": "2",
         "sequence": ["2", "3", "5"]}])]
    code = ("import sys, momentkit.cli as cli\n"
            f"for path in {files!r}:\n"
            "    payload, code = cli.run(path)\n"
            "    assert code == 0, payload\n"
            "loaded = [m for m in ('momentkit.completion', 'momentkit.tree') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    _run_python_ok(code)


def test_cold_calls_of_every_kind_import_no_dataclasses(tmp_path):
    # the record types are plain classes: no CLI kind but `oracle`, whose
    # numpy and scipy import dataclasses themselves, loads the module
    paths = [_write(tmp_path, f"{kind}.json", obj) for kind, obj in BATCH_KINDS.items()]
    certificate = run(paths[list(BATCH_KINDS).index("subnormal")])[0]["certificate"]
    paths.append(_write(tmp_path, "verify.json", {"kind": "verify", "certificate": certificate}))
    _run_python_ok(
        "import sys, momentkit.cli as cli\n"
        f"for path in {paths!r}:\n"
        "    payload, code = cli.run(path)\n"
        "    assert code in (0, 1) and 'error' not in payload, payload\n"
        "assert 'dataclasses' not in sys.modules\n")


def test_oracle_kind(tmp_path):
    # (3, 2, 3/2) is strictly positive on (0, 1] with reciprocal infimum 5
    path = _write(tmp_path, "oracle.json", {"kind": "oracle", "domain": "half-open",
                                            "sequence": ["3", "2", "3/2"]})
    proc = _run_cli([path])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["grid_class"] == "StrictlyPositive"
    assert 5 <= payload["sweep_min"] < 5 + 1e-3 < payload["sweep_max"]
    path = _write(tmp_path, "oracle_np.json", {"kind": "oracle", "domain": "half-open",
                                               "sequence": ["1", "2", "4"]})
    proc = _run_cli([path])
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["grid_class"] == "NotPositive" and "sweep_min" not in payload


def test_input_errors_exit_3(tmp_path):
    cases = [
        {"kind": "classify", "domain": "ray"},                         # missing field
        {"kind": "classify", "sequence": "abc"},                       # scalar for a list
        {"kind": "classify", "sequence": ["1", "abc"]},                # malformed scalar
        {"kind": "classify", "domain": "sphere", "sequence": ["1"]},   # unknown domain
        {"kind": "classify", "domain": "compact", "a": "1",
         "sequence": ["1"]},                                           # missing endpoint
        {"kind": "stampfli", "weights": ["1", "2", "3"]},              # wrong arity
        {"kind": "subnormal", "trunk_sq": [], "branches_sq": [[]]},    # empty branch
        ["not", "an", "object"],
    ]
    for obj in cases:
        payload, code = run(_write(tmp_path, "bad.json", obj))
        assert code == 3 and payload["error"]["kind"] == "input", obj


def test_fractional_atom_count_is_a_bad_index(tmp_path):
    obj = {"kind": "subnormal", "trunk_sq": [], "branches_sq": [["1/4"]], "K": ["3/2"]}
    for branch in (["1/4"], ["1/4", "2", "3"]):
        payload, code = run(_write(tmp_path, "k.json", {**obj, "branches_sq": [branch]}))
        assert code == 1 and payload["error"]["kind"] == "BadIndex", payload
    payload, code = run(_write(tmp_path, "k.json", {**obj, "K": ["1"]}))
    assert code == 0 and payload["certificate"]["K"] == ["1"]


def test_internal_errors_are_not_input_errors(tmp_path, monkeypatch):
    # a programming error inside a solver must reach the caller, not be
    # reported as malformed input
    import momentkit.cli

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(momentkit.cli, "classify", broken)
    path = _write(tmp_path, "c.json", {"kind": "classify", "sequence": ["1", "2", "4"]})
    with pytest.raises(TypeError, match="injected"):
        run(path)


def _verify(tmp_path, certificate):
    return run(_write(tmp_path, "verify.json", {"kind": "verify", "certificate": certificate}))


def test_verify_needs_one_measure_per_row(tmp_path):
    for kind, x in (("subnormal", "2"), ("che", "1/2")):
        one_atom = {"atoms": [{"x": x, "m": "1"}]}
        cases = [
            ([["1/2", "2"], ["1/2", "99"]], [one_atom]),   # a row without a measure
            ([["1/2", "2"]], [one_atom, one_atom]),        # a measure without a row
            ([], []),                                      # no branch class at all
        ]
        for rows, measures in cases:
            payload, code = _verify(tmp_path, {"kind": kind, "trunk_sq": [],
                                               "weights_sq": rows, "measures": measures})
            assert code == 1 and payload["valid"] is False, (kind, rows, payload)
    # the first row with its measure is a valid certificate
    payload, code = _verify(tmp_path, {"kind": "subnormal", "trunk_sq": [],
                                       "weights_sq": [["1/2", "2"]],
                                       "measures": [{"atoms": [{"x": "2", "m": "1"}]}]})
    assert code == 0 and payload["valid"]


def test_verify_refuses_an_unknown_certificate_kind(tmp_path):
    certificate = {"trunk_sq": [], "weights_sq": [["5/4"]],
                   "measures": [{"atoms": [{"x": "1/2", "m": "1/10"}]}]}
    for kind in ("che", "che-flat"):
        payload, code = _verify(tmp_path, {**certificate, "kind": kind})
        assert code == 0 and payload["valid"], kind
    for kind in ("Subnormal", "flat-che", "", None, ["che"]):
        payload, code = _verify(tmp_path, {**certificate, "kind": kind})
        assert code == 3 and payload["error"]["kind"] == "input", kind


def test_compact_principal_returns_both_principal_measures(tmp_path):
    obj = {"kind": "principal", "domain": "compact", "a": "1/2", "b": "4",
           "sequence": ["1", "3/2", "5/2", "9/2"]}
    payload, code = run(_write(tmp_path, "p.json", obj))
    assert code == 0
    assert payload["measure"]["atoms"] == [{"x": "1", "m": "1/2"}, {"x": "2", "m": "1/2"}]
    assert payload["upper"]["atoms"] == [{"x": "1/2", "m": "8/49"}, {"x": "5/3", "m": "81/98"},
                                         {"x": "4", "m": "1/98"}]


@pytest.mark.parametrize("obj, named", [
    ({"kind": "classify", "sequence": ["1", "nan"], "domain": "ray"}, "nan"),
    ({"kind": "classify", "sequence": ["1", "2"], "domain": "compact", "a": "1", "b": "inf"},
     "inf"),
    ({"kind": "ca", "sequence": ["1", "inf"]}, "inf"),
    ({"kind": "stampfli", "weights_sq": ["1", "2", "3", "inf"]}, "inf"),
])
def test_non_finite_float_input_is_a_domain_error(tmp_path, obj, named):
    # the first three died with a traceback, exit 1 and no JSON; the
    # stampfli file exited 0 with "lhs": "inf"
    proc = _run_cli(["--float", _write(tmp_path, "p.json", obj)])
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "DomainError" and f"non-finite value {named} " in error["message"]


def test_probe_refuses_a_negative_kappa_max(tmp_path):
    # it exited 0 with FeasibleTowardInfinity and no prefix run
    path = _write(tmp_path, "probe.json", {"kind": "probe-kappa-inf", "trunk_sq": ["1"],
                                           "branches_sq": [["1", "1"]], "kappa_max": -1})
    payload, code = run(path)
    assert code == 1 and payload["error"]["kind"] == "BadIndex"
