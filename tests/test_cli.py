import json
import os
import subprocess
import sys

import momentkit
from momentkit.cli import run

# the child interpreter imports the same momentkit as this test process
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(momentkit.__file__))


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "momentkit.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


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


def test_classify_example_exit_code(tmp_path):
    path = _write(tmp_path, "c.json", {"kind": "classify", "domain": "ray",
                                       "sequence": ["1", "2", "3"]})
    proc = _run_cli([path])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["class"] == "NotPositive"


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


def test_backward_and_ca_kinds(tmp_path):
    path = _write(tmp_path, "bw.json", {"kind": "backward", "domain": "ray",
                                        "sequence": ["2", "3", "5", "9"], "x": "1"})
    payload, code = run(path)
    assert code == 1 and payload["class"] == "NotExtension"
    path = _write(tmp_path, "ca.json", {"kind": "ca", "sequence": ["1", "2", "4"]})
    payload, code = run(path)
    assert code == 1 and not payload["has_extension"]
