"""A certificate's weight rows print the generations it proves.

Each row of `weights_sq` holds the first-weight mass and the p - 1
prescribed squares, p entries.  Past generation p a weight is a ratio of
the branch measure's moments (subnormal) or of its sums gamma_n (che), so
it is read from the measure, not printed.  The certificates are those the
CLI prints for the `subnormal`, `che` and `flat-che` files of the
benchmark's `cli_files(1..3)`, exact and `--float`.  Read back, each gives
the solver's weights of generations 2..p+8.  In the earlier layout, whose
rows went on to generation p + 8, each still verifies, and one forged entry
past p makes `verify` exit 1.
"""

import argparse
import functools
import importlib.util
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from momentkit._cli_trees import _k_arg, _partial_weights
from momentkit.cli import run
from momentkit.completion import flat_che_completion, solve_che, solve_subnormal
from momentkit.numeric import format_scalar
from momentkit.tree import CompletionCertificate

ARITHMETIC = ("exact", "float")
FACTORS = (F(1, 2), F(9, 10), F(11, 10), F(3))
#: the generations past p that the earlier layout printed
DERIVED = 8
SOLVERS = {
    "subnormal": lambda pw, obj: solve_subnormal(pw, _k_arg(obj)),
    "che": lambda pw, obj: solve_che(pw, _k_arg(obj)),
    "flat-che": lambda pw, obj: flat_che_completion(pw),
}


def _bench_corpus():
    """perfbench/corpus.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("momentkit_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tmp_dir, obj, arithmetic):
    path = Path(tmp_dir) / "problem.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    flags = argparse.Namespace(float=arithmetic == "float", tolerance=1e-9, depth=12, seed=0)
    return run(str(path), flags)


@functools.lru_cache(maxsize=2)
def _solved(arithmetic: str) -> tuple:
    """(printed JSON, the solver's certificate) for every certificate the
    CLI prints over the completion files of cli_files(1..3)."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2, 3):
            for stem, obj in _bench_corpus().cli_files(seed):
                solve = SOLVERS.get(stem.rsplit("-", 1)[0])
                if solve is None:
                    continue
                payload, code = _run(tmp, obj, arithmetic)
                if code == 0:
                    pw = _partial_weights(obj, arithmetic == "exact")
                    out.append((json.dumps(payload["certificate"]), solve(pw, obj).certificate))
    return tuple(out)


def _old_layout(printed: str, cert) -> dict:
    """The printed certificate with each row extended to generation
    p + DERIVED by the solver's weights, as the earlier layout printed them."""
    old = json.loads(printed)
    p = cert.partial.p
    for i, row in enumerate(old["weights_sq"], start=1):
        row += [format_scalar(cert.full.branch_weight_sq(i, j))
                for j in range(p + 1, p + DERIVED + 1)]
    return old


def test_the_files_print_every_kind_in_both_modes():
    for arithmetic in ARITHMETIC:
        assert {cert.kind for _, cert in _solved(arithmetic)} == {"subnormal", "che", "che-flat"}


@pytest.mark.parametrize("arithmetic", ARITHMETIC)
def test_rows_print_p_generations_and_read_back_the_rest(arithmetic):
    for printed, cert in _solved(arithmetic):
        assert json.dumps(cert.to_json()) == printed
        p, count = cert.partial.p, len(cert.full.classes)
        obj = json.loads(printed)
        assert [len(row) for row in obj["weights_sq"]] == [p] * count
        back = CompletionCertificate.from_json(obj, arithmetic == "exact")
        generations = range(2, p + DERIVED + 1)
        for i in range(1, count + 1):
            got = [back.full.branch_weight_sq(i, j) for j in generations]
            assert got == [cert.full.branch_weight_sq(i, j) for j in generations], printed


@pytest.mark.parametrize("arithmetic", ARITHMETIC)
def test_the_old_layout_verifies(tmp_path, arithmetic):
    for printed, cert in _solved(arithmetic):
        old = _old_layout(printed, cert)
        payload, code = _run(tmp_path, {"kind": "verify", "certificate": old}, arithmetic)
        assert code == 0 and payload["valid"], (old, payload)


@given(data=st.data(), factor=st.sampled_from(FACTORS), arithmetic=st.sampled_from(ARITHMETIC))
def test_a_forged_derived_entry_exits_1(tmp_path_factory, data, factor, arithmetic):
    solved = _solved(arithmetic)
    printed, cert = solved[data.draw(st.integers(0, len(solved) - 1), label="certificate")]
    old = _old_layout(printed, cert)
    i = data.draw(st.integers(1, len(old["weights_sq"])), label="class")
    row = old["weights_sq"][i - 1]
    # row[n] is generation n + 1, which the identity at n reads first
    n = data.draw(st.integers(cert.partial.p, len(row) - 1), label="entry")
    row[n] = format_scalar(F(row[n]) * factor)
    payload, code = _run(tmp_path_factory.mktemp("rows"),
                         {"kind": "verify", "certificate": old}, arithmetic)
    identity = "moment" if cert.kind == "subnormal" else "geometric sum"
    assert code == 1 and payload["valid"] is False
    assert payload["error"] == f"violated: branch {i}: {identity} {n} equals the weight product"
