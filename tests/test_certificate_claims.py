"""Every field a completion certificate prints is a checked claim.

The certificates are those the CLI prints for the `subnormal`, `che` and
`flat-che` files of the benchmark's `cli_files(1..3)`, which hold every
certificate kind (`subnormal`, `che`, `che-flat`).  Each one re-verifies
through CLI `verify`, and each mutation below makes one of its claims
false, so `verify` refuses it with exit 1: a measure's mass (or a
recurrence's seed value), a weight, a trunk square moved above the
printed norm, a value of `sequences`, an entry of `K`, `norm_sq` lowered
below the largest value it bounds, and a flat certificate's exact root
measure.
"""

import argparse
import functools
import importlib.util
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from momentkit.cli import run
from momentkit.errors import CertificateInvalid
from momentkit.numeric import format_scalar
from momentkit.tree import CompletionCertificate

KINDS = {"subnormal", "che", "che-flat"}
MUTATIONS = ("mass", "weight", "trunk", "sequence", "K", "norm_sq", "root")
FACTORS = (F(1, 2), F(9, 10), F(11, 10), F(3))
#: (kind, mutation): only a flat certificate prints a root measure
CASES = [(kind, mutation) for kind in sorted(KINDS) for mutation in MUTATIONS
         if mutation != "root" or kind == "che-flat"]


def _bench_corpus():
    """perfbench/corpus.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("momentkit_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tmp_dir, obj, arithmetic="exact"):
    path = Path(tmp_dir) / "problem.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    flags = argparse.Namespace(float=arithmetic == "float", tolerance=1e-9, depth=12, seed=0)
    return run(str(path), flags)


@functools.lru_cache(maxsize=1)
def _printed() -> tuple:
    """Every certificate the CLI prints over the completion files of
    cli_files(1..3), as JSON text."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2, 3):
            for stem, obj in _bench_corpus().cli_files(seed):
                if stem.rsplit("-", 1)[0] in ("subnormal", "che", "flat-che"):
                    payload, code = _run(tmp, obj)
                    if code == 0:
                        out.append(json.dumps(payload["certificate"]))
    return tuple(out)


def _scaled(text, factor):
    return format_scalar(F(text) * factor)


def _has_exact_root(cert) -> bool:
    root = cert.get("root_measure")
    return root is not None and root.get("exact", True)


def _mutated(cert, mutation, pick, factor):
    """cert with one claim made false: pick(n) chooses one of n places."""
    if mutation == "mass":
        mu = cert["measures"][pick(len(cert["measures"]))]
        if "atoms" in mu:
            atom = mu["atoms"][pick(len(mu["atoms"]))]
            atom["m"] = _scaled(atom["m"], factor)
        else:  # a recurrence: one value of its seed window
            j = pick(len(mu["window"]))
            mu["window"][j] = _scaled(mu["window"][j], factor)
    elif mutation == "weight":
        row = cert["weights_sq"][pick(len(cert["weights_sq"]))]
        j = pick(len(row))
        row[j] = _scaled(row[j], factor)
    elif mutation == "trunk":
        # every trunk square is a value the printed norm bounds
        cert["trunk_sq"][pick(len(cert["trunk_sq"]))] = format_scalar(
            (F(cert["norm_sq"]) + 1) * (1 + factor))
    elif mutation == "sequence":
        values = cert["sequences"][pick(len(cert["sequences"]))]["values"]
        j = pick(len(values))
        values[j] = _scaled(values[j], factor)
    elif mutation == "K":
        i = pick(len(cert["K"]))
        cert["K"][i] = format_scalar(F(cert["K"][i]) + (factor - 1))
    elif mutation == "norm_sq":
        # the printed norm is the largest value it bounds: a quarter of
        # the factor, at most 3/4, lowers it below that value
        cert["norm_sq"] = cert["norm_sq"] * float(factor / 4)
    else:  # the root measure's mass at zero, or one of its atoms
        root = cert["root_measure"]
        j = pick(len(root["atoms"]) + 1)
        if j == len(root["atoms"]):
            root["zero_mass"] = _scaled(root["zero_mass"], factor) if "zero_mass" in root \
                else "1/1000"
        else:
            root["atoms"][j]["m"] = _scaled(root["atoms"][j]["m"], factor)
    return cert


def test_the_files_print_every_certificate_kind():
    assert {json.loads(text)["kind"] for text in _printed()} == KINDS


def test_a_certificate_read_back_prints_the_fields_it_was_given():
    # the benchmark's `verify` files give no K, sequences or norm_sq, and
    # one in four has a forged mass
    given = [obj["certificate"] for stem, obj in _bench_corpus().cli_files(1)
             if stem.startswith("verify")]
    for blob in given + [json.loads(text) for text in _printed()]:
        cert = CompletionCertificate.from_json(blob)
        again = cert.to_json()
        assert set(again) == set(blob)
        try:
            cert.verify()
        except CertificateInvalid:
            continue
        assert CompletionCertificate.from_json(again).verify()


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_every_printed_certificate_verifies(tmp_path, arithmetic):
    for text in _printed():
        payload, code = _run(tmp_path, {"kind": "verify", "certificate": json.loads(text)},
                             arithmetic)
        assert code == 0 and payload["valid"], (text, payload)


@pytest.mark.parametrize("kind, mutation", CASES)
def test_each_claim_of_each_kind_is_checked(tmp_path, kind, mutation):
    # the first certificate of the kind that has the field, at its first place
    cert = next(cert for cert in map(json.loads, _printed())
                if cert["kind"] == kind and (mutation != "root" or _has_exact_root(cert)))
    cert = _mutated(cert, mutation, lambda n: 0, F(1, 2))
    payload, code = _run(tmp_path, {"kind": "verify", "certificate": cert})
    assert code == 1 and payload["valid"] is False, (mutation, payload)


@given(data=st.data(), mutation=st.sampled_from(MUTATIONS),
       factor=st.sampled_from(FACTORS), arithmetic=st.sampled_from(["exact", "float"]))
def test_a_mutated_claim_exits_1(tmp_path_factory, data, mutation, factor, arithmetic):
    printed = _printed()
    cert = json.loads(printed[data.draw(st.integers(0, len(printed) - 1), label="certificate")])
    assume(mutation != "root" or _has_exact_root(cert))
    cert = _mutated(cert, mutation, lambda n: data.draw(st.integers(0, n - 1)), factor)
    payload, code = _run(tmp_path_factory.mktemp("claims"),
                         {"kind": "verify", "certificate": cert}, arithmetic)
    assert code == 1 and payload["valid"] is False, (mutation, factor, payload)


def test_norm_sq_below_an_irrational_atom_is_refused(tmp_path):
    # norm_sq lowered below the top atom of a recurrence measure, but not
    # below the branching mass, a trunk square or an explicit atom: only the
    # Descartes count on the recurrence's polynomial sees it (its hint's top
    # position lies within 2^-24, relative, above the atom)
    refused = 0
    for text in _printed():
        cert = json.loads(text)
        others = [sum(F(row[0]) for row in cert["weights_sq"]), *map(F, cert["trunk_sq"])]
        others += [F(mu["atoms"][-1]["x"]) for mu in cert["measures"] if "atoms" in mu]
        for i, mu in enumerate(cert["measures"], start=1):
            if "recurrence" not in mu or cert["kind"] != "subnormal":
                continue
            below = float(F(mu["atoms_approx"]["atoms"][-1]["x"]) * (1 - F(1, 2 ** 20)))
            if below < max(others):
                continue
            payload, code = _run(tmp_path, {"kind": "verify",
                                            "certificate": dict(cert, norm_sq=below)})
            assert code == 1, payload
            assert payload["error"] == f"violated: branch {i}: norm_sq bounds the measure's atoms"
            refused += 1
    assert refused
