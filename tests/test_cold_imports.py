"""What a cold command-line call loads, per problem kind.

A cold ``python -m momentkit.cli FILE`` compiles every module it imports
when no bytecode is cached, so each kind loads only the modules it runs.
Code that only the tree kinds, certificates or tests run lives in private
siblings (`_roots`, `_recurrence`, `_recovery`, `_extension`,
`_cli_trees`); the layers serve the public names among it on first use
(`momentkit._serve`).
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentkit

# the child interpreter imports the same momentkit as this test process
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(momentkit.__file__))

#: every cold call loads these: the package, `cli` (run as __main__ and
#: registered under its own name) and the window layers
WINDOW = {"momentkit", "cli", "_record", "errors", "measure", "numeric", "positivity"}
TREES = WINDOW | {"_cli_trees", "_recurrence", "alternating", "completion", "extremal",
                  "principal", "tree"}

#: CLI kind -> the exact set of momentkit modules a cold call of one of its
#: benchmark files loads, in exact and in float mode
LOADED = {
    "classify": WINDOW,
    "stampfli": WINDOW,
    "principal": WINDOW | {"principal"},
    "t-value": WINDOW | {"principal", "extremal"},
    "backward": WINDOW | {"principal", "extremal", "backward"},
    "ca": WINDOW | {"principal", "alternating"},
    "subnormal": TREES,
    "che": TREES,
    "flat-che": TREES,
    "verify": WINDOW | {"_cli_trees", "_recurrence", "tree"},
}

SIBLINGS = {"_roots", "_recurrence", "_recovery", "_extension", "_cli_trees"}
WINDOW_KINDS = ("classify", "stampfli", "principal", "t-value", "backward", "ca")

#: layer -> (its private sibling, the public names the layer serves from it)
SERVED = {
    "numeric": ("_roots", ("real_roots", "root_enclosures", "simplest_between",
                           "vandermonde_masses")),
    "measure": ("_recurrence", ("MomentRecurrence",)),
    "positivity": ("_recovery", ("compact_criterion_matrices", "ray_limit_matrices",
                                 "recover_minimal_measure", "recover_support_and_masses")),
    "backward": ("_extension", ("extend_with_index", "forced_value", "minimal_measure_window",
                                "minimal_measure_with_reciprocal", "reciprocal_moment")),
}

#: one cold call as ``python -m momentkit.cli`` makes it (`cli` runs as
#: __main__), printing the momentkit modules loaded on its last line
COLD_CALL = (
    "import runpy, sys\n"
    "sys.argv = ['momentkit', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('momentkit.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    "    pass\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'momentkit'))\n")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def _bench_corpus():
    """perfbench/corpus.py, loaded from its file: the benchmark's seeded
    problem streams, built with the standard library alone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("momentkit_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loaded(path, *flags) -> set:
    proc = subprocess.run([sys.executable, "-c", COLD_CALL, str(path), *flags],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode in (0, 1, 2), proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1].replace("'", '"'))
    return {name.removeprefix("momentkit.") for name in names}


@pytest.mark.parametrize("kind", sorted(LOADED))
def test_a_cold_call_loads_exactly_what_its_kind_runs(tmp_path, kind):
    # the first two benchmark files of the kind (seed 1), as the cli
    # workload runs them cold, in both modes
    files = [obj for stem, obj in _bench_corpus().cli_files(1)
             if stem.rsplit("-", 1)[0] == kind][:2]
    assert len(files) == 2
    for i, obj in enumerate(files):
        path = tmp_path / f"{kind}-{i}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for flags in ((), ("--float",)):
            loaded = _loaded(path, *flags)
            assert loaded == LOADED[kind], (flags, sorted(loaded ^ LOADED[kind]))
            if kind in WINDOW_KINDS:
                assert not loaded & SIBLINGS


def test_each_served_name_is_its_siblings_own_object():
    # in a fresh interpreter: before its first access a served name is in
    # dir() but not yet in the namespace; getattr binds the sibling's object
    code = [f"import importlib\nserved = {SERVED!r}\n",
            "for layer, (sibling, names) in served.items():\n",
            "    module = importlib.import_module('momentkit.' + layer)\n",
            "    for name in names:\n",
            "        assert name not in vars(module) and name in dir(module), name\n",
            "        home = importlib.import_module('momentkit.' + sibling)\n",
            "        assert getattr(module, name) is getattr(home, name), name\n",
            "        assert vars(module)[name] is getattr(home, name), name\n",
            "from momentkit.measure import MomentRecurrence\n",
            "from momentkit._recurrence import MomentRecurrence as home\n",
            "assert MomentRecurrence is home\n"]
    proc = subprocess.run([sys.executable, "-c", "".join(code)], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("layer", sorted(SERVED))
def test_a_name_no_sibling_serves_is_an_attribute_error(layer):
    module = importlib.import_module(f"momentkit.{layer}")
    assert set(SERVED[layer][1]) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")
