"""Span recorder for the traced run.

`Tracer.patched()` replaces each layer entry point listed in `ENTRY_POINTS`
with a wrapper that records one span per call: name, start, end, parent
span, problem id and an optional tag.  Every alias of the function is
replaced too: the names other momentkit modules imported
(`principal.det_poly`, `completion.classify_ray`, ...) and the fields of
module-level objects that hold it (`completion._RAY_OPS.classify`), so calls
between layers are caught.  Everything is restored on exit.

Spans stay in memory until `write()` stores them at the end of the run.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from collections import defaultdict

#: layer module -> public entry points wrapped in the traced run
ENTRY_POINTS = {
    "numeric": ("real_roots", "det_poly", "det", "classify_form",
                "vandermonde_masses", "simplest_between"),
    "positivity": ("classify_ray", "classify_half_open", "classify_compact",
                   "index", "recover_minimal_measure"),
    "principal": ("bordered_hankel_poly", "principal_polynomial",
                  "measure_from_poly", "minimal_measure_ray",
                  "minimal_measure_half_open", "principal_compact"),
    "extremal": ("reciprocal_inf_ray", "reciprocal_inf_half_open",
                 "reciprocal_extremes_compact", "compact_reciprocal_values"),
    "backward": ("classify_backward", "forced_value", "minimal_measure_window"),
    "alternating": ("has_ca_extension",),
    "completion": ("solve_subnormal", "solve_che", "flat_che_completion"),
    "tree": ("verify_subnormal_certificate", "verify_che_certificate"),
}
LAYERS = tuple(ENTRY_POINTS)


def _values(args):
    s = args[0] if args else ()
    return tuple(getattr(s, "values", s))


def _positivity_tag(args, result):
    return "strict" if result is not None and result.is_strict else "nonstrict"


def _ray_inf_tag(args, result):
    values = _values(args)
    if any(isinstance(v, float) for v in values):
        return "float"
    return "even" if len(values) > 1 and (len(values) - 1) % 2 == 0 else "odd"


TAGGERS = {
    "positivity.classify_ray": _positivity_tag,
    "positivity.classify_half_open": _positivity_tag,
    "extremal.reciprocal_inf_ray": _ray_inf_tag,
}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent, problem, tag)
        self.problem = None
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def wrap(self, name, fn, tagger=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = tagger(args, result) if tagger is not None else None
                spans[idx] = (name, start, end, parent, self.problem, tag)

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run benchmark code `fn(*args)` inside a span of its own."""
        return self.wrap(name, fn)(*args)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        for layer in LAYERS:
            importlib.import_module(f"momentkit.{layer}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "momentkit" or n.startswith("momentkit.")]
        try:
            for layer, names in ENTRY_POINTS.items():
                module = sys.modules[f"momentkit.{layer}"]
                for name in names:
                    orig = getattr(module, name)
                    full = f"{layer}.{name}"
                    self._replace_everywhere(modules, orig,
                                             self.wrap(full, orig, TAGGERS.get(full)))
            yield self
        finally:
            self.restore()

    def _replace_everywhere(self, modules, orig, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapper, orig)
                elif _is_package_object(value):
                    for field, inner in list(vars(value).items()):
                        if inner is orig:
                            self._set(value, field, wrapper, orig)

    def _set(self, owner, attr, value, orig):
        object.__setattr__(owner, attr, value)
        self._restore.append((owner, attr, orig))

    def restore(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            object.__setattr__(owner, attr, orig)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def aggregate(self):
        """Per-root, per-name totals.

        Returns (stats, self_total): stats[root name][span name] =
        {"calls", "total_s", "self_s", "tags": {tag: [calls, self_s]}}, where
        the root is the outermost span (`bench.problem` around a timed call,
        `bench.check` around the benchmark's own checks); self_total sums
        the self time of every span."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        stats = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "tags": defaultdict(lambda: [0, 0.0])}))
        self_total = 0.0
        for i, (name, start, end, _, _, tag) in enumerate(self.spans):
            duration = end - start
            own = duration - child[i]
            self_total += own
            entry = stats[self.spans[root[i]][0]][name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own
            if tag is not None:
                entry["tags"][tag][0] += 1
                entry["tags"][tag][1] += own
        return stats, self_total

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tproblem\ttag\n")
            for name, start, end, parent, problem, tag in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{problem}\t{tag or ''}\n")


def _is_package_object(value) -> bool:
    cls = type(value)
    return (cls.__module__.startswith("momentkit.") and hasattr(value, "__dict__")
            and not isinstance(value, type))
