"""Names, units and directions of every metric the benchmark emits.

`BENCHMARK.json` at the repository root lists the same names; the self-test
checks that the two agree.  Every workload emits every end-to-end metric
with `--trace 0` and every per-layer metric with `--trace 1`; a per-layer
metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("problems_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("decided_share", "share", "higher", 0.12),
    ("correct_share", "share", "higher", 0.12),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: percentile reported as latency_tail_ms, fixed per workload so that two
#: commits compare the same statistic: the highest that keeps at least ten
#: samples beyond it and whose spread over ten seeds stayed within a third
#: of the bound (`subnormal` latencies fall into modes whose shares move
#: from seed to seed, so p66 and above moved by 10-20%); the run's output
#: lists the LADDER as well
TAIL_PERCENTILE = {"windows": 95, "subnormal": 60, "che": 75, "cli": 75}
LADDER = (50, 75, 90, 95, 99)

TIMED = (
    "numeric.real_roots", "numeric.det_poly", "numeric.det",
    "numeric.classify_form", "numeric.vandermonde_masses",
    "positivity.classify_ray", "positivity.classify_half_open",
    "positivity.classify_compact",
    "principal.bordered_hankel_poly", "principal.principal_polynomial",
    "principal.measure_from_poly",
    "backward.forced_value", "backward.minimal_measure_window",
    "alternating.has_ca_extension",
    "tree.verify_subnormal_certificate", "tree.verify_che_certificate",
)


def _per_layer():
    out = []
    for name in TIMED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("numeric.simplest_between.calls", "count", "lower"),
        ("positivity.classify_ray.nonstrict_self_s", "s", "lower"),
        ("extremal.reciprocal_inf_ray.calls", "count", "lower"),
        ("extremal.reciprocal_inf_ray.even_calls", "count", "lower"),
        ("extremal.reciprocal_inf_ray.float_calls", "count", "lower"),
        ("extremal.reciprocal_inf_ray.total_s", "s", "lower"),
        ("extremal.compact_reciprocal_values.calls", "count", "lower"),
        ("completion.solve_subnormal.self_s", "s", "lower"),
        ("completion.solve_che.self_s", "s", "lower"),
        ("completion.flat_che_completion.calls", "count", "lower"),
        ("completion.feasible", "count", "higher"),
        ("completion.infeasible", "count", "higher"),
        ("completion.unknown", "count", "lower"),
        ("completion.useful_share", "share", "higher"),
        ("tree.verify64_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.numpy_on_import", "count", "lower"),
        ("cli.run_s", "s", "lower"),
        ("cli.process_overhead_ms", "ms", "lower"),
        ("cli.batch.busy_share", "share", "higher"),
    ]
    for layer in ("numeric", "positivity", "principal", "extremal", "backward",
                  "alternating", "completion", "tree", "bench"):
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [
        ("trace.overhead_share", "share", "lower"),
        ("trace.accounted_share", "share", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("unknown_share", "share", "lower"),
        ("failed_share", "share", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
