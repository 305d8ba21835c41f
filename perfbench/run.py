"""Benchmark entry point.

    python3 perfbench/run.py --workload windows --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/` there.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`); the lines before it
print every metric by name and unit.  An operation that raises, returns a
wrong answer or a certificate that fails re-verification is counted in
`failed`; `correct` is false when some output could not be checked at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("windows", "subnormal", "che", "cli")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "momentkit" / "__init__.py").is_file():
        print(f"perfbench: no momentkit sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import momentkit
    if Path(momentkit.__file__).resolve().parent != (src / "momentkit").resolve():
        print(f"perfbench: momentkit imported from {momentkit.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads
    from metrics import UNITS
    tally, values, notes = workloads.run(ROOT, args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in values.items()}
    for name, m in metrics.items():
        print(f"{args.workload:<10} {name:<48} {m['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload:<10} {note}")
    print(f"{args.workload:<10} attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({"correct": tally.unchecked == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
