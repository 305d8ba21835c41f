"""Command-line front end: problem files in, JSON verdicts out.

Exit codes: 0 feasible/positive/valid, 1 infeasible/not-positive/invalid,
2 unknown, 3 input error.  All scalars travel as strings ("p/q" or decimal)
so exact values survive the round trip.

A cold call compiles only what its problem kind runs.  Importing this
module loads the window layers (`numeric`, `measure`, `positivity`); every
other layer is imported inside the handler that uses it.  The handlers of
the tree kinds and of `verify` live in `_cli_trees`, which `run` imports
when a file of such a kind comes.  Code that only those kinds, certificates
or tests run lives in private siblings of the layers (`_roots`,
`_recurrence`, `_recovery`, `_extension`), whose public names the layers
serve on first use (`momentkit._serve`).  So a `classify` or `stampfli`
file loads neither `completion` nor `tree` nor a sibling, and only the
`oracle` kind loads numpy.

`--batch DIR` solves the directory's files one after another in this
process, in sorted order, so each layer is imported once per batch.  A
small batch is done before a worker pool would have started: at 80 benchmark
files the solving took about 45 ms, and a pool added about 110 ms of
imports, round trips and per-worker imports on two cores.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import MomentKitError
from .measure import AtomicMeasure
from .numeric import format_scalar, parse_scalar
from .positivity import (Compact, HalfOpen, PositivityClass, Ray, _verdict_index, classify,
                         stampfli_check)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class InputError(Exception):
    """The problem file does not parse (exit code 3).  Only the parsing
    helpers below raise it, so no error inside a solver passes for one."""


def _field(obj, key, default=...):
    """obj[key] of a JSON object; `default` when the key is absent."""
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object, got {obj!r}")
    if key not in obj and default is ...:
        raise InputError(f"missing field {key!r}")
    return obj.get(key, default)


def _parsed(parse, value):
    """parse(value); any error a parsing function raises means bad input."""
    try:
        return parse(value)
    except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {value!r}: {type(exc).__name__}: {exc}") from None


def _as_list(items):
    if not isinstance(items, list):
        raise InputError(f"expected a list, got {items!r}")
    return items


def _scalar(value, exact):
    return _parsed(lambda v: parse_scalar(str(v), exact), value)


def _int(obj, key, default=...):
    return _parsed(int, _field(obj, key, default))


def _parse_seq(items, exact):
    return [_scalar(v, exact) for v in _as_list(items)]


def _domain(obj, exact):
    kind = _field(obj, "domain", "ray")
    if kind == "ray":
        return Ray()
    if kind in ("half-open", "half_open", "(0,1]"):
        return HalfOpen()
    if kind == "compact":
        return Compact(_scalar(_field(obj, "a"), exact), _scalar(_field(obj, "b"), exact))
    raise InputError(f"unknown domain {kind!r}")


def _run_classify(obj, exact, options):
    seq = _parse_seq(_field(obj, "sequence"), exact)
    domain = _domain(obj, exact)
    eps = _parsed(float, options["tolerance"])
    verdict = classify(seq, domain, eps=eps)
    payload = {"class": verdict.kind.value}
    if verdict.is_positive:
        payload["index"] = format_scalar(_verdict_index(seq, verdict, domain, eps))
    code = EXIT_OK if verdict.is_positive else EXIT_NEGATIVE
    return payload, code


def _run_principal(obj, exact, options):
    from .principal import (PrincipalKind, minimal_measure_half_open, minimal_measure_ray,
                            principal_compact)
    seq = _parse_seq(_field(obj, "sequence"), exact)
    domain = _domain(obj, exact)
    if isinstance(domain, Compact):
        mu = principal_compact(seq, domain.a, domain.b, PrincipalKind.LOWER)
        upper = principal_compact(seq, domain.a, domain.b, PrincipalKind.UPPER)
        return {"measure": mu.to_json(), "upper": upper.to_json()}, EXIT_OK
    if isinstance(domain, Ray):
        mu = minimal_measure_ray(seq)
        if not isinstance(mu, AtomicMeasure):
            return {"family": "minimal measures parametrized by the reciprocal moment",
                    "atom_count": mu.atom_count}, EXIT_OK
    else:
        mu = minimal_measure_half_open(seq)
    return {"measure": mu.to_json()}, EXIT_OK


def _run_t_value(obj, exact, options):
    from .extremal import (reciprocal_extremes_compact, reciprocal_inf_half_open,
                           reciprocal_inf_ray, unbounded_reciprocal_witness)
    seq = _parse_seq(_field(obj, "sequence"), exact)
    domain = _domain(obj, exact)
    if isinstance(domain, Ray):
        payload = {"t_inf": format_scalar(reciprocal_inf_ray(seq))}
        if "sup_target" in obj:
            a, b = unbounded_reciprocal_witness(seq, _scalar(obj["sup_target"], exact))
            payload["sup_witness"] = {"a": format_scalar(a), "b": format_scalar(b)}
    elif isinstance(domain, HalfOpen):
        payload = {"t_one": format_scalar(reciprocal_inf_half_open(seq))}
    else:
        bounds = reciprocal_extremes_compact(seq, domain.a, domain.b)
        payload = {"t_lo": format_scalar(bounds.t_lo), "t_hi": format_scalar(bounds.t_hi),
                   "attained_lo": bounds.attained_lo.to_json(),
                   "attained_hi": bounds.attained_hi.to_json()}
    return payload, EXIT_OK


def _run_backward(obj, exact, options):
    from .backward import ExtensionClass, classify_backward
    seq = _parse_seq(_field(obj, "sequence"), exact)
    domain = _domain(obj, exact)
    if "x" in obj:
        verdict = classify_backward(seq, _scalar(obj["x"], exact), domain)
        payload = {"class": verdict.kind.value, "threshold": format_scalar(verdict.threshold)}
        if verdict.measure is not None:
            payload["measure"] = verdict.measure.to_json()
        code = EXIT_OK if verdict.kind is not ExtensionClass.NOT_EXTENSION else EXIT_NEGATIVE
        return payload, code
    from ._extension import extend_with_index
    sequence, measure = extend_with_index(
        seq, _int(obj, "r"), _parsed(lambda v: Fraction(str(v)), _field(obj, "K")),
        _parse_seq(_field(obj, "free", []), exact), domain)
    payload = {"extension": sequence.to_json()}
    if measure is not None:
        payload["measure"] = measure.to_json()
    return payload, EXIT_OK


def _run_ca(obj, exact, options):
    from .alternating import ca_backward_extend, has_ca_extension
    seq = _parse_seq(_field(obj, "sequence"), exact)
    verdict = has_ca_extension(seq)
    payload = {"has_extension": verdict.has_extension}
    if verdict.measure is not None:
        payload["measure"] = verdict.measure.to_json()
    if not verdict.has_extension:
        return payload, EXIT_NEGATIVE
    if "prefix" in obj:
        result = ca_backward_extend(seq, _parse_seq(obj["prefix"], exact))
        payload["backward"] = {"ok": result.ok}
        if result.rho is not None:
            payload["backward"]["measure"] = result.rho.to_json()
            payload["backward"]["zero_mass_is_zero"] = result.zero_mass_is_zero
        if result.violated:
            payload["backward"]["violated"] = result.violated
        if not result.ok:
            return payload, EXIT_NEGATIVE
    return payload, EXIT_OK


def _run_stampfli(obj, exact, options):
    squared = "weights_sq" in obj
    vals = _parse_seq(_field(obj, "weights_sq" if squared else "weights"), exact)
    if len(vals) != 4:
        raise InputError(f"stampfli takes four weights, got {len(vals)}")
    verdict = stampfli_check(*vals, squared=squared)
    payload = {"holds": verdict.holds, "lhs": format_scalar(verdict.lhs),
               "rhs": format_scalar(verdict.rhs)}
    return payload, EXIT_OK if verdict.holds else EXIT_NEGATIVE


def _run_oracle_verify(obj, exact, options):
    from .oracle import OracleConfig, grid_classify, sweep_reciprocal  # loads numpy
    seq = _parse_seq(_field(obj, "sequence"), True)
    domain = _domain(obj, True)
    cfg = OracleConfig(resolution=_int(obj, "resolution", 700),
                       grid_q=_int(options, "grid_q", 12),
                       seed=_int(options, "seed", 0))
    verdict = grid_classify(seq, domain, cfg)
    payload = {"grid_class": verdict.value}
    if verdict is not PositivityClass.NOT_POSITIVE and not isinstance(domain, Compact):
        lo, hi = sweep_reciprocal(seq, domain, cfg)
        payload["sweep_min"] = lo
        payload["sweep_max"] = hi
    code = EXIT_OK if verdict is not PositivityClass.NOT_POSITIVE else EXIT_NEGATIVE
    return payload, code


#: problem kind -> its handler, or the name of its handler in `_cli_trees`,
#: which `run` imports when a file of that kind comes
_HANDLERS = {
    "classify": _run_classify,
    "principal": _run_principal,
    "t-value": _run_t_value,
    "backward": _run_backward,
    "ca": _run_ca,
    "subnormal": "_run_subnormal",
    "che": "_run_che",
    "flat-che": "_run_flat_che",
    "probe-kappa-inf": "_run_probe",
    "stampfli": _run_stampfli,
    "verify": "_run_verify",
    "oracle": _run_oracle_verify,
}


def run(path, flags=None) -> tuple:
    """Process one problem file; returns (payload dict, exit code)."""
    flags = flags or argparse.Namespace(float=False, tolerance=1e-9, depth=12, seed=0)
    started = time.time()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return {"error": {"kind": "input", "message": str(exc)}}, EXIT_INPUT
    options = {"tolerance": flags.tolerance, "depth": flags.depth, "seed": flags.seed}
    try:
        exact = _field(obj, "arithmetic", "float" if flags.float else "exact") == "exact"
        options.update(_parsed(dict, _field(obj, "options", {})))
        kind = _field(obj, "kind", None)
        handler = _HANDLERS.get(kind) if isinstance(kind, str) else None
        if handler is None:
            raise InputError(f"unknown problem kind {kind!r}")
        if isinstance(handler, str):
            from . import _cli_trees
            handler = getattr(_cli_trees, handler)
        payload, code = handler(obj, exact, options)
    except InputError as exc:
        return {"error": {"kind": "input", "message": str(exc)}}, EXIT_INPUT
    except MomentKitError as exc:
        return {"error": {"kind": type(exc).__name__, "message": str(exc)}}, EXIT_NEGATIVE
    payload["elapsed_s"] = round(time.time() - started, 6)
    return payload, code


def _process_one(path, flags):
    """Solve one batch file and write its payload next to it as
    <stem>.result.json; returns (that path, exit code)."""
    payload, code = run(path, flags)
    out_path = Path(path).with_suffix(".result.json")
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(out_path), code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="momentkit",
        description="truncated moment problems, backward extensions, and "
                    "weighted-shift completion certificates")
    ap.add_argument("problem", nargs="?", help="problem file (JSON)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="float", action="store_false",
                      help="exact rational arithmetic (default)")
    mode.add_argument("--float", dest="float", action="store_true",
                      help="floating arithmetic with tolerance")
    ap.set_defaults(float=False)
    ap.add_argument("--tolerance", type=float, default=1e-9)
    ap.add_argument("--depth", type=int, default=12,
                    help="generations checked where a certificate check does not "
                         "close finitely (infinite-trunk prefix, a generator not "
                         "derived from the certificate measure)")
    ap.add_argument("--seed", type=int, default=0)
    fmt = ap.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="pretty", action="store_false",
                     help="compact JSON output (default)")
    fmt.add_argument("--pretty", dest="pretty", action="store_true")
    ap.set_defaults(pretty=False)
    ap.add_argument("--batch", metavar="DIR",
                    help="process every *.json problem in a directory")
    args = ap.parse_args(argv)

    if args.batch:
        files = sorted(p for p in Path(args.batch).glob("*.json")
                       if not p.name.endswith(".result.json"))
        worst = EXIT_OK
        for path in files:
            out_path, code = _process_one(path, args)
            print(out_path)
            worst = max(worst, code)
        return worst

    if not args.problem:
        ap.error("a problem file (or --batch DIR) is required")
    payload, code = run(args.problem, args)
    indent = 2 if args.pretty else None
    print(json.dumps(payload, indent=indent))
    return code


if __name__ == "__main__":
    # `python -m momentkit.cli` runs this module as __main__; registered
    # under its own name as well, it is the module `_cli_trees` imports its
    # readers from, not a second copy compiled again, whose InputError
    # `run` would not catch
    sys.modules.setdefault("momentkit.cli", sys.modules[__name__])
    sys.exit(main())
