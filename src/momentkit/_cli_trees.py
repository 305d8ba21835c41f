"""Command-line handlers of the tree kinds (`subnormal`, `che`,
`flat-che`, `probe-kappa-inf`) and of `verify`, the certificate reader.

`cli.run` imports this module when a file of one of these kinds comes, so
a window kind's call does not compile it; it reads its files with `cli`'s
readers.  Each handler imports the layers it uses when it runs, as `cli`'s
own handlers do: a `verify` file loads the verifiers in `tree` but not the
completion search.
"""

from __future__ import annotations

from fractions import Fraction

from ._recurrence import MomentRecurrence
from .cli import (EXIT_NEGATIVE, EXIT_OK, EXIT_UNKNOWN, InputError, _as_list, _field, _int,
                  _parse_seq, _parsed, _scalar)
from .errors import MomentKitError
from .measure import AtomicMeasure
from .numeric import Polynomial


def _branch(items, exact):
    """The weights of one branch, a nonempty list."""
    vals = _parse_seq(items, exact)
    if not vals:
        raise InputError("empty branch")
    return vals


def _partial_weights(obj, exact):
    from .tree import BranchClass, PartialWeights
    if "trunk_sq" in obj:
        trunk_sq = _parse_seq(obj["trunk_sq"], exact)
    else:
        trunk = _parse_seq(_field(obj, "trunk", []), exact)
        trunk_sq = [t * t for t in trunk]
    classes = []
    if "branch_l1_sq_sum" in obj:
        classes.append(BranchClass(_scalar(obj["branch_l1_sq_sum"], exact), (), None))
    for spec in _as_list(_field(obj, "classes", [])):
        first = _scalar(_field(spec, "first_sq"), exact)
        tail = _parse_seq(_field(spec, "tail_sq", []), exact)
        classes.append(BranchClass(first, tuple(tail), spec.get("count", 1)))
    for br in _as_list(_field(obj, "branches_sq", [])):
        vals = _branch(br, exact)
        classes.append(BranchClass(vals[0], tuple(vals[1:]), 1))
    for br in _as_list(_field(obj, "branches", [])):
        vals = _branch(br, exact)
        classes.append(BranchClass(vals[0] * vals[0],
                                   tuple(v * v for v in vals[1:]), 1))
    return PartialWeights(trunk_sq, classes)


def _k_arg(obj):
    k = _field(obj, "K", "auto")
    if k == "auto":
        return "auto"
    return [_parsed(lambda v: Fraction(str(v)), v) for v in _as_list(k)]


def _solve_payload(outcome) -> tuple:
    from .completion import SolveStatus
    payload = {"status": outcome.status.value}
    if outcome.reason:
        payload["reason"] = outcome.reason
    if outcome.certificate is not None:
        payload["certificate"] = outcome.certificate.to_json()
    code = {SolveStatus.FEASIBLE: EXIT_OK, SolveStatus.INFEASIBLE: EXIT_NEGATIVE,
            SolveStatus.UNKNOWN: EXIT_UNKNOWN}[outcome.status]
    return payload, code


def _run_subnormal(obj, exact, options):
    from .completion import solve_subnormal
    return _solve_payload(solve_subnormal(_partial_weights(obj, exact), _k_arg(obj)))


def _run_che(obj, exact, options):
    from .completion import solve_che
    return _solve_payload(solve_che(_partial_weights(obj, exact), _k_arg(obj)))


def _run_flat_che(obj, exact, options):
    from .completion import flat_che_completion
    return _solve_payload(flat_che_completion(_partial_weights(obj, exact)))


def _run_probe(obj, exact, options):
    from .completion import kappa_infinite_probe
    trunk_sq = _parse_seq(_field(obj, "trunk_sq"), exact)
    pw = _partial_weights({**obj, "trunk_sq": []}, exact)
    report = kappa_infinite_probe(trunk_sq, pw.classes, _int(obj, "kappa_max"),
                                  _k_arg(obj))
    payload = {"verdict": report.verdict,
               "per_kappa": [{"kappa": k, "status": s, "norm_sq": n}
                             for k, s, n in report.per_kappa]}
    if report.uniform_norm_sq is not None:
        payload["uniform_norm_sq"] = report.uniform_norm_sq
    code = {"FeasibleTowardInfinity": EXIT_OK, "Infeasible": EXIT_NEGATIVE,
            "Unknown": EXIT_UNKNOWN}[report.verdict]
    return payload, code


def _rebuild_measure(obj, exact):
    recurrence = _field(obj, "recurrence", None)
    if recurrence is not None:
        poly = Polynomial(_parse_seq(recurrence, exact))
        window = _parse_seq(_field(obj, "window"), exact)
        hint = None
        if "atoms_approx" in obj:
            hint = _parsed(lambda o: AtomicMeasure.from_json(o, exact), obj["atoms_approx"])
        return MomentRecurrence(poly, _int(obj, "first_index"), window, hint)
    return _parsed(lambda o: AtomicMeasure.from_json(o, exact), obj)


def _run_verify(obj, exact, options):
    from .tree import (FullBranch, FullWeights, GeometricSumTail, MeasureTail,
                       verify_che_certificate, verify_subnormal_certificate)
    cert = _field(obj, "certificate")
    trunk_sq = _parse_seq(_field(cert, "trunk_sq"), exact)
    kind = _field(cert, "kind")
    if kind not in ("subnormal", "che", "che-flat"):
        raise InputError(f"unknown certificate kind {kind!r}")
    subnormal = kind == "subnormal"
    if not subnormal:  # a subnormal certificate has no mass at zero to read
        from .alternating import CAMeasure
    measures = []
    for measure_obj in _as_list(_field(cert, "measures")):
        mu = _rebuild_measure(measure_obj, exact)
        if not subnormal:
            mu = CAMeasure(_scalar(_field(measure_obj, "zero_mass", "0"), exact), mu)
        measures.append(mu)
    classes = []
    # one class per row, even past the last measure: the verifier then
    # refuses a certificate whose measures and rows differ in number
    for i, row in enumerate(_as_list(_field(cert, "weights_sq"))):
        row = _branch(row, exact)
        p = _int(obj, "p", _field(cert, "p", len(row)))
        mu = measures[i] if i < len(measures) else None
        gen = MeasureTail(row[1:p], mu) if subnormal else GeometricSumTail(row[1:p], mu)
        classes.append(FullBranch(row[0], gen, 1))
    full = FullWeights(trunk_sq, classes)
    depth = _parsed(int, options.get("depth", 12))
    verifier = verify_subnormal_certificate if subnormal else verify_che_certificate
    try:
        verifier(full, measures, depth)
    except MomentKitError as exc:
        return {"valid": False, "error": str(exc)}, EXIT_NEGATIVE
    return {"valid": True, "depth": depth}, EXIT_OK
