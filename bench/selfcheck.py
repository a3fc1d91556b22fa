"""Self-test of the benchmark's output checks.

Runs one real op of each checked kind, confirms its true output passes, then
perturbs the output (a prevision off by 1e-3, a flipped verdict, a wrong exit
code, ...) and confirms the check flags it.  Run from the root of a source
checkout::

    python3 bench/selfcheck.py

It then feeds the run's correctness gate exceptions in place of outputs: an
exception in a timed op makes the run incorrect, whatever it is; among the
untimed ``credal`` probe ops, a ``numerical_failure`` on a singleton
prevision or membership is the known failure, while any other exception, or
the same one on a coherence question, makes the run incorrect.

It also hand-counts the SDP solves of one traced ``lower_prevision`` on a
coherent set: the tracer's ``sdp.solve`` spans under the prevision span must
equal the number of calls a plain counter on the solver core sees.

Exits 0 when every perturbation is flagged, the gate holds and the counts
agree, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402

import run as bench_run  # noqa: E402
from pcoh.errors import SolverFailure, ValidationError  # noqa: E402
from workloads import cli, credal, moments, separability  # noqa: E402


def _bump(key, delta=1e-3):
    def perturb(out):
        out[key] = out[key] + delta
        return out
    return perturb


def _flip(key):
    def perturb(out):
        out[key] = not out[key]
        return out
    return perturb


def _zero_multipliers(out):
    out["lam"] = np.zeros_like(out["lam"])
    return out


def _cli_json(path, delta):
    def perturb(out):
        report = json.loads(out["stdout"])
        node = report["results"]
        *parents, leaf = path.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = (not node[leaf]) if isinstance(node[leaf], bool) else node[leaf] + delta
        out["stdout"] = json.dumps(report)
        return out
    return perturb


def _exit_code(code):
    def perturb(out):
        out["code"] = code
        return out
    return perturb


def _ops(wl):
    """The workload's round 0 and, for credal, its probe ops."""
    return wl.round(0) + (wl.probe_ops() if hasattr(wl, "probe_ops") else [])


# (workload class, predicate picking the op, perturbation, what it shows)
CASES = (
    (credal.Workload, lambda op: op.kind == "lower" and op.inputs["family"] == "singleton"
     and op.inputs["dims"] == (2, 2), _bump("value"), "singleton lower prevision off by 1e-3"),
    (credal.Workload, lambda op: op.kind == "upper" and op.inputs["family"] == "interior",
     _bump("value", 10.0), "interior upper prevision outside its bounds"),
    (credal.Workload, lambda op: op.inputs["family"] == "incoherent" and op.inputs["dims"] == (2, 2),
     _zero_multipliers, "Dutch book with zero stakes"),
    (credal.Workload, lambda op: op.kind == "extension" and op.inputs["family"] == "interior",
     _flip("member"), "flipped natural-extension membership"),
    (separability.Workload, lambda op: op.kind == "ppt", _flip("is_ppt"), "flipped PPT verdict"),
    (separability.Workload, lambda op: op.kind == "search" and op.inputs["dims"] == (2, 3),
     _bump("value"), "search value off the form at its argmin"),
    (separability.Workload, lambda op: op.kind == "verify", _flip("ok"), "rejected witness"),
    (moments.Workload, lambda op: op.kind == "sos" and op.inputs["is_sos"],
     lambda out: {"verdict": out["verdict"].__class__(False, -1.0, None, {}, -1.0)},
     "flipped SOS verdict"),
    (moments.Workload, lambda op: op.kind == "charge", _bump("residual"), "fit residual off by 1e-3"),
    (moments.Workload, lambda op: op.kind == "charge" and not op.inputs["feasible"],
     _flip("feasible"), "Bell state reported nonnegatively fittable"),
    (cli.Workload, lambda op: op.kind == "prevision", _cli_json("value", 1e-3),
     "CLI prevision off by 1e-3"),
    (cli.Workload, lambda op: op.kind == "sos", _cli_json("is_sos", 0), "CLI flipped SOS verdict"),
    (cli.Workload, lambda op: op.kind == "bad_state", _exit_code(1), "bad input exiting 1"),
)


_NUMERICAL = SolverFailure("prevision solve ended with status numerical_failure")


def _singleton(kind):
    return lambda op: op.kind == kind and op.inputs["family"] == "singleton"


# (workload class, predicate picking the op, exception it raises, judged as a probe op?,
#  expected ``how``)
GATE_CASES = (
    (credal.Workload, _singleton("lower"), _NUMERICAL, True, "known"),
    (credal.Workload, _singleton("extension"),
     SolverFailure("feasibility solve ended with status numerical_failure"), True, "known"),
    (credal.Workload, _singleton("upper"),
     SolverFailure("strong duality violated in prevision solve"), True, "raised"),
    (credal.Workload, _singleton("upper"), TypeError("unexpected argument"), True, "raised"),
    (credal.Workload, _singleton("coherence"), _NUMERICAL, True, "raised"),
    (credal.Workload, lambda op: op.kind == "lower", _NUMERICAL, False, "raised"),
    (separability.Workload, lambda op: op.kind == "ppt", _NUMERICAL, False, "raised"),
    (moments.Workload, lambda op: op.kind == "sos", ValidationError("bad polynomial"), False,
     "raised"),
)


def gate_failures(made):
    """Number of gate checks that do not hold."""
    bad = 0
    failures = []
    for cls, pick, exc, probe, want in GATE_CASES:
        if cls not in made:
            made[cls] = cls(7, ROOT)
        wl = made[cls]
        op = next(o for o in _ops(wl) if pick(o))

        def raising(_op, exc=exc):
            raise exc

        wl.run = raising
        try:
            failure = bench_run.run_op(wl, op, wl.known_failure if probe else None)[1]
        finally:
            del wl.run
        failures.append(failure)
        ok = failure is not None and failure["how"] == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {op.id} ({op.kind}, {op.inputs.get('family', '-')}) "
              f"raising {type(exc).__name__} {'in the probe' if probe else 'timed'}: "
              f"{failure and failure['how']}, expected {want}")
    known = [f for f in failures if f["how"] == "known"]
    raised = [f for f in failures if f["how"] == "raised"]
    verdicts = (
        ("only known probe failures", bench_run.is_correct([], None, known), True),
        ("one other probe failure", bench_run.is_correct([], None, known + raised[:1]), False),
        ("one failed timed op", bench_run.is_correct(raised[-1:], None, []), False),
        ("a failed warm-up op", bench_run.is_correct([], raised[-1], []), False),
    )
    for what, got, want in verdicts:
        bad += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} correct with {what}: {got}, expected {want}")
    return bad


def traced_solve_count():
    """(solves the tracer saw under one lower_prevision, solves the solver core ran)."""
    import tracing
    from pcoh import sdp

    wl = credal.Workload(7, ROOT)
    op = next(o for o in wl.round(0) if o.kind == "lower" and o.inputs["family"] == "interior")
    core = sdp._solve_core
    calls = []

    def counting_core(*args, **kwargs):
        calls.append(1)
        return core(*args, **kwargs)

    tracer = tracing.Tracer()
    tracer.install()
    sdp._solve_core = counting_core
    try:
        wl.run(op)
    finally:
        sdp._solve_core = core
    seen = tracing.layer_metrics(tracer.spans, 1, 1.0)["gambles.solves_per_prevision"]
    return seen, len(calls)


def main():
    made = {}
    failures = 0
    try:
        for cls, pick, perturb, what in CASES:
            if cls not in made:
                made[cls] = cls(7, ROOT)
            wl = made[cls]
            op = next(o for o in _ops(wl) if pick(o))
            out = wl.run(op)
            clean = wl.check(op, out)
            flagged = wl.check(op, perturb(copy.deepcopy(out)))
            ok = clean is None and flagged is not None
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {what}: clean -> {clean}; perturbed -> {flagged}")
        print(f"{len(CASES) - failures}/{len(CASES)} perturbations flagged")
        gate_bad = gate_failures(made)
    finally:
        for wl in made.values():
            if hasattr(wl, "close"):
                wl.close()
    seen, ran = traced_solve_count()
    print(f"{'ok  ' if seen == ran else 'FAIL'} one traced lower_prevision: "
          f"{seen:g} sdp.solve spans under it, {ran} solver-core calls")
    return 1 if failures or gate_bad or seen != ran else 0


if __name__ == "__main__":
    sys.exit(main())
