"""pcoh benchmark: one workload, one seed, one timed closed loop.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload credal --seed 1 --seconds 20 --trace 0

Workloads: ``credal``, ``separability``, ``moments``, ``cli`` (see
``bench/workloads/``).  One client runs ops back to back in this process
(``cli`` runs one child process at a time).  Each op starts from raw
generated arrays (``cli``: generated JSON files), so building the library's
objects is part of the op, and every output is checked against a reference
computed with numpy alone.  The loop runs whole rounds of the workload's mix
until the summed time of every op run reaches ``--seconds`` and enough ops ran
to leave ten samples beyond the workload's tail percentile.  The ops are run
in ``PASSES`` passes (a workload constant): the first pass draws whole rounds
until its time reaches ``--seconds / PASSES``, the later passes run the same
ops again in the same order, and an op's latency is the least of its passes.
The shared host has slow phases, from a fraction of a second to half a
minute, in which the same code runs up to half again as long.  Two things
keep them out of the figures:

* every timing is put at a fixed machine pace: a small reference kernel
  (numpy ``eigh`` of a 48x48 matrix plus a short Python loop, least of
  three) runs just before and just after each op, and the op's wall time is
  multiplied by ``REFERENCE_S`` / the mean of the kernel's two times.  The
  benchmark and its children are pinned to one CPU, so that the kernel
  measures the core the op runs on.  ``REFERENCE_S`` is the kernel's time
  on an idle core of the host the baseline was taken on (2-vCPU Intel Xeon),
  so there the figures read as wall times of the fast phase;
* an op's latency is the least of its passes, which are spaced a third of
  the run apart.

The unscaled wall figures are printed and stored beside them.

BLAS is pinned to one thread, and the process, with every child it starts,
to the first CPU it may use, unless ``--blas-threads default`` is given.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
twice for half the time each, untraced then traced, and prints the per-layer
metrics, including ``trace.overhead`` (traced / untraced ops per second).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
``fail_ratio`` printed above it.  ``correct`` is false when any op, in any
pass, returned a wrong answer or raised an exception.  A workload with
``probe_ops`` (``credal``) also runs those once, untimed, after the loop:
they are the questions the program is known to fail on now and then, and the
run reports how many of them end in that known failure
(``Workload.known_failure``).  A wrong answer or another exception there
makes the run incorrect too.  A result file with the machine record goes to
``bench/results/``; traced runs also write the span file there.  The exit
code is 0 when the run completed (failed ops are reported, not fatal), 2
when the source tree is missing or an argument is wrong.

``bench/selfcheck.py`` shows that the output checks flag perturbed results;
``bench/baseline.py`` writes ``bench/baseline.json``: repeated runs of the
default seed, a traced run, two sets of ten seeds and a BLAS comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("credal", "separability", "moments", "cli")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # at least; spread over the run, before and after each pass
CLI_PROBES = 5
TAIL_SAMPLES = 10  # samples a run keeps beyond its tail percentile, however slow the host
REFERENCE_S = 0.25e-3  # the reference kernel's time on an idle core (2-vCPU Intel Xeon)
REFERENCE_REPEATS = 3
_REFERENCE = []  # the kernel's matrix, made on first use


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", default="1", help="BLAS threads, or 'default' to leave unset")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_environment(blas_threads):
    """Set the CPU, the BLAS thread count and PYTHONPATH for this process and its children."""
    if blas_threads != "default":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_VARS:
        if blas_threads == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = blas_threads
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")


def reference_s():
    """Least time of ``REFERENCE_REPEATS`` runs of the reference kernel: the host's pace now."""
    import numpy as np

    if not _REFERENCE:
        a = np.random.default_rng(0).standard_normal((48, 48))
        _REFERENCE.append(a + a.T)
        for _ in range(10):  # the first calls set up LAPACK's workspace and are slow
            np.linalg.eigh(_REFERENCE[0])
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        np.linalg.eigh(_REFERENCE[0])
        sum(i * i for i in range(400))
        best = min(best, time.perf_counter() - start)
    return best


def at_pace(seconds, reference):
    """A wall time put at the pace where the reference kernel takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference


def timed_child(cmd):
    """Wall seconds of one child process run to completion; raises if it fails."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return wall


def setup(args):
    """Import the workload's layers, generate round 0 and run one untimed warm-up op."""
    wl_mod = importlib.import_module(f"workloads.{args.workload}")
    wl = wl_mod.Workload(args.seed, ROOT)
    first = wl.round(0)
    return wl_mod, wl, first, run_op(wl, first[0])[1]


def run_op(wl, op, known=None):
    """Run and check one op: (seconds, None or a failure record).

    A failure's ``how`` is ``known`` for an exception the predicate ``known``
    accepts, ``raised`` for any other exception and ``wrong`` for an output
    that fails its check.
    """
    start = time.perf_counter()
    try:
        out = wl.run(op)
        err = None
    except Exception as exc:  # a raising op is a failed op, the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
        how = "known" if known is not None and known(op, exc) else "raised"
    elapsed = time.perf_counter() - start
    if err is None:
        how = "wrong"
        try:
            err = wl.check(op, out)
        except Exception as exc:  # output the check cannot even read is a wrong output
            err = f"check raised {type(exc).__name__}: {exc}"
    dims = op.inputs.get("dims")
    failure = {"op": op.id, "kind": op.kind, "dims": list(dims) if dims else None, "how": how,
               "reason": err[:300]} if err else None
    return elapsed, failure


def run_loop(wl, first_round, seconds, min_ops, passes, tracer=None, after_pass=None):
    """Closed loop, ``passes`` passes over one list of ops.  The first pass runs
    whole rounds until its time reaches ``seconds / passes`` and at least
    ``min_ops`` ops ran; the later passes run the same ops again, in the same
    order.  ``after_pass``, if given, is called after each pass.  Returns
    (each op's least time at the reference pace, each op's least wall time,
    each failed op's first failure, summed wall time of every op run)."""
    ops, best, wall, failed = [], [], [], {}
    busy = 0.0

    def timed(i, op):
        nonlocal busy
        if tracer is not None:
            tracer.op = op.id
        before = reference_s()
        elapsed, failure = run_op(wl, op)
        busy += elapsed
        best[i] = min(best[i], at_pace(elapsed, (before + reference_s()) / 2.0))
        wall[i] = min(wall[i], elapsed)
        if failure and i not in failed:
            failed[i] = failure

    rnd, batch = 0, first_round
    while busy < seconds / passes or len(ops) < min_ops:
        for op in batch:
            ops.append(op)
            best.append(math.inf)
            wall.append(math.inf)
            timed(len(ops) - 1, op)
        rnd += 1
        batch = wl.round(rnd)
    for n in range(passes):
        if n:
            for i, op in enumerate(ops):
                timed(i, op)
        if after_pass is not None:
            after_pass()
    return best, wall, [failed[i] for i in sorted(failed)], busy


def is_correct(failures, warm_failure, probe):
    """True when no timed op or warm-up failed and every probe failure is a known one."""
    return not failures and warm_failure is None and all(f["how"] == "known" for f in probe)


def run_probe(wl):
    """Each of the workload's ``probe_ops`` once, untimed: their failure records."""
    failures = []
    for op in wl.probe_ops():
        failure = run_op(wl, op, wl.known_failure)[1]
        if failure:
            failures.append(failure)
    return failures


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_record(args):
    import numpy as np
    from importlib import metadata

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pcoh")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": args.blas_threads,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": args.seed,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pcoh", "__init__.py")):
        print(f"bench: no pcoh source tree under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    pin_environment(args.blas_threads)
    sys.path[:0] = [BENCH, SRC]

    wl_mod, wl, first_round, warm_failure = setup(args)
    try:
        return 0 if args.setup_probe else measure(args, wl_mod, wl, first_round, warm_failure)
    finally:
        if hasattr(wl, "close"):
            wl.close()


def measure(args, wl_mod, wl, first_round, warm_failure):
    probe_cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "1", "--blas-threads", args.blas_threads,
                 "--setup-probe"]
    # set-up is timed in fresh processes, a few at a time before and after each pass,
    # so that the host's slow phases, which last seconds, do not catch them all
    passes = wl_mod.PASSES
    setup_walls, setup_paced = [], []

    def probe_setup():
        for _ in range(math.ceil(SETUP_PROBES / (passes + 1))):
            before = reference_s()
            setup_walls.append(timed_child(probe_cmd))
            setup_paced.append(at_pace(setup_walls[-1], (before + reference_s()) / 2.0))

    probe_setup()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    seconds = args.seconds / 2.0 if args.trace else args.seconds
    tail_q = wl_mod.TAIL_PERCENTILE
    min_ops = math.ceil(TAIL_SAMPLES / (1.0 - tail_q / 100.0)) + 1
    latencies, walls, failures, _ = run_loop(wl, first_round, seconds, min_ops, passes,
                                             after_pass=probe_setup)
    ops_per_s = len(latencies) / sum(latencies)
    tail = percentile(latencies, tail_q)
    wall_figures = {
        "ops_per_s": len(walls) / sum(walls),
        "op_ms_p50": statistics.median(walls) * 1000.0,
        "op_ms_tail": percentile(walls, tail_q) * 1000.0,
        "setup_s": statistics.median(setup_walls),
    }
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args),
        "setup_probe_s": setup_walls,
        "setup_probe_paced_s": setup_paced,
        "reference_s": REFERENCE_S,
        "unpaced": wall_figures,
        "warm_up_failure": warm_failure,
        "tail_percentile": tail_q,
        "passes": passes,
        "tail_samples_beyond": sum(1 for v in latencies if v > tail),
    }
    if not args.trace:
        peak_kb = wl.peak_rss_kb() if hasattr(wl, "peak_rss_kb") else resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (statistics.median(latencies) * 1000.0, "ms"),
            "op_ms_tail": (tail * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_paced), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        if hasattr(wl, "tracer"):
            wl.tracer = tracer
        t0 = time.perf_counter()
        t_lat, _, t_fail, t_busy = run_loop(wl, wl.round(0), seconds, min_ops, passes, tracer)
        layer = tracing.layer_metrics(tracer.spans, len(t_lat) * passes, t_busy)
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracing.span_records(tracer.spans, t0), fh)
        bare = [sys.executable, "-c", "pass"]
        importer = [sys.executable, "-c", "import pcoh.cli"]
        interp = statistics.median(timed_child(bare) for _ in range(CLI_PROBES))
        imported = statistics.median(timed_child(importer) for _ in range(CLI_PROBES))
        layer["cli.interp_ms"] = interp * 1000.0
        layer["cli.import_ms"] = (imported - interp) * 1000.0
        layer.update(wl.cli_metrics() if hasattr(wl, "cli_metrics") else
                     {"cli.command_ms": 0.0, "cli.overhead_ms": 0.0})
        layer["trace.overhead"] = (len(t_lat) / sum(t_lat)) / ops_per_s
        metrics = {name: (layer[name], unit) for name, unit in tracing.METRICS}
        result.update(untraced_ops=len(latencies), traced_ops=len(t_lat), spans=f"{stem}-spans.json")
        latencies = latencies + t_lat
        failures = failures + t_fail

    attempted = len(latencies)
    probe_ops = len(wl.probe_ops()) if hasattr(wl, "probe_ops") else 0
    probe = run_probe(wl) if probe_ops else []
    known = [f for f in probe if f["how"] == "known"]
    correct = is_correct(failures, warm_failure, probe)
    result.update(attempted=attempted, failed=len(failures), correct=correct,
                  fail_ratio=len(failures) / attempted, failures=failures,
                  probe_ops=probe_ops, probe_failures=probe,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {attempted} ops in {passes} passes each, "
          f"{len(failures)} failed; tail is p{tail_q}, {result['tail_samples_beyond']} samples beyond")
    if probe_ops:
        print(f"  probe: {len(known)} of {probe_ops} untimed ops ended in the known failure, "
              f"{len(probe) - len(known)} failed otherwise")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ratio")
    print("  unpaced wall figures: " + ", ".join(f"{k} {v:.6g}" for k, v in wall_figures.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
