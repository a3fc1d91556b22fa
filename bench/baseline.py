"""Record the benchmark's baseline and write ``bench/baseline.json``.

Usage (from the root of a source checkout)::

    python3 bench/baseline.py [--out FILE]

Every number in the output comes from ``bench/run.py`` runs made here, in
this order:

1. ``baseline``: ``REPEATS`` untraced runs of the default seed per
   workload, taken round-robin over the workloads so drift of the host hits
   them alike.  Per end-to-end metric: median, quartiles, spread
   (interquartile range over median) and every value; ``fail_ratio``; the
   ids of the ops that failed, and of the untimed probe ops that ended in the
   program's known failure.
2. ``traced``: one traced run of the default seed per workload.
3. ``seed_sets``: for each of the two ``SEED_SETS``, one untraced run per
   seed and workload, workload after workload, summarised as above.  The two
   sets are compared the way ``BENCHMARK.json``'s bounds are checked: each
   set's spread, and how much worse the second set's median is than the
   first's.
4. ``blas_default_threads``: for each of the ``BLAS_WORKLOADS``,
   ``BLAS_PAIRS`` alternating pairs of runs of the default seed with BLAS pinned to
   one thread and with the library's default thread count.

The descriptive entries (seeds, metric definitions, notes) are constants of
this file.  The output goes to ``--out`` (default ``bench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729
REPEATS = 5
SEED_SETS = (range(1, 11), range(11, 21))
BLAS_WORKLOADS = ("credal", "separability")
BLAS_PAIRS = 3

NOTES = {
    "about": ("Baseline of the pcoh benchmark (BENCHMARK.json) at the commit named in "
              "machine.git_commit, written by bench/baseline.py. BENCHMARK.json has a fixed set "
              "of keys; the seeds, notes and baseline numbers that do not fit there live here."),
    "held_out_note": ("The held-out seed was never run while the benchmark was written or tuned; "
                      "a later speed claim should hold on it as well as on the default seed."),
    "load_shape": ("Closed loop, one client in one process; the cli workload runs one child "
                   "process at a time. BLAS pinned to one thread "
                   "(OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1), and the benchmark "
                   "with its children to one CPU (cpus_used). The loop runs whole "
                   "rounds of the workload's fixed mix, each round `passes` times over, until "
                   "the summed time of every op run reaches run_seconds and at least ten ops lie "
                   "beyond the tail percentile. An op's latency is the least of its passes, at "
                   "the reference pace (see pace)."),
    "pace": ("The shared host has slow phases, from a fraction of a second to half a minute, in "
             "which the same code runs up to half again as long. Every op and set-up timing is "
             "therefore put at a fixed machine pace: a reference kernel (numpy eigh of a 48x48 "
             "matrix plus a short Python loop, least of three) runs just before and just after "
             "each op and each set-up process, and the wall time is multiplied by reference_s / "
             "the mean of the kernel's two times. reference_s "
             "is the kernel's time on an idle core of this host, so the figures read as wall "
             "times of its fast phase. The unpaced wall figures of every run are in "
             "'unpaced'."),
    "metric_definitions": {
        "ops_per_s": ("ops finished in the timed loop (failed ones included) / summed op "
                      "latency, an op's latency being the least of its passes' paced times"),
        "op_ms_p50": "median op latency",
        "op_ms_tail": ("op latency at the workload's tail_percentile: the highest percentile "
                       "with at least ten samples beyond it (tail_samples_beyond_min is the "
                       "fewest seen in any run recorded here)"),
        "setup_s": ("median paced wall time of at least four fresh processes, run before and "
                    "after each pass, that start the interpreter, import the workload's layers, "
                    "generate round 0 and run one untimed warm-up op"),
        "peak_rss_mb": ("ru_maxrss of the benchmark process; for cli the largest ru_maxrss of "
                        "the timed CLI children (os.wait4)"),
        "fail_ratio": ("ops that raised, exited wrongly or failed their output check in any "
                       "pass / ops attempted. Printed by run.py, stored in the result file and "
                       "carried by the attempted and failed fields of the last output line. It "
                       "is not an end_to_end entry of BENCHMARK.json: those must never read 0, "
                       "and it reads 0 on every workload."),
        "known_failures": ("credal only: of the untimed probe ops (previsions and memberships "
                           "on singleton sets, run once after the timed loop), those that ended "
                           "in SolverFailure with status numerical_failure. A singleton set has "
                           "no interior, which the interior-point solver needs."),
    },
    "correct_flag": ("correct is false when any timed op, in any pass, or the warm-up op "
                     "returned a wrong answer (failed its output check, or a CLI exit code was "
                     "wrong) or raised an exception. Of the credal probe ops, only the known "
                     "failure (a SolverFailure ending in 'status numerical_failure' on a "
                     "prevision or membership of a singleton set) is allowed; a wrong answer or "
                     "any other exception there makes the run incorrect."),
    "per_layer_notes": {
        "normalisation": ("count/op and ms/op metrics are totals over the traced half of the run "
                          "divided by the ops it ran, every pass counted"),
        "spans": ("a span nested in one of the same name is counted once; self time = span minus "
                  "its direct child spans (stored per span in "
                  "bench/results/<workload>-seed<n>-trace1-spans.json)"),
        "sdp.iterations": ("the solver's reported iteration count "
                           "(LmiResult.residuals['iterations']); for a non-optimal solve it is "
                           "the index of the best iterate, not the number run"),
        "sdp.scalar_blocks, sdp.main_block_dim": ("mean per solve, from maximize_lmi's "
                                                  "arguments: len(nonneg)+len(caps), and n or 2n "
                                                  "when the data is complex"),
        "cli": ("cli runs each traced command as python bench/clitrace.py, which installs the "
                "same wrappers in the child; cli.command_ms and cli.overhead_ms come from the "
                "untraced half of a cli run and read 0 on the other workloads; cli.interp_ms and "
                "cli.import_ms are medians of five bare-interpreter and five 'import pcoh.cli' "
                "processes, on every workload"),
        "trace.overhead": ("ops_per_s of the traced half / ops_per_s of the untraced half of the "
                           "same run"),
    },
    "dropped_metrics": [],
    "blas_note": ("ops_per_s with BLAS pinned to one thread (and the process to one CPU) and "
                  "with the library's default thread count (OpenBLAS: one thread per core) on "
                  "every CPU, in alternating runs of the default seed"),
    "seed_sets_note": ("spread = (q3 - q1) / median over the set's seeds, with "
                       "statistics.quantiles(values, n=4); second_vs_first > 0 means the second "
                       "set's median is worse by that share of the first's"),
}


def run(workload, seed, seconds, trace=0, blas="1"):
    """(last output line, result file) of one ``bench/run.py`` run."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--blas-threads", blas]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(BENCH, "results", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        detail = json.load(fh)
    print(f"{workload} seed {seed} trace {trace} blas {blas}: " + ", ".join(
        f"{k} {v['value']:.4g}" for k, v in last["metrics"].items())
        + f", failed {last['failed']}/{last['attempted']}, correct {last['correct']}", flush=True)
    return last, detail


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3, "values": values}
    if med:
        out["spread"] = (q3 - q1) / med
    return out


def summarise_runs(runs):
    """Per-metric summaries, fail_ratio and failed op ids of a list of (last, detail) runs."""
    metrics = {}
    for last, _ in runs:
        for key, m in last["metrics"].items():
            metrics.setdefault(key, []).append(m["value"])
    failed = sorted({f"{f['op']} ({f['kind']}, {f['how']}: {f['reason']})"
                     for _, detail in runs for f in detail["failures"]})
    known = sorted({f"{f['op']} ({f['kind']}, {f['dims']}: {f['reason']})"
                    for _, detail in runs for f in detail.get("probe_failures", [])})
    return {
        "seeds": [detail["machine"]["seed"] for _, detail in runs],
        "metrics": {k: summarise(v) for k, v in metrics.items()},
        "unpaced": {k: summarise([detail["unpaced"][k] for _, detail in runs])
                    for k in runs[0][1]["unpaced"]},
        "fail_ratio": summarise([last["failed"] / last["attempted"] for last, _ in runs]),
        "failed_ops": failed,
        "known_failures": summarise([len(detail.get("probe_failures", [])) for _, detail in runs]),
        "known_failure_ops": known,
        "tail_samples_beyond_min": min(detail["tail_samples_beyond"] for _, detail in runs),
        "incorrect_runs": sum(1 for last, _ in runs if not last["correct"]),
    }


def compare(first, second, spec):
    """Each set's spread and the second median's change, per end-to-end metric."""
    rows = {}
    for m in spec["end_to_end"]:
        a, b = first["metrics"][m["name"]], second["metrics"][m["name"]]
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if m["better"] == "lower" else -change
        rows[m["name"]] = {"bound": m["bound"], "spread_first": a["spread"],
                           "spread_second": b["spread"], "second_vs_first": worse}
    return rows


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(BENCH, "baseline.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    sets = [list(seeds) for seeds in SEED_SETS]

    repeats = {name: [] for name in names}
    for _ in range(REPEATS):
        for name in names:
            repeats[name].append(run(name, DEFAULT_SEED, seconds))
    first = repeats[names[0]][0][1]
    machine = {k: v for k, v in first["machine"].items() if k != "seed"}

    traced = {name: {k: v["value"] for k, v in run(name, DEFAULT_SEED, seconds, trace=1)[0]
                     ["metrics"].items()} for name in names}

    seed_sets = [{name: summarise_runs([run(name, seed, seconds) for seed in seeds])
                  for name in names} for seeds in sets]

    blas = {}
    for name in BLAS_WORKLOADS:
        pinned, default = [], []
        for _ in range(BLAS_PAIRS):
            pinned.append(run(name, DEFAULT_SEED, seconds)[0]["metrics"]["ops_per_s"]["value"])
            default.append(run(name, DEFAULT_SEED, seconds, blas="default")[0]
                           ["metrics"]["ops_per_s"]["value"])
        blas[name] = {"pinned_ops_per_s": pinned, "default_ops_per_s": default,
                      "default_over_pinned": statistics.median(default) / statistics.median(pinned)}

    out = {
        "about": NOTES["about"],
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "held_out_note": NOTES["held_out_note"],
        "run_seconds": seconds,
        "load_shape": NOTES["load_shape"],
        "pace": NOTES["pace"],
        "workload_why": {w["name"]: w["why"] for w in spec["workloads"]},
        "tail_percentile": {name: repeats[name][0][1]["tail_percentile"] for name in names},
        "passes": {name: repeats[name][0][1]["passes"] for name in names},
        "metric_definitions": NOTES["metric_definitions"],
        "correct_flag": NOTES["correct_flag"],
        "per_layer_notes": NOTES["per_layer_notes"],
        "dropped_metrics": NOTES["dropped_metrics"],
        "machine": machine,
        "baseline": {name: summarise_runs(runs) for name, runs in repeats.items()},
        "traced": {"seed": DEFAULT_SEED, "workloads": traced},
        "seed_sets": {
            "note": NOTES["seed_sets_note"],
            "sets": [{"seeds": seeds, "workloads": summary} for seeds, summary in zip(sets, seed_sets)],
            "second_vs_first": {name: compare(seed_sets[0][name], seed_sets[1][name], spec)
                                for name in names},
        },
        "blas_default_threads": {"note": NOTES["blas_note"], "seed": DEFAULT_SEED, **blas},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, rows in out["seed_sets"]["second_vs_first"].items():
        for metric, row in rows.items():
            print(f"{name} {metric}: spreads {row['spread_first']:.3f} / "
                  f"{row['spread_second']:.3f}, second vs first {row['second_vs_first']:+.3f} "
                  f"(bound {row['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
