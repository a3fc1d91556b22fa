"""cli: cold ``python -m pcoh.cli ... --json`` processes, one at a time.

Interpreter start and imports dominate here, so an import or start-up change
shows and an SDP-kernel change barely does.  Each round runs the six commands
of the roadmap's CLI list on seeded generated files, plus one invocation on
a state file whose trace is not one, which must exit 2 without a traceback.
Every JSON result is compared with the library's answer, computed once in
this process during set-up.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from common import Op, full_rank_state, gambles_around, hermitian, psd, round_rng
from pcoh import charges, cli, entangle, gambles, io, realsos
from pcoh.fixtures import bell_density_matrix
from pcoh.quantum import DensityState

TAIL_PERCENTILE = 60
PASSES = 1

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _matrix_json(m):
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(v.real), float(v.imag)] for v in m.reshape(-1)]}


class Workload:
    def __init__(self, seed, root):
        self.seed = int(seed)
        self.tracer = None
        self.max_rss_kb = 0
        self.command_ms = []
        self.overhead_ms = []
        results = os.path.join(root, "bench", "results")
        os.makedirs(results, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"cli-{self.seed}-", dir=results)
        self._write_inputs()
        self.refs = self._references()

    def _path(self, name):
        return os.path.join(self.tmp, name)

    def _write_inputs(self):
        rng = round_rng(self.seed, 0, 4)
        n, dims = 4, [2, 2]
        gs = gambles_around(rng, full_rank_state(rng, n), 2 * n)
        bad = psd(rng, n)
        bad *= rng.uniform(1.2, 2.0) / np.trace(bad).real
        files = {
            "assessments.json": {"dims": dims, "gambles": [_matrix_json(g) for g in gs]},
            "gamble.json": _matrix_json(hermitian(rng, n)),
            "bad_state.json": {"dims": dims, "rho": _matrix_json(bad)},
        }
        for name, obj in files.items():
            with open(self._path(name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        self.argvs = [
            ("coherence", ["coherence", "-i", self._path("assessments.json")]),
            ("prevision", ["prevision", "-i", self._path("assessments.json"),
                           "--gamble", self._path("gamble.json"), "--side", "lower"]),
            ("witness", ["witness", "--bell"]),
            ("sos", ["sos", "--motzkin", "classic"]),
            ("charge", ["charge", "--bell", "--random", "16", "--seed", "7"]),
            ("chsh", ["chsh", "--bell", "--sweep", "181"]),
            ("bad_state", ["witness", "-i", self._path("bad_state.json")]),
        ]

    def _references(self):
        a = io.assessments_from_json(io.load_json(self._path("assessments.json")))
        f = io.gamble_from_json(io.load_json(self._path("gamble.json")), dims=a.dims)
        bell = DensityState(bell_density_matrix(), (2, 2))
        coh = gambles.is_p_coherent(a)
        cert = entangle.dutch_book_certificate(bell, epsilon=1e-3,
                                               cfg=entangle.ProductStateSearchConfig(seed=0))
        sos = realsos.sos_check_detail(realsos.motzkin("classic"))
        support = charges.random_product_support(bell.dims, 16, 7)
        _, residual = charges.fit_signed_charge(bell, support)
        betas = np.linspace(0.0, np.pi, 181)
        angles = cli._DEFAULT_ANGLES
        sweep = [entangle.chsh_value(bell, (angles[0], angles[1], b, angles[3])) for b in betas]
        return {
            "coherence": {"p_coherent": coh.p_coherent, "margin": coh.margin},
            "prevision": {"value": gambles.lower_prevision(a, f)},
            "witness": {"ppt": False, "certificate.trace_value": cert.trace_value,
                        "certificate.product_sup": cert.product_sup},
            "sos": {"is_sos": sos.is_sos, "margin": sos.margin},
            "charge": {"residual": residual,
                       "nonneg_fit_feasible": charges.nonneg_fit_feasible(bell, support, 1e-4)},
            "chsh": {"value": entangle.chsh_value(bell, angles),
                     "sweep.peak_beta1": float(betas[int(np.argmax(sweep))])},
        }

    def round(self, rnd):
        return [Op(f"cli:{self.seed}:{rnd}:{i}", kind, {"argv": argv})
                for i, (kind, argv) in enumerate(self.argvs)]

    def run(self, op):
        argv = op.inputs["argv"] + ["--json"]
        spans = self._path("spans.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "pcoh.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(_BENCH, "clitrace.py"), spans, *argv]
        with open(self._path("stdout"), "w+b") as out, open(self._path("stderr"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.tmp)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        if self.tracer is not None:
            if os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    self.tracer.adopt(json.load(fh), op.id)
                os.remove(spans)
        else:
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return {"code": proc.returncode, "stdout": stdout, "stderr": stderr, "wall": wall}

    def check(self, op, out):
        if op.kind == "bad_state":
            if out["code"] != 2:
                return f"non-unit-trace state exited {out['code']}, expected 2"
            if "Traceback" in out["stderr"] or out["stdout"].strip():
                return "validation error printed a traceback or a report"
            return None
        if out["code"] != 0:
            return f"exit {out['code']}: {out['stderr'].strip()[-200:]}"
        try:
            report = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        results = report.get("results", {})
        for key, want in self.refs[op.kind].items():
            got = results
            for part in key.split("."):
                got = got.get(part) if isinstance(got, dict) else None
            if isinstance(want, bool) or got is None:
                if got != want:
                    return f"{key} = {got!r}, library says {want!r}"
            elif abs(got - want) > 1e-9 * (1.0 + abs(want)):
                return f"{key} = {got!r}, library says {want!r}"
        if self.tracer is None:
            ms = float(report["wall_time_ms"])
            self.command_ms.append(ms)
            self.overhead_ms.append(out["wall"] * 1000.0 - ms)
        return None

    def peak_rss_kb(self):
        return self.max_rss_kb

    def cli_metrics(self):
        return {"cli.command_ms": statistics.median(self.command_ms),
                "cli.overhead_ms": statistics.median(self.overhead_ms)}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
