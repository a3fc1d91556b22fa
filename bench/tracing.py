"""Traced runs: timing wrappers around the layers' public functions.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces module
attributes (``pcoh.sdp.maximize_lmi``, ``pcoh.linalg.hermitian_eigen``, ...)
with wrappers, and rebinds every name another ``pcoh`` module imported with
``from ... import``, so calls through either binding are seen.  Each wrapper
records a span (name, start, end, parent span, op id, call attributes) in
memory; :func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _sdp_attrs(a, result):
    mats = [a["c_main"], *a["a_main"]]
    embedded = any(np.abs(np.imag(np.asarray(m))).max(initial=0.0) > 0.0 for m in mats)
    n = int(np.shape(a["c_main"])[0])
    return {
        "scalar_blocks": len(a["nonneg"]) + len(a["caps"]),
        "main_block_dim": 2 * n if embedded else n,
        "status": result.status if result is not None else "raised",
        "iterations": int(result.residuals.get("iterations", 0)) if result is not None else 0,
    }


# (module, attribute, span name, span attributes from (bound arguments, result))
TARGETS = (
    ("pcoh.sdp", "maximize_lmi", "sdp.solve", _sdp_attrs),
    ("pcoh.linalg", "hermitian_eigen", "linalg.eigen", lambda a, r: {"n": int(np.shape(a["h"])[0])}),
    ("pcoh.linalg", "is_psd", "linalg.psd", None),
    ("pcoh.gambles", "is_p_coherent", "gambles.coherence", None),
    ("pcoh.gambles", "lower_prevision", "gambles.prevision", None),
    ("pcoh.quantum", "DensityState.__post_init__", "quantum.state", None),
    ("pcoh.entangle", "product_state_minimum", "entangle.search",
     lambda a, r: {"dims": list(a["g"].dims)}),
    ("pcoh.entangle", "ppt_check", "entangle.ppt", None),
    ("pcoh.entangle", "dutch_book_certificate", "entangle.cert", None),
    ("pcoh.charges", "fit_signed_charge", "charges.fit", None),
    ("pcoh.charges", "nonneg_fit_feasible", "charges.nnls", None),
    ("pcoh.realsos", "sos_check_detail", "realsos.sos", None),
)

# name and unit of every per-layer metric, in the order they are printed
METRICS = (
    ("sdp.solves", "count/op"),
    ("sdp.iterations", "count/op"),
    ("sdp.iters_per_solve", "count"),
    ("sdp.nonoptimal", "count/op"),
    ("sdp.ms", "ms/op"),
    ("sdp.ms_per_iter", "ms"),
    ("sdp.share", "ratio"),
    ("sdp.scalar_blocks", "count"),
    ("sdp.main_block_dim", "count"),
    ("gambles.coherence_calls", "count/op"),
    ("gambles.coherence_ms", "ms/op"),
    ("gambles.prevision_calls", "count/op"),
    ("gambles.prevision_ms", "ms/op"),
    ("gambles.solves_per_prevision", "count"),
    ("linalg.eigen_calls", "count/op"),
    ("linalg.eigen_ms", "ms/op"),
    ("linalg.eigen_ms.small", "ms/op"),
    ("linalg.eigen_ms.large", "ms/op"),
    ("linalg.psd_calls", "count/op"),
    ("quantum.state_builds", "count/op"),
    ("quantum.state_ms", "ms/op"),
    ("entangle.search_calls", "count/op"),
    ("entangle.search_ms.qubits", "ms/op"),
    ("entangle.search_ms.other", "ms/op"),
    ("entangle.ppt_ms", "ms/op"),
    ("entangle.cert_ms", "ms/op"),
    ("charges.fit_ms", "ms/op"),
    ("charges.nnls_ms", "ms/op"),
    ("realsos.sos_calls", "count/op"),
    ("realsos.sos_ms", "ms/op"),
    ("realsos.self_ms", "ms/op"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.command_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """In-memory span recorder; ``op`` names the op the next spans belong to."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def _wrap(self, name, fn, attrs):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = {"name": name, "start": start, "end": end, "parent": parent, "op": self.op}
                if attrs is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(attrs(bound.arguments, result))
                self.spans[idx] = span

        return wrapper

    def install(self):
        """Wrap every target whose module is loaded."""
        for modname, attr, name, attrs in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, fn_name)
            wrapper = self._wrap(name, orig, attrs)
            setattr(owner, fn_name, wrapper)
            if not owner_name:
                for other_name, other in list(sys.modules.items()):
                    if other is None or not other_name.startswith("pcoh"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapper)

    def adopt(self, spans, op):
        """Append spans recorded in another process, re-basing parent indices."""
        base = len(self.spans)
        for s in spans:
            s = dict(s, op=op)
            if s["parent"] is not None:
                s["parent"] += base
            self.spans.append(s)


def _durations_ms(spans):
    dur = [(s["end"] - s["start"]) * 1000.0 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def _has_ancestor(spans, i, name):
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def span_records(spans, t0):
    """Spans with times relative to ``t0`` and their self time, for the span file."""
    dur, self_ms = _durations_ms(spans)
    out = []
    for i, s in enumerate(spans):
        rec = dict(s, start=s["start"] - t0, end=s["end"] - t0)
        rec["id"] = i
        rec["ms"] = dur[i]
        rec["self_ms"] = self_ms[i]
        out.append(rec)
    return out


def layer_metrics(spans, n_ops, wall_s):
    """Per-layer metrics from spans of ``n_ops`` ops that took ``wall_s`` seconds."""
    dur, self_ms = _durations_ms(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        # a span nested in one of the same name is already inside the outer one's time
        if not _has_ancestor(spans, i, s["name"]):
            by[s["name"]].append(i)
    per_op = 1.0 / max(n_ops, 1)

    def count(name, pred=lambda s: True):
        return sum(1 for i in by[name] if pred(spans[i]))

    def ms(name, pred=lambda s: True):
        return sum(dur[i] for i in by[name] if pred(spans[i]))

    def mean(name, key):
        vals = [spans[i][key] for i in by[name]]
        return float(np.mean(vals)) if vals else 0.0

    solves = count("sdp.solve")
    iters = sum(spans[i]["iterations"] for i in by["sdp.solve"])
    sdp_ms = ms("sdp.solve")
    previsions = by["gambles.prevision"]
    under_prevision = sum(
        1 for i in by["sdp.solve"] if _has_ancestor(spans, i, "gambles.prevision")
    )
    qubits = lambda s: s["dims"] == [2, 2]
    m = {
        "sdp.solves": solves * per_op,
        "sdp.iterations": iters * per_op,
        "sdp.iters_per_solve": iters / solves if solves else 0.0,
        "sdp.nonoptimal": count("sdp.solve", lambda s: s["status"] != "optimal") * per_op,
        "sdp.ms": sdp_ms * per_op,
        "sdp.ms_per_iter": sdp_ms / iters if iters else 0.0,
        "sdp.share": sdp_ms / (wall_s * 1000.0) if wall_s > 0 else 0.0,
        "sdp.scalar_blocks": mean("sdp.solve", "scalar_blocks"),
        "sdp.main_block_dim": mean("sdp.solve", "main_block_dim"),
        "gambles.coherence_calls": count("gambles.coherence") * per_op,
        "gambles.coherence_ms": ms("gambles.coherence") * per_op,
        "gambles.prevision_calls": len(previsions) * per_op,
        "gambles.prevision_ms": ms("gambles.prevision") * per_op,
        "gambles.solves_per_prevision": under_prevision / len(previsions) if previsions else 0.0,
        "linalg.eigen_calls": count("linalg.eigen") * per_op,
        "linalg.eigen_ms": ms("linalg.eigen") * per_op,
        "linalg.eigen_ms.small": ms("linalg.eigen", lambda s: s["n"] <= 8) * per_op,
        "linalg.eigen_ms.large": ms("linalg.eigen", lambda s: s["n"] > 8) * per_op,
        "linalg.psd_calls": count("linalg.psd") * per_op,
        "quantum.state_builds": count("quantum.state") * per_op,
        "quantum.state_ms": ms("quantum.state") * per_op,
        "entangle.search_calls": count("entangle.search") * per_op,
        "entangle.search_ms.qubits": ms("entangle.search", qubits) * per_op,
        "entangle.search_ms.other": ms("entangle.search", lambda s: not qubits(s)) * per_op,
        "entangle.ppt_ms": ms("entangle.ppt") * per_op,
        "entangle.cert_ms": ms("entangle.cert") * per_op,
        "charges.fit_ms": ms("charges.fit") * per_op,
        "charges.nnls_ms": ms("charges.nnls") * per_op,
        "realsos.sos_calls": count("realsos.sos") * per_op,
        "realsos.sos_ms": ms("realsos.sos") * per_op,
        "realsos.self_ms": sum(self_ms[i] for i in by["realsos.sos"]) * per_op,
    }
    return m
