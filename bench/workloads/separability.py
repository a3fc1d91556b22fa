"""separability: PPT tests, witnesses, Dutch-book certificates, product-state search.

The Jacobi eigensolver and the product-state oracle (grid plus Nelder-Mead
at 2x2, alternating descent elsewhere) do the work, and no SDP runs: this
workload is the one an SDP change must leave alone.  Each round holds

* ``ppt_check`` on one entangled and one separable state at each of (2,2),
  (2,3), (3,3) and (4,4);
* ``negative_partial_transpose_witness`` on NPT states at (2,2), (2,2) and
  (2,3);
* ``dutch_book_certificate`` on one NPT two-qubit state;
* ``verify_witness`` of NPT-derived witnesses at (2,2) and (2,3);
* ``product_state_minimum`` of random gambles at (2,2), (2,3), (3,3), (2,2,2)
  and (4,4).

Every state op builds its ``DensityState`` from the raw matrix.  States are
drawn with ``|lambda_min(rho^T_B)| >= 1e-3`` so the PPT reference is never a
rounding call.  The mix is fixed per round so that its median falls inside
one tight cluster (the separable (3,3) PPT test: nine ops per round cost
less, nine cost more) instead of in a gap between op kinds, which would
make ``op_ms_p50`` jump between runs.
"""

from __future__ import annotations

import numpy as np

from common import (Op, close, hermitian, kron_all, lam_min, partial_transpose, round_rng, tr,
                    unit_vector)
from pcoh import entangle
from pcoh.gambles import Gamble
from pcoh.quantum import DensityState

TAIL_PERCENTILE = 90
PASSES = 2

_PPT_DIMS = ((2, 2), (2, 3), (3, 3), (4, 4))
_WITNESS_DIMS = ((2, 2), (2, 3))
_NPT_DIMS = ((2, 2), (2, 2), (2, 3))
_SEARCH_DIMS = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4))
_BOUNDARY = 1e-3


def _entangled(rng, na, nb):
    n = na * nb
    while True:
        psi = unit_vector(rng, n)
        p = rng.uniform(0.7, 1.0)
        rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(n) / n
        if lam_min(partial_transpose(rho, na, nb)) < -_BOUNDARY:
            return rho


def _separable(rng, na, nb):
    n = na * nb
    rho = 0.05 * np.eye(n) / n
    weights = rng.dirichlet(np.ones(2 * n)) * 0.95
    for w in weights:
        v = np.kron(unit_vector(rng, na), unit_vector(rng, nb))
        rho = rho + w * np.outer(v, v.conj())
    return rho


def _witness(rho, na, nb):
    """(|phi><phi|)^T_B for the most negative eigenvector phi of rho^T_B."""
    _, vecs = np.linalg.eigh(partial_transpose(rho, na, nb))
    phi = vecs[:, 0]
    return partial_transpose(np.outer(phi, phi.conj()), na, nb)


class Workload:
    def __init__(self, seed, root=None):
        self.seed = int(seed)

    def round(self, rnd):
        rng = round_rng(self.seed, rnd, 2)
        ops = []

        def add(kind, **inputs):
            ops.append(Op(f"separability:{self.seed}:{rnd}:{len(ops)}", kind, inputs))

        for na, nb in _PPT_DIMS:
            for rho in (_entangled(rng, na, nb), _separable(rng, na, nb)):
                add("ppt", dims=(na, nb), rho=rho,
                    pt_min=lam_min(partial_transpose(rho, na, nb)))
        for na, nb in _NPT_DIMS:
            rho = _entangled(rng, na, nb)
            add("npt_witness", dims=(na, nb), rho=rho,
                pt_min=lam_min(partial_transpose(rho, na, nb)))
        add("certificate", dims=(2, 2), rho=_entangled(rng, 2, 2),
            epsilon=float(rng.uniform(1e-3, 0.5)), search_seed=int(rng.integers(1 << 16)))
        for na, nb in _WITNESS_DIMS:
            add("verify", dims=(na, nb), w=_witness(_entangled(rng, na, nb), na, nb),
                search_seed=int(rng.integers(1 << 16)))
        for dims in _SEARCH_DIMS:
            g = hermitian(rng, int(np.prod(dims)))
            add("search", dims=dims, g=g, g_min=lam_min(g),
                search_seed=int(rng.integers(1 << 16)))
        return ops

    def run(self, op):
        x = op.inputs
        cfg = entangle.ProductStateSearchConfig(seed=x["search_seed"]) if "search_seed" in x else None
        if op.kind == "verify":
            return {"ok": entangle.verify_witness(x["w"], x["dims"], cfg)}
        if op.kind == "search":
            value, argmin = entangle.product_state_minimum(Gamble(x["g"], x["dims"]), cfg)
            return {"value": value, "argmin": argmin}
        rho = DensityState(x["rho"], x["dims"])
        if op.kind == "ppt":
            return {"is_ppt": entangle.ppt_check(rho).is_ppt}
        if op.kind == "npt_witness":
            return {"w": entangle.negative_partial_transpose_witness(rho)}
        cert = entangle.dutch_book_certificate(rho, epsilon=x["epsilon"], cfg=cfg)
        return {"cert": cert}

    def check(self, op, out):
        x = op.inputs
        if op.kind == "ppt":
            expected = x["pt_min"] >= -1e-9
            return None if out["is_ppt"] == expected else (
                f"PPT verdict {out['is_ppt']}, lambda_min(rho^T_B) = {x['pt_min']:.3e}")
        if op.kind == "npt_witness":
            w = np.asarray(out["w"])
            value = tr(w, x["rho"])
            if not close(value, x["pt_min"]):
                return f"Tr(W rho) = {value!r}, expected lambda_min(rho^T_B) = {x['pt_min']!r}"
            return None
        if op.kind == "verify":
            return None if out["ok"] else "NPT-derived witness rejected"
        if op.kind == "search":
            value, argmin = out["value"], out["argmin"]
            if value < x["g_min"] - 1e-9:
                return f"search value {value!r} below lambda_min(G) = {x['g_min']!r}"
            vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in argmin]
            if [len(v) for v in vecs] != list(x["dims"]):
                return "argmin has the wrong factor dims"
            if max(abs(np.linalg.norm(v) - 1.0) for v in vecs) > 1e-9:
                return "argmin factors are not unit vectors"
            v = kron_all(vecs)
            form = float((v.conj() @ x["g"] @ v).real)
            return None if close(form, value, 1e-9) else f"form at argmin {form!r} != value {value!r}"
        cert = out["cert"]
        if cert is None:
            return "no certificate for an NPT state"
        eps = x["epsilon"]
        trace_value = tr(np.asarray(cert.gamble.matrix), x["rho"])
        if cert.trace_value < 0.0 or not close(cert.trace_value, trace_value, 1e-9):
            return f"trace_value {cert.trace_value!r}, recomputed {trace_value!r}"
        if cert.product_sup > -eps + 1e-9:
            return f"product_sup {cert.product_sup!r} above -epsilon = {-eps!r}"
        return None
