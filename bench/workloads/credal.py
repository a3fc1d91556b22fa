"""credal: coherence, previsions and natural extension on assessment sets.

The SDP layer does nearly all the work: one embedded complex block beside one
1x1 block per gamble.  Each round holds

* four singleton credal sets (``AssessmentSet.for_single_state``, 32 to 72
  gambles) at dims (2,2), (2,3), (4,) and (6,), each asked whether it is
  coherent;
* five sets of 2n gambles, at (2,2), (2,3), (4,), (6,) and (3,3), that are
  coherent around a known interior state, each asked all four questions
  (coherence, lower and upper prevision, and natural-extension membership of
  one gamble inside and one outside);
* three sets of 2n gambles, at (2,2), (4,) and (6,), that are incoherent by
  construction (a quarter of the sets), which drive the Dutch-book polish
  solve.

Every op builds its ``AssessmentSet`` (and ``DensityState``) from the raw
arrays, so a set shared by five questions is built five times.  The second
membership question also places the median op inside the cluster of
small-dims previsions (about 50 ms here), not at the edge of a gap between
clusters, where ``op_ms_p50`` would jump between runs.

Prevision and membership solves on singleton sets sometimes end in
``numerical_failure``: a singleton set has no interior, which the
interior-point solver needs.  Those questions are not in the timed rounds,
where every op must succeed; ``probe_ops`` asks them of eight singleton sets
(and two (3,3) singletons asked for membership) once per run, outside the
timing, and ``run.py`` reports how many end in that known failure.  A wrong
answer or any other exception there makes the run incorrect.
"""

from __future__ import annotations

import numpy as np

from common import (Op, close, full_rank_state, gambles_around, hermitian, lam_min, psd,
                    round_rng, tr)
from pcoh import gambles
from pcoh.errors import SolverFailure
from pcoh.quantum import DensityState

TAIL_PERCENTILE = 80
PASSES = 3
PROBE_ROUNDS = 2

_SINGLETON_DIMS = ((2, 2), (2, 3), (4,), (6,))
_BIG_DIMS = (3, 3)
_INTERIOR_DIMS = ((2, 2), (2, 3), (4,), (6,), (3, 3))
_INCOHERENT_DIMS = ((2, 2), (4,), (6,))
_KINDS = ("coherence", "lower", "upper", "extension")
_MARGIN = 0.3


def _n(dims):
    return int(np.prod(dims))


class Workload:
    def __init__(self, seed, root=None):
        self.seed = int(seed)

    # -- inputs -----------------------------------------------------------

    def _singleton(self, rng, dims):
        """One singleton set, as the state it pins, with one input per question."""
        n = _n(dims)
        rho = full_rank_state(rng, n)
        ops = [("coherence", {})]
        for kind in ("lower", "upper"):
            f = hermitian(rng, n)
            ops.append((kind, {"f": f, "value": tr(f, rho)}))
        # membership of F in the natural extension of {rho} is Tr(F rho) >= 0
        member = rng.random() < 0.5
        f = hermitian(rng, n)
        f = f - (tr(f, rho) - (_MARGIN if member else -_MARGIN)) * np.eye(n)
        ops.append(("extension", {"f": f, "member": member}))
        return {"dims": dims, "rho": rho}, ops

    def _interior(self, rng, dims):
        """One set of 2n gambles coherent around rho0, with its questions: membership
        is asked of one gamble inside the natural extension and one outside."""
        n = _n(dims)
        rho0 = full_rank_state(rng, n)
        gs = gambles_around(rng, rho0, 2 * n)
        ops = [("coherence", {})]
        for kind in ("lower", "upper"):
            ops.append((kind, {"f": hermitian(rng, n)}))
        mu = rng.uniform(0.0, 1.0, size=len(gs))
        f = sum(m * g for m, g in zip(mu, gs)) + psd(rng, n) + 0.1 * np.eye(n)
        ops.append(("extension", {"f": f, "member": True}))
        f = hermitian(rng, n)
        f = f - (tr(f, rho0) + 0.2) * np.eye(n)
        ops.append(("extension", {"f": f, "member": False}))
        return {"dims": dims, "gambles": gs, "rho0": rho0}, ops

    def _incoherent(self, rng, dims):
        n = _n(dims)
        gs = gambles_around(rng, full_rank_state(rng, n), 2 * n - 1)
        lam = rng.uniform(0.2, 1.0, size=2 * n)
        # -I - sum lam_i G_i = P >= 0 for the last gamble chosen this way
        p = psd(rng, n, scale=0.5)
        last = -(np.eye(n) + sum(l * g for l, g in zip(lam[:-1], gs)) + p) / lam[-1]
        gs.append(last)
        order = rng.permutation(len(gs))
        return {"dims": dims, "gambles": [gs[i] for i in order]}, [("coherence", {})]

    def round(self, rnd):
        rng = round_rng(self.seed, rnd, 1)
        sets = []
        for dims in _SINGLETON_DIMS:
            shared, questions = self._singleton(rng, dims)
            sets.append(("singleton", (shared, questions[:1])))
        sets += [("interior", self._interior(rng, dims)) for dims in _INTERIOR_DIMS]
        sets += [("incoherent", self._incoherent(rng, dims)) for dims in _INCOHERENT_DIMS]
        return self._ops(f"credal:{self.seed}:{rnd}", sets)

    def probe_ops(self):
        """Singleton previsions and memberships, the questions that hit the known failure."""
        sets = []
        for rnd in range(PROBE_ROUNDS):
            rng = round_rng(self.seed, rnd, 5)
            sets += [("singleton", self._singleton(rng, dims)) for dims in _SINGLETON_DIMS]
            big, questions = self._singleton(rng, _BIG_DIMS)
            sets.append(("singleton", (big, [q for q in questions if q[0] == "extension"])))
        sets = [(fam, (shared, [q for q in questions if q[0] != "coherence"]))
                for fam, (shared, questions) in sets]
        return self._ops(f"credal-probe:{self.seed}", sets)

    @staticmethod
    def _ops(prefix, sets):
        ops = []
        for family, (shared, questions) in sets:
            for kind, inputs in questions:
                ops.append(Op(f"{prefix}:{len(ops)}", kind, dict(shared, family=family, **inputs)))
        return ops

    # -- the timed call ---------------------------------------------------

    def run(self, op):
        x = op.inputs
        dims = x["dims"]
        if x["family"] == "singleton":
            a = gambles.AssessmentSet.for_single_state(DensityState(x["rho"], dims))
        else:
            a = gambles.AssessmentSet(tuple(gambles.Gamble(m, dims) for m in x["gambles"]), dims)
        if op.kind == "coherence":
            v = gambles.is_p_coherent(a)
            return {"p_coherent": v.p_coherent, "margin": v.margin, "lam": v.certificate}
        f = gambles.Gamble(x["f"], dims)
        if op.kind == "lower":
            return {"value": gambles.lower_prevision(a, f)}
        if op.kind == "upper":
            return {"value": gambles.upper_prevision(a, f)}
        return {"member": gambles.natural_extension_contains(a, f)}

    @staticmethod
    def known_failure(op, exc):
        """The solver failure ``probe_ops`` is known to hit, and only where it is hit."""
        return (isinstance(exc, SolverFailure) and str(exc).endswith("status numerical_failure")
                and op.inputs["family"] == "singleton" and op.kind != "coherence")

    # -- the independent reference ----------------------------------------

    def check(self, op, out):
        x = op.inputs
        fam = x["family"]
        if op.kind == "coherence":
            if fam != "incoherent":
                return None if out["p_coherent"] else "coherent set reported incoherent"
            if out["p_coherent"]:
                return "incoherent set reported coherent"
            lam = np.asarray(out["lam"], dtype=float)
            if lam.shape != (len(x["gambles"]),) or lam.min() < 0.0:
                return "Dutch-book multipliers missing or negative"
            n = x["gambles"][0].shape[0]
            slack = -np.eye(n) - sum(l * gm for l, gm in zip(lam, x["gambles"]))
            if lam_min(slack) < -1e-6:
                return f"Dutch book fails: lambda_min(-I - sum lam G) = {lam_min(slack):.3e}"
            return None
        if op.kind == "extension":
            if out["member"] != x["member"]:
                return f"natural extension membership {out['member']}, expected {x['member']}"
            return None
        v = out["value"]
        if fam == "singleton":
            return None if close(v, x["value"]) else f"prevision {v!r}, expected Tr(F rho) = {x['value']!r}"
        # interior: lambda_min(F) <= lower <= Tr(F rho0) <= upper <= lambda_max(F)
        f = x["f"]
        ref = tr(f, x["rho0"])
        tol = 1e-6 * (1.0 + abs(ref))
        lo, hi = (float(e) for e in np.linalg.eigvalsh(f)[[0, -1]])
        if op.kind == "lower" and not (lo - tol <= v <= ref + tol):
            return f"lower prevision {v!r} outside [{lo!r}, {ref!r}]"
        if op.kind == "upper" and not (ref - tol <= v <= hi + tol):
            return f"upper prevision {v!r} outside [{ref!r}, {hi!r}]"
        return None
