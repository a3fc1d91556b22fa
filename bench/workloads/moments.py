"""moments: degree-6 SOS verdicts, signed-charge fits and nonnegative fits.

The same SDP layer as ``credal``, used differently: one dense real 10x10
block with a single scalar block and no complex embedding.  It also puts the
``charges`` least-squares and NNLS path at a visible share, so a change that
speeds ``credal``'s many-scalar-block shape but slows this one shows here.
Each round holds

* ``sos_check_detail`` on three polynomials that are SOS by construction
  (Gram matrix with smallest eigenvalue at least 0.5) and three that are not:
  one negative at a sampled point, one translated and scaled classic Motzkin,
  one translated and scaled soft Motzkin;
* ``fit_signed_charge`` plus ``nonneg_fit_feasible`` on random two-qubit
  product supports of K = 16, 64 and 256 atoms, each against a convex mixture
  of support atoms (feasible) and against the Bell state (infeasible).
"""

from __future__ import annotations

from math import comb

import numpy as np

from common import Op, round_rng, unit_vector
from pcoh import charges, realsos
from pcoh.quantum import DensityState

TAIL_PERCENTILE = 90
PASSES = 3

# the ten monomials of degree at most three, as exponent pairs
_MONOMIALS = tuple((a, d - a) for d in range(4) for a in range(d, -1, -1))
_SUPPORT_SIZES = (16, 64, 256)
_FIT_TOL = 1e-4
_BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2.0


def _gram_poly(q):
    coeffs = {}
    for i, (a1, b1) in enumerate(_MONOMIALS):
        for j, (a2, b2) in enumerate(_MONOMIALS):
            key = (a1 + a2, b1 + b2)
            coeffs[key] = coeffs.get(key, 0.0) + q[i, j]
    return coeffs


def _evaluate(coeffs, x, y):
    return sum(c * x**a * y**b for (a, b), c in coeffs.items())


def _translate(coeffs, u, v):
    """Coefficients of p(x + u, y + v)."""
    out = {}
    for (i, j), c in coeffs.items():
        for k in range(i + 1):
            for l in range(j + 1):
                key = (k, l)
                out[key] = out.get(key, 0.0) + c * comb(i, k) * comb(j, l) * u ** (i - k) * v ** (j - l)
    return out


def _motzkin(middle):
    return {(4, 2): 1.0, (2, 4): 1.0, (2, 2): middle, (0, 0): 1.0}


def _sos_poly(rng):
    b = rng.standard_normal((10, 10))
    return _gram_poly(b @ b.T / 10.0 + 0.5 * np.eye(10))


class Workload:
    def __init__(self, seed, root=None):
        self.seed = int(seed)

    def round(self, rnd):
        rng = round_rng(self.seed, rnd, 3)
        ops = []

        def add(kind, **inputs):
            ops.append(Op(f"moments:{self.seed}:{rnd}:{len(ops)}", kind, inputs))

        for _ in range(3):
            add("sos", coeffs=_sos_poly(rng), is_sos=True)
        p = _sos_poly(rng)
        x0, y0 = rng.uniform(-1.5, 1.5, size=2)
        p[(0, 0)] -= _evaluate(p, x0, y0) + rng.uniform(0.1, 1.0)
        add("sos", coeffs=p, is_sos=False, negative_at=(x0, y0))
        for middle in (-3.0, -1.0):
            u, v = rng.uniform(-0.5, 0.5, size=2)
            scale = rng.uniform(0.5, 2.0)
            add("sos", coeffs={k: scale * c for k, c in _translate(_motzkin(middle), u, v).items()},
                is_sos=False)
        for k in _SUPPORT_SIZES:
            support = [(unit_vector(rng, 2), unit_vector(rng, 2)) for _ in range(k)]
            picked = rng.choice(k, size=min(k, 6), replace=False)
            weights = rng.dirichlet(np.ones(len(picked)))
            mix = sum(w * np.outer(np.kron(*support[i]), np.kron(*support[i]).conj())
                      for w, i in zip(weights, picked))
            add("charge", support=support, rho=mix, feasible=True)
            add("charge", support=support, rho=_BELL, feasible=False)
        return ops

    def run(self, op):
        x = op.inputs
        if op.kind == "sos":
            return {"verdict": realsos.sos_check_detail(realsos.BiPoly(x["coeffs"]))}
        rho = DensityState(x["rho"], (2, 2))
        charge, residual = charges.fit_signed_charge(rho, x["support"])
        feasible = charges.nonneg_fit_feasible(rho, x["support"], _FIT_TOL)
        return {"weights": charge.weights, "residual": residual, "feasible": feasible}

    def check(self, op, out):
        x = op.inputs
        if op.kind == "sos":
            v = out["verdict"]
            if v.is_sos != x["is_sos"]:
                return f"SOS verdict {v.is_sos}, constructed {x['is_sos']} (margin {v.margin:.3e})"
            if not v.is_sos:
                if not v.certificate_value < 0.0:
                    return f"non-SOS certificate value {v.certificate_value!r} is not negative"
                return None
            q = np.asarray(v.gram.Q, dtype=float)
            if float(np.linalg.eigvalsh((q + q.T) / 2.0)[0]) < -1e-7:
                return "Gram matrix is not PSD"
            rebuilt = _gram_poly(q)
            keys = set(rebuilt) | set(x["coeffs"])
            resid = max(abs(rebuilt.get(k, 0.0) - x["coeffs"].get(k, 0.0)) for k in keys)
            return None if resid <= 1e-6 else f"Gram coefficient residual {resid:.3e}"
        w = np.asarray(out["weights"], dtype=float)
        if abs(w.sum() - 1.0) > 1e-9:
            return f"charge weights sum to {w.sum()!r}"
        moments = sum(wi * np.outer(np.kron(a, b), np.kron(a, b).conj())
                      for wi, (a, b) in zip(w, x["support"]))
        resid = float(np.linalg.norm(moments - x["rho"]))
        if abs(resid - out["residual"]) > 1e-9 * (1.0 + resid):
            return f"fit residual {out['residual']!r}, recomputed {resid!r}"
        if not x["feasible"] and resid <= 1e-6 and w.min() >= 0.0:
            return "exact nonnegative charge for the Bell state"
        if out["feasible"] != x["feasible"]:
            return f"nonnegative fit feasible {out['feasible']}, constructed {x['feasible']}"
        return None
