"""Small dense semidefinite feasibility and minimisation.

The core is a primal-dual interior-point method (predictor-corrector, KSH
direction, dense normal-equation solves) over the product of dense PSD
blocks of modest size and one nonnegative orthant.  Complex Hermitian data is
handled through the real symmetric embedding ``[[Re X, -Im X], [Im X, Re X]]``;
slack scalars (sign constraints, caps, inequality slacks) live in the orthant,
which is updated elementwise.

Three public entry points wrap the core:

* :func:`psd_minimize`     -- min <C,X> over PSD X with affine trace constraints
* :func:`psd_feasibility`  -- does F0 + sum_i lam_i F_i admit a PSD point, lam >= 0
* :func:`maximize_lmi`     -- max b.y subject to C - sum_k y_k A_k >= 0

Every solve is deterministic: fixed iteration order, no randomisation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, SolverFailure, ValidationError
from .linalg import as_hermitian

DEFAULT_TOL = 1e-9
MAX_ITERATIONS = 200
_STEP_FRACTION = 0.98
_ACCEPTABLE_RESIDUAL = 1e-7
_RAY_RATIO = 1e6

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_NUMERICAL_FAILURE = "numerical_failure"


def solver_tolerance(override: Optional[float] = None) -> float:
    """Effective complementarity target: argument, else PCOH_SOLVER_TOL, else 1e-9."""
    if override is not None:
        return float(override)
    env = os.environ.get("PCOH_SOLVER_TOL")
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise ValidationError(f"PCOH_SOLVER_TOL is not a float: {env!r}") from exc
    return DEFAULT_TOL


# ---------------------------------------------------------------------------
# standard-form core
# ---------------------------------------------------------------------------


@dataclass
class _CoreResult:
    status: str
    X: list
    y: np.ndarray
    primal_objective: float
    dual_objective: float
    rel_gap: float
    primal_residual: float
    dual_residual: float
    iterations: int

    def residual_dict(self):
        return {
            "rel_gap": self.rel_gap,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "iterations": self.iterations,
        }


def _sym(m):
    return (m + m.T) / 2.0


def _binner(p, q):
    return float(sum((pb * qb).sum() for pb, qb in zip(p, q)))


def _bnorm(p):
    return float(np.sqrt(_binner(p, p)))


def _step(p, alpha, d):
    return [pb + alpha * db for pb, db in zip(p, d)]


def _finite(arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _max_step(x, dx):
    """Largest alpha keeping x + alpha*dx in the cone: [X_1, ..., X_B, x_lin].

    PSD blocks are tested through their Cholesky factors, the orthant by a
    ratio test.  Returns 0 when a direction is unusable (non-finite, or the
    iterate has numerically left its cone even after a jitter), which the main
    loop treats as a stall.
    """
    if not _finite(dx):
        return 0.0
    *blocks, xl = x
    *dblocks, dxl = dx
    xl = np.where(xl > 0.0, xl, xl + 1e-14)
    if np.any(xl <= 0.0):
        return 0.0
    shrinking = dxl < 0.0
    alpha = float(np.min(-xl[shrinking] / dxl[shrinking], initial=np.inf))
    for xb, db in zip(blocks, dblocks):
        n = xb.shape[0]
        jitter = 1e-14 * max(1.0, float(np.trace(xb)) / n)
        try:
            chol = np.linalg.cholesky(xb)
        except np.linalg.LinAlgError:
            try:
                chol = np.linalg.cholesky(xb + jitter * np.eye(n))
            except np.linalg.LinAlgError:
                return 0.0
        w = np.linalg.solve(chol, db)
        w = np.linalg.solve(chol, w.T).T
        lam_min = float(np.linalg.eigvalsh(_sym(w))[0])
        if lam_min < 0.0:
            alpha = min(alpha, -1.0 / lam_min)
    return alpha


def _solve_core(c_psd, a_psd, c_lin, a_lin, b, tol, max_iter=MAX_ITERATIONS):
    """Predictor-corrector interior point over PSD blocks and one orthant.

    Solves min sum_b <C_b,X_b> + c_lin.x  s.t.  sum_b Tr(A_bk X_b) + (a_lin x)_k
    = b_k, every X_b >= 0 and x >= 0.  ``c_psd`` lists the cost blocks, and
    ``a_psd`` the matching (m, n_b, n_b) stacks of symmetric A_bk; ``a_lin``
    is the (m, n_l) constraint matrix of the orthant.  Iterates are lists
    [X_1, ..., X_B, x] with the orthant vector last.
    """
    b = np.asarray(b, dtype=float)
    m = len(b)
    eyes = [np.eye(cb.shape[0]) for cb in c_psd]
    nu = sum(len(e) for e in eyes) + len(c_lin)
    c = [*c_psd, c_lin]
    # A_bk is symmetric, so Tr(A_bk U) = vec(A_bk) . vec(U) for any U
    flat = [ab.reshape(m, cb.size) for ab, cb in zip(a_psd, c_psd)] + [a_lin]

    def apply_a(u):
        return sum(f @ ub.ravel() for f, ub in zip(flat, u))

    def apply_at(yv):
        return [(yv @ f).reshape(cb.shape) for f, cb in zip(flat, c)]

    def symmetrised(p):
        return [_sym(pb) for pb in p[:-1]] + [p[-1]]

    norm_c = _bnorm(c)
    norm_b = float(np.linalg.norm(b))
    a_norms = np.sqrt(sum((f * f).sum(axis=1) for f in flat))

    ratio = float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms), initial=0.0))
    scale_p = max(10.0, np.sqrt(nu), ratio * np.sqrt(nu))
    scale_d = max(10.0, np.sqrt(nu), norm_c, float(a_norms.max(initial=0.0)))

    x = [scale_p * e for e in eyes] + [np.full(len(c_lin), scale_p)]
    s = [scale_d * e for e in eyes] + [np.full(len(c_lin), scale_d)]
    y = np.zeros(m)

    best = None

    for it in range(1, max_iter + 1):
        gap = _binner(x, s)
        mu = gap / nu
        r_p = b - apply_a(x)
        at_y = apply_at(y)
        r_d = [cb - sb - ab for cb, sb, ab in zip(c, s, at_y)]
        pobj = _binner(c, x)
        dobj = float(b @ y)

        pinf = float(np.linalg.norm(r_p)) / (1.0 + norm_b)
        dinf = _bnorm(r_d) / (1.0 + norm_c)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        worst = max(pinf, dinf, rel_gap)

        # iterates are rebound, never written in place, so no copies
        state = (x[:-1], y, pobj, dobj, rel_gap, pinf, dinf, it)
        if best is None or worst < best[0]:
            best = (worst, state)

        if worst <= tol:
            return _CoreResult(STATUS_OPTIMAL, *state)

        # ray-based infeasibility heuristics
        if dobj > 0.0 and np.linalg.norm(y) > 1e4:
            hom = _bnorm([sb + ab for sb, ab in zip(s, at_y)])
            if dobj / max(hom, 1e-300) > _RAY_RATIO:
                return _CoreResult(STATUS_INFEASIBLE, *state)
        if pobj < 0.0 and _bnorm(x) > 1e4 * scale_p:
            hom = float(np.linalg.norm(apply_a(x)))
            if -pobj / max(hom, 1e-300) > _RAY_RATIO:
                return _CoreResult(STATUS_UNBOUNDED, *state)

        *xm, xl = x
        *sm, sl = s
        sm_inv = []
        for sb, e in zip(sm, eyes):
            try:
                sm_inv.append(np.linalg.inv(sb))
            except np.linalg.LinAlgError:
                sm_inv.append(np.linalg.inv(sb + 1e-14 * e))
        sl_inv = 1.0 / np.where(sl != 0.0, sl, 1e-14)

        # Schur complement M[j,k] = sum_b Tr(A_bj X_b A_bk S_b^-1) + sum_i a_ji (x_i/s_i) a_ki
        big_m = (a_lin * (xl * sl_inv)) @ a_lin.T
        for f, xb, ab, si in zip(flat, xm, a_psd, sm_inv):
            big_m += f @ (xb @ ab @ si).reshape(m, xb.size).T

        def newton(k):
            """Solve for the step with dX S + X dS = K per block, dx s + x ds = k."""
            u = [(kb - xb @ rb) @ si for kb, xb, rb, si in zip(k, xm, r_d, sm_inv)]
            rhs = r_p - apply_a(u + [(k[-1] - xl * r_d[-1]) * sl_inv])
            try:
                dy = np.linalg.solve(big_m, rhs)
            except np.linalg.LinAlgError:
                reg = 1e-12 * max(1.0, float(np.abs(big_m).max()))
                dy = np.linalg.solve(big_m + reg * np.eye(m), rhs)
            ds = [rb - ab for rb, ab in zip(r_d, apply_at(dy))]
            dx = [_sym((kb - xb @ db) @ si) for kb, xb, db, si in zip(k, xm, ds, sm_inv)]
            return dx + [(k[-1] - xl * ds[-1]) * sl_inv], dy, ds

        # predictor (affine scaling)
        dx_a, dy_a, ds_a = newton([-(xb @ sb) for xb, sb in zip(xm, sm)] + [-(xl * sl)])
        if not _finite([dy_a, *dx_a]):
            break
        ap_a = min(1.0, _max_step(x, dx_a))
        ad_a = min(1.0, _max_step(s, ds_a))
        gap_aff = _binner(_step(x, ap_a, dx_a), _step(s, ad_a, ds_a))
        sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3) if gap > 0 else 0.1

        # corrector with second-order term
        k_cor = [
            sigma * mu * e - xb @ sb - db @ eb
            for e, xb, sb, db, eb in zip(eyes, xm, sm, dx_a, ds_a)
        ]
        dx, dy, ds = newton(k_cor + [sigma * mu - xl * sl - dx_a[-1] * ds_a[-1]])
        if not _finite([dy, *dx]):
            break
        alpha_p = min(1.0, _STEP_FRACTION * _max_step(x, dx))
        alpha_d = min(1.0, _STEP_FRACTION * _max_step(s, ds))
        if alpha_p < 1e-10 and alpha_d < 1e-10:
            break

        x = symmetrised(_step(x, alpha_p, dx))
        s = symmetrised(_step(s, alpha_d, ds))
        y = y + alpha_d * dy

    worst, state = best
    status = STATUS_OPTIMAL if worst <= _ACCEPTABLE_RESIDUAL else STATUS_NUMERICAL_FAILURE
    return _CoreResult(status, *state)


# ---------------------------------------------------------------------------
# Hermitian embedding
# ---------------------------------------------------------------------------


def _lift(c, mats):
    """Real symmetric cost block and (m, N, N) constraint stack from Hermitian data.

    Complex data goes through the embedding (N = 2n, ``embedded`` true); real
    data stays as it is (N = n).
    """
    stack = np.array([c, *mats], dtype=complex)
    embedded = bool(np.any(stack.imag != 0.0))
    if embedded:
        re, im = stack.real, stack.imag
        stack = np.concatenate([np.concatenate([re, -im], 2), np.concatenate([im, re], 2)], 1)
    else:
        stack = stack.real.copy()
    return stack[0], stack[1:], embedded


def _unembed(mr, n):
    re = (mr[:n, :n] + mr[n:, n:]) / 2.0
    im = (mr[n:, :n] - mr[:n, n:]) / 2.0
    return as_hermitian(re + 1j * im, warn_tol=np.inf)


# ---------------------------------------------------------------------------
# public problem types
# ---------------------------------------------------------------------------


@dataclass
class AffinePsdProblem:
    """min <C,X> over X >= 0 with Tr(A_k X) = b_k and Tr(B_j X) >= c_j."""

    objective: np.ndarray
    equality_constraints: list
    inequality_constraints: list = field(default_factory=list)
    dim: int = 0

    def __post_init__(self):
        self.objective = as_hermitian(self.objective)
        if self.dim == 0:
            self.dim = self.objective.shape[0]
        if self.objective.shape[0] != self.dim:
            raise DimensionMismatchError("objective dimension does not match problem dim")
        self.equality_constraints = [
            (as_hermitian(a), float(v)) for a, v in self.equality_constraints
        ]
        self.inequality_constraints = [
            (as_hermitian(a), float(v)) for a, v in self.inequality_constraints
        ]
        for a, _ in self.equality_constraints + self.inequality_constraints:
            if a.shape[0] != self.dim:
                raise DimensionMismatchError("constraint dimension does not match problem dim")
        if not self.equality_constraints and not self.inequality_constraints:
            raise ValidationError("problem needs at least one constraint")


@dataclass
class SdpSolution:
    status: str
    X: Optional[np.ndarray]
    value: float
    duals: np.ndarray
    certificate_residuals: dict


def psd_minimize(problem: AffinePsdProblem, tol: Optional[float] = None) -> SdpSolution:
    """Solve an :class:`AffinePsdProblem`; inequalities get orthant slacks."""
    tol = solver_tolerance(tol)
    n = problem.dim
    eqs = problem.equality_constraints
    ineqs = problem.inequality_constraints
    rows = eqs + ineqs
    c_psd, a_psd, embed = _lift(problem.objective, [a for a, _ in rows])
    bscale = 2.0 if embed else 1.0

    # Tr(B_j X) - x_j = c_j with slack x_j >= 0
    a_lin = np.zeros((len(rows), len(ineqs)))
    a_lin[len(eqs):] = -np.eye(len(ineqs))
    b = bscale * np.array([v for _, v in rows])

    res = _solve_core([c_psd], [a_psd], np.zeros(len(ineqs)), a_lin, b, tol)
    if res.status in (STATUS_INFEASIBLE, STATUS_UNBOUNDED):
        return SdpSolution(res.status, None, float("nan"), res.y, res.residual_dict())

    xmat = _unembed(res.X[0], n) if embed else as_hermitian(res.X[0], warn_tol=np.inf)
    value = res.primal_objective / bscale
    eig_min = float(np.linalg.eigvalsh(xmat)[0])
    eq_res = max(
        (abs(float(np.trace(a @ xmat).real) - v) / (1.0 + abs(v)) for a, v in eqs),
        default=0.0,
    )
    ineq_res = max(
        (max(0.0, v - float(np.trace(a @ xmat).real)) for a, v in ineqs),
        default=0.0,
    )
    residuals = res.residual_dict()
    residuals.update(
        {
            "primal_psd_violation": max(0.0, -eig_min),
            "equality_residual": eq_res,
            "inequality_residual": ineq_res,
        }
    )
    status = res.status
    if status == STATUS_OPTIMAL and (
        eig_min < -1e-7 or eq_res > 1e-7 or ineq_res > 1e-7
    ):
        status = STATUS_NUMERICAL_FAILURE
    return SdpSolution(status, xmat, value, res.y, residuals)


# ---------------------------------------------------------------------------
# LMI form: max b.y  s.t.  C - sum_k y_k A_k >= 0 (+ sign / cap constraints)
# ---------------------------------------------------------------------------


@dataclass
class LmiResult:
    status: str
    y: np.ndarray
    value: float
    primal_matrix: Optional[np.ndarray]
    primal_value: float
    residuals: dict


def maximize_lmi(
    b: Sequence[float],
    c_main: np.ndarray,
    a_main: Sequence[np.ndarray],
    nonneg: Sequence[int] = (),
    caps: Sequence[tuple] = (),
    tol: Optional[float] = None,
) -> LmiResult:
    """Maximise ``b . y`` subject to ``c_main - sum_k y_k a_main[k] >= 0``.

    ``nonneg`` lists variable indices constrained to y_k >= 0; ``caps`` holds
    ``(index, upper_bound)`` pairs.  The solver's primal block associated with
    the main LMI is returned (in original complex units) -- for prevision
    problems it is the optimising density matrix, for feasibility problems a
    separating functional.
    """
    tol = solver_tolerance(tol)
    b = np.asarray(b, dtype=float)
    m = len(b)
    if len(a_main) != m:
        raise DimensionMismatchError("one main-block coefficient required per variable")
    c_main = as_hermitian(c_main)
    a_main = [as_hermitian(a) for a in a_main]
    if any(a.shape != c_main.shape for a in a_main):
        raise DimensionMismatchError("main-block coefficients must match c_main's shape")
    n = c_main.shape[0]
    c_psd, a_psd, embed = _lift(c_main, a_main)

    # orthant slacks: y_k for y_k >= 0, ub - y_k for y_k <= ub
    a_lin = np.zeros((m, len(nonneg) + len(caps)))
    for j, idx in enumerate(nonneg):
        a_lin[idx, j] = -1.0
    for j, (idx, _) in enumerate(caps, start=len(nonneg)):
        a_lin[idx, j] = 1.0
    c_lin = np.array([0.0] * len(nonneg) + [float(ub) for _, ub in caps])

    res = _solve_core([c_psd], [a_psd], c_lin, a_lin, b, tol)
    scale = 2.0 if embed else 1.0
    primal = scale * (_unembed(res.X[0], n) if embed else as_hermitian(res.X[0], warn_tol=np.inf))
    return LmiResult(
        status=res.status,
        y=res.y,
        value=res.dual_objective,
        primal_matrix=primal,
        primal_value=res.primal_objective,
        residuals=res.residual_dict(),
    )


# ---------------------------------------------------------------------------
# feasibility of F0 + sum_i lam_i F_i >= 0 with lam >= 0
# ---------------------------------------------------------------------------

FEASIBLE_MARGIN = -1e-8
INFEASIBLE_MARGIN = -1e-6


@dataclass
class FeasibilityReport:
    margin: float
    multipliers: np.ndarray
    separating: Optional[np.ndarray]
    residuals: dict


def feasibility_margin(
    f0: np.ndarray, fs: Sequence[np.ndarray], tol: Optional[float] = None
) -> FeasibilityReport:
    """max t with F0 + sum lam_i F_i - t I >= 0, lam >= 0, t capped at 1.

    The margin is the optimal t; the primal block provides a separating
    functional (a PSD matrix sigma with <F0,sigma> < 0 <= <F_i,sigma>)
    whenever the margin is negative.
    """
    f0 = as_hermitian(f0)
    fs = [as_hermitian(f) for f in fs]
    n = f0.shape[0]
    p = len(fs)
    b = np.zeros(1 + p)
    b[0] = 1.0
    a_main = [np.eye(n, dtype=complex)] + [-f for f in fs]
    res = maximize_lmi(
        b,
        f0,
        a_main,
        nonneg=tuple(range(1, 1 + p)),
        caps=((0, 1.0),),
        tol=tol,
    )
    if res.status != STATUS_OPTIMAL:
        raise SolverFailure(
            f"feasibility solve ended with status {res.status}", residuals=res.residuals
        )
    t_opt = max(float(res.y[0]), -1e10)
    lam = np.maximum(res.y[1:], 0.0)
    sep = res.primal_matrix
    return FeasibilityReport(t_opt, lam, sep, res.residuals)


def psd_feasibility(
    f0: np.ndarray, fs: Sequence[np.ndarray], tol: Optional[float] = None
) -> Optional[np.ndarray]:
    """Multipliers lam >= 0 making F0 + sum lam_i F_i PSD, or None if impossible.

    Raises :class:`SolverFailure` on the ambiguous near-boundary band where
    the margin falls between the feasible and infeasible thresholds.
    """
    report = feasibility_margin(f0, fs, tol=tol)
    if report.margin >= FEASIBLE_MARGIN:
        return report.multipliers
    if report.margin < INFEASIBLE_MARGIN:
        return None
    raise SolverFailure(
        "feasibility margin is inconclusive",
        residuals={"margin": report.margin, **report.residuals},
    )
