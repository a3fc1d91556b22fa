"""Small dense semidefinite programming: one solver core, one entry point.

The core is a primal-dual interior-point method (predictor-corrector, KSH
direction, dense normal-equation solves) over one dense PSD block of modest
size (several go in block-diagonally) plus one nonnegative orthant.  Each
iterate is Cholesky-factored once per iteration, and that factor serves S^-1
and every step-length test.  Complex Hermitian data is handled through the
real symmetric embedding ``[[Re X, -Im X], [Im X, Re X]]``; slack scalars
(sign constraints and caps) live in the orthant, which is updated
elementwise.

:func:`maximize_lmi` is the one entry point: max b.y subject to
C - sum_k y_k A_k >= 0, with optional sign and cap constraints on y.  Its
coefficients must already be Hermitian: they are checked, not symmetrised, so
callers symmetrise once where the data enters (``linalg.as_hermitian``).

Every solve is deterministic: fixed iteration order, no randomisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import HERMITICITY_WARN_TOL, as_hermitian

_TARGET_RESIDUAL = 1e-9
MAX_ITERATIONS = 200
_STEP_FRACTION = 0.98
_ACCEPTABLE_RESIDUAL = 1e-7
_RAY_RATIO = 1e6

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_NUMERICAL_FAILURE = "numerical_failure"


# ---------------------------------------------------------------------------
# standard-form core
# ---------------------------------------------------------------------------


@dataclass
class _CoreResult:
    status: str
    X: np.ndarray
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


def _inner(p, q):
    """<P,Q> + p.q for iterate pairs p = (P, p_lin) and q = (Q, q_lin)."""
    return float((p[0] * q[0]).sum() + (p[1] * q[1]).sum())


def _finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


def _inverse_factor(p):
    """L^-1 for the Cholesky factor L of a PSD iterate, or None if it is lost.

    A failed factorisation is retried once with a jitter of 1e-14 times the
    mean eigenvalue (at least 1e-14).
    """
    n = p.shape[0]
    try:
        chol = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        jitter = 1e-14 * max(1.0, float(np.trace(p)) / n)
        try:
            chol = np.linalg.cholesky(p + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            return None
    return np.linalg.inv(chol)


def _max_step(inv_factor, d, p_lin, d_lin):
    """Largest alpha keeping (P + alpha*d, p_lin + alpha*d_lin) in the cone.

    ``inv_factor`` is L^-1 for the Cholesky factor L of P, so the PSD bound is
    -1/lambda_min(L^-1 d L^-T) (``eigvalsh`` reads one triangle, so rounding
    asymmetry is harmless); the orthant bound is -1/min_i(d_i/p_i).  Returns 0
    when the direction is not finite, P's factor was lost (``inv_factor``
    None) or the orthant part has left its cone, which the main loop treats as
    a stall.
    """
    if inv_factor is None or not _finite(d, d_lin):
        return 0.0
    p_lin = np.where(p_lin > 0.0, p_lin, p_lin + 1e-14)
    if (p_lin <= 0.0).any():
        return 0.0
    worst = min(
        float(np.linalg.eigvalsh(inv_factor @ d @ inv_factor.T)[0]),
        float((d_lin / p_lin).min(initial=0.0)),
    )
    return -1.0 / worst if worst < 0.0 else np.inf


def _solve_core(c_psd, a_psd, c_lin, a_lin, b):
    """Predictor-corrector interior point over one PSD block and one orthant.

    Solves min <C,X> + c_lin.x  s.t.  Tr(A_k X) + (a_lin x)_k = b_k, X >= 0
    and x >= 0.  ``c_psd`` is the (n, n) cost, ``a_psd`` the (m, n, n) stack
    of symmetric A_k and ``a_lin`` the (m, n_l) constraint matrix of the
    orthant.  Several PSD blocks go in as one block-diagonal block: the KSH
    direction keeps X and S block-diagonal when C and every A_k are.  It stops
    once the relative primal and dual infeasibility and gap are all at most
    1e-9; after MAX_ITERATIONS, or a stall, it returns its best iterate, which
    counts as optimal when those are at most 1e-7.
    """
    b = np.asarray(b, dtype=float)
    m = len(b)
    n = c_psd.shape[0]
    eye = np.eye(n)
    nu = n + len(c_lin)
    # A_k is symmetric, so Tr(A_k U) = vec(A_k) . vec(U) for any U
    flat = a_psd.reshape(m, n * n)

    def apply_a(u, u_lin):
        return flat @ u.ravel() + a_lin @ u_lin

    def apply_at(yv):
        return (yv @ flat).reshape(n, n), yv @ a_lin

    c = (c_psd, c_lin)
    norm_c = np.sqrt(_inner(c, c))
    norm_b = float(np.linalg.norm(b))
    a_norms = np.sqrt((flat * flat).sum(axis=1) + (a_lin * a_lin).sum(axis=1))

    ratio = float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms), initial=0.0))
    scale_p = max(10.0, np.sqrt(nu), ratio * np.sqrt(nu))
    scale_d = max(10.0, np.sqrt(nu), norm_c, float(a_norms.max(initial=0.0)))

    X, x = scale_p * eye, np.full(len(c_lin), scale_p)
    S, s = scale_d * eye, np.full(len(c_lin), scale_d)
    y = np.zeros(m)

    best = None

    for it in range(1, MAX_ITERATIONS + 1):
        gap = _inner((X, x), (S, s))
        mu = gap / nu
        ax = apply_a(X, x)
        r_p = b - ax
        at_y, atl_y = apply_at(y)
        R, r = c_psd - S - at_y, c_lin - s - atl_y
        pobj = _inner(c, (X, x))
        dobj = float(b @ y)

        pinf = float(np.linalg.norm(r_p)) / (1.0 + norm_b)
        dinf = np.sqrt(_inner((R, r), (R, r))) / (1.0 + norm_c)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        worst = max(pinf, dinf, rel_gap)

        # iterates are rebound, never written in place, so no copies
        state = (X, y, pobj, dobj, rel_gap, pinf, dinf, it)
        if best is None or worst < best[0]:
            best = (worst, state)

        if worst <= _TARGET_RESIDUAL:
            return _CoreResult(STATUS_OPTIMAL, *state)

        # ray-based infeasibility heuristics
        if dobj > 0.0 and np.linalg.norm(y) > 1e4:
            hom = (S + at_y, s + atl_y)
            if dobj / max(np.sqrt(_inner(hom, hom)), 1e-300) > _RAY_RATIO:
                return _CoreResult(STATUS_INFEASIBLE, *state)
        if pobj < 0.0 and np.sqrt(_inner((X, x), (X, x))) > 1e4 * scale_p:
            hom = float(np.linalg.norm(ax))
            if -pobj / max(hom, 1e-300) > _RAY_RATIO:
                return _CoreResult(STATUS_UNBOUNDED, *state)

        # one factorisation of each iterate serves S^-1 and all four step tests
        inv_lx = _inverse_factor(X)
        inv_ls = _inverse_factor(S)
        if inv_ls is not None:
            s_mat_inv = inv_ls.T @ inv_ls
        else:
            s_mat_inv = np.linalg.inv(S + 1e-14 * eye)
        s_inv = 1.0 / np.where(s != 0.0, s, 1e-14)

        # Schur complement M[j,k] = Tr(A_j X A_k S^-1) + sum_i a_ji (x_i/s_i) a_ki
        big_m = (a_lin * (x * s_inv)) @ a_lin.T
        big_m += flat @ (X @ a_psd @ s_mat_inv).reshape(m, n * n).T

        def newton(k_mat, k_lin):
            """Solve for the step with dX S + X dS = K and dx s + x ds = k."""
            u = (k_mat - X @ R) @ s_mat_inv
            rhs = r_p - apply_a(u, (k_lin - x * r) * s_inv)
            try:
                dy = np.linalg.solve(big_m, rhs)
            except np.linalg.LinAlgError:
                reg = 1e-12 * max(1.0, float(np.abs(big_m).max()))
                dy = np.linalg.solve(big_m + reg * np.eye(m), rhs)
            at_dy, atl_dy = apply_at(dy)
            dS, ds = R - at_dy, r - atl_dy
            dX = _sym((k_mat - X @ dS) @ s_mat_inv)
            return dX, (k_lin - x * ds) * s_inv, dy, dS, ds

        # predictor (affine scaling)
        dX_a, dx_a, dy_a, dS_a, ds_a = newton(-(X @ S), -(x * s))
        if not _finite(dy_a, dX_a, dx_a):
            break
        ap_a = min(1.0, _max_step(inv_lx, dX_a, x, dx_a))
        ad_a = min(1.0, _max_step(inv_ls, dS_a, s, ds_a))
        gap_aff = _inner((X + ap_a * dX_a, x + ap_a * dx_a), (S + ad_a * dS_a, s + ad_a * ds_a))
        sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3) if gap > 0 else 0.1

        # corrector with second-order term
        dX, dx, dy, dS, ds = newton(
            sigma * mu * eye - X @ S - dX_a @ dS_a, sigma * mu - x * s - dx_a * ds_a
        )
        if not _finite(dy, dX, dx):
            break
        alpha_p = min(1.0, _STEP_FRACTION * _max_step(inv_lx, dX, x, dx))
        alpha_d = min(1.0, _STEP_FRACTION * _max_step(inv_ls, dS, s, ds))
        if alpha_p < 1e-10 and alpha_d < 1e-10:
            break

        X, x = _sym(X + alpha_p * dX), x + alpha_p * dx
        S, s = _sym(S + alpha_d * dS), s + alpha_d * ds
        y = y + alpha_d * dy

    worst, state = best
    status = STATUS_OPTIMAL if worst <= _ACCEPTABLE_RESIDUAL else STATUS_NUMERICAL_FAILURE
    return _CoreResult(status, *state)


# ---------------------------------------------------------------------------
# Hermitian embedding
# ---------------------------------------------------------------------------


def _lift(c, mats):
    """Real symmetric cost block and (m, N, N) constraint stack from Hermitian data.

    ``c`` is (n, n) and ``mats`` an (m, n, n) stack.  The data is checked once,
    as a whole: square matching shapes (else DimensionMismatchError), finite
    entries and |A - A^dagger| <= HERMITICITY_WARN_TOL (1 + |A|) for each
    matrix (else ValidationError).  Complex data goes through the embedding
    (N = 2n, ``embedded`` true); real data stays as it is (N = n).
    """
    c = np.asarray(c, dtype=complex)
    try:
        mats = np.asarray(mats, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatchError("main-block coefficients must share one shape") from exc
    if len(mats) == 0:
        mats = mats.reshape(0, *c.shape)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or mats.shape[1:] != c.shape:
        raise DimensionMismatchError(
            f"expected square coefficients of c_main's shape {c.shape}, got {mats.shape[1:]}"
        )
    stack = np.concatenate([c[None], mats])
    if not np.isfinite(stack.view(float)).all():
        raise ValidationError("main-block coefficients must be finite")
    skew = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2))
    if (skew > HERMITICITY_WARN_TOL * (1.0 + np.linalg.norm(stack, axis=(1, 2)))).any():
        raise ValidationError("main-block coefficients must be Hermitian")
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
    a_main: np.ndarray,
    nonneg: Sequence[int] = (),
    caps: Sequence[tuple] = (),
) -> LmiResult:
    """Maximise ``b . y`` subject to ``c_main - sum_k y_k a_main[k] >= 0``.

    ``c_main`` is an (n, n) Hermitian matrix and ``a_main`` an (m, n, n)
    stack of Hermitian matrices, one per variable; both are checked as in
    :func:`_lift`, never symmetrised.  ``nonneg`` lists variable indices
    constrained to y_k >= 0; ``caps`` holds ``(index, upper_bound)`` pairs.
    The solver's primal block associated with the main LMI is returned (in
    original complex units) -- for prevision problems it is the optimising
    density matrix, for feasibility problems a separating functional.

    ``status`` names the core's primal side, min <C, X> over the primal
    block, not this maximisation: ``unbounded`` means that side is unbounded
    below, so no y satisfies the LMI; ``infeasible`` means it has no feasible
    X, shown by a direction in y that raises b . y and keeps the LMI.
    """
    b = np.asarray(b, dtype=float)
    m = len(b)
    if len(a_main) != m:
        raise DimensionMismatchError("one main-block coefficient required per variable")
    c_psd, a_psd, embed = _lift(c_main, a_main)
    n = c_psd.shape[0] // 2 if embed else c_psd.shape[0]

    # orthant slacks: y_k for y_k >= 0, ub - y_k for y_k <= ub
    a_lin = np.zeros((m, len(nonneg) + len(caps)))
    for j, idx in enumerate(nonneg):
        a_lin[idx, j] = -1.0
    for j, (idx, _) in enumerate(caps, start=len(nonneg)):
        a_lin[idx, j] = 1.0
    c_lin = np.array([0.0] * len(nonneg) + [float(ub) for _, ub in caps])

    res = _solve_core(c_psd, a_psd, c_lin, a_lin, b)
    scale = 2.0 if embed else 1.0
    primal = scale * (_unembed(res.X, n) if embed else as_hermitian(res.X, warn_tol=np.inf))
    return LmiResult(
        status=res.status,
        y=res.y,
        value=res.dual_objective,
        primal_matrix=primal,
        primal_value=res.primal_objective,
        residuals=res.residual_dict(),
    )
