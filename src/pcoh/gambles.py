"""Desirability calculus over Hermitian quadratic-form gambles.

An assessment set collects the gambles Alice accepts.  Coherence of the
induced cone, membership in its natural extension, and buying/selling prices
all reduce to small semidefinite programs; the dual object of a coherent set
is a credal set of density matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, sdp
from .errors import DimensionMismatchError, SolverFailure, ValidationError
from .quantum import DensityState

# largest total dimension of an assessment set: the dense scope of linalg
MAX_DIM = 64
_UNIT_TOL = 1e-10
_IMAG_TOL = 1e-12
# tolerance of the eigenvalue re-checks on solver output (states, Dutch books)
_CERT_TOL = 1e-7
# a feasibility margin at or above FEASIBLE_MARGIN means feasible, one below
# INFEASIBLE_MARGIN infeasible; the solve is inconclusive in between
FEASIBLE_MARGIN = -1e-8
INFEASIBLE_MARGIN = -1e-6


@dataclass(frozen=True)
class Gamble:
    """Quadratic-form payoff (tensor of unit vectors)^dagger G (tensor ...)."""

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        mat = linalg.as_hermitian(self.matrix)
        if not tuple(self.dims):
            raise ValidationError("gamble needs at least one factor dimension")
        dims = linalg.factor_dims(self.dims, mat.shape[0])
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def shifted(self, c: float) -> "Gamble":
        return Gamble(self.matrix + c * np.eye(self.dim), self.dims)

    def scaled(self, c: float) -> "Gamble":
        return Gamble(c * self.matrix, self.dims)

    def __neg__(self) -> "Gamble":
        return self.scaled(-1.0)


@dataclass(frozen=True)
class AssessmentSet:
    """Finite list of accepted gambles over a common factor structure.

    ``matrices`` is the read-only (m, n, n) stack of the gambles' matrices,
    built once from the already validated gambles; every solve takes it as is.
    ``norms`` holds their Frobenius norms, which scale the re-check tolerances.
    """

    gambles: tuple
    dims: tuple
    matrices: np.ndarray = field(init=False, repr=False, compare=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = linalg.factor_dims(self.dims)
        if not dims:
            raise ValidationError("assessment set needs factor dimensions")
        # a vacuous set carries no matrix, so its dims alone set the solve's size
        if math.prod(dims) > MAX_DIM:
            raise ValidationError(f"dims {dims} multiply past the supported {MAX_DIM}")
        gambles = tuple(self.gambles)
        for g in gambles:
            if g.dims != dims:
                raise DimensionMismatchError("all gambles must share the assessment dims")
        n = math.prod(dims)
        mats = np.array([g.matrix for g in gambles], dtype=complex).reshape(len(gambles), n, n)
        mats.flags.writeable = False
        norms = np.linalg.norm(mats, axis=(1, 2))
        norms.flags.writeable = False
        object.__setattr__(self, "gambles", gambles)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "norms", norms)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @classmethod
    def vacuous(cls, dims) -> "AssessmentSet":
        return cls(gambles=(), dims=tuple(dims))

    @classmethod
    def for_single_state(cls, rho: DensityState) -> "AssessmentSet":
        """Finite assessment set whose credal dual is exactly {rho}.

        Uses the gambles g_k = E_k - Tr(E_k rho) I over a Hermitian operator
        basis E_k, plus the one gamble -sum_k g_k.  Their cone is the span of
        the g_k (sum c_k g_k = sum (c_k + t) g_k + t (-sum g_k) with
        t = max(0, -min c_k)), which pins every expectation and hence the dual
        point.  The pairs +/-g_k span the same cone but would leave the
        interior-point solve no interior.  The E_k are
        :func:`pcoh.linalg.hermitian_basis`, in its order; the singleton
        solves depend on that order.
        """
        n = rho.dim
        basis = linalg.hermitian_basis(n)
        values = np.einsum("kij,ji->k", basis, rho.matrix).real
        gs = [g for g in basis - values[:, None, None] * np.eye(n) if np.linalg.norm(g) >= 1e-14]
        if gs:
            gs.append(-sum(gs))
        return cls(gambles=tuple(Gamble(g, rho.dims) for g in gs), dims=rho.dims)


@dataclass(frozen=True)
class CoherenceVerdict:
    p_coherent: bool
    certificate: object
    margin: float


def gamble_eval(g: Gamble, states) -> float:
    """Evaluate the quadratic form at one unit vector per factor."""
    if len(states) != len(g.dims):
        raise DimensionMismatchError(
            f"expected {len(g.dims)} factor states, got {len(states)}"
        )
    vecs = []
    for st, d in zip(states, g.dims):
        v = np.asarray(st, dtype=complex).reshape(-1)
        if v.shape[0] != d:
            raise DimensionMismatchError("factor state has wrong dimension")
        if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
            raise ValidationError("factor states must have unit norm")
        vecs.append(v)
    v = linalg.tensor_product(vecs)
    val = complex(v.conj() @ g.matrix @ v)
    if abs(val.imag) > _IMAG_TOL * (1.0 + np.linalg.norm(g.matrix)):
        raise ValidationError(f"quadratic form returned imaginary residue {val.imag}")
    return float(val.real)


def _shift_lmi(a: AssessmentSet, f0, cap: float, accept=None):
    """max t s.t. F0 - t I - sum lam_i G_i >= 0, lam >= 0 and t <= cap."""
    p = len(a.gambles)
    b = np.zeros(1 + p)
    b[0] = 1.0
    a_main = np.concatenate([np.eye(a.dim, dtype=complex)[None], a.matrices])
    return sdp.maximize_lmi(
        b, f0, a_main, nonneg=tuple(range(1, 1 + p)), caps=((0, cap),), accept=accept
    )


def _feasibility(a: AssessmentSet, f0):
    """Is F0 = sum lam_i G_i + P for some lam >= 0 and PSD P?

    Returns ``(margin, lam, sigma)``: the multipliers lam when it is (sigma
    None), the separating state sigma when it is not (lam None).  The margin
    is the largest t <= 1 with F0 - t I - sum lam_i G_i PSD, or a bound on it.

    The solve ends at the first iterate that carries a certificate, and that
    certificate is rebuilt from the returned result and checked again:

    * multipliers lam = max(y_1..p, 0) with lambda_min(F0 - sum lam_i G_i)
      >= 0, a lower bound on the margin.  When F0 = -I (the coherence
      question) an iterate with t = y_0 > -1 offers lam / (1 + t), since
      -(1 + t) I - sum lam_i G_i >= 0 is then the same Dutch book;
    * a state sigma, the primal block over its trace, that passes
      :func:`_certifies_coherence` with Tr(F0 sigma) below INFEASIBLE_MARGIN,
      an upper bound on the margin.

    A solve that finds no certificate runs to its optimum, and its margin
    y_0 decides.  At or above FEASIBLE_MARGIN it comes with the multipliers
    built as above, which must pass lambda_min(F0 - sum lam_i G_i) >=
    -1e-7 (1 + sum lam_i |G_i|); below INFEASIBLE_MARGIN with the state built
    as above, which must pass :func:`_certifies_coherence` with
    Tr(F0 sigma) < 0.  A margin in between, or a failed re-check, raises
    :class:`SolverFailure`.
    """
    n = a.dim
    coherence = np.array_equal(f0, -np.eye(n))
    flat = a.matrices.reshape(len(a.gambles), n * n)
    certified_by = None

    def multipliers(y):
        lam = np.maximum(y[1:], 0.0)
        if coherence and y[0] > -1.0:
            lam = lam / (1.0 + y[0])
        return lam, f0 - (lam @ flat).reshape(n, n)

    def accept(y, primal):
        nonlocal certified_by
        slack = multipliers(y)[1]
        # a PSD slack has a nonnegative diagonal, which is cheaper to test
        if slack.diagonal().real.min() >= 0.0 and np.linalg.eigvalsh(slack)[0] >= 0.0:
            certified_by = "multipliers"
        elif _separating_state(a, f0, primal, INFEASIBLE_MARGIN)[0] is not None:
            certified_by = "state"
        return certified_by is not None

    res = _shift_lmi(a, f0, 1.0, accept)
    if res.status == sdp.STATUS_CERTIFIED:
        if certified_by == "multipliers":
            lam, slack = multipliers(res.y)
            slack_min = float(np.linalg.eigvalsh(slack)[0])
            if slack_min < 0.0:
                raise SolverFailure(
                    "multipliers fail the re-check",
                    residuals={"slack_min_eig": slack_min, **res.residuals},
                )
            return min(slack_min, 1.0), lam, None
        sigma, trace, value = _separating_state(a, f0, res.primal_matrix, INFEASIBLE_MARGIN)
        if sigma is None:
            raise SolverFailure(
                "separating state fails the re-check",
                residuals={"trace": trace, "value": value, **res.residuals},
            )
        return value, None, sigma
    if res.status != sdp.STATUS_OPTIMAL:
        raise SolverFailure(
            f"feasibility solve ended with status {res.status}", residuals=res.residuals
        )
    margin = max(float(res.y[0]), -1e10)
    if margin >= FEASIBLE_MARGIN:
        lam, slack = multipliers(res.y)
        slack_min = float(np.linalg.eigvalsh(slack)[0])
        scale = 1.0 + float(lam @ a.norms)
        if slack_min < -_CERT_TOL * scale:
            raise SolverFailure(
                "multipliers fail the re-check",
                residuals={"margin": margin, "slack_min_eig": slack_min, "scale": scale,
                           **res.residuals},
            )
        return margin, lam, None
    if margin >= INFEASIBLE_MARGIN:
        raise SolverFailure(
            "feasibility margin is inconclusive", residuals={"margin": margin, **res.residuals}
        )
    sigma, trace, value = _separating_state(a, f0, res.primal_matrix, 0.0)
    if sigma is None:
        raise SolverFailure(
            "separating state fails the re-check",
            residuals={"margin": margin, "trace": trace, "value": value, **res.residuals},
        )
    return margin, None, sigma


def _separating_state(a: AssessmentSet, f0, primal, bound: float):
    """``(sigma, trace, value)`` for the state sigma = primal / Tr(primal).

    ``value`` is Tr(F0 sigma).  ``sigma`` is None unless Tr(primal) > 0,
    ``value`` is below ``bound`` and sigma passes :func:`_certifies_coherence`.
    """
    trace = float(np.trace(primal).real)
    if not trace > 0.0:
        return None, trace, np.nan
    sigma = primal / trace
    value = float(np.trace(f0 @ sigma).real)
    return (sigma if value < bound and _certifies_coherence(a, sigma) else None), trace, value


def is_p_coherent(a: AssessmentSet) -> CoherenceVerdict:
    """Check that no positive combination of assessments plus a PSD form equals -1.

    Incoherence is the feasibility of -I - sum lam_i G_i >= 0 with lam >= 0.
    The margin is the optimum of max t s.t. -I - t I - sum lam_i G_i >= 0,
    lam >= 0, t <= 1, which is exactly -1.0 for a coherent set (a state with
    Tr(G_i rho) >= 0 gives t <= -1, and lam = 0 attains it) and exactly +1.0
    for an incoherent one (a Dutch book, scaled by 2, attains the cap).  An
    incoherent set comes with the minimal-stake multiplier certificate.
    """
    _, lam, _ = _feasibility(a, -np.eye(a.dim, dtype=complex))
    if lam is None:
        return CoherenceVerdict(True, None, -1.0)
    return CoherenceVerdict(False, _minimal_dutch_book(a), 1.0)


def _minimal_dutch_book(a: AssessmentSet):
    """Multipliers of least total stake realising -I = sum lam_i G_i + PSD.

    The solver's multipliers are checked again before they are returned:
    lam >= 0 and lambda_min(-I - sum lam_i G_i) >= -1e-7 (1 + sum lam_i |G_i|),
    the latter by an eigenvalue test independent of the solve.
    """
    p = len(a.gambles)
    eye = np.eye(a.dim, dtype=complex)
    res = sdp.maximize_lmi(-np.ones(p), -eye, a.matrices, nonneg=tuple(range(p)))
    if res.status != sdp.STATUS_OPTIMAL:
        raise SolverFailure(
            f"certificate polish ended with status {res.status}", residuals=res.residuals
        )
    lam = np.maximum(res.y, 0.0)
    scale = 1.0 + float(lam @ a.norms)
    slack_min = float(np.linalg.eigvalsh(-eye - np.tensordot(lam, a.matrices, 1))[0])
    lam_min = float(res.y.min())
    if lam_min < -_CERT_TOL * scale or slack_min < -_CERT_TOL * scale:
        raise SolverFailure(
            "Dutch-book multipliers fail the eigenvalue re-check",
            residuals={"multiplier_min": lam_min, "slack_min_eig": slack_min,
                       "scale": scale, **res.residuals},
        )
    return lam


def natural_extension_contains(a: AssessmentSet, f: Gamble) -> bool:
    """Membership of f in posi(PSD forms plus assessments)."""
    if f.dims != a.dims:
        raise DimensionMismatchError("gamble dims do not match the assessment set")
    return _feasibility(a, f.matrix)[1] is not None


def _certifies_coherence(a: AssessmentSet, rho) -> bool:
    """True when rho is, to _CERT_TOL, a state with Tr(G rho) >= 0 for every assessed G.

    Such a state rules out a Dutch book: -I = sum lam_i G_i + P would give
    -1 = sum lam_i Tr(G_i rho) + Tr(P rho) >= 0.
    """
    values = np.einsum("kij,ji->k", a.matrices, rho).real
    if not np.all(values >= -_CERT_TOL * (1.0 + a.norms)):
        return False
    return bool(
        np.linalg.eigvalsh(rho)[0] >= -_CERT_TOL and abs(np.trace(rho).real - 1.0) <= _CERT_TOL
    )


def _solve_prevision(a: AssessmentSet, f: Gamble):
    """The prevision solve, on P-coherent assessments only.

    The solve runs first.  When its optimising density matrix certifies
    coherence, no coherence solve is needed; otherwise :func:`is_p_coherent`
    decides, so an incoherent set raises ValidationError as before.
    """
    if f.dims != a.dims:
        raise DimensionMismatchError("gamble dims do not match the assessment set")
    res = _shift_lmi(a, f.matrix, float(np.linalg.norm(f.matrix)) + 1.0)
    if a.gambles and not _certifies_coherence(a, res.primal_matrix):
        if not is_p_coherent(a).p_coherent:
            raise ValidationError("previsions are defined for P-coherent assessments only")
    if res.status != sdp.STATUS_OPTIMAL:
        raise SolverFailure(
            f"prevision solve ended with status {res.status}", residuals=res.residuals
        )
    return res


def lower_prevision(a: AssessmentSet, f: Gamble) -> float:
    """Supremum buying price of f against the assessments.

    Solved as max gamma with F - gamma I - sum lam_i G_i PSD and lam >= 0;
    the optimising density matrix of the dual programme is recomputed as a
    strong-duality cross-check.
    """
    res = _solve_prevision(a, f)
    gamma = float(res.y[0])
    rho = res.primal_matrix
    dual_value = float(np.trace(f.matrix @ rho).real)
    if abs(dual_value - gamma) > 1e-6 * (1.0 + abs(gamma)):
        raise SolverFailure(
            "strong duality violated in prevision solve",
            residuals={"primal": gamma, "dual": dual_value, **res.residuals},
        )
    return gamma


def upper_prevision(a: AssessmentSet, f: Gamble) -> float:
    """Infimum selling price: the conjugate of the lower prevision."""
    return -lower_prevision(a, -f)


def prevision_witness(a: AssessmentSet, f: Gamble) -> np.ndarray:
    """Density matrix attaining the lower prevision (the dual optimiser)."""
    return _solve_prevision(a, f).primal_matrix

