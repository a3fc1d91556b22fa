"""Desirability calculus over Hermitian quadratic-form gambles.

An assessment set collects the gambles Alice accepts.  Coherence of the
induced cone, membership in its natural extension, and buying/selling prices
all reduce to small semidefinite programs; the dual object of a coherent set
is a credal set of density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, sdp
from .errors import DimensionMismatchError, SolverFailure, ValidationError
from .quantum import DensityState

_UNIT_TOL = 1e-10
_IMAG_TOL = 1e-12
# tolerance of the eigenvalue re-checks on solver output (states, Dutch books)
_CERT_TOL = 1e-7


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
    """Finite list of accepted gambles over a common factor structure."""

    gambles: tuple
    dims: tuple

    def __post_init__(self):
        dims = linalg.factor_dims(self.dims)
        if not dims:
            raise ValidationError("assessment set needs factor dimensions")
        gambles = tuple(self.gambles)
        for g in gambles:
            if g.dims != dims:
                raise DimensionMismatchError("all gambles must share the assessment dims")
        object.__setattr__(self, "gambles", gambles)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def matrices(self):
        return [g.matrix for g in self.gambles]

    @classmethod
    def vacuous(cls, dims) -> "AssessmentSet":
        return cls(gambles=(), dims=tuple(dims))

    @classmethod
    def for_single_state(cls, rho: DensityState) -> "AssessmentSet":
        """Finite assessment set whose credal dual is exactly {rho}.

        Uses the gambles +/-(E_k - Tr(E_k rho) I) over a Hermitian operator
        basis E_k, which pin every expectation and hence the dual point.
        """
        n = rho.dim
        basis = _hermitian_basis(n)
        eye = np.eye(n)
        gambles = []
        for e in basis:
            c = float(np.trace(e @ rho.matrix).real)
            g = e - c * eye
            if np.linalg.norm(g) < 1e-14:
                continue
            gambles.append(Gamble(g, rho.dims))
            gambles.append(Gamble(-g, rho.dims))
        return cls(gambles=tuple(gambles), dims=rho.dims)


def _hermitian_basis(n: int) -> list:
    out = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    rt = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = rt
            e[j, i] = rt
            out.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = -1j * rt
            e[j, i] = 1j * rt
            out.append(e)
    return out


@dataclass(frozen=True)
class CoherenceVerdict:
    p_coherent: bool
    certificate: object
    margin: float


@dataclass(frozen=True)
class CredalSet:
    """Implicit dual set {rho : Tr(G rho) >= 0 for all assessed G}."""

    assessments: AssessmentSet


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
    v = linalg.kron_all(vecs)
    val = complex(v.conj() @ g.matrix @ v)
    if abs(val.imag) > _IMAG_TOL * (1.0 + np.linalg.norm(g.matrix)):
        raise ValidationError(f"quadratic form returned imaginary residue {val.imag}")
    return float(val.real)


def is_p_coherent(a: AssessmentSet, tol=None) -> CoherenceVerdict:
    """Check that no positive combination of assessments plus a PSD form equals -1.

    Incoherence is the feasibility of -I - sum lam_i G_i >= 0 with lam >= 0;
    the optimal shift of that system is reported as the margin, and an
    incoherent set comes with the minimal-stake multiplier certificate.
    """
    eye = np.eye(a.dim, dtype=complex)
    report = sdp.feasibility_margin(-eye, [-g for g in a.matrices], tol=tol)
    if sdp.INFEASIBLE_MARGIN <= report.margin < sdp.FEASIBLE_MARGIN:
        raise SolverFailure(
            "coherence check is numerically inconclusive",
            residuals={"margin": report.margin},
        )
    if report.margin < 0.0:
        return CoherenceVerdict(True, None, report.margin)
    lam = _minimal_dutch_book(a, tol=tol)
    return CoherenceVerdict(False, lam, report.margin)


def _minimal_dutch_book(a: AssessmentSet, tol=None):
    """Multipliers of least total stake realising -I = sum lam_i G_i + PSD.

    The solver's multipliers are checked again before they are returned:
    lam >= 0 and lambda_min(-I - sum lam_i G_i) >= -1e-7 (1 + sum lam_i |G_i|),
    the latter by an eigenvalue test independent of the solve.
    """
    p = len(a.gambles)
    eye = np.eye(a.dim, dtype=complex)
    b = -np.ones(p)
    res = sdp.maximize_lmi(
        b,
        -eye,
        [g for g in a.matrices],
        nonneg=tuple(range(p)),
        tol=tol,
    )
    if res.status != sdp.STATUS_OPTIMAL:
        raise SolverFailure(
            f"certificate polish ended with status {res.status}", residuals=res.residuals
        )
    lam = np.maximum(res.y, 0.0)
    mats = np.array(a.matrices)
    scale = 1.0 + float(lam @ np.linalg.norm(mats, axis=(1, 2)))
    slack_min = float(np.linalg.eigvalsh(-eye - np.tensordot(lam, mats, 1))[0])
    lam_min = float(res.y.min())
    if lam_min < -_CERT_TOL * scale or slack_min < -_CERT_TOL * scale:
        raise SolverFailure(
            "Dutch-book multipliers fail the eigenvalue re-check",
            residuals={"multiplier_min": lam_min, "slack_min_eig": slack_min,
                       "scale": scale, **res.residuals},
        )
    return lam


def natural_extension_contains(a: AssessmentSet, f: Gamble, tol=None) -> bool:
    """Membership of f in posi(PSD forms plus assessments)."""
    if f.dims != a.dims:
        raise DimensionMismatchError("gamble dims do not match the assessment set")
    return sdp.psd_feasibility(f.matrix, [-g for g in a.matrices], tol=tol) is not None


def _prevision_lmi(a: AssessmentSet, f: Gamble, tol=None):
    p = len(a.gambles)
    n = a.dim
    b = np.zeros(1 + p)
    b[0] = 1.0
    cap = float(np.linalg.norm(f.matrix)) + 1.0
    a_main = [np.eye(n, dtype=complex)] + list(a.matrices)
    return sdp.maximize_lmi(
        b,
        f.matrix,
        a_main,
        nonneg=tuple(range(1, 1 + p)),
        caps=((0, cap),),
        tol=tol,
    )


def _certifies_coherence(a: AssessmentSet, rho) -> bool:
    """True when rho is, to _CERT_TOL, a state with Tr(G rho) >= 0 for every assessed G.

    Such a state rules out a Dutch book: -I = sum lam_i G_i + P would give
    -1 = sum lam_i Tr(G_i rho) + Tr(P rho) >= 0.
    """
    if np.linalg.eigvalsh(rho)[0] < -_CERT_TOL or abs(np.trace(rho).real - 1.0) > _CERT_TOL:
        return False
    mats = np.array(a.matrices)
    values = np.einsum("kij,ji->k", mats, rho).real
    return bool(np.all(values >= -_CERT_TOL * (1.0 + np.linalg.norm(mats, axis=(1, 2)))))


def _solve_prevision(a: AssessmentSet, f: Gamble, tol=None):
    """The prevision solve, on P-coherent assessments only.

    The solve runs first.  When its optimising density matrix certifies
    coherence, no coherence solve is needed; otherwise :func:`is_p_coherent`
    decides, so an incoherent set raises ValidationError as before.
    """
    if f.dims != a.dims:
        raise DimensionMismatchError("gamble dims do not match the assessment set")
    res = _prevision_lmi(a, f, tol=tol)
    if a.gambles and not _certifies_coherence(a, res.primal_matrix):
        if not is_p_coherent(a, tol=tol).p_coherent:
            raise ValidationError("previsions are defined for P-coherent assessments only")
    if res.status != sdp.STATUS_OPTIMAL:
        raise SolverFailure(
            f"prevision solve ended with status {res.status}", residuals=res.residuals
        )
    return res


def lower_prevision(a: AssessmentSet, f: Gamble, tol=None) -> float:
    """Supremum buying price of f against the assessments.

    Solved as max gamma with F - gamma I - sum lam_i G_i PSD and lam >= 0;
    the optimising density matrix of the dual programme is recomputed as a
    strong-duality cross-check.
    """
    res = _solve_prevision(a, f, tol=tol)
    gamma = float(res.y[0])
    rho = res.primal_matrix
    dual_value = float(np.trace(f.matrix @ rho).real)
    if abs(dual_value - gamma) > 1e-6 * (1.0 + abs(gamma)):
        raise SolverFailure(
            "strong duality violated in prevision solve",
            residuals={"primal": gamma, "dual": dual_value, **res.residuals},
        )
    return gamma


def upper_prevision(a: AssessmentSet, f: Gamble, tol=None) -> float:
    """Infimum selling price: the conjugate of the lower prevision."""
    return -lower_prevision(a, -f, tol=tol)


def prevision_witness(a: AssessmentSet, f: Gamble, tol=None) -> np.ndarray:
    """Density matrix attaining the lower prevision (the dual optimiser)."""
    return _solve_prevision(a, f, tol=tol).primal_matrix


def credal_contains(c: CredalSet, rho: DensityState, slack: float = 1e-9) -> bool:
    """Membership of a density state in the dual credal set."""
    if rho.dim != c.assessments.dim:
        raise DimensionMismatchError("state dimension does not match the credal set")
    return all(
        float(np.trace(g @ rho.matrix).real) >= -slack for g in c.assessments.matrices
    )
