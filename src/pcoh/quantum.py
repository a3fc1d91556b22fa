"""Derived quantum operations on density states.

Everything here is a consequence of the dual view of a density matrix: Born
probabilities are traces against a partition of unity, conditioning is the
compression by a projector, evolution is conjugation by a unitary, marginals
are partial traces.  The qubit SIC fixture supports the informationally
complete rewrite of the Born rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConditioningError, DimensionMismatchError, ValidationError
from .fixtures import SIGMA_X, SIGMA_Y, SIGMA_Z

_PSD_TOL = 1e-9
_TRACE_TOL = 1e-9


@dataclass(frozen=True)
class DensityState:
    """Unit-trace PSD Hermitian matrix together with its tensor factor dims."""

    matrix: np.ndarray
    dims: tuple = field(default=())

    def __post_init__(self):
        mat = linalg.as_hermitian(self.matrix)
        dims = linalg.factor_dims(self.dims or (mat.shape[0],), mat.shape[0])
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValidationError(f"density matrix must have unit trace, got {tr}")
        if not linalg.is_psd(mat, tol=_PSD_TOL):
            raise ValidationError("density matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Projectors forming a partition of unity."""

    projectors: tuple

    def __post_init__(self):
        projs = tuple(linalg.as_hermitian(p) for p in self.projectors)
        if not projs:
            raise ValidationError("measurement needs at least one projector")
        n = projs[0].shape[0]
        total = np.zeros((n, n), dtype=complex)
        for p in projs:
            if p.shape[0] != n:
                raise DimensionMismatchError("projectors must share one dimension")
            if np.linalg.norm(p @ p - p) > _PSD_TOL:
                raise ValidationError("projector is not idempotent")
            total += p
        if np.linalg.norm(total - np.eye(n)) > _PSD_TOL:
            raise ValidationError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def born_probabilities(rho: DensityState, m: ProjectiveMeasurement) -> np.ndarray:
    """Outcome probabilities Tr(Pi_i rho); nonnegative and summing to one."""
    if m.dim != rho.dim:
        raise DimensionMismatchError("measurement and state dimensions differ")
    p = np.array([float(np.trace(pi @ rho.matrix).real) for pi in m.projectors])
    if p.min() < -1e-9 or p.max() > 1.0 + 1e-9 or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"Born probabilities out of range: {p}")
    return p


def luders_condition(rho: DensityState, projector) -> tuple:
    """State update on observing a projector: (Pi rho Pi / p, p) with p = Tr(Pi rho Pi)."""
    pi = linalg.as_hermitian(projector)
    if pi.shape[0] != rho.dim:
        raise DimensionMismatchError("projector and state dimensions differ")
    if np.linalg.norm(pi @ pi - pi) > _PSD_TOL:
        raise ValidationError("conditioning operator is not a projector")
    compressed = pi @ rho.matrix @ pi
    p = float(np.trace(compressed).real)
    if p <= 1e-12:
        raise ConditioningError("cannot condition on a zero-probability projector")
    return DensityState(compressed / p, rho.dims), p


def evolve(rho: DensityState, u) -> DensityState:
    """Conjugate the state by a unitary: rho -> U rho U^dagger."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (rho.dim, rho.dim):
        raise DimensionMismatchError("unitary and state dimensions differ")
    if np.linalg.norm(u.conj().T @ u - np.eye(rho.dim)) > 1e-9:
        raise ValidationError("evolution operator is not unitary")
    return DensityState(u @ rho.matrix @ u.conj().T, rho.dims)


def marginal_operator(rho: DensityState, keep: int) -> np.ndarray:
    """Reduced operator on one factor, obtained by tracing out the others."""
    return linalg.partial_trace(rho.matrix, rho.dims, keep)


# ---------------------------------------------------------------------------
# qubit SIC fixture and the informationally complete total-probability rule
# ---------------------------------------------------------------------------

_TETRAHEDRON = (
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
)


def qubit_sic() -> list:
    """Four symmetric informationally complete qubit effects Pi_i / 2.

    Built from the tetrahedral Bloch directions; the effects sum to the
    identity, have trace 1/2 each, and pairwise overlap Tr(E_i E_j) = 1/12.
    """
    effects = []
    for bloch in _TETRAHEDRON:
        s = np.array(bloch) / np.sqrt(3.0)
        proj = 0.5 * (np.eye(2, dtype=complex) + s[0] * SIGMA_X + s[1] * SIGMA_Y + s[2] * SIGMA_Z)
        effects.append(linalg.as_hermitian(proj / 2.0))
    return effects


def sic_probabilities(rho: DensityState) -> np.ndarray:
    """Effect probabilities q_i = Tr(E_i rho) for the built-in qubit SIC."""
    if rho.dim != 2:
        raise DimensionMismatchError("built-in SIC is for qubits only")
    return np.array([float(np.trace(e @ rho.matrix).real) for e in qubit_sic()])


def sic_conditionals(m: ProjectiveMeasurement) -> np.ndarray:
    """Conditional matrix r[j, i] = Tr(Pi_j Pi_i^sic).

    Column i is the Born distribution of measurement ``m`` on the state the
    imagined SIC outcome i prepares, so each column sums to one.
    """
    if m.dim != 2:
        raise DimensionMismatchError("built-in SIC is for qubits only")
    sic_projs = [2.0 * e for e in qubit_sic()]
    r = np.empty((len(m.projectors), 4))
    for i, pi_sic in enumerate(sic_projs):
        for j, pi_j in enumerate(m.projectors):
            r[j, i] = float(np.trace(pi_j @ pi_sic).real)
    return r


def qbism_total_probability(q, r, n: int) -> np.ndarray:
    """Total-probability rewrite p_j = sum_i ((n+1) q_i - 1/n) r[j, i].

    ``q`` holds the n^2 imagined-measurement probabilities, ``r`` the n x n^2
    conditionals with columns summing to one.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if q.shape != (n * n,):
        raise ValidationError(f"q must have length n^2 = {n * n}")
    if r.shape != (n, n * n):
        raise ValidationError(f"r must have shape ({n}, {n * n})")
    if abs(q.sum() - 1.0) > 1e-9:
        raise ValidationError("q must sum to one")
    if np.abs(r.sum(axis=0) - 1.0).max() > 1e-9:
        raise ValidationError("columns of r must sum to one")
    p = r @ ((n + 1.0) * q - 1.0 / n)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("total-probability output does not normalise")
    return p
