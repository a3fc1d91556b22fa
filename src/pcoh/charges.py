"""Discrete, possibly signed, charge representations of moment matrices.

A charge here is a finite affine combination of Dirac atoms on product
states.  Single-particle density matrices always admit a nonnegative one (the
eigendecomposition); entangled matrices provably do not, which the fitting
routines exhibit numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SolverFailure, ValidationError
from .fixtures import bell_signed_charge_table
from .gambles import Gamble, gamble_eval
from .quantum import DensityState

_AFFINE_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteCharge:
    """Atoms (one unit vector per factor) with weights that sum to one.

    Weights may be negative; ``tol`` loosens the affine-normalisation check
    for tabulated data printed at low precision.
    """

    atoms: tuple
    weights: np.ndarray
    tol: float = _AFFINE_TOL

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if len(self.atoms) != weights.shape[0]:
            raise DimensionMismatchError("one weight per atom required")
        if not self.atoms:
            raise ValidationError("charge needs at least one atom")
        if abs(weights.sum() - 1.0) > self.tol:
            raise ValidationError(
                f"weights must sum to one within {self.tol}, got {weights.sum()}"
            )
        normed = []
        for atom in self.atoms:
            factors = []
            for v in atom:
                v = np.asarray(v, dtype=complex).reshape(-1)
                nrm = np.linalg.norm(v)
                if nrm <= 0.0:
                    raise ValidationError("atom factors must be nonzero")
                factors.append(v / nrm)
            normed.append(tuple(factors))
        object.__setattr__(self, "atoms", tuple(normed))
        object.__setattr__(self, "weights", weights)

    @property
    def dims(self) -> tuple:
        return tuple(len(v) for v in self.atoms[0])


def eigen_charge(rho: DensityState) -> DiscreteCharge:
    """Probability charge on eigenvectors reproducing a single-factor state."""
    if len(rho.dims) != 1:
        raise DimensionMismatchError("eigen decomposition charge expects a single factor")
    eig = linalg.hermitian_eigen(rho.matrix)
    if eig.values[0] < -1e-9:
        raise ValidationError("state has a significantly negative eigenvalue")
    atoms = tuple((eig.vectors[:, i],) for i in range(rho.dim))
    return DiscreteCharge(atoms=atoms, weights=eig.values.copy())


def charge_moment(c: DiscreteCharge, g: Gamble) -> float:
    """Expectation of a gamble under the charge: sum_i w_i g(atom_i)."""
    if c.dims != g.dims:
        raise DimensionMismatchError("charge and gamble factor dims differ")
    return float(
        sum(w * gamble_eval(g, atom) for w, atom in zip(c.weights, c.atoms))
    )


def charge_moment_matrix(c: DiscreteCharge) -> np.ndarray:
    """Second-moment matrix sum_i w_i (tensor atom_i)(tensor atom_i)^dagger."""
    dim = int(np.prod(c.dims))
    out = np.zeros((dim, dim), dtype=complex)
    for w, atom in zip(c.weights, c.atoms):
        v = linalg.kron_all(atom)
        out += w * np.outer(v, v.conj())
    return linalg.as_hermitian(out, warn_tol=np.inf)


def _real_coords(m):
    """Frobenius-isometric real coordinates of a Hermitian matrix or a stack of them."""
    iu, ju = np.triu_indices(m.shape[-1], 1)
    upper = np.sqrt(2.0) * m[..., iu, ju]
    return np.concatenate(
        [np.diagonal(m, axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1
    )


def _atom_system(support, dims):
    """Real coordinates of each atom's rank-one moment matrix, one column per atom."""
    stacks = [[] for _ in dims]
    for atom in support:
        if len(atom) != len(dims):
            raise DimensionMismatchError("support atom has the wrong number of factors")
        for stack, v, d in zip(stacks, atom, dims):
            v = np.asarray(v, dtype=complex).reshape(-1)
            if v.shape[0] != d:
                raise DimensionMismatchError("support atom factor has wrong dimension")
            stack.append(v)
    k = len(support)
    full = np.ones((k, 1), dtype=complex)
    for stack in stacks:
        vecs = np.array(stack)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        full = (full[:, :, None] * vecs[:, None, :]).reshape(k, -1)
    return _real_coords(full[:, :, None] * full[:, None, :].conj()).T


def fit_signed_charge(rho: DensityState, support) -> tuple:
    """Affine least-squares fit of the state's moments on a given product support.

    Minimises ||sum_i w_i X_i - rho||_F subject to sum w = 1 and returns the
    least-norm minimiser (the affine constraint is eliminated against an
    orthonormal null basis, so the pseudo-inverse solution is least-norm in w
    as well).  The reported residual is the Frobenius distance actually
    achieved.
    """
    support = list(support)
    if not support:
        raise ValidationError("support must contain at least one product atom")
    a = _atom_system(support, rho.dims)
    r = _real_coords(rho.matrix)
    k = a.shape[1]
    w0 = np.full(k, 1.0 / k)
    q, _ = np.linalg.qr(np.ones((k, 1)), mode="complete")
    null = q[:, 1:]
    u, *_ = np.linalg.lstsq(a @ null, r - a @ w0, rcond=None)
    w = w0 + null @ u
    residual = float(np.linalg.norm(a @ w - r))
    charge = DiscreteCharge(atoms=tuple(tuple(v for v in atom) for atom in support), weights=w)
    return charge, residual


def _nnls(a, b, max_steps):
    """Lawson-Hanson active-set solution of min ||a x - b|| subject to x >= 0.

    Lawson & Hanson, *Solving Least Squares Problems* (1974), ch. 23.  Raises
    :class:`SolverFailure` when ``max_steps`` least-squares solves do not settle.
    """
    n = a.shape[1]
    tol = 10.0 * max(a.shape) * np.finfo(float).eps
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    steps = 0
    while True:
        grad = a.T @ (b - a @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            return x
        passive[j] = True
        while True:
            steps += 1
            if steps > max_steps:
                raise SolverFailure(
                    "nonnegative least squares did not converge",
                    residuals={"steps": steps - 1, "residual": float(np.linalg.norm(a @ x - b))},
                )
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            neg = passive & (s < 0.0)
            if not neg.any():
                x = s
                break
            # step from x towards s until the first passive weight reaches zero
            alpha = np.min(x[neg] / (x[neg] - s[neg]))
            x = x + alpha * (s - x)
            passive &= x > tol
            x[~passive] = 0.0


def nonneg_fit_feasible(rho: DensityState, support, tol: float) -> bool:
    """Can a probability (w >= 0, sum w = 1) on the support match the moments within tol?

    Solved by nonnegative least squares with the affine constraint appended as
    one unit-weight row, then re-checked exactly on the normalised weights.
    The row needs no heavier weight: atoms and ``rho`` have unit trace and the
    diagonal coordinates carry it, so ||A w - r|| >= |sum w - 1| / sqrt(n).
    """
    support = list(support)
    if not support:
        return False
    a = _atom_system(support, rho.dims)
    r = _real_coords(rho.matrix)
    a_aug = np.vstack([a, np.ones((1, a.shape[1]))])
    r_aug = np.concatenate([r, [1.0]])
    w = _nnls(a_aug, r_aug, max_steps=50 * a.shape[1])
    total = w.sum()
    if total <= 1e-12:
        return False
    w = w / total
    residual = float(np.linalg.norm(a @ w - r))
    return residual <= tol


def random_product_support(dims, count: int, seed: int) -> list:
    """Deterministic list of Haar-ish random product atoms for a nonnegative integer seed."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    support = []
    for _ in range(count):
        atom = []
        for d in dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            atom.append(v / np.linalg.norm(v))
        support.append(tuple(atom))
    return support


def bell_charge_fixture() -> DiscreteCharge:
    """Built-in nine-atom signed charge reproducing the Bell state's moments.

    Tabulated to four decimals, hence the loose affine tolerance.
    """
    atoms, weights = bell_signed_charge_table()
    return DiscreteCharge(
        atoms=tuple(tuple(v for v in atom) for atom in atoms),
        weights=weights,
        tol=1e-3,
    )
