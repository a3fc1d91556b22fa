"""Discrete, possibly signed, charge representations of moment matrices.

A charge here is a finite affine combination of Dirac atoms on product
states.  Separable density matrices admit a nonnegative one; entangled
matrices provably do not, which the fitting routines exhibit numerically.
Moment matrices are fitted in the Hermitian coordinates of
:func:`pcoh.linalg.hermitian_coords`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SolverFailure, ValidationError
from .fixtures import bell_signed_charge_table
from .gambles import Gamble
from .quantum import DensityState

_AFFINE_TOL = 1e-9
# most atoms a random support may have, 16 times the largest support the
# moments benchmark fits; the fits' time and memory are linear in the atom count
MAX_ATOMS = 4096


@dataclass(frozen=True)
class DiscreteCharge:
    """Atoms (one unit vector per factor) with weights that sum to one.

    Weights may be negative but must be finite, one per atom; ``tol`` loosens
    the affine-normalisation check for tabulated data printed at low precision.
    Every atom must have the first atom's factor count and dimensions.
    """

    atoms: tuple
    weights: np.ndarray
    tol: float = _AFFINE_TOL

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1:
            raise ValidationError(f"weights must be a 1-D array, got shape {weights.shape}")
        if len(self.atoms) != weights.shape[0]:
            raise DimensionMismatchError("one weight per atom required")
        if not self.atoms:
            raise ValidationError("charge needs at least one atom")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite")
        if abs(weights.sum() - 1.0) > self.tol:
            raise ValidationError(
                f"weights must sum to one within {self.tol}, got {weights.sum()}"
            )
        dims = tuple(np.size(v) for v in self.atoms[0])
        if not dims:
            raise ValidationError("charge atoms need at least one factor")
        stacks = _unit_stacks(self.atoms, dims, "charge")
        object.__setattr__(self, "atoms", tuple(zip(*stacks)))
        object.__setattr__(self, "weights", weights)

    @property
    def dims(self) -> tuple:
        return tuple(len(v) for v in self.atoms[0])


def charge_moment(c: DiscreteCharge, g: Gamble) -> float:
    """Expectation of a gamble under the charge: sum_i w_i g(atom_i) = Re Tr(G M)."""
    if c.dims != g.dims:
        raise DimensionMismatchError("charge and gamble factor dims differ")
    return float(np.vdot(charge_moment_matrix(c), g.matrix).real)


def charge_moment_matrix(c: DiscreteCharge) -> np.ndarray:
    """Second-moment matrix M = sum_i w_i (tensor atom_i)(tensor atom_i)^dagger."""
    p = _product_rows([np.array(column) for column in zip(*c.atoms)])
    return linalg.as_hermitian((p.T * c.weights) @ p.conj(), warn_tol=np.inf)


def _unit_stacks(atoms, dims, kind):
    """One (K, d) complex array per factor of ``dims``, each row scaled to unit norm.

    An atom whose factor count or factor dimension differs from ``dims`` raises
    DimensionMismatchError naming ``kind``; a zero factor raises ValidationError.
    """
    if set(map(len, atoms)) != {len(dims)}:
        raise DimensionMismatchError(f"{kind} atom has the wrong number of factors")
    stacks = []
    for column, d in zip(zip(*atoms), dims):
        try:
            stack = np.array(column, dtype=complex).reshape(len(column), -1)
        except ValueError:  # unequal shapes; equal sizes, as (d,) beside (d, 1), still fit
            flat = [np.asarray(v, dtype=complex).reshape(-1) for v in column]
            stack = np.array(flat) if all(v.shape == (d,) for v in flat) else None
        if stack is None or stack.shape[1] != d:
            raise DimensionMismatchError(f"{kind} atom factor has wrong dimension")
        norms = np.linalg.norm(stack, axis=1, keepdims=True)
        if not np.all(norms > 0.0):
            raise ValidationError("atom factors must be nonzero")
        stacks.append(stack / norms)
    return stacks


def _product_rows(stacks):
    """Row i is the tensor product of row i of each (K, d) factor stack, left to right."""
    k = stacks[0].shape[0]
    full = np.ones((k, 1), dtype=complex)
    for vecs in stacks:
        full = (full[:, :, None] * vecs[:, None, :]).reshape(k, -1)
    return full


def _atom_system(stacks):
    """Hermitian coordinates of each atom's rank-one moment matrix, one column per atom."""
    p = _product_rows(stacks)
    return linalg.hermitian_coords(p[:, :, None] * p[:, None, :].conj()).T


def fit_signed_charge(rho: DensityState, support) -> tuple:
    """Affine least-squares fit of the state's moments on a given product support.

    Minimises ||sum_i w_i X_i - rho||_F subject to sum w = 1 and returns the
    least-norm minimiser.  The affine constraint is eliminated with the
    Householder reflector H = I - beta v v^T, v = c 1 + e_0 with
    c = 1/sqrt(K), which maps the unit all-ones vector c 1 to -e_0: H's last
    K - 1 columns are an orthonormal basis of {sum w = 0}, so the
    pseudo-inverse solution is least-norm in w as well.  H is applied,
    A H = A - beta (A v) v^T, and never formed, so time and memory are linear
    in the number K of atoms.  The reported residual is the Frobenius
    distance actually achieved.
    """
    support = list(support)
    if not support:
        raise ValidationError("support must contain at least one product atom")
    stacks = _unit_stacks(support, rho.dims, "support")
    a = _atom_system(stacks)
    r = linalg.hermitian_coords(rho.matrix)
    k = a.shape[1]
    w0 = np.full(k, 1.0 / k)
    # |v|^2 = 2 + 2c is never near 0 (the sign LAPACK's QR picks), and v[1:] = c, so
    # (A H)[:, 1:] = A[:, 1:] - beta c (A v) 1^T and H [0; u] = [0; u] - beta c (sum u) v
    c = 1.0 / np.sqrt(k)
    v = np.full(k, c)
    v[0] += 1.0
    beta = 1.0 / (1.0 + c)
    u, *_ = np.linalg.lstsq(a[:, 1:] - (beta * c) * (a @ v)[:, None], r - a @ w0, rcond=None)
    w = w0 - (beta * c * u.sum()) * v
    w[1:] += u
    residual = float(np.linalg.norm(a @ w - r))
    charge = DiscreteCharge(atoms=tuple(zip(*stacks)), weights=w)
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
    ``tol`` must be finite and nonnegative, else ValidationError.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"fit tolerance must be finite and nonnegative, got {tol!r}")
    support = list(support)
    if not support:
        return False
    a = _atom_system(_unit_stacks(support, rho.dims, "support"))
    r = linalg.hermitian_coords(rho.matrix)
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
    """Deterministic list of Haar-ish random product atoms for a nonnegative integer seed.

    ``count`` runs from 0 to MAX_ATOMS.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    if not 0 <= count <= MAX_ATOMS:
        raise ValidationError(f"0 to {MAX_ATOMS} random atoms are supported, got {count}")
    # one row per atom, drawn in the order of a per-atom, per-factor loop:
    # the real parts of a factor, then its imaginary parts
    draws = np.random.default_rng(seed).standard_normal((count, 2 * sum(dims)))
    stacks = []
    start = 0
    for d in dims:
        v = draws[:, start:start + d] + 1j * draws[:, start + d:start + 2 * d]
        stacks.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        start += 2 * d
    return list(zip(*stacks))


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
