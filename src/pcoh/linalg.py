"""Dense complex/Hermitian linear algebra kernel.

Matrices are plain ``numpy`` arrays; Hermitian inputs are symmetrised once at
the construction points via :func:`as_hermitian` and treated as exact from
then on.  Eigendecompositions come from LAPACK (``numpy.linalg.eigh``) and are
verified before use; nothing here is meant for matrices beyond dim 64.

Hermitian n x n matrices have one real coordinate system here, the
orthonormal basis of :func:`hermitian_basis` under the Frobenius inner
product: the n diagonal units E_ii, then for each upper entry i < j, row by
row, the pair (E_ij + E_ji) / sqrt(2) and (-i E_ij + i E_ji) / sqrt(2).  The
coordinates of M (:func:`hermitian_coords`) are therefore M_ii, then
sqrt(2) Re M_ij and -sqrt(2) Im M_ij interleaved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, SolverFailure, ValidationError

HERMITICITY_WARN_TOL = 1e-9


def as_hermitian(a, warn_tol: float = HERMITICITY_WARN_TOL) -> np.ndarray:
    """Return the Hermitian part (A + A^dagger)/2 with an exactly real diagonal.

    Warns when the asymmetry exceeds ``warn_tol``; JSON round-trips and solver
    output legitimately carry rounding below that.  ``warn_tol=np.inf`` never
    warns, so the asymmetry is not measured.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError("matrix entries must be finite")
    if warn_tol < np.inf:
        skew = np.linalg.norm(a - a.conj().T)
        if skew > warn_tol * (1.0 + np.linalg.norm(a)):
            warnings.warn(
                f"input symmetrised: asymmetry {skew:.3e} exceeds {warn_tol:.1e}",
                stacklevel=2,
            )
    h = (a + a.conj().T) / 2.0
    np.fill_diagonal(h, h.diagonal().real)
    return h


def factor_dims(dims, n=None) -> tuple:
    """Tensor factor dimensions as positive ints, multiplying to ``n`` when given."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatchError(f"factor dimensions must be positive, got {dims}")
    if n is not None and math.prod(dims) != n:
        raise DimensionMismatchError(f"dims {dims} do not multiply to dimension {n}")
    return dims


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices or column vectors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not (np.all(np.isfinite(a.view(float))) and np.all(np.isfinite(b.view(float)))):
        raise ValidationError("kron operands must be finite")
    return np.kron(a, b)


def tensor_product(vecs) -> np.ndarray:
    """Tensor product of a sequence of 1-D vectors, left to right, as one flat vector."""
    return reduce(np.multiply.outer, vecs).ravel()


def hermitian_basis(n: int) -> np.ndarray:
    """The (n*n, n, n) stack of the orthonormal Hermitian basis named in the module doc."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    basis[diag, diag, diag] = 1.0
    iu, ju = np.triu_indices(n, 1)
    k = n + 2 * np.arange(len(iu))
    rt = 1.0 / np.sqrt(2.0)
    basis[k, iu, ju] = rt
    basis[k, ju, iu] = rt
    basis[k + 1, iu, ju] = -1j * rt
    basis[k + 1, ju, iu] = 1j * rt
    return basis


def hermitian_coords(m) -> np.ndarray:
    """Coordinates of a Hermitian matrix, or of each in a stack, in :func:`hermitian_basis`.

    The map is a Frobenius isometry: Tr(A B) is the dot product of the coordinates.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    upper = m[..., iu, ju]
    out = np.empty(m.shape[:-2] + (n * n,))
    out[..., :n] = np.diagonal(m, axis1=-2, axis2=-1).real
    np.multiply(upper.real, np.sqrt(2.0), out=out[..., n::2])
    np.multiply(upper.imag, -np.sqrt(2.0), out=out[..., n + 1 :: 2])
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and a unitary matrix of column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Computed by LAPACK through ``numpy.linalg.eigh``; the reconstruction and
    unitarity residuals are verified before returning.
    """
    h = as_hermitian(h)
    n = h.shape[0]
    try:
        values, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"eigensolver did not converge: {exc}") from exc

    recon = np.linalg.norm(h @ v - v * values)
    unit = np.linalg.norm(v.conj().T @ v - np.eye(n))
    if recon > 1e-10 * (1.0 + np.linalg.norm(h)) or unit > 1e-10:
        raise SolverFailure(
            "eigensolver produced an inaccurate decomposition",
            residuals={"reconstruction": recon, "unitarity": unit},
        )
    return EigenDecomposition(values=values, vectors=v)


def _check_dims(h, dims):
    h = np.asarray(h, dtype=complex)
    dims = factor_dims(dims)
    total = math.prod(dims)
    if h.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix of shape {h.shape} does not match factor dims {dims}"
        )
    return h, dims


def partial_trace(h, dims, keep: int) -> np.ndarray:
    """Trace out every tensor factor except ``dims[keep]``."""
    h, dims = _check_dims(h, dims)
    m = len(dims)
    if not 0 <= keep < m:
        raise DimensionMismatchError(f"keep index {keep} out of range for {m} factors")
    t = h.reshape(dims + dims)
    # contract row/column axes of every discarded factor pairwise
    letters = "abcdefghijkl"
    row = list(letters[:m])
    col = [letters[m + i] if i == keep else letters[i] for i in range(m)]
    subscripts = "".join(row) + "".join(col) + "->" + row[keep] + col[keep]
    out = np.einsum(subscripts, t)
    return as_hermitian(out) if _is_conj_symmetric(out) else out


def _is_conj_symmetric(a, tol=1e-12):
    return np.linalg.norm(a - a.conj().T) <= tol * (1.0 + np.linalg.norm(a))


def partial_transpose(h, dims, which: int = 1) -> np.ndarray:
    """Transpose one factor of a bipartite operator."""
    h, dims = _check_dims(h, dims)
    if len(dims) != 2:
        raise DimensionMismatchError("partial transpose expects exactly two factors")
    if which not in (0, 1):
        raise DimensionMismatchError("which must be 0 or 1")
    na, nb = dims
    t = h.reshape(na, nb, na, nb)
    if which == 0:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return t.reshape(na * nb, na * nb)


def is_psd(h, tol: float = 1e-9) -> bool:
    """True iff the smallest eigenvalue is at least ``-tol``."""
    h = as_hermitian(h)
    if h.shape[0] == 0:
        return True
    return bool(hermitian_eigen(h).values[0] >= -tol)
