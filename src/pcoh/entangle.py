"""Entanglement witnesses, PPT testing, and Dutch-book certificates.

The central primitive is a desk-scale search oracle for the extrema of a
quadratic form over product states.  Deciding nonnegativity on product states
is hard in general, so the oracle is a heuristic: its minimum is an upper
bound on the true minimum, reproducible for a fixed seed.
"""

from __future__ import annotations

import cmath
import string
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ValidationError
from .fixtures import SIGMA_X, SIGMA_Z
from .gambles import AssessmentSet, Gamble, gamble_eval, natural_extension_contains
from .quantum import DensityState

_LETTERS = string.ascii_letters
_RESTARTS = 8
_MAX_SWEEPS = 200


@dataclass(frozen=True)
class ProductStateSearchConfig:
    """Seed of the product-state search: a nonnegative integer."""

    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class WitnessCertificate:
    """Shifted witness gamble with its state payoff and product-state bound."""

    gamble: Gamble
    epsilon: float
    trace_value: float
    product_sup: float
    argmax: tuple


@dataclass(frozen=True)
class PptResult:
    is_ppt: bool
    conclusive: bool

    def __bool__(self) -> bool:
        return self.is_ppt


def _form_value(g_matrix, vecs):
    v = reduce(np.multiply.outer, vecs).ravel()
    return float((v.conj() @ g_matrix @ v).real)


def _complement_basis(v):
    """Orthonormal basis of the complement of the unit vector ``v``, as columns.

    These are the last ``d - 1`` columns of the Householder reflector
    ``I - 2 w w^H / |w|^2``, ``w = v - alpha e_0``, ``alpha = -exp(i arg v_0)``,
    which maps ``v`` to ``alpha e_0``.  As ``|w|^2 = 2 + 2 |v_0| >= 2``, no
    vector needs a special case.
    """
    d = len(v)
    w = v.copy()
    w[0] += cmath.exp(1j * cmath.phase(v[0]))
    b = np.outer(w, w[1:].conj() * (-2.0 / np.vdot(w, w).real))
    b.reshape(-1)[d - 1 :: d] += 1.0  # the identity's entries (i + 1, i)
    return b


def _partial_form(tensor, vecs, keep):
    """Contract every factor not in ``keep`` with its state on both sides.

    ``tensor`` is the gamble reshaped to ``dims + dims`` (row indices, then
    column indices); the result has the kept row indices, then the kept
    column indices.
    """
    m = len(vecs)
    rows, cols = _LETTERS[:m], _LETTERS[m : 2 * m]
    operands, parts = [tensor], [rows + cols]
    for k in range(m):
        if k not in keep:
            operands += [vecs[k].conj(), vecs[k]]
            parts += [rows[k], cols[k]]
    out = "".join(rows[k] for k in keep) + "".join(cols[k] for k in keep)
    return np.einsum(",".join(parts) + "->" + out, *operands)


def _swap_in(vecs, bases, swapped, head=None):
    """Product of ``vecs`` with each factor in ``swapped`` replaced by its ``B_k``.

    Indices run over the factors, then over the columns of each swapped
    ``B_k``.  Given ``head``, a ``dims``-shaped tensor, every factor index is
    contracted against it and only the column indices remain.
    """
    m = len(vecs)
    operands, out = [], [m + k for k in swapped]
    if head is None:
        out = list(range(m)) + out
    else:
        operands = [head, list(range(m))]
    for k, v in enumerate(vecs):
        operands += [bases[k], [k, m + k]] if k in swapped else [v, [k]]
    return np.einsum(*operands, out)


def _newton_step(g_matrix, vecs, val):
    """Newton step of the form on the product of unit spheres, or ``None``.

    Each factor moves to ``v_k + B_k z_k`` (renormalised), ``B_k`` an
    orthonormal basis of the complement of ``v_k``, so phases are fixed.  To
    second order the form is ``val + 2 Re(g^H z) + z^H A z + Re(z^T C z)``;
    the step minimises that model and is ``None`` where its real Hessian is
    not positive definite.  Neither depends on which orthonormal ``B_k`` is
    used.  With ``T`` the products that swap one factor for a column of its
    ``B_k``, ``g = T^H G x`` and ``A = T^H G T - val I``; the ``(j, k)`` block
    of ``C`` is ``x^H G`` on the products that swap both ``j`` and ``k``.
    """
    m, dims = len(vecs), [len(v) for v in vecs]
    bases = [_complement_basis(v) for v in vecs]
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d - 1)
    size = offs[-1]
    t = np.concatenate(
        [_swap_in(vecs, bases, (k,)).reshape(-1, d - 1) for k, d in enumerate(dims)], axis=1
    )
    th = t.conj().T
    gx = g_matrix @ reduce(np.multiply.outer, vecs).ravel()
    g = th @ gx
    a = th @ (g_matrix @ t)
    a.reshape(-1)[:: size + 1] -= val
    head = gx.conj().reshape(dims)
    c = np.zeros((size, size), dtype=complex)
    for k in range(m):
        for j in range(k):
            block = _swap_in(vecs, bases, (j, k), head)
            c[offs[j] : offs[j + 1], offs[k] : offs[k + 1]] = block
            c[offs[k] : offs[k + 1], offs[j] : offs[j + 1]] = block.T
    hess = np.empty((2 * size, 2 * size))
    hess[:size, :size] = a.real + c.real
    hess[:size, size:] = -a.imag - c.imag
    hess[size:, :size] = a.imag - c.imag
    hess[size:, size:] = a.real - c.real
    lam, u = np.linalg.eigh(hess)
    if lam[0] <= 1e-12 * (1.0 + abs(lam[-1])):
        return None
    x = -u @ ((u.T @ np.concatenate([g.real, g.imag])) / lam)
    z = x[:size] + 1j * x[size:]
    step = []
    for k, (vk, bk) in enumerate(zip(vecs, bases)):
        v = vk + bk @ z[offs[k] : offs[k + 1]]
        step.append(v / np.linalg.norm(v))
    return step


def _minimize_alternating(g_matrix, dims, seed):
    """Coordinate descent: each factor update is an exact smallest-eigenvector step.

    After each sweep a Newton step is taken when it lowers the form, so a
    descent that would crawl towards its minimum converges quadratically.  A
    sweep's value is the smallest eigenvalue of its last update, which is the
    form at the updated factors; the returned value is the form evaluated
    once more at the best argmin.
    """
    m = len(dims)
    rng = np.random.default_rng(seed)
    tensor = g_matrix.reshape(tuple(dims) + tuple(dims))
    best_val = np.inf
    best_states = None
    for _ in range(_RESTARTS):
        vecs = []
        for d in dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(v / np.linalg.norm(v))
        prev = np.inf
        for _ in range(_MAX_SWEEPS):
            for j in range(m):
                lam, u = np.linalg.eigh(_partial_form(tensor, vecs, (j,)))
                vecs[j] = u[:, 0]
            val = float(lam[0])
            step = _newton_step(g_matrix, vecs, val)
            if step is not None:
                step_val = _form_value(g_matrix, step)
                if step_val < val:
                    vecs, val = step, step_val
            if abs(prev - val) <= 1e-13 * (1.0 + abs(val)):
                break
            prev = val
        if val < best_val:
            best_val = val
            best_states = tuple(vecs)
    return _form_value(g_matrix, best_states), best_states


def product_state_minimum(g: Gamble, cfg: ProductStateSearchConfig | None = None):
    """Smallest sampled value of the quadratic form over product states.

    Returns ``(value, argmin)``: ``argmin`` holds one unit vector per factor
    and ``value`` is the form evaluated at their product, so it upper-bounds
    the true minimum.  A single factor is solved exactly by its smallest
    eigenpair; several factors get a seeded alternating eigenvector descent:
    8 restarts of at most 200 sweeps each.
    """
    cfg = cfg or ProductStateSearchConfig()
    if any(d < 2 for d in g.dims):
        raise DimensionMismatchError("every factor must have dimension at least 2")
    if len(g.dims) < 2:
        eig = linalg.hermitian_eigen(g.matrix)
        return float(eig.values[0]), (eig.vectors[:, 0],)
    return _minimize_alternating(g.matrix, g.dims, cfg.seed)


def product_state_maximum(g: Gamble, cfg: ProductStateSearchConfig | None = None):
    """Largest sampled value over product states (lower bound on the true sup)."""
    value, states = product_state_minimum(-g, cfg)
    return -value, states


def verify_witness(w, dims, cfg: ProductStateSearchConfig | None = None) -> bool:
    """Entanglement witness test: indefinite overall, nonnegative on product states."""
    w = linalg.as_hermitian(w)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise DimensionMismatchError("witness verification expects a bipartite operator")
    if linalg.hermitian_eigen(w).values[0] >= -1e-9:
        return False
    value, _ = product_state_minimum(Gamble(w, dims), cfg)
    return value >= -1e-6


def ppt_check(rho: DensityState, dims=None) -> PptResult:
    """Positive-partial-transpose test.

    Exact separability criterion for 2x2 and 2x3 factor splits; for anything
    larger a passing test is only necessary, flagged via ``conclusive``.
    """
    dims = tuple(int(d) for d in dims) if dims is not None else rho.dims
    if len(dims) != 2:
        raise DimensionMismatchError("PPT test expects a bipartite state")
    pt = linalg.partial_transpose(rho.matrix, dims, which=1)
    is_ppt = linalg.is_psd(pt, tol=1e-9)
    conclusive = sorted(dims) in ([2, 2], [2, 3])
    return PptResult(is_ppt=is_ppt, conclusive=bool(conclusive))


def negative_partial_transpose_witness(rho: DensityState) -> np.ndarray:
    """Witness (|phi><phi|)^T_B from the most negative eigenvector of rho^T_B."""
    pt = linalg.partial_transpose(rho.matrix, rho.dims, which=1)
    eig = linalg.hermitian_eigen(pt)
    phi = eig.vectors[:, 0]
    # fix the global phase so repeated runs return the identical matrix
    k = int(np.argmax(np.abs(phi)))
    phi = phi * np.exp(-1j * np.angle(phi[k]))
    return linalg.partial_transpose(np.outer(phi, phi.conj()), rho.dims, which=1)


def dutch_book_certificate(
    rho: DensityState,
    epsilon: float = 1e-3,
    cfg: ProductStateSearchConfig | None = None,
    witness_prime=None,
):
    """Certificate that an entangled bipartite state is classically incoherent.

    When the partial transpose fails, builds a witness gamble W'' that the
    state's credal dual accepts (Tr(W'' rho) >= 0) while the search oracle
    finds only negative values on product states.  Any bipartite NPT state
    gets one: the default W' = -(|phi><phi|)^T_B / gain has
    Tr(W'(A (x) B)) = -<phi|A (x) B^T|phi> / gain <= 0 on every product of
    PSD A and B, whatever the factor dims.  Returns ``None`` for PPT states.
    ``witness_prime`` overrides the construction with a caller-chosen
    desirable gamble W' (normalised to Tr(W' rho) = 1 when built here).
    """
    if len(rho.dims) != 2:
        raise DimensionMismatchError("certificate construction expects a bipartite state")
    if epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    cfg = cfg or ProductStateSearchConfig()
    if witness_prime is None:
        if ppt_check(rho):
            return None
        w = negative_partial_transpose_witness(rho)
        gain = -float(np.trace(w @ rho.matrix).real)
        w_prime = -w / gain
    else:
        w_prime = linalg.as_hermitian(witness_prime)
    w_shifted = w_prime - epsilon * np.eye(rho.dim)
    trace_value = float(np.trace(w_shifted @ rho.matrix).real)
    if trace_value < 0.0:
        raise ValidationError(
            f"epsilon={epsilon} erases the desirability margin; choose a smaller shift"
        )
    shifted = Gamble(w_shifted, rho.dims)
    sup, argmax = product_state_maximum(shifted, cfg)
    return WitnessCertificate(
        gamble=shifted,
        epsilon=float(epsilon),
        trace_value=trace_value,
        product_sup=float(sup),
        argmax=argmax,
    )


# ---------------------------------------------------------------------------
# CHSH construction
# ---------------------------------------------------------------------------


def _polariser(angle: float) -> np.ndarray:
    return np.sin(angle) * SIGMA_X + np.cos(angle) * SIGMA_Z


def chsh_gamble(alpha1: float, alpha2: float, beta1: float, beta2: float) -> Gamble:
    """Sum gamble G_{a1 b1} - G_{a1 b2} + G_{a2 b1} + G_{a2 b2} of polariser pairs."""
    ga1, ga2 = _polariser(alpha1), _polariser(alpha2)
    gb1, gb2 = _polariser(beta1), _polariser(beta2)
    total = (
        np.kron(ga1, gb1) - np.kron(ga1, gb2) + np.kron(ga2, gb1) + np.kron(ga2, gb2)
    )
    return Gamble(total, (2, 2))


def chsh_value(rho: DensityState, angles) -> float:
    """Expectation of the CHSH sum gamble in a two-qubit state."""
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatchError("CHSH evaluation expects a two-qubit state")
    g = chsh_gamble(*angles)
    return float(np.trace(g.matrix @ rho.matrix).real)


# ---------------------------------------------------------------------------
# real-coordinate expansion check
# ---------------------------------------------------------------------------


def _real_expansion_value(g_matrix, xr, yr):
    """Evaluate the quadratic form from real/imaginary parts only.

    Builds the sesquilinear component products x_i^* x_j and y_k^* y_l in
    explicit real arithmetic and contracts them against the coefficient
    matrix, mirroring the degree-4 real polynomial expansion of the form.
    """
    xa, xb = xr[0::2], xr[1::2]
    ya, yb = yr[0::2], yr[1::2]
    x_re = np.outer(xa, xa) + np.outer(xb, xb)
    x_im = np.outer(xa, xb) - np.outer(xb, xa)
    y_re = np.outer(ya, ya) + np.outer(yb, yb)
    y_im = np.outer(ya, yb) - np.outer(yb, ya)
    g4 = g_matrix.reshape(2, 2, 2, 2)
    g_re, g_im = g4.real, g4.imag
    total = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    re_xy = x_re[i, j] * y_re[k, l] - x_im[i, j] * y_im[k, l]
                    im_xy = x_re[i, j] * y_im[k, l] + x_im[i, j] * y_re[k, l]
                    total += g_re[i, k, j, l] * re_xy - g_im[i, k, j, l] * im_xy
    return total


def real_form_expand_check(g: Gamble, samples: int = 1000, seed: int = 0) -> float:
    """Max |complex form - real expansion| over random product states."""
    if g.dims != (2, 2):
        raise DimensionMismatchError("real expansion check expects a two-qubit gamble")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        xr = rng.standard_normal(4)
        xr /= np.linalg.norm(xr)
        yr = rng.standard_normal(4)
        yr /= np.linalg.norm(yr)
        x = np.array([xr[0] + 1j * xr[1], xr[2] + 1j * xr[3]])
        y = np.array([yr[0] + 1j * yr[1], yr[2] + 1j * yr[3]])
        complex_value = gamble_eval(g, [x, y])
        real_value = _real_expansion_value(g.matrix, xr, yr)
        worst = max(worst, abs(complex_value - real_value))
    return worst


def certificate_accepted(rho: DensityState, cert: WitnessCertificate) -> bool:
    """Check the shifted witness enters the natural extension of the rho-singleton set."""
    single = AssessmentSet.for_single_state(rho)
    return natural_extension_contains(single, cert.gamble)
