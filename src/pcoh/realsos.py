"""Bivariate degree-6 polynomials: sum-of-squares certificates and moment duals.

This is the non-quantum instance of the same coherence story: the tautologies
are the polynomials with a PSD Gram matrix over the ten monomials up to degree
three, and the dual objects are 10x10 Hankel-tied moment matrices.  The
built-in moment fixture is PSD yet assigns a positive value to a polynomial
that is negative somewhere on the plane, the classical Dutch book.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, sdp
from .errors import SolverFailure, ValidationError

MONOMIAL_EXPONENTS = (
    (0, 0),
    (1, 0),
    (0, 1),
    (2, 0),
    (1, 1),
    (0, 2),
    (3, 0),
    (2, 1),
    (1, 2),
    (0, 3),
)

# every exponent pair reachable as a product of two basis monomials
PRODUCT_EXPONENTS = tuple(
    sorted(
        {
            (a1 + a2, b1 + b2)
            for (a1, b1) in MONOMIAL_EXPONENTS
            for (a2, b2) in MONOMIAL_EXPONENTS
        }
    )
)

_GRAM_TOL = 1e-7
# coefficient match of a returned Gram matrix, relative to the largest coefficient
_COEFF_TOL = 1e-6


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in two real variables, total degree at most six."""

    coeffs: dict

    def __post_init__(self):
        clean = {}
        for key, val in self.coeffs.items():
            a, b = int(key[0]), int(key[1])
            if a < 0 or b < 0 or a + b > 6:
                raise ValidationError(f"exponent pair {key} outside degree-6 support")
            val = float(val)
            if not np.isfinite(val):
                raise ValidationError("coefficients must be finite")
            if val != 0.0:
                clean[(a, b)] = clean.get((a, b), 0.0) + val
        object.__setattr__(self, "coeffs", clean)

    def evaluate(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        total = np.zeros(np.broadcast(x1, x2).shape)
        for (a, b), c in self.coeffs.items():
            total = total + c * x1**a * x2**b
        return total if total.shape else float(total)

    def scaled(self, c):
        return BiPoly({k: c * v for k, v in self.coeffs.items()})

    def __neg__(self):
        return self.scaled(-1.0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return BiPoly(out)


@dataclass(frozen=True)
class MomentMatrix10:
    """Moment table z[(a, b)] with z[(0, 0)] = 1 and total degree at most six."""

    z: dict

    def __post_init__(self):
        clean = {}
        for key, val in self.z.items():
            a, b = int(key[0]), int(key[1])
            if a < 0 or b < 0 or a + b > 6:
                raise ValidationError(f"moment index {key} outside degree-6 support")
            clean[(a, b)] = float(val)
        if abs(clean.get((0, 0), 0.0) - 1.0) > 1e-9:
            raise ValidationError("moment table must be normalised: z[0,0] = 1")
        object.__setattr__(self, "z", clean)


@dataclass(frozen=True)
class GramCertificate:
    """PSD Gram matrix reconstructing the polynomial over the monomial basis."""

    Q: np.ndarray
    margin: float
    coefficient_residual: float


@dataclass(frozen=True)
class SosVerdict:
    is_sos: bool
    margin: float
    gram: object
    moment_certificate: object
    certificate_value: float


def monomial_vector(x1: float, x2: float) -> np.ndarray:
    """[1, x1, x2, x1^2, x1 x2, x2^2, x1^3, x1^2 x2, x1 x2^2, x2^3]."""
    return np.array([x1**a * x2**b for (a, b) in MONOMIAL_EXPONENTS])


def motzkin(variant: str = "classic") -> BiPoly:
    """Degree-6 bivariate polynomial x1^4 x2^2 + x1^2 x2^4 + c x1^2 x2^2 + 1.

    ``classic`` uses c = -3 (nonnegative on the whole plane, not a sum of
    squares); ``soft`` uses c = -1 (strictly positive away from the axes'
    crossing structure, still not a sum of squares).
    """
    if variant == "classic":
        middle = -3.0
    elif variant == "soft":
        middle = -1.0
    else:
        raise ValidationError(f"unknown variant {variant!r}; use 'classic' or 'soft'")
    return BiPoly({(4, 2): 1.0, (2, 4): 1.0, (2, 2): middle, (0, 0): 1.0})


def _pair_positions():
    positions = {pair: [] for pair in PRODUCT_EXPONENTS}
    for i, (a1, b1) in enumerate(MONOMIAL_EXPONENTS):
        for j, (a2, b2) in enumerate(MONOMIAL_EXPONENTS):
            positions[(a1 + a2, b1 + b2)].append((i, j))
    return positions


_POSITIONS = _pair_positions()


def _indicator(pair):
    m = np.zeros((10, 10))
    for i, j in _POSITIONS[pair]:
        m[i, j] = 1.0
    return m


def _sym_coords(m):
    idx = np.triu_indices(10)
    scale = np.where(idx[0] == idx[1], 1.0, np.sqrt(2.0))
    return m[idx] * scale


def _sym_from_coords(v):
    idx = np.triu_indices(10)
    scale = np.where(idx[0] == idx[1], 1.0, np.sqrt(2.0))
    m = np.zeros((10, 10))
    m[idx] = v / scale
    return m + np.triu(m, 1).T


def sos_check_detail(p: BiPoly) -> SosVerdict:
    """Maximise the Gram spectrum margin subject to coefficient matching.

    The polynomial is a sum of squares iff some coefficient-matched Gram
    matrix is PSD; the solve reports the best achievable smallest eigenvalue.
    When that is negative, the solver's primal block is a PSD Hankel-tied
    moment matrix whose functional is negative on the polynomial, returned as
    the separating certificate.  Either certificate is checked again before it
    is returned, else :class:`SolverFailure`: a Gram matrix needs
    lambda_min(Q) >= -1e-7 (1 + |Q|) and a coefficient residual of at most
    1e-6 (1 + max |c_i|); a moment table needs lambda_min(M) >= -1e-7 (1 + |M|)
    for its moment matrix M and a negative value on the polynomial.
    """
    constraint_rows = np.stack([_sym_coords(_indicator(pair)) for pair in PRODUCT_EXPONENTS])
    rhs = np.array([p.coeffs.get(pair, 0.0) for pair in PRODUCT_EXPONENTS])
    q0_coords, *_ = np.linalg.lstsq(constraint_rows, rhs, rcond=None)
    q0 = _sym_from_coords(q0_coords)
    _, svals, vt = np.linalg.svd(constraint_rows)
    rank = int((svals > 1e-12 * svals[0]).sum())
    null_basis = np.array([_sym_from_coords(vt[r]) for r in range(rank, vt.shape[0])])

    nvar = 1 + len(null_basis)
    b = np.zeros(nvar)
    b[0] = 1.0
    cap = 1.0 + float(np.linalg.norm(q0))
    a_main = np.concatenate([np.eye(10)[None], -null_basis])
    res = sdp.maximize_lmi(b, q0, a_main, caps=((0, cap),))
    if res.status != sdp.STATUS_OPTIMAL:
        raise SolverFailure(
            f"Gram margin solve ended with status {res.status}", residuals=res.residuals
        )
    margin = float(res.y[0])
    q_star = q0 + sum(u * nb for u, nb in zip(res.y[1:], null_basis))
    q_star = (q_star + q_star.T) / 2.0
    coeff_residual = float(
        np.abs(constraint_rows @ _sym_coords(q_star) - rhs).max()
    )

    if margin >= -_GRAM_TOL:
        gram_min = float(np.linalg.eigvalsh(q_star)[0])
        if (
            gram_min < -_GRAM_TOL * (1.0 + float(np.linalg.norm(q_star)))
            or coeff_residual > _COEFF_TOL * (1.0 + float(np.abs(rhs).max()))
        ):
            raise SolverFailure(
                "Gram certificate fails the re-check",
                residuals={"gram_min_eig": gram_min, "coefficient_residual": coeff_residual,
                           **res.residuals},
            )
        gram = GramCertificate(Q=q_star, margin=margin, coefficient_residual=coeff_residual)
        return SosVerdict(True, margin, gram, None, float("nan"))

    sep = np.asarray(res.primal_matrix).real
    trace = float(np.trace(sep))
    sep = sep / trace if trace > 1e-12 else sep
    moments = {
        pair: float((sep * _indicator(pair)).sum()) / len(_POSITIONS[pair])
        for pair in PRODUCT_EXPONENTS
    }
    z00 = moments[(0, 0)]
    if z00 > 1e-12:
        moments = {k: v / z00 for k, v in moments.items()}
    value = float(sum(p.coeffs.get(pair, 0.0) * moments[pair] for pair in PRODUCT_EXPONENTS))
    mmat = _moment_matrix(moments)
    moment_min = float(np.linalg.eigvalsh(mmat)[0])
    if moment_min < -_GRAM_TOL * (1.0 + float(np.linalg.norm(mmat))) or not value < 0.0:
        raise SolverFailure(
            "moment certificate fails the re-check",
            residuals={"moment_min_eig": moment_min, "certificate_value": value,
                       **res.residuals},
        )
    return SosVerdict(False, margin, None, moments, value)


def sos_check(p: BiPoly):
    """Gram certificate if the polynomial is a sum of squares, else None."""
    verdict = sos_check_detail(p)
    return verdict.gram if verdict.is_sos else None


def moment_functional(zmat: MomentMatrix10, p: BiPoly) -> float:
    """L(p) = sum of coefficients against the moment table; linear in p."""
    total = 0.0
    for pair, coeff in p.coeffs.items():
        if pair not in zmat.z:
            raise ValidationError(f"moment table missing entry for exponents {pair}")
        total += coeff * zmat.z[pair]
    return float(total)


def assemble_moment_matrix(zmat: MomentMatrix10) -> np.ndarray:
    """10x10 matrix whose (i, j) entry is the moment of monomial_i * monomial_j."""
    return _moment_matrix(zmat.z)


def _moment_matrix(z: dict) -> np.ndarray:
    out = np.empty((10, 10))
    for i, (a1, b1) in enumerate(MONOMIAL_EXPONENTS):
        for j, (a2, b2) in enumerate(MONOMIAL_EXPONENTS):
            pair = (a1 + a2, b1 + b2)
            if pair not in z:
                raise ValidationError(f"moment table missing entry for exponents {pair}")
            out[i, j] = z[pair]
    return out


def entangled_moment_fixture() -> MomentMatrix10:
    """Built-in PSD moment table that accepts the negated soft Motzkin polynomial.

    All odd moments vanish; the even ones are integers chosen so the
    assembled matrix is PSD while the functional of -(soft Motzkin) is +31.
    """
    table = {pair: 0.0 for pair in PRODUCT_EXPONENTS}
    table[(0, 0)] = 1.0
    table[(2, 0)] = table[(0, 2)] = 353.0
    table[(4, 0)] = table[(0, 4)] = 249572.0
    table[(2, 2)] = 66.0
    table[(6, 0)] = table[(0, 6)] = 706955894.0
    table[(4, 2)] = table[(2, 4)] = 17.0
    return MomentMatrix10(z=table)


def marginal_moment_matrix(zmat: MomentMatrix10, var: str) -> np.ndarray:
    """4x4 Hankel matrix of the chosen variable's moments up to degree six."""
    if var == "x1":
        key = lambda d: (d, 0)
    elif var == "x2":
        key = lambda d: (0, d)
    else:
        raise ValidationError("var must be 'x1' or 'x2'")
    out = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            pair = key(i + j)
            if pair not in zmat.z:
                raise ValidationError(f"moment table missing entry for exponents {pair}")
            out[i, j] = zmat.z[pair]
    return out


def fixture_is_psd(zmat: MomentMatrix10, rel_tol: float = 1e-6) -> bool:
    """PSD test of the assembled matrix after normalising by its Frobenius norm."""
    m = assemble_moment_matrix(zmat)
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return True
    return linalg.is_psd(m / scale, tol=rel_tol)


def grid_min(p: BiPoly, box_half_width: float, resolution: int) -> float:
    """Minimum of p over a uniform grid on the square [-w, w]^2."""
    if resolution < 2:
        raise ValidationError("resolution must be at least 2")
    xs = np.linspace(-box_half_width, box_half_width, resolution)
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    return float(p.evaluate(x1, x2).min())
