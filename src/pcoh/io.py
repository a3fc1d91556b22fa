"""JSON interchange for matrices, assessments, states, charges and polynomials.

Matrix format (shared repo-wide)::

    {"rows": n, "cols": m, "data": [[re, im], ...]}        row-major
    {"rows": n, "cols": n, "upper": true, "data": [...]}   upper triangle only

Hermitian files may store just the upper triangle; the lower half is restored
by conjugation.

Only ``errors`` and numpy load with this module; each ``*_from_json`` builder
imports its domain type when it runs, so the CLI loads only the layers its
subcommand uses.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .charges import DiscreteCharge
    from .gambles import AssessmentSet, Gamble
    from .quantum import DensityState
    from .realsos import BiPoly, MomentMatrix10

# what json-decoded input of the wrong shape or type raises on access/conversion
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def matrix_to_json(m, upper: bool = False) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    rows, cols = m.shape
    if upper:
        if rows != cols:
            raise ValidationError("upper-triangle storage needs a square matrix")
        data = [
            [float(m[i, j].real), float(m[i, j].imag)]
            for i in range(rows)
            for j in range(i, cols)
        ]
        return {"rows": rows, "cols": cols, "upper": True, "data": data}
    data = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"rows": rows, "cols": cols, "data": data}


def _complex_entries(data) -> list:
    """Finite complex numbers from a list of ``[re, im]`` pairs."""
    try:
        pairs = [(float(re), float(im)) for re, im in data]
    except _MALFORMED as exc:
        raise ValidationError(f"entries must be [re, im] number pairs: {exc}") from exc
    if not np.all(np.isfinite(pairs)):
        raise ValidationError("entries must be finite")
    return [complex(re, im) for re, im in pairs]


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except _MALFORMED as exc:
        raise ValidationError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValidationError(f"matrix shape must be nonnegative, got {rows}x{cols}")
    entries = _complex_entries(data)
    if obj.get("upper"):
        if rows != cols:
            raise ValidationError("upper-triangle storage needs a square matrix")
        expected = rows * (rows + 1) // 2
        if len(entries) != expected:
            raise ValidationError(
                f"expected {expected} upper-triangle entries, got {len(entries)}"
            )
        m = np.zeros((rows, cols), dtype=complex)
        it = iter(entries)
        for i in range(rows):
            for j in range(i, cols):
                m[i, j] = next(it)
                if j != i:
                    m[j, i] = np.conj(m[i, j])
        return m
    if len(entries) != rows * cols:
        raise ValidationError(f"expected {rows * cols} entries, got {len(entries)}")
    return np.array(entries, dtype=complex).reshape(rows, cols)


def vector_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict):
        return matrix_from_json(obj).reshape(-1)
    return np.array(_complex_entries(obj), dtype=complex)


def vector_to_json(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(c.real), float(c.imag)] for c in v]


# ---------------------------------------------------------------------------


def assessments_to_json(a: AssessmentSet) -> dict:
    return {
        "dims": list(a.dims),
        "gambles": [matrix_to_json(g.matrix) for g in a.gambles],
    }


def assessments_from_json(obj) -> AssessmentSet:
    from .gambles import AssessmentSet, Gamble

    try:
        dims = tuple(int(d) for d in obj["dims"])
        raw = list(obj.get("gambles", []))
    except _MALFORMED as exc:
        raise ValidationError(f"malformed assessment object: {exc}") from exc
    gambles = tuple(Gamble(matrix_from_json(g), dims) for g in raw)
    return AssessmentSet(gambles=gambles, dims=dims)


def state_to_json(s: DensityState) -> dict:
    return {"dims": list(s.dims), "rho": matrix_to_json(s.matrix)}


def state_from_json(obj) -> DensityState:
    from .quantum import DensityState

    try:
        dims = tuple(int(d) for d in obj["dims"])
        rho = matrix_from_json(obj["rho"])
    except _MALFORMED as exc:
        raise ValidationError(f"malformed state object: {exc}") from exc
    return DensityState(rho, dims)


def gamble_from_json(obj, dims=None) -> Gamble:
    from .gambles import Gamble

    if isinstance(obj, dict) and "matrix" in obj:
        try:
            dims = tuple(int(d) for d in obj.get("dims", dims or ()))
        except _MALFORMED as exc:
            raise ValidationError(f"malformed gamble dims: {exc}") from exc
        return Gamble(matrix_from_json(obj["matrix"]), dims)
    m = matrix_from_json(obj)
    if dims is None:
        dims = (m.shape[0],)
    return Gamble(m, tuple(dims))


def gamble_to_json(g: Gamble) -> dict:
    return {"dims": list(g.dims), "matrix": matrix_to_json(g.matrix)}


def charge_to_json(c: DiscreteCharge) -> dict:
    return {
        "atoms": [[vector_to_json(v) for v in atom] for atom in c.atoms],
        "weights": [float(w) for w in c.weights],
    }


def charge_from_json(obj, tol: float = 1e-9) -> DiscreteCharge:
    from .charges import DiscreteCharge

    try:
        atoms = tuple(
            tuple(vector_from_json(v) for v in atom) for atom in obj["atoms"]
        )
        weights = np.array([float(w) for w in obj["weights"]])
    except _MALFORMED as exc:
        raise ValidationError(f"malformed charge object: {exc}") from exc
    return DiscreteCharge(atoms=atoms, weights=weights, tol=tol)


def support_from_json(obj) -> list:
    try:
        return [tuple(vector_from_json(v) for v in atom) for atom in obj["atoms"]]
    except _MALFORMED as exc:
        raise ValidationError(f"malformed support object: {exc}") from exc


def poly_to_json(p: BiPoly) -> dict:
    return {"coeffs": {f"{a},{b}": v for (a, b), v in sorted(p.coeffs.items())}}


def _exponent_table(raw, what) -> dict:
    """``{"a,b": number}`` as ``{(a, b): float}``."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} table must be an object of 'a,b' keys")
    out = {}
    for key, val in raw.items():
        try:
            a, b = key.split(",")
            out[(int(a), int(b))] = float(val)
        except _MALFORMED as exc:
            raise ValidationError(f"bad {what} entry {key!r}: {val!r}; use 'a,b': number") from exc
    return out


def poly_from_json(obj) -> BiPoly:
    from .realsos import BiPoly

    try:
        raw = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed polynomial object: {exc}") from exc
    return BiPoly(_exponent_table(raw, "exponent"))


def moments_to_json(z: MomentMatrix10) -> dict:
    return {"z": {f"{a},{b}": v for (a, b), v in sorted(z.z.items())}}


def moments_from_json(obj) -> MomentMatrix10:
    from .realsos import MomentMatrix10

    try:
        raw = obj["z"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed moment object: {exc}") from exc
    return MomentMatrix10(_exponent_table(raw, "moment"))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
