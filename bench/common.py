"""Shared pieces of the benchmark: the op record and numpy-only generators.

Generators use numpy alone, so the program under test sees only the arrays
they produce.  Every check in the workloads recomputes its reference with
numpy (``eigvalsh``, ``kron``, plain traces), never with ``pcoh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Op:
    """One timed operation: an id that names it, its kind and its raw inputs."""

    id: str
    kind: str
    inputs: dict = field(default_factory=dict)


def round_rng(seed: int, rnd: int, salt: int) -> np.random.Generator:
    """Generator for one round of a workload; the same arguments give the same stream."""
    return np.random.default_rng([int(seed), int(rnd), int(salt)])


def hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def full_rank_state(rng, n, floor=0.05):
    """Random density matrix with smallest eigenvalue at least ``floor / n``."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return (1.0 - floor) * m + floor * np.eye(n) / n


def gambles_around(rng, rho0, count):
    """Random Hermitian gambles with Tr(G rho0) in [0.05, 0.5]: coherent around rho0."""
    n = rho0.shape[0]
    out = []
    for _ in range(count):
        h = hermitian(rng, n)
        out.append(h - (tr(h, rho0) - rng.uniform(0.05, 0.5)) * np.eye(n))
    return out


def psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a @ a.conj().T) / n


def tr(a, b) -> float:
    return float(np.trace(a @ b).real)


def lam_min(h) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def partial_transpose(m, na, nb):
    """Transpose of the second factor, written here so the check owes nothing to pcoh."""
    return m.reshape(na, nb, na, nb).transpose(0, 3, 2, 1).reshape(na * nb, na * nb)


def kron_all(vectors):
    out = np.asarray(vectors[0], dtype=complex)
    for v in vectors[1:]:
        out = np.kron(out, np.asarray(v, dtype=complex))
    return out


def close(a, b, rel=1e-6) -> bool:
    """``|a - b| <= rel * (1 + |b|)``."""
    return abs(float(a) - float(b)) <= rel * (1.0 + abs(float(b)))
