import numpy as np
import pytest

from pcoh.fixtures import bell_density_matrix, bell_witness_gamble


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# SOS by construction (Gram matrix with smallest eigenvalue at least 0.5):
# op 1 of round 10 of the moments benchmark workload at seed 19.  On its SOS
# solve the dual slack S loses its Cholesky factor even after the jitter retry.
S_FACTOR_LOSS_COEFFS = {
    (0, 0): 0.8369279624963986, (0, 1): 0.14433142426354875, (0, 2): 1.785261939080117,
    (0, 3): -0.3974260180038339, (0, 4): 0.6852220358818017, (0, 5): 1.122240219936328,
    (0, 6): 1.1577881684526337, (1, 0): 0.33748433917932164, (1, 1): -0.14230006508922458,
    (1, 2): 0.3152597639706079, (1, 3): -0.06966645665435722, (1, 4): 0.8207381264443039,
    (1, 5): 0.1499844723466373, (2, 0): 1.4895128145614394, (2, 1): -0.5577931644420601,
    (2, 2): 0.11948835938809088, (2, 3): 0.15556811385607833, (2, 4): 1.3452707551475627,
    (3, 0): -0.9968246978380055, (3, 1): -0.9914166341605131, (3, 2): 0.8389779238817375,
    (3, 3): 0.18494278302819142, (4, 0): 0.4280996634941643, (4, 1): 0.9404382733364671,
    (4, 2): 1.4456606324671488, (5, 0): 0.6730303418233803, (5, 1): 0.7668403231658177,
    (6, 0): 0.9864461345130194,
}


@pytest.fixture
def rho_bell():
    return bell_density_matrix()


@pytest.fixture
def witness_h():
    return bell_witness_gamble()
