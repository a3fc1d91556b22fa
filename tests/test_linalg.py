import numpy as np
import pytest

from conftest import random_hermitian
from pcoh import linalg
from pcoh.errors import DimensionMismatchError, ValidationError
from pcoh.fixtures import SIGMA_X, SIGMA_Z


def kron_by_hand(a, b):
    """Direct four-index expansion, the oracle for the fast path."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_by_hand(h, na, nb, keep):
    """Index-summation oracle for the einsum implementation."""
    h = h.reshape(na, nb, na, nb)
    if keep == 0:
        out = np.zeros((na, na), dtype=complex)
        for i in range(na):
            for j in range(na):
                out[i, j] = sum(h[i, k, j, k] for k in range(nb))
    else:
        out = np.zeros((nb, nb), dtype=complex)
        for k in range(nb):
            for l in range(nb):
                out[k, l] = sum(h[i, k, i, l] for i in range(na))
    return out


class TestKron:
    def test_basis_vectors(self):
        e1 = np.array([[1.0], [0.0]])
        assert np.array_equal(linalg.kron(e1, e1), np.array([[1.0], [0.0], [0.0], [0.0]]))

    def test_identities(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_tensor_sigma_z_matches_expansion(self):
        got = linalg.kron(SIGMA_X, SIGMA_Z)
        assert np.allclose(got, kron_by_hand(SIGMA_X, SIGMA_Z), atol=0.0)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            d = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            left = linalg.kron(a, b) @ linalg.kron(c, d)
            right = linalg.kron(a @ c, b @ d)
            assert np.linalg.norm(left - right) <= 1e-12 * (1.0 + np.linalg.norm(right))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            linalg.kron(np.array([[np.inf]]), np.eye(1))


class TestHermitianEigen:
    def test_witness_fixture_spectrum(self, witness_h):
        eig = linalg.hermitian_eigen(witness_h)
        assert np.allclose(eig.values, [-3.0, -1.0, -1.0, 1.0], atol=1e-9)

    def test_identity(self):
        eig = linalg.hermitian_eigen(np.eye(4))
        assert np.allclose(eig.values, np.ones(4), atol=0.0)

    def test_bell_projector_spectrum(self, rho_bell):
        # rank-one projector: characteristic polynomial gives {0, 0, 0, 1}
        eig = linalg.hermitian_eigen(rho_bell)
        assert np.allclose(eig.values, [0.0, 0.0, 0.0, 1.0], atol=1e-10)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8, 13):
            h = random_hermitian(rng, n, scale=3.0)
            eig = linalg.hermitian_eigen(h)
            recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
            assert np.linalg.norm(recon - h) <= 1e-10 * (1.0 + np.linalg.norm(h))
            assert np.linalg.norm(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-10
            assert np.all(np.diff(eig.values) >= -1e-15)

    def test_zero_matrix(self):
        eig = linalg.hermitian_eigen(np.zeros((3, 3)))
        assert np.array_equal(eig.values, np.zeros(3))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self, rho_bell):
        for keep in (0, 1):
            out = linalg.partial_trace(rho_bell, (2, 2), keep)
            assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)

    def test_product_state_factorises(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_a = a @ a.conj().T
        rho_a /= np.trace(rho_a).real
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(linalg.partial_trace(joint, (2, 3), 1), rho_b, atol=1e-12)
        assert np.allclose(linalg.partial_trace(joint, (2, 3), 0), rho_a, atol=1e-12)

    def test_trace_preserved_and_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = random_hermitian(rng, 4)
            for keep in (0, 1):
                got = linalg.partial_trace(h, (2, 2), keep)
                want = partial_trace_by_hand(h, 2, 2, keep)
                assert np.allclose(got, want, atol=1e-13)
                assert abs(np.trace(got) - np.trace(h)) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(17)
        h1 = random_hermitian(rng, 6)
        h2 = random_hermitian(rng, 6)
        lhs = linalg.partial_trace(2.0 * h1 - 0.5 * h2, (2, 3), 0)
        rhs = 2.0 * linalg.partial_trace(h1, (2, 3), 0) - 0.5 * linalg.partial_trace(h2, (2, 3), 0)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_three_factor_keep_middle(self):
        rng = np.random.default_rng(19)
        parts = []
        for d in (2, 2, 2):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = a @ a.conj().T
            parts.append(m / np.trace(m).real)
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        assert np.allclose(linalg.partial_trace(joint, (2, 2, 2), 1), parts[1], atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(4), (2, 3), 0)


class TestPartialTranspose:
    def test_bell_has_negative_eigenvalue_half(self, rho_bell):
        # the swapped Bell matrix is SWAP/2 with spectrum {1/2, 1/2, 1/2, -1/2}
        pt = linalg.partial_transpose(rho_bell, (2, 2), 1)
        eig = linalg.hermitian_eigen(pt)
        assert abs(eig.values[0] + 0.5) <= 1e-12

    def test_diagonal_unchanged(self):
        d = np.diag([0.3, 0.0, 0.0, 0.7]).astype(complex)
        for which in (0, 1):
            assert np.array_equal(linalg.partial_transpose(d, (2, 2), which), d)
        assert linalg.is_psd(linalg.partial_transpose(d, (2, 2), 1))

    def test_involution_and_spectrum_side_independence(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = random_hermitian(rng, 6)
            ptb = linalg.partial_transpose(h, (2, 3), 1)
            assert np.allclose(linalg.partial_transpose(ptb, (2, 3), 1), h, atol=0.0)
            pta = linalg.partial_transpose(h, (2, 3), 0)
            sa = linalg.hermitian_eigen(pta).values
            sb = linalg.hermitian_eigen(ptb).values
            assert np.allclose(sa, sb, atol=1e-9)


class TestIsPsd:
    def test_fixture_verdicts(self, rho_bell, witness_h):
        assert linalg.is_psd(rho_bell)
        assert not linalg.is_psd(witness_h)
        assert linalg.is_psd(np.zeros((3, 3)), tol=1e-9)

    def test_agreement_with_eigensolver(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            h = random_hermitian(rng, int(rng.integers(2, 7)))
            tol = 1e-9
            want = linalg.hermitian_eigen(h).values[0] >= -tol
            assert linalg.is_psd(h, tol=tol) == want


class TestHermitize:
    def test_averages_and_clears_diagonal(self):
        a = np.array([[1.0 + 1e-12j, 2.0], [2.0 + 1e-12, 3.0]])
        h = linalg.as_hermitian(a)
        assert np.all(h.diagonal().imag == 0.0)
        assert np.allclose(h, h.conj().T, atol=0.0)

    def test_warns_on_large_asymmetry(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            linalg.as_hermitian(a)

    def test_infinite_tolerance_skips_the_asymmetry_norms(self, monkeypatch):
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
        a = np.array([[1.0, 2.0 + 1.0j], [0.0, 3.0 + 1e-3j]])
        h = linalg.as_hermitian(a, warn_tol=np.inf)
        assert not calls
        with pytest.warns(UserWarning):
            h_default = linalg.as_hermitian(a)
        assert len(calls) == 2
        assert np.array_equal(h, h_default)


class TestSwapFactors:
    def test_reorders_product(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert np.allclose(
            linalg.swap_factors(np.kron(a, b), (2, 2)), np.kron(b, a), atol=1e-14
        )

    def test_fixtures_invariant(self, rho_bell, witness_h):
        assert np.allclose(linalg.swap_factors(rho_bell, (2, 2)), rho_bell, atol=0.0)
        assert np.allclose(linalg.swap_factors(witness_h, (2, 2)), witness_h, atol=0.0)
