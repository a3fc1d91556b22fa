import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_unit_vector
from pcoh import charges, gambles
from pcoh.errors import DimensionMismatchError, SolverFailure, ValidationError
from pcoh.fixtures import bell_density_matrix, bell_signed_charge_table
from pcoh.quantum import DensityState

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


@pytest.fixture
def bell_state():
    return DensityState(bell_density_matrix(), (2, 2))


@pytest.fixture
def separable_pair():
    rho = DensityState(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
    support = [(KET0, KET0), (KET1, KET1)]
    return rho, support


class TestEigenCharge:
    def test_diagonal(self):
        rho = DensityState(np.diag([0.3, 0.7]), (2,))
        c = charges.eigen_charge(rho)
        assert np.allclose(sorted(c.weights), [0.3, 0.7], atol=1e-12)
        assert np.linalg.norm(charges.charge_moment_matrix(c) - rho.matrix) <= 1e-12

    def test_pure_state(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = DensityState(np.outer(plus, plus), (2,))
        c = charges.eigen_charge(rho)
        top = np.argmax(c.weights)
        assert abs(c.weights[top] - 1.0) <= 1e-12
        assert abs(abs(np.vdot(c.atoms[top][0], plus)) - 1.0) <= 1e-9

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = DensityState(random_density(rng, 3), (3,))
            c = charges.eigen_charge(rho)
            assert np.all(c.weights >= -1e-9)
            assert np.linalg.norm(charges.charge_moment_matrix(c) - rho.matrix) <= 1e-10

    def test_multi_factor_rejected(self, bell_state):
        with pytest.raises(DimensionMismatchError):
            charges.eigen_charge(bell_state)


class TestChargeMoment:
    def test_constant_gamble_is_total_mass(self):
        c = charges.bell_charge_fixture()
        g = gambles.Gamble(np.eye(4), (2, 2))
        assert abs(charges.charge_moment(c, g) - 1.0) <= 1e-3

    def test_fixture_corner_monomial(self):
        # the |x1|^2 |y1|^2 moment of the table equals one half
        c = charges.bell_charge_fixture()
        g = gambles.Gamble(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert abs(charges.charge_moment(c, g) - 0.5) <= 1e-3

    def test_eigen_charge_reproduces_traces(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            rho = DensityState(random_density(rng, 2), (2,))
            c = charges.eigen_charge(rho)
            g = gambles.Gamble(random_hermitian(rng, 2), (2,))
            want = float(np.trace(g.matrix @ rho.matrix).real)
            assert abs(charges.charge_moment(c, g) - want) <= 1e-9

    def test_linearity_in_gamble(self):
        rng = np.random.default_rng(25)
        c = charges.bell_charge_fixture()
        f = random_hermitian(rng, 4)
        g = random_hermitian(rng, 4)
        combo = gambles.Gamble(1.5 * f - 0.3 * g, (2, 2))
        want = 1.5 * charges.charge_moment(c, gambles.Gamble(f, (2, 2))) - 0.3 * (
            charges.charge_moment(c, gambles.Gamble(g, (2, 2)))
        )
        assert abs(charges.charge_moment(c, combo) - want) <= 1e-10


class TestFitSignedCharge:
    def test_separable_exact_support(self, separable_pair):
        rho, support = separable_pair
        charge, residual = charges.fit_signed_charge(rho, support)
        assert residual <= 1e-10
        assert np.allclose(charge.weights, [0.5, 0.5], atol=1e-9)

    def test_bell_random_support_needs_negative_weight(self, bell_state):
        support = charges.random_product_support((2, 2), 16, seed=7)
        charge, residual = charges.fit_signed_charge(bell_state, support)
        assert residual <= 1e-8
        assert charge.weights.min() < -1e-3
        assert abs(charge.weights.sum() - 1.0) <= 1e-9

    def test_bell_table_recovered_from_its_atoms(self, bell_state):
        atoms, printed = bell_signed_charge_table()
        charge, residual = charges.fit_signed_charge(bell_state, atoms)
        assert residual <= 1e-3
        assert np.abs(charge.weights - printed).max() <= 1e-2

    def test_fixture_moments_replay(self, bell_state):
        c = charges.bell_charge_fixture()
        assert np.linalg.norm(charges.charge_moment_matrix(c) - bell_state.matrix) <= 1e-3

    def test_least_norm_among_minimisers(self, separable_pair):
        rho, support = separable_pair
        # duplicating an atom keeps the fit exact; least-norm splits its mass
        charge, residual = charges.fit_signed_charge(rho, support + [support[0]])
        assert residual <= 1e-10
        assert np.allclose(charge.weights, [0.25, 0.5, 0.25], atol=1e-9)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_random_support_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            charges.random_product_support((2, 2), 4, seed)

    def test_empty_support_rejected(self, bell_state):
        with pytest.raises(ValidationError):
            charges.fit_signed_charge(bell_state, [])


class TestNonnegFit:
    def test_separable_support_feasible(self, separable_pair):
        rho, support = separable_pair
        assert charges.nonneg_fit_feasible(rho, support, 1e-8)

    def test_bell_state_never_feasible(self, bell_state):
        for seed in (1, 2, 3, 4, 5):
            for count in (16, 64):
                support = charges.random_product_support((2, 2), count, seed)
                assert not charges.nonneg_fit_feasible(bell_state, support, 1e-4)

    def test_maximally_mixed_four_atoms(self):
        rho = DensityState(np.eye(4) / 4.0, (2, 2))
        support = [(KET0, KET0), (KET0, KET1), (KET1, KET0), (KET1, KET1)]
        assert charges.nonneg_fit_feasible(rho, support, 1e-8)

    def test_exact_atoms_recover_nonnegative_solution(self):
        rng = np.random.default_rng(35)
        # separable state assembled from four product projectors
        support = [
            (random_unit_vector(rng, 2), random_unit_vector(rng, 2)) for _ in range(4)
        ]
        w = rng.uniform(0.1, 1.0, size=4)
        w /= w.sum()
        mat = sum(
            wi * np.outer(np.kron(x, y), np.kron(x, y).conj())
            for wi, (x, y) in zip(w, support)
        )
        rho = DensityState(mat, (2, 2))
        charge, residual = charges.fit_signed_charge(rho, support)
        assert residual <= 1e-9
        assert charges.nonneg_fit_feasible(rho, support, 1e-8)

    def test_matches_scipy_nnls_oracle(self, bell_state):
        from scipy.optimize import nnls

        rng = np.random.default_rng(45)
        for count in (16, 64, 256):
            for seed in (1, 2, 3):
                support = charges.random_product_support((2, 2), count, seed)
                kets = [np.kron(x, y) for x, y in support]
                projectors = [np.outer(v, v.conj()) for v in kets]
                picked = rng.choice(count, size=6, replace=False)
                weights = rng.dirichlet(np.ones(6))
                mixture = sum(w * projectors[i] for w, i in zip(weights, picked))
                # a different Frobenius isometry from the library's, plus the sum-to-one row
                a = np.array(
                    [np.concatenate([p.real.ravel(), p.imag.ravel(), [1.0]]) for p in projectors]
                ).T
                for rho, feasible in ((mixture, True), (bell_state.matrix, False)):
                    b = np.concatenate([rho.real.ravel(), rho.imag.ravel(), [1.0]])
                    w_ref, res_ref = nnls(a, b)
                    w = charges._nnls(a, b, max_steps=50 * count)
                    assert np.all(w >= 0.0)
                    assert abs(np.linalg.norm(a @ w - b) - res_ref) <= 1e-10
                    w_ref = w_ref / w_ref.sum()
                    ref_fit = np.linalg.norm(a[:-1] @ w_ref - b[:-1]) <= 1e-4
                    assert ref_fit == feasible
                    got = charges.nonneg_fit_feasible(DensityState(rho, (2, 2)), support, 1e-4)
                    assert got == feasible

    def test_step_cap_raises_solver_failure(self):
        # two positive weights need two least-squares solves
        with pytest.raises(SolverFailure):
            charges._nnls(np.eye(2), np.ones(2), max_steps=1)
        assert np.array_equal(charges._nnls(np.eye(2), np.ones(2), max_steps=2), np.ones(2))


class TestSignedConsequence:
    def test_every_exact_bell_fit_is_signed(self, bell_state):
        for seed in (11, 12, 13):
            support = charges.random_product_support((2, 2), 20, seed)
            charge, residual = charges.fit_signed_charge(bell_state, support)
            if residual <= 1e-8:
                assert abs(charge.weights.sum() - 1.0) <= 1e-9
                assert charge.weights.min() < 0.0
