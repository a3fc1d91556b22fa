import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_unit_vector, random_unitary
from pcoh import entangle, gambles, linalg
from pcoh.errors import DimensionMismatchError, ValidationError
from pcoh.fixtures import bell_density_matrix
from pcoh.quantum import DensityState

MAX_VIOLATION_ANGLES = (np.pi / 2.0, 0.0, np.pi / 4.0, -np.pi / 4.0)


@pytest.fixture
def bell_state():
    return DensityState(bell_density_matrix(), (2, 2))


@pytest.fixture
def cfg():
    return entangle.ProductStateSearchConfig(seed=3)


def noisy_bell(rng, noise):
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = u @ bell_density_matrix() @ u.conj().T
    return DensityState((1.0 - noise) * rotated + noise * np.eye(4) / 4.0, (2, 2))


def npt_state(rng, dims):
    """Noisy random pure state on a bipartite split, redrawn until its partial transpose fails."""
    n = int(np.prod(dims))
    while True:
        psi = random_unit_vector(rng, n)
        rho = DensityState(0.8 * np.outer(psi, psi.conj()) + 0.2 * np.eye(n) / n, dims)
        if not entangle.ppt_check(rho).is_ppt:
            return rho


def angle_grid_minimum(g_matrix, res=24):
    """Least value of a two-qubit form over a res x res Bloch-angle grid on each qubit."""
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi / 2.0, res),
        np.linspace(0.0, 2.0 * np.pi, res, endpoint=False),
        indexing="ij",
    )
    states = np.stack([np.cos(tt).ravel(), (np.exp(1j * pp) * np.sin(tt)).ravel()], axis=1)
    products = np.einsum("ai,bj->abij", states, states).reshape(-1, 4)
    return float(np.einsum("ni,ij,nj->n", products.conj(), g_matrix, products).real.min())


class TestProductStateMinimum:
    def test_constant_gamble(self, cfg):
        value, _ = entangle.product_state_minimum(gambles.Gamble(np.eye(4), (2, 2)), cfg)
        assert abs(value - 1.0) <= 1e-9

    def test_witness_fixture_minimum(self, cfg, witness_h):
        # the form equals -2 sum of squares; at x=e1, y=e2 only the
        # -2|x1|^2|y2|^2 term survives, and the bound -2 is tight
        g = gambles.Gamble(witness_h, (2, 2))
        value, argmin = entangle.product_state_minimum(g, cfg)
        assert abs(value + 2.0) <= 1e-9
        assert abs(gambles.gamble_eval(g, list(argmin)) - value) <= 1e-12

    def test_witness_fixture_supremum_zero(self, cfg, witness_h):
        # negative sum of squares vanishing at the computational basis pair
        g = gambles.Gamble(witness_h, (2, 2))
        sup, argmax = entangle.product_state_maximum(g, cfg)
        assert abs(sup) <= 1e-9
        assert abs(gambles.gamble_eval(g, list(argmax))) <= 1e-9

    def test_shift_moves_value_exactly(self, cfg, witness_h):
        g = gambles.Gamble(witness_h, (2, 2))
        base, _ = entangle.product_state_minimum(g, cfg)
        shifted, _ = entangle.product_state_minimum(g.shifted(0.7), cfg)
        assert abs(shifted - (base + 0.7)) <= 1e-9

    def test_upper_bounds_each_sample(self, cfg):
        for seed in (42, 1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            g = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
            value, _ = entangle.product_state_minimum(g, cfg)
            assert value <= angle_grid_minimum(g.matrix) + 1e-9
            for _ in range(50):
                x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                x /= np.linalg.norm(x)
                y /= np.linalg.norm(y)
                assert gambles.gamble_eval(g, [x, y]) >= value - 1e-9

    def test_seed_reproducibility(self, witness_h):
        g = gambles.Gamble(witness_h, (2, 2))
        a = entangle.product_state_minimum(g, entangle.ProductStateSearchConfig(seed=5))
        b = entangle.product_state_minimum(g, entangle.ProductStateSearchConfig(seed=5))
        assert a[0] == b[0]

    def test_qubit_qutrit_path(self):
        # block structure makes the true minimum the smaller local minimum
        g = gambles.Gamble(np.diag([1.0, 2.0, 3.0, -1.0, 0.5, 4.0]), (2, 3))
        value, argmin = entangle.product_state_minimum(
            g, entangle.ProductStateSearchConfig(seed=1)
        )
        assert abs(value + 1.0) <= 1e-8
        assert abs(gambles.gamble_eval(g, list(argmin)) - value) <= 1e-10

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            entangle.ProductStateSearchConfig(seed=seed)

    @pytest.mark.parametrize("dims,seed", [((3, 3), 15), ((2, 2, 2), 1)])
    def test_few_sweeps_reach_the_converged_minimum(self, dims, seed, monkeypatch):
        # plain alternating descent is still 3e-6 (3,3) and 4e-3 (2,2,2) above
        # its limit after 15 sweeps on these forms; the Newton step closes it
        g = gambles.Gamble(random_hermitian(np.random.default_rng(seed), int(np.prod(dims))), dims)
        full, _ = entangle.product_state_minimum(g, entangle.ProductStateSearchConfig())
        monkeypatch.setattr(entangle, "_MAX_SWEEPS", 15)
        short, argmin = entangle.product_state_minimum(g, entangle.ProductStateSearchConfig())
        assert abs(short - full) <= 1e-12 * (1.0 + abs(full))
        assert abs(gambles.gamble_eval(g, list(argmin)) - short) <= 1e-10


class TestStoppingRule:
    # values recorded with a Newton step on every sweep, the last one of each
    # restart included: skipping that step must keep them to 1e-14 relative.
    # The gamble is drawn from default_rng([7, *dims])
    PINNED = {
        (2, 2): -2.4430985898826054,
        (2, 3): -3.078971948425621,
        (3, 3): -3.5900795621669745,
        (2, 2, 2): -2.7894930854639615,
        (4, 4): -5.024464246249928,
    }

    @staticmethod
    def gamble(dims):
        rng = np.random.default_rng([7, *dims])
        return gambles.Gamble(random_hermitian(rng, int(np.prod(dims))), dims)

    @pytest.mark.parametrize("dims", list(PINNED))
    def test_values_are_pinned_and_bitwise_repeatable(self, dims):
        cfg = entangle.ProductStateSearchConfig(seed=11)
        first = entangle.product_state_minimum(self.gamble(dims), cfg)
        second = entangle.product_state_minimum(self.gamble(dims), cfg)
        assert abs(first[0] - self.PINNED[dims]) <= 1e-14 * abs(self.PINNED[dims])
        assert first[0] == second[0]
        assert all(np.array_equal(u, v) for u, v in zip(first[1], second[1], strict=True))

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
    def test_the_sweep_that_ends_a_restart_makes_no_newton_step(self, dims, monkeypatch):
        # every sweep builds one partial form per factor; all but the last
        # sweep of each restart take a Newton step
        counts = {"forms": 0, "newton": 0}
        partial_form, newton_step = entangle._partial_form, entangle._newton_step

        def counting_form(*args):
            counts["forms"] += 1
            return partial_form(*args)

        def counting_newton(*args):
            counts["newton"] += 1
            return newton_step(*args)

        monkeypatch.setattr(entangle, "_partial_form", counting_form)
        monkeypatch.setattr(entangle, "_newton_step", counting_newton)
        entangle.product_state_minimum(self.gamble(dims), entangle.ProductStateSearchConfig(seed=11))
        sweeps = counts["forms"] // len(dims)
        assert counts["forms"] == sweeps * len(dims)
        assert counts["newton"] == sweeps - entangle._RESTARTS


class TestSearchInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4)])
    def test_value_is_the_form_at_a_unit_argmin(self, dims, seed):
        rng = np.random.default_rng([seed, *dims])
        g = gambles.Gamble(random_hermitian(rng, int(np.prod(dims))), dims)
        value, argmin = entangle.product_state_minimum(
            g, entangle.ProductStateSearchConfig(seed=seed)
        )
        assert [len(v) for v in argmin] == list(dims)
        assert max(abs(np.linalg.norm(v) - 1.0) for v in argmin) <= 1e-12
        assert abs(gambles.gamble_eval(g, list(argmin)) - value) <= 1e-12 * (1.0 + abs(value))
        assert value >= np.linalg.eigvalsh(g.matrix)[0] - 1e-9

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda d: st.lists(
                st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=d, max_size=d
            )
        )
    )
    @example([(0.0, 0.0), (0.6, -0.8)])
    @example([(0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    @example([(1.0, 0.0), (0.0, 0.0)])
    @example([(-1.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
    @example([(0.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
    @example([(-0.6, -0.8), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
    def test_complement_basis_is_orthonormal_and_orthogonal(self, entries):
        v = np.array([complex(re, im) for re, im in entries])
        assume(np.linalg.norm(v) > 1e-3)
        v /= np.linalg.norm(v)
        b = entangle._complement_basis(v)
        assert b.shape == (len(v), len(v) - 1)
        assert np.abs(b.conj().T @ b - np.eye(len(v) - 1)).max() <= 1e-13
        assert np.abs(b.conj().T @ v).max() <= 1e-13

    def test_search_makes_no_qr_block_or_kron_call(self, monkeypatch):
        counts = dict.fromkeys(("qr", "block", "kron", "kron_all", "eigh"), 0)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np, "block", counting("block", np.block))
        monkeypatch.setattr(np, "kron", counting("kron", np.kron))
        monkeypatch.setattr(linalg, "kron_all", counting("kron_all", linalg.kron_all))
        rng = np.random.default_rng(31)
        for dims in ((3, 3), (2, 2, 2)):
            g = gambles.Gamble(random_hermitian(rng, int(np.prod(dims))), dims)
            entangle.product_state_minimum(g, entangle.ProductStateSearchConfig(seed=4))
        eigh_calls = counts.pop("eigh")
        assert eigh_calls > 0  # the search ran under the counters
        assert counts == {"qr": 0, "block": 0, "kron": 0, "kron_all": 0}


class TestVerifyWitness:
    def test_swap_scaled_partial_transpose(self, bell_state):
        swap = linalg.partial_transpose(2.0 * bell_state.matrix, (2, 2), 1)
        assert entangle.verify_witness(swap, (2, 2))

    def test_definite_operators_rejected(self):
        assert not entangle.verify_witness(np.eye(4), (2, 2))
        assert not entangle.verify_witness(-np.eye(4), (2, 2))

    def test_canonical_construction(self, bell_state):
        w = entangle.negative_partial_transpose_witness(bell_state)
        assert entangle.verify_witness(w, (2, 2))
        assert float(np.trace(w @ bell_state.matrix).real) < 0.0


class TestPptCheck:
    def test_bell_fails(self, bell_state):
        res = entangle.ppt_check(bell_state)
        assert not res.is_ppt and res.conclusive

    def test_diagonal_separable_passes(self):
        rho = DensityState(np.diag([0.4, 0.0, 0.0, 0.6]), (2, 2))
        assert entangle.ppt_check(rho).is_ppt

    def test_maximally_mixed_passes(self):
        assert entangle.ppt_check(DensityState(np.eye(4) / 4.0, (2, 2))).is_ppt

    def test_larger_dims_inconclusive_flag(self):
        rho = DensityState(np.eye(9) / 9.0, (3, 3))
        res = entangle.ppt_check(rho)
        assert res.is_ppt and not res.conclusive

    def test_qubit_qutrit_entangled_state(self):
        # maximally entangled pair embedded in a 2x3 split stays detectable
        v = np.zeros(6, dtype=complex)
        v[0] = v[4] = 1.0 / np.sqrt(2.0)  # (|0,0> + |1,1>)/sqrt(2)
        rho = DensityState(np.outer(v, v.conj()), (2, 3))
        res = entangle.ppt_check(rho)
        assert not res.is_ppt and res.conclusive
        sep = DensityState(np.diag([0.2, 0.1, 0.2, 0.1, 0.2, 0.2]), (2, 3))
        assert entangle.ppt_check(sep).is_ppt


class TestDutchBookCertificate:
    def test_bell_generic_path(self, bell_state, cfg):
        cert = entangle.dutch_book_certificate(bell_state, epsilon=0.5, cfg=cfg)
        assert abs(cert.trace_value - 0.5) <= 1e-9
        assert abs(cert.product_sup + 0.5) <= 1e-6
        assert cert.product_sup < 0.0

    def test_bell_fixture_witness_path(self, bell_state, cfg, witness_h):
        cert = entangle.dutch_book_certificate(
            bell_state, epsilon=0.5, cfg=cfg, witness_prime=witness_h
        )
        assert abs(cert.trace_value - 0.5) <= 1e-12
        assert cert.product_sup <= -0.49

    def test_separable_mixture_returns_none(self):
        rho = DensityState(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        assert entangle.dutch_book_certificate(rho) is None

    def test_maximally_mixed_returns_none(self):
        assert entangle.dutch_book_certificate(DensityState(np.eye(4) / 4.0, (2, 2))) is None

    def test_oversized_epsilon_rejected(self, bell_state):
        with pytest.raises(ValidationError):
            entangle.dutch_book_certificate(bell_state, epsilon=1.5)

    def test_noisy_bell_family(self):
        rng = np.random.default_rng(8)
        small = entangle.ProductStateSearchConfig(seed=2)
        for k in range(20):
            rho = noisy_bell(rng, float(rng.uniform(0.0, 1.0 / 3.0)))
            assert not entangle.ppt_check(rho).is_ppt
            cert = entangle.dutch_book_certificate(rho, epsilon=1e-3, cfg=small)
            assert cert.trace_value >= 0.0
            assert cert.product_sup <= -1e-4
            if k % 5 == 0:
                assert entangle.certificate_accepted(rho, cert)

    def test_certificate_enters_natural_extension(self, bell_state, cfg):
        cert = entangle.dutch_book_certificate(bell_state, epsilon=0.25, cfg=cfg)
        assert entangle.certificate_accepted(bell_state, cert)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_any_bipartite_npt_state(self, dims):
        # Tr(W'(A (x) B)) <= 0 on PSD products, so the supremum is -epsilon at most
        rng = np.random.default_rng([17, *dims])
        for _ in range(2):
            rho = npt_state(rng, dims)
            cert = entangle.dutch_book_certificate(
                rho, epsilon=1e-3, cfg=entangle.ProductStateSearchConfig(seed=2)
            )
            assert cert.gamble.dims == dims
            assert abs(cert.trace_value - np.trace(cert.gamble.matrix @ rho.matrix).real) <= 1e-12
            assert cert.trace_value >= 0.0
            assert cert.product_sup <= -1e-3 + 1e-12
            assert entangle.certificate_accepted(rho, cert)

    def test_tripartite_state_rejected(self):
        rho = DensityState(np.eye(8) / 8.0, (2, 2, 2))
        with pytest.raises(DimensionMismatchError):
            entangle.dutch_book_certificate(rho)


class TestChsh:
    def test_box_angle_gamble_matches_pauli_expansion(self):
        from pcoh.fixtures import SIGMA_X, SIGMA_Z

        def polariser(a):
            return np.sin(a) * SIGMA_X + np.cos(a) * SIGMA_Z

        a1, a2, b1, b2 = MAX_VIOLATION_ANGLES
        want = (
            np.kron(polariser(a1), polariser(b1))
            - np.kron(polariser(a1), polariser(b2))
            + np.kron(polariser(a2), polariser(b1))
            + np.kron(polariser(a2), polariser(b2))
        )
        got = entangle.chsh_gamble(*MAX_VIOLATION_ANGLES)
        assert np.allclose(got.matrix, want, atol=1e-15)

    def test_bell_reaches_two_root_two(self, bell_state):
        value = entangle.chsh_value(bell_state, MAX_VIOLATION_ANGLES)
        assert abs(value - 2.0 * np.sqrt(2.0)) <= 1e-9

    def test_zero_angles(self, bell_state):
        g = entangle.chsh_gamble(0.0, 0.0, 0.0, 0.0)
        from pcoh.fixtures import SIGMA_Z

        assert np.allclose(g.matrix, 2.0 * np.kron(SIGMA_Z, SIGMA_Z), atol=1e-15)
        assert abs(entangle.chsh_value(bell_state, (0.0, 0.0, 0.0, 0.0)) - 2.0) <= 1e-12

    def test_maximally_mixed_scores_zero(self):
        rho = DensityState(np.eye(4) / 4.0, (2, 2))
        assert abs(entangle.chsh_value(rho, MAX_VIOLATION_ANGLES)) <= 1e-12

    def test_product_basis_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        rho = DensityState(np.outer(v, v), (2, 2))
        assert abs(entangle.chsh_value(rho, MAX_VIOLATION_ANGLES) - np.sqrt(2.0)) <= 1e-12

    def test_classical_bound_via_oracle(self, cfg):
        g = entangle.chsh_gamble(*MAX_VIOLATION_ANGLES)
        shifted = gambles.Gamble((2.0 + 1e-3) * np.eye(4) - g.matrix, (2, 2))
        value, _ = entangle.product_state_minimum(shifted, cfg)
        assert value >= -1e-6

    def test_sampled_tsirelson_bound(self):
        rng = np.random.default_rng(123)
        bound = 2.0 * np.sqrt(2.0) + 1e-6
        for _ in range(500):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = a @ a.conj().T
            rho = DensityState(m / np.trace(m).real, (2, 2))
            angles = rng.uniform(0.0, 2.0 * np.pi, size=4)
            assert entangle.chsh_value(rho, angles) <= bound


class TestRealFormExpansion:
    def test_witness_fixture(self, witness_h):
        g = gambles.Gamble(witness_h, (2, 2))
        assert entangle.real_form_expand_check(g, samples=1000, seed=0) <= 1e-10

    def test_identity_exact(self):
        g = gambles.Gamble(np.eye(4), (2, 2))
        assert entangle.real_form_expand_check(g, samples=50, seed=0) <= 1e-12

    def test_random_hermitian_generic(self):
        rng = np.random.default_rng(17)
        g = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
        assert entangle.real_form_expand_check(g, samples=1000, seed=1) <= 1e-10

    def test_fixture_separates_the_two_sos_cones(self, witness_h):
        # not PSD (so the form is not a Hermitian sum of squares), yet its
        # negation is an exact sum of four real squares
        assert linalg.hermitian_eigen(witness_h).values[0] < -1e-9
        g = gambles.Gamble(witness_h, (2, 2))
        rng = np.random.default_rng(29)
        for _ in range(500):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            x1a, x1b, x2a, x2b = x[0].real, x[0].imag, x[1].real, x[1].imag
            y1a, y1b, y2a, y2b = y[0].real, y[0].imag, y[1].real, y[1].imag
            squares = (
                (x1a * y2a - x2a * y1a) ** 2
                + (x1a * y2b - x2a * y1b) ** 2
                + (x1b * y2a - x2b * y1a) ** 2
                + (x1b * y2b - x2b * y1b) ** 2
            )
            assert abs(gambles.gamble_eval(g, [x, y]) + 2.0 * squares) <= 1e-12

    def test_fixture_matches_printed_polynomial(self, witness_h):
        # hand-typed degree-4 real expansion of the witness form
        def printed(xa1, xb1, xa2, xb2, ya1, yb1, ya2, yb2):
            return (
                -2 * xa1**2 * ya2**2
                - 2 * xa1**2 * yb2**2
                + 4 * xa1 * xa2 * ya1 * ya2
                + 4 * xa1 * xa2 * yb1 * yb2
                - 2 * xb1**2 * ya2**2
                - 2 * xb1**2 * yb2**2
                + 4 * xb1 * xb2 * ya1 * ya2
                + 4 * xb1 * xb2 * yb1 * yb2
                - 2 * xa2**2 * ya1**2
                - 2 * xa2**2 * yb1**2
                - 2 * xb2**2 * ya1**2
                - 2 * xb2**2 * yb1**2
            )

        g = gambles.Gamble(witness_h, (2, 2))
        rng = np.random.default_rng(23)
        for _ in range(200):
            xr = rng.standard_normal(4)
            xr /= np.linalg.norm(xr)
            yr = rng.standard_normal(4)
            yr /= np.linalg.norm(yr)
            x = np.array([xr[0] + 1j * xr[1], xr[2] + 1j * xr[3]])
            y = np.array([yr[0] + 1j * yr[1], yr[2] + 1j * yr[3]])
            got = gambles.gamble_eval(g, [x, y])
            want = printed(xr[0], xr[1], xr[2], xr[3], yr[0], yr[1], yr[2], yr[3])
            assert abs(got - want) <= 1e-10
            assert want <= 1e-12
