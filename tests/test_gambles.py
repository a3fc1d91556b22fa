import numpy as np
import pytest

from conftest import random_density, random_hermitian
from pcoh import gambles, linalg, sdp
from pcoh.errors import DimensionMismatchError, SolverFailure, ValidationError
from pcoh.fixtures import bell_density_matrix
from pcoh.quantum import DensityState


def quadratic_form_by_hand(g, x, y):
    v = np.kron(x, y)
    total = 0.0 + 0.0j
    for i in range(4):
        for j in range(4):
            total += np.conj(v[i]) * g[i, j] * v[j]
    return total.real


@pytest.fixture
def bell_state():
    return DensityState(bell_density_matrix(), (2, 2))


@pytest.fixture
def bell_singleton(bell_state):
    return gambles.AssessmentSet.for_single_state(bell_state)


def coherent_random_assessments(rng, n, count, dims):
    """Random gambles guaranteed coherent: a witness density sits in the dual."""
    rho0 = random_density(rng, n)
    out = []
    for _ in range(count):
        r = random_hermitian(rng, n)
        shift = float(np.trace(r @ rho0).real) - 0.1
        out.append(gambles.Gamble(r - shift * np.eye(n), dims))
    return gambles.AssessmentSet(tuple(out), dims)


class TestGambleEval:
    def test_constant_gamble(self):
        g = gambles.Gamble(np.eye(4), (2, 2))
        x = np.array([0.6, 0.8j])
        y = np.array([1.0, 0.0])
        assert abs(gambles.gamble_eval(g, [x, y]) - 1.0) <= 1e-12

    def test_witness_fixture_at_basis(self, witness_h):
        g = gambles.Gamble(witness_h, (2, 2))
        e1 = np.array([1.0, 0.0])
        assert gambles.gamble_eval(g, [e1, e1]) == 0.0

    def test_chsh_gamble_at_basis_matches_direct_form(self):
        from pcoh.entangle import chsh_gamble

        g = chsh_gamble(np.pi / 2, 0.0, np.pi / 4, -np.pi / 4)
        e1 = np.array([1.0, 0.0])
        got = gambles.gamble_eval(g, [e1, e1])
        want = quadratic_form_by_hand(g.matrix, e1, e1)
        assert abs(got - want) <= 1e-12
        assert abs(got - np.sqrt(2.0)) <= 1e-12

    def test_rejects_non_unit_state(self):
        g = gambles.Gamble(np.eye(4), (2, 2))
        with pytest.raises(ValidationError):
            gambles.gamble_eval(g, [np.array([1.0, 1.0]), np.array([1.0, 0.0])])

    def test_random_states_match_direct_form(self):
        rng = np.random.default_rng(9)
        g = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y /= np.linalg.norm(y)
            got = gambles.gamble_eval(g, [x, y])
            assert abs(got - quadratic_form_by_hand(g.matrix, x, y)) <= 1e-12


class TestCoherence:
    def test_identity_alone_is_coherent(self):
        a = gambles.AssessmentSet((gambles.Gamble(np.eye(4), (2, 2)),), (2, 2))
        assert gambles.is_p_coherent(a).p_coherent

    def test_negated_identity_is_falsum(self):
        a = gambles.AssessmentSet((gambles.Gamble(-np.eye(4), (2, 2)),), (2, 2))
        verdict = gambles.is_p_coherent(a)
        assert not verdict.p_coherent
        assert np.allclose(verdict.certificate, [1.0], atol=1e-6)
        combo = -np.eye(4) - sum(
            l * g for l, g in zip(verdict.certificate, [-np.eye(4)])
        )
        assert np.linalg.eigvalsh(combo)[0] >= -1e-7

    def test_bell_dual_witness_set_is_coherent(self, bell_state):
        # every gamble with nonnegative trace against the state keeps the
        # state inside the dual, hence coherence
        rng = np.random.default_rng(33)
        out = []
        while len(out) < 6:
            r = random_hermitian(rng, 4)
            if float(np.trace(r @ bell_state.matrix).real) >= 0.0:
                out.append(gambles.Gamble(r, (2, 2)))
        a = gambles.AssessmentSet(tuple(out), (2, 2))
        for g in a.gambles:
            assert float(np.trace(g.matrix @ bell_state.matrix).real) >= 0.0
        assert gambles.is_p_coherent(a).p_coherent

    def test_vacuous_is_coherent(self):
        assert gambles.is_p_coherent(gambles.AssessmentSet.vacuous((2, 2))).p_coherent

    @pytest.mark.parametrize(
        "perturb",
        [
            lambda y: y * 0.5,  # too small a stake: -I - sum lam G is no longer PSD
            lambda y: np.r_[y[:-1], -0.3],  # a negative stake on the unused last gamble
        ],
        ids=["shrunk", "negative"],
    )
    def test_dutch_book_recheck_rejects_perturbed_multipliers(self, monkeypatch, perturb):
        rng = np.random.default_rng(12)
        mats = [random_hermitian(rng, 4) for _ in range(3)]
        # -I - sum_i lam_i G_i = P >= 0 for the third gamble, so the set is incoherent;
        # the identity, a sure gain, takes no stake in any Dutch book
        last = -(np.eye(4) + 0.5 * mats[0] + 0.5 * mats[1] + 0.1 * np.eye(4)) / 0.5
        mats = mats[:2] + [last, np.eye(4)]
        a = gambles.AssessmentSet(tuple(gambles.Gamble(m, (2, 2)) for m in mats), (2, 2))
        lam = gambles._minimal_dutch_book(a)
        assert lam.min() >= 0.0
        assert np.linalg.eigvalsh(-np.eye(4) - sum(l * m for l, m in zip(lam, mats)))[0] >= -1e-7

        solve = sdp.maximize_lmi

        def perturbed(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.y = perturb(res.y)
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", perturbed)
        with pytest.raises(SolverFailure, match="re-check"):
            gambles._minimal_dutch_book(a)


class TestNaturalExtension:
    def test_identity_always_contained(self):
        a = gambles.AssessmentSet.vacuous((2, 2))
        assert gambles.natural_extension_contains(a, gambles.Gamble(np.eye(4), (2, 2)))

    def test_negative_identity_rejected_for_coherent_set(self):
        gI = gambles.Gamble(np.eye(4), (2, 2))
        a = gambles.AssessmentSet((gI,), (2, 2))
        assert not gambles.natural_extension_contains(a, -gI)

    def test_witness_accepted_by_bell_singleton(self, bell_singleton, witness_h):
        assert gambles.natural_extension_contains(
            bell_singleton, gambles.Gamble(witness_h, (2, 2))
        )


class TestPrevisions:
    def test_vacuous_lower_is_min_eigenvalue(self):
        rng = np.random.default_rng(44)
        for n, dims in [(2, (2,)), (4, (2, 2)), (6, (2, 3))]:
            a = gambles.AssessmentSet.vacuous(dims)
            f = gambles.Gamble(random_hermitian(rng, n), dims)
            lower = gambles.lower_prevision(a, f)
            upper = gambles.upper_prevision(a, f)
            eig = linalg.hermitian_eigen(f.matrix).values
            assert abs(lower - eig[0]) <= 1e-7 * (1.0 + abs(eig[0]))
            assert abs(upper - eig[-1]) <= 1e-7 * (1.0 + abs(eig[-1]))

    def test_vacuous_identity(self):
        a = gambles.AssessmentSet.vacuous((2, 2))
        assert abs(gambles.lower_prevision(a, gambles.Gamble(np.eye(4), (2, 2))) - 1.0) <= 1e-7

    def test_constant_preservation(self):
        rng = np.random.default_rng(55)
        a = coherent_random_assessments(rng, 4, 3, (2, 2))
        g = gambles.Gamble(2.5 * np.eye(4), (2, 2))
        assert abs(gambles.upper_prevision(a, g) - 2.5) <= 1e-6
        assert abs(gambles.lower_prevision(a, g) - 2.5) <= 1e-6

    def test_bell_singleton_pins_witness_price(self, bell_singleton, witness_h):
        f = gambles.Gamble(witness_h, (2, 2))
        lower = gambles.lower_prevision(bell_singleton, f)
        upper = gambles.upper_prevision(bell_singleton, f)
        assert abs(lower - 1.0) <= 1e-6
        assert abs(upper - 1.0) <= 1e-6

    def test_one_solve_per_prevision_on_coherent_sets(self, monkeypatch, bell_singleton):
        core = sdp._solve_core
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return core(*args, **kwargs)

        monkeypatch.setattr(sdp, "_solve_core", counting)
        rng = np.random.default_rng(21)
        for a in (coherent_random_assessments(rng, 4, 5, (2, 2)), bell_singleton):
            f = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
            for call in (gambles.lower_prevision, gambles.prevision_witness):
                calls.clear()
                call(a, f)
                assert len(calls) == 1, call.__name__

    def test_incoherent_assessments_rejected(self):
        a = gambles.AssessmentSet((gambles.Gamble(-np.eye(4), (2, 2)),), (2, 2))
        with pytest.raises(ValidationError):
            gambles.lower_prevision(a, gambles.Gamble(np.eye(4), (2, 2)))

    def test_translation(self):
        rng = np.random.default_rng(66)
        a = coherent_random_assessments(rng, 4, 3, (2, 2))
        f = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
        base = gambles.lower_prevision(a, f)
        for c in (-1.0, 0.5, 3.0):
            got = gambles.lower_prevision(a, f.shifted(c))
            assert abs(got - (base + c)) <= 1e-7 * (1.0 + abs(base + c))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(77)
        a = coherent_random_assessments(rng, 4, 3, (2, 2))
        f = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
        base = gambles.lower_prevision(a, f)
        for lam in (0.5, 2.0):
            got = gambles.lower_prevision(a, f.scaled(lam))
            assert abs(got - lam * base) <= 1e-6 * (1.0 + abs(lam * base))

    def test_monotone_in_assessments(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            rho0 = random_density(rng, 4)
            mats = []
            for _ in range(4):
                r = random_hermitian(rng, 4)
                mats.append(r - (float(np.trace(r @ rho0).real) - 0.1) * np.eye(4))
            small = gambles.AssessmentSet(
                tuple(gambles.Gamble(m, (2, 2)) for m in mats[:3]), (2, 2)
            )
            large = gambles.AssessmentSet(
                tuple(gambles.Gamble(m, (2, 2)) for m in mats), (2, 2)
            )
            f = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
            assert gambles.lower_prevision(large, f) >= gambles.lower_prevision(small, f) - 1e-7
            assert gambles.upper_prevision(large, f) <= gambles.upper_prevision(small, f) + 1e-7

    def test_duality_consistency_on_random_instances(self):
        # the membership programme and its density-matrix dual agree
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            dims = (n,)
            a = coherent_random_assessments(rng, n, int(rng.integers(1, 4)), dims)
            f = gambles.Gamble(random_hermitian(rng, n), dims)
            lower = gambles.lower_prevision(a, f)
            rho = gambles.prevision_witness(a, f)
            dual_value = float(np.trace(f.matrix @ rho).real)
            assert abs(lower - dual_value) <= 1e-6 * (1.0 + abs(lower))
            assert np.linalg.eigvalsh(rho)[0] >= -1e-7
            assert abs(np.trace(rho).real - 1.0) <= 1e-6
            for g in a.matrices:
                assert float(np.trace(g @ rho).real) >= -1e-6


class TestCredalSet:
    def test_vacuous_contains_maximally_mixed(self):
        c = gambles.CredalSet(gambles.AssessmentSet.vacuous((2, 2)))
        assert gambles.credal_contains(c, DensityState(np.eye(4) / 4.0, (2, 2)))

    def test_simple_exclusion(self):
        g = gambles.Gamble(np.diag([1.0, -1.0]), (2,))
        c = gambles.CredalSet(gambles.AssessmentSet((g,), (2,)))
        assert not gambles.credal_contains(c, DensityState(np.diag([0.0, 1.0]), (2,)))
        assert gambles.credal_contains(c, DensityState(np.diag([1.0, 0.0]), (2,)))

    def test_shifted_chsh_keeps_bell_state(self, bell_state):
        from pcoh.entangle import chsh_gamble

        g = chsh_gamble(np.pi / 2, 0.0, np.pi / 4, -np.pi / 4)
        eps = 0.1
        shifted = gambles.Gamble(g.matrix - (2.0 + eps) * np.eye(4), (2, 2))
        c = gambles.CredalSet(gambles.AssessmentSet((shifted,), (2, 2)))
        # trace value 2 sqrt(2) - 2 - eps > 0
        assert gambles.credal_contains(c, bell_state)


class TestClassicalClash:
    def test_accepted_witness_is_classically_negative(self, bell_state, bell_singleton, witness_h):
        # the singleton set accepts the witness gamble, yet on product states
        # the gamble never exceeds zero and the epsilon-shift is a sure loss
        from pcoh.entangle import ProductStateSearchConfig, product_state_maximum

        g = gambles.Gamble(witness_h, (2, 2))
        assert gambles.natural_extension_contains(bell_singleton, g)
        sup, _ = product_state_maximum(g, ProductStateSearchConfig(seed=1))
        assert sup <= 1e-9
        eps = 0.5
        assert float(np.trace((witness_h - eps * np.eye(4)) @ bell_state.matrix).real) > 0.0

    def test_dims_mismatch_raises(self, bell_singleton):
        with pytest.raises(DimensionMismatchError):
            gambles.natural_extension_contains(
                bell_singleton, gambles.Gamble(np.eye(4), (4,))
            )
