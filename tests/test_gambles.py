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


class TestAssessmentScope:
    def test_dims_past_the_dense_scope_are_rejected(self):
        # a vacuous set has no matrix, so only its dims bound the solve
        for dims in [(65,), (5, 13), (1000000,), (2**70,)]:
            with pytest.raises(ValidationError):
                gambles.AssessmentSet.vacuous(dims)
        assert gambles.AssessmentSet.vacuous((8, 8)).dim == gambles.MAX_DIM


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


class TestSeparatingState:
    @pytest.mark.parametrize(
        "gs, f, perturb",
        [
            # coherent vacuous set; the state is pushed off the PSD cone
            ([], None, lambda m: m + np.trace(m) * np.array([[0.0, 1.0], [1.0, 0.0]])),
            # coherent {diag(1, -1)}; the state moves outside the credal set
            ([np.diag([1.0, -1.0])], None, lambda m: np.diag([0.0, 1.0]) * np.trace(m)),
            # diag(1, -1) outside the vacuous natural extension; the state now prices it at +1
            ([], np.diag([1.0, -1.0]), lambda m: np.diag([1.0, 0.0]) * np.trace(m)),
        ],
        ids=["indefinite", "outside-credal-set", "non-negative-value"],
    )
    def test_recheck_rejects_perturbed_state(self, monkeypatch, gs, f, perturb):
        a = gambles.AssessmentSet(tuple(gambles.Gamble(g, (2,)) for g in gs), (2,))
        if f is None:
            assert gambles.is_p_coherent(a).p_coherent
            verdict = lambda: gambles.is_p_coherent(a)  # noqa: E731
        else:
            f = gambles.Gamble(f, (2,))
            assert not gambles.natural_extension_contains(a, f)
            verdict = lambda: gambles.natural_extension_contains(a, f)  # noqa: E731
        solve = sdp.maximize_lmi

        def perturbed(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.primal_matrix = perturb(res.primal_matrix)
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", perturbed)
        with pytest.raises(SolverFailure, match="separating state fails the re-check"):
            verdict()


def decision_cases(dims, seed=1):
    """A coherent and an incoherent set of 2n gambles on ``dims``, and one gamble
    inside and one outside the coherent set's natural extension."""
    n = int(np.prod(dims))
    rng = np.random.default_rng([seed, n])
    coherent = coherent_random_assessments(rng, n, 2 * n, dims)
    mats = list(coherent.matrices[:-1])
    lam = rng.uniform(0.2, 1.0, size=len(mats) + 1)
    p = random_density(rng, n)
    # -I - sum lam_i G_i = P >= 0 once the last gamble is added
    mats.append(-(np.eye(n) + sum(l * m for l, m in zip(lam, mats)) + p) / lam[-1])
    incoherent = gambles.AssessmentSet(tuple(gambles.Gamble(m, dims) for m in mats), dims)
    mu = rng.uniform(0.0, 1.0, size=2 * n)
    member = sum(m * g for m, g in zip(mu, coherent.matrices)) + 0.1 * np.eye(n)
    # negative definite, so Tr(F rho) < 0 at every state of the credal set
    outside = random_hermitian(rng, n)
    outside = outside - (np.linalg.eigvalsh(outside)[-1] + 0.2) * np.eye(n)
    return coherent, incoherent, gambles.Gamble(member, dims), gambles.Gamble(outside, dims)


class TestCertifiedStop:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_decision_solves_stop_at_a_certificate(self, monkeypatch, dims):
        coherent, incoherent, member, outside = decision_cases(dims)
        solve = sdp.maximize_lmi
        seen = []  # (args, kwargs, result) of each solve given a certificate predicate

        def recording(*args, **kwargs):
            res = solve(*args, **kwargs)
            if kwargs.get("accept") is not None:
                seen.append((args, kwargs, res))
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", recording)
        questions = [
            (lambda: gambles.is_p_coherent(coherent).p_coherent, True),
            (lambda: gambles.is_p_coherent(incoherent).p_coherent, False),
            (lambda: gambles.natural_extension_contains(coherent, member), True),
            (lambda: gambles.natural_extension_contains(coherent, outside), False),
        ]
        for ask, want in questions:
            seen.clear()
            assert ask() is want
            assert len(seen) == 1
            args, kwargs, res = seen[0]
            assert res.status == sdp.STATUS_CERTIFIED
            kwargs = {k: v for k, v in kwargs.items() if k != "accept"}
            full = solve(*args, **kwargs)
            assert full.status == sdp.STATUS_OPTIMAL
            assert res.residuals["iterations"] < full.residuals["iterations"]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_coherence_margin_is_the_exact_optimum(self, dims):
        coherent, incoherent, _, _ = decision_cases(dims)
        assert gambles.is_p_coherent(coherent).margin == -1.0
        assert gambles.is_p_coherent(incoherent).margin == 1.0
        assert gambles.is_p_coherent(gambles.AssessmentSet.vacuous(dims)).margin == -1.0

    @pytest.mark.parametrize("which", ["coherent", "incoherent", "member", "outside"])
    @pytest.mark.parametrize("part", ["y", "primal"])
    def test_recheck_rejects_a_perturbed_certified_result(self, monkeypatch, which, part):
        coherent, incoherent, member, outside = decision_cases((2, 3))
        ask = {
            "coherent": lambda: gambles.is_p_coherent(coherent),
            "incoherent": lambda: gambles.is_p_coherent(incoherent),
            "member": lambda: gambles.natural_extension_contains(coherent, member),
            "outside": lambda: gambles.natural_extension_contains(coherent, outside),
        }[which]
        solve = sdp.maximize_lmi

        def perturbed(*args, **kwargs):
            res = solve(*args, **kwargs)
            if res.status == sdp.STATUS_CERTIFIED:
                if part == "y":
                    res.y = np.r_[res.y[0], 0.0 * res.y[1:]]  # the multipliers dropped
                else:
                    res.primal_matrix = -res.primal_matrix
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", perturbed)
        # a Dutch book or member rests on y, a coherent set or non-member on the state
        if (which in ("incoherent", "member")) == (part == "y"):
            with pytest.raises(SolverFailure, match="fail(s)? the re-check"):
                ask()
        else:
            ask()

    def test_multipliers_after_a_full_solve_are_checked_again(self, monkeypatch):
        coherent, _, member, _ = decision_cases((2, 2))
        assert gambles.natural_extension_contains(coherent, member)
        solve = sdp.maximize_lmi

        def shrunk(*args, **kwargs):
            kwargs.pop("accept", None)  # solve to the optimum, past any certificate
            res = solve(*args, **kwargs)
            res.y = 0.5 * res.y
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", shrunk)
        with pytest.raises(SolverFailure, match="multipliers fail the re-check"):
            gambles.natural_extension_contains(coherent, member)


class TestValidateOnce:
    def test_matrices_are_one_read_only_stack(self):
        rng = np.random.default_rng(30)
        a = coherent_random_assessments(rng, 4, 4, (2, 2))
        assert a.matrices.shape == (4, 4, 4) and not a.matrices.flags.writeable
        assert all(np.array_equal(m, g.matrix) for m, g in zip(a.matrices, a.gambles))
        assert gambles.AssessmentSet.vacuous((2, 3)).matrices.shape == (0, 6, 6)

    def test_solves_symmetrise_no_input_coefficient(self, monkeypatch):
        rng = np.random.default_rng(31)
        a = coherent_random_assessments(rng, 4, 4, (2, 2))
        bad = gambles.AssessmentSet((gambles.Gamble(-np.eye(4), (2, 2)), *a.gambles), (2, 2))
        f = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
        inputs = [*bad.matrices, f.matrix, np.eye(4), -np.eye(4)]
        seen = []
        as_hermitian = linalg.as_hermitian

        def recording(m, *args, **kwargs):
            seen.append(np.array(m, copy=True))
            return as_hermitian(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "as_hermitian", recording)
        monkeypatch.setattr(sdp, "as_hermitian", recording)
        assert gambles.is_p_coherent(a).p_coherent
        assert not gambles.is_p_coherent(bad).p_coherent
        gambles.lower_prevision(a, f)
        # the solver's output blocks are still symmetrised, so the patch is live
        assert seen
        assert not any(np.array_equal(m, x) for m in seen for x in inputs)


class TestNaturalExtension:
    def test_identity_always_contained(self):
        a = gambles.AssessmentSet.vacuous((2, 2))
        assert gambles.natural_extension_contains(a, gambles.Gamble(np.eye(4), (2, 2)))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_boundary_members_are_contained(self, monkeypatch, dims):
        # margin 0: an assessed gamble and a sum of two find no certificate
        # before the optimum, so the margin and the re-checked multipliers decide
        n = int(np.prod(dims))
        a = coherent_random_assessments(np.random.default_rng([19, n]), n, 2 * n, dims)
        solve = sdp.maximize_lmi
        statuses = []

        def recording(*args, **kwargs):
            res = solve(*args, **kwargs)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", recording)
        g0, g1 = a.matrices[:2]
        for f in (g0, g0 + g1, np.zeros((n, n))):
            assert gambles.natural_extension_contains(a, gambles.Gamble(f, dims))
        assert sdp.STATUS_OPTIMAL in statuses

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


def singleton_case(seed, dims):
    """A full-rank state on ``dims`` and a random Hermitian gamble F."""
    n = int(np.prod(dims))
    rng = np.random.default_rng([seed, n, len(dims)])
    rho = 0.95 * random_density(rng, n) + 0.05 * np.eye(n) / n
    return DensityState(rho, dims), random_hermitian(rng, n)


def single_state_gambles_by_loop(rho):
    """The singleton gambles built one basis matrix at a time, in the library's order."""
    n = rho.dim
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    rt = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = rt
            e[j, i] = rt
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = -1j * rt
            e[j, i] = 1j * rt
            basis.append(e)
    gs = []
    for e in basis:
        g = e - float(np.trace(e @ rho.matrix).real) * np.eye(n)
        if np.linalg.norm(g) >= 1e-14:
            gs.append(g)
    if gs:
        gs.append(-sum(gs))
    return [gambles.Gamble(g, rho.dims).matrix for g in gs]


SINGLETON_DIMS = [(2, 2), (2, 3), (4,), (6,), (3, 3)]
# every dims has a seed whose pair-form set (+/-g_k) ended a prevision or
# membership solve in numerical_failure
SINGLETON_SEEDS = [0, 2, 3, 5, 6, 8]


class TestSingletonSumForm:
    @pytest.mark.parametrize("dims", [(2, 2), (3,), (2, 3)])
    def test_basis_gambles_plus_their_negated_sum(self, dims):
        rho, _ = singleton_case(1, dims)
        mats = gambles.AssessmentSet.for_single_state(rho).matrices
        assert len(mats) == rho.dim**2 + 1
        assert np.array_equal(mats[-1], -sum(mats[:-1]))
        values = np.einsum("kij,ji->k", mats, rho.matrix).real
        assert np.abs(values).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 2), (2, 3), (3, 3), (4,)])
    def test_matrices_equal_the_basis_loop_bit_for_bit(self, dims):
        # the singleton solves depend on the order and rounding of these gambles
        for seed in (0, 1, 2):
            rho, _ = singleton_case(seed, dims)
            want = single_state_gambles_by_loop(rho)
            got = gambles.AssessmentSet.for_single_state(rho).matrices
            assert len(got) == len(want)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("seed", SINGLETON_SEEDS)
    @pytest.mark.parametrize("dims", SINGLETON_DIMS)
    def test_previsions_equal_the_expectation(self, dims, seed):
        rho, f = singleton_case(seed, dims)
        single = gambles.AssessmentSet.for_single_state(rho)
        value = float(np.trace(f @ rho.matrix).real)
        g = gambles.Gamble(f, dims)
        for price in (gambles.lower_prevision(single, g), gambles.upper_prevision(single, g)):
            assert abs(price - value) <= 1e-6 * (1.0 + abs(value))

    @pytest.mark.parametrize("member", [True, False], ids=["member", "non-member"])
    @pytest.mark.parametrize("seed", SINGLETON_SEEDS)
    @pytest.mark.parametrize("dims", SINGLETON_DIMS)
    def test_membership_follows_the_sign_of_the_expectation(self, dims, seed, member):
        rho, f = singleton_case(seed, dims)
        single = gambles.AssessmentSet.for_single_state(rho)
        # Tr(F' rho) = +0.3 for a member, -0.3 for a non-member
        shift = float(np.trace(f @ rho.matrix).real) - (0.3 if member else -0.3)
        g = gambles.Gamble(f - shift * np.eye(rho.dim), dims)
        assert gambles.natural_extension_contains(single, g) is member


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
