import warnings

import numpy as np
import pytest

from conftest import random_hermitian
from pcoh import gambles, linalg, sdp
from pcoh.errors import DimensionMismatchError, ValidationError
from pcoh.fixtures import SIGMA_X, SIGMA_Y, SIGMA_Z


def bloch_grid_oracle(f, constraints, refine=True):
    """Grid search over qubit density matrices, then SLSQP polish.

    Parametrises rho = (I + r.sigma)/2 over the Bloch ball; independent of the
    interior-point path.
    """
    paulis = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])

    def traces(mat):
        base = float(np.trace(mat).real) / 2.0
        lin = np.array([np.trace(mat @ p).real / 2.0 for p in paulis])
        return base, lin

    f0, fv = traces(f)
    cons = [traces(g) for g, _ in constraints]
    bounds = [c for _, c in constraints]

    xs = np.linspace(-1.0, 1.0, 41)
    g1, g2, g3 = np.meshgrid(xs, xs, xs, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    feas = np.ones(len(pts), dtype=bool)
    for (c0, cv), lo in zip(cons, bounds):
        feas &= (c0 + pts @ cv) >= lo - 1e-12
    pts = pts[feas]
    vals = f0 + pts @ fv
    best = pts[int(np.argmin(vals))]

    if refine:
        from scipy.optimize import minimize

        cons_scipy = [
            {"type": "ineq", "fun": (lambda r, c0=c0, cv=cv, lo=lo: c0 + r @ cv - lo)}
            for (c0, cv), lo in zip(cons, bounds)
        ]
        cons_scipy.append({"type": "ineq", "fun": lambda r: 1.0 - r @ r})
        res = minimize(
            lambda r: f0 + r @ fv,
            best,
            method="SLSQP",
            constraints=cons_scipy,
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if res.success:
            return float(res.fun)
    return float(f0 + best @ fv)


def unit_trace_minimum(c, gs=(), bounds=()):
    """min <C,X> over states X with Tr(G_j X) >= c_j, posed as its dual LMI.

    max y_0 + sum_j c_j y_j s.t. C - y_0 I - sum_j y_j G_j >= 0 and y_j >= 0:
    ``primal_value`` and ``primal_matrix`` read the minimum and the minimiser
    back, and ``b . y`` is the dual bound.
    """
    n = c.shape[0]
    b = np.r_[1.0, bounds]
    res = sdp.maximize_lmi(b, c, np.stack([np.eye(n), *gs]), nonneg=range(1, len(b)))
    return res, b


class TestPsdMinimize:
    def test_diagonal_eigen_case(self):
        res, _ = unit_trace_minimum(np.diag([1.0, 2.0]))
        assert res.status == sdp.STATUS_OPTIMAL
        assert abs(res.primal_value - 1.0) <= 1e-7
        assert np.allclose(res.primal_matrix, np.diag([1.0, 0.0]), atol=1e-6)

    def test_witness_fixture_minimum(self, witness_h):
        res, _ = unit_trace_minimum(witness_h)
        assert res.status == sdp.STATUS_OPTIMAL
        assert abs(res.primal_value + 3.0) <= 1e-7

    def test_random_qubit_instances_match_grid_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            f = random_hermitian(rng, 2)
            constraints = [(random_hermitian(rng, 2), 0.0) for _ in range(3)]
            # keep the instance clearly feasible: the maximally mixed state
            # satisfies Tr(G I/2) >= 0 after shifting each G
            constraints = [
                (g - (np.trace(g).real / 2.0 - 0.25) * np.eye(2), 0.0)
                for g, _ in constraints
            ]
            res, _ = unit_trace_minimum(f, *zip(*constraints))
            assert res.status == sdp.STATUS_OPTIMAL
            want = bloch_grid_oracle(f, constraints)
            assert abs(res.primal_value - want) <= 1e-4

    def test_solution_invariants(self):
        rng = np.random.default_rng(7)
        f = random_hermitian(rng, 3)
        g = random_hermitian(rng, 3)
        res, _ = unit_trace_minimum(f, [g], [-0.5])
        assert res.status == sdp.STATUS_OPTIMAL
        x = res.primal_matrix
        assert np.linalg.eigvalsh(x)[0] >= -1e-7
        assert abs(np.trace(x).real - 1.0) <= 1e-7
        assert np.trace(g @ x).real >= -0.5 - 1e-7
        assert abs(np.trace(f @ x).real - res.primal_value) <= 1e-7

    def test_infeasible_and_unbounded_detection(self):
        # min <I, X> s.t. Tr X = -1 has no PSD X
        res = sdp.maximize_lmi([-1.0], np.eye(2), np.eye(2)[None])
        assert res.status == sdp.STATUS_INFEASIBLE
        # min -X_00 s.t. X_11 = 1 runs off to -infinity
        res = sdp.maximize_lmi([1.0], np.diag([-1.0, 0.0]), np.diag([0.0, 1.0])[None])
        assert res.status == sdp.STATUS_UNBOUNDED


class TestEigenAgreement:
    def test_fifty_random_instances(self):
        # unit-trace-only problems minimise to the smallest eigenvalue
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            c = random_hermitian(rng, n)
            res, _ = unit_trace_minimum(c)
            assert res.status == sdp.STATUS_OPTIMAL
            lam_min = linalg.hermitian_eigen(c).values[0]
            assert abs(res.primal_value - lam_min) <= 1e-7 * (1.0 + abs(lam_min))


class TestWeakDuality:
    def test_primal_not_below_dual(self):
        rng = np.random.default_rng(303)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            c = random_hermitian(rng, n)
            res, b = unit_trace_minimum(c, [random_hermitian(rng, n)], [-1.0])
            if res.status != sdp.STATUS_OPTIMAL:
                continue
            # dual bound: b.y for the returned duals is a lower bound
            assert res.primal_value >= float(b @ res.y) - 1e-6


def feasibility(f0, fs):
    """gambles._feasibility of F0 + sum lam_i F_i >= 0: the gambles are G_i = -F_i."""
    n = f0.shape[0]
    a = gambles.AssessmentSet(tuple(gambles.Gamble(-f, (n,)) for f in fs), (n,))
    return gambles._feasibility(a, np.asarray(f0, dtype=complex))


def assert_separates(sigma, f0, fs):
    """sigma is a state with Tr(F0 sigma) < 0 <= -Tr(F_i sigma)."""
    assert np.linalg.eigvalsh(sigma)[0] >= -1e-7
    assert abs(np.trace(sigma).real - 1.0) <= 1e-9
    assert np.trace(f0 @ sigma).real < 0.0
    for f in fs:
        assert np.trace(f @ sigma).real <= 1e-7


class TestPsdFeasibility:
    def test_identity_alone(self):
        _, lam, sigma = feasibility(np.eye(3), [])
        assert lam is not None and lam.size == 0
        assert sigma is None

    def test_forced_shift(self):
        _, lam, _ = feasibility(-np.eye(3), [np.eye(3)])
        assert lam is not None
        assert lam[0] >= 1.0 - 1e-7
        assert linalg.is_psd(-np.eye(3) + lam[0] * np.eye(3), tol=1e-8)

    def test_indefinite_direction_is_infeasible(self, witness_h):
        # scan oracle: -I + t H keeps a negative eigenvalue for every t >= 0
        for t in np.linspace(0.0, 50.0, 201):
            assert np.linalg.eigvalsh(-np.eye(4) + t * witness_h)[0] < 0.0
        margin, lam, sigma = feasibility(-np.eye(4), [witness_h])
        assert lam is None and margin < gambles.INFEASIBLE_MARGIN
        assert_separates(sigma, -np.eye(4), [witness_h])

    def test_scaling_invariance_of_verdict(self):
        rng = np.random.default_rng(404)
        for _ in range(5):
            f0 = random_hermitian(rng, 3)
            fs = [random_hermitian(rng, 3)]
            _, lam, sigma = feasibility(f0, fs)
            _, lam2, sigma2 = feasibility(2.0 * f0, [2.0 * f for f in fs])
            assert (lam is not None) == (lam2 is not None)
            if lam is None:
                assert_separates(sigma, f0, fs)
                assert_separates(sigma2, f0, fs)

    def test_returned_multipliers_certify(self):
        rng = np.random.default_rng(505)
        for _ in range(5):
            base = random_hermitian(rng, 3)
            f0 = base @ base.conj().T - 0.3 * np.eye(3)
            f0 = (f0 + f0.conj().T) / 2.0
            fs = [np.eye(3), random_hermitian(rng, 3)]
            _, lam, _ = feasibility(f0, fs)
            assert lam is not None
            combo = f0 + sum(l * f for l, f in zip(lam, fs))
            assert np.linalg.eigvalsh(combo)[0] >= -1e-8

    def test_complex_data_embedding(self):
        _, lam, _ = feasibility(-SIGMA_Y, [np.eye(2)])
        assert lam is not None and lam[0] >= 1.0 - 1e-6
        _, lam, sigma = feasibility(-SIGMA_Y, [])
        assert lam is None
        assert_separates(sigma, -SIGMA_Y, [])


class TestLinearCone:
    def test_all_scalar_problem_matches_closed_form(self):
        # fractional knapsack: max b.y s.t. a.y <= c, 0 <= y <= 1; greedy by
        # b_k / a_k fills y = (1, 1, 1/2, 0) at the price b_2 / a_2 = 1.5
        b = np.array([3.0, 2.0, 1.5, 1.0])
        a = np.array([1.0, 1.0, 1.0, 2.0])
        res = sdp.maximize_lmi(
            b,
            np.array([[2.5]]),
            [np.array([[ak]]) for ak in a],
            nonneg=range(4),
            caps=[(k, 1.0) for k in range(4)],
        )
        assert res.status == sdp.STATUS_OPTIMAL
        assert abs(res.value - 5.75) <= 1e-7
        assert abs(res.primal_value - 5.75) <= 1e-7
        assert np.allclose(res.y, [1.0, 1.0, 0.5, 0.0], atol=1e-6)
        assert np.allclose(res.primal_matrix, [[1.5]], atol=1e-6)

    def test_no_variables_tests_the_constant_block(self):
        # max 0 s.t. C >= 0: an empty orthant and no constraint rows
        assert sdp.maximize_lmi([], np.eye(2), []).status == sdp.STATUS_OPTIMAL
        assert sdp.maximize_lmi([], -np.eye(2), []).status == sdp.STATUS_UNBOUNDED

    def test_diagonal_assessments_match_linprog(self):
        # classical (diagonal) gambles: Tr(G rho) only sees diag(rho), a point
        # of the simplex, so coherence and previsions are linear programmes
        from scipy.optimize import linprog

        rng = np.random.default_rng(606)
        seen = {True: 0, False: 0}
        for _ in range(24):
            n = int(rng.integers(2, 5))
            gs = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), n))
            # max t s.t. G p >= t, p in the simplex; coherent iff t >= 0
            lp = linprog(
                np.r_[np.zeros(n), -1.0],
                A_ub=np.c_[-gs, np.ones(len(gs))],
                b_ub=np.zeros(len(gs)),
                A_eq=np.r_[np.ones(n), 0.0][None, :],
                b_eq=[1.0],
                bounds=[(0, None)] * n + [(None, None)],
            )
            assert lp.status == 0
            if abs(lp.fun) < 0.05:
                continue
            coherent = -lp.fun > 0.0
            a = gambles.AssessmentSet(tuple(gambles.Gamble(np.diag(g), (n,)) for g in gs), (n,))
            verdict = gambles.is_p_coherent(a)
            assert verdict.p_coherent == coherent
            seen[coherent] += 1
            if not coherent:
                lam = verdict.certificate
                assert lam.min() >= 0.0
                assert np.min(-1.0 - lam @ gs) >= -1e-7
                continue
            f = rng.uniform(-1.0, 1.0, size=n)
            want = linprog(f, A_ub=-gs, b_ub=np.zeros(len(gs)), A_eq=np.ones((1, n)),
                           b_eq=[1.0], bounds=[(0, None)] * n).fun
            got = gambles.lower_prevision(a, gambles.Gamble(np.diag(f), (n,)))
            assert abs(got - want) <= 1e-6 * (1.0 + abs(want))
        assert seen[True] >= 3 and seen[False] >= 3


class TestCore:
    def test_max_step_stops_at_the_cone_boundary(self):
        rng = np.random.default_rng(707)
        finite = 0
        for _ in range(60):
            n = int(rng.integers(1, 7))
            g = rng.standard_normal((n, n))
            x = g @ g.T + 1e-3 * np.eye(n)
            d = rng.standard_normal((n, n))
            d = d + d.T
            x_lin = rng.uniform(0.1, 2.0, size=int(rng.integers(0, 4)))
            d_lin = rng.standard_normal(len(x_lin))
            if rng.random() < 0.2:
                # a direction that never leaves the cone
                d, d_lin = d @ d.T, np.abs(d_lin)
            alpha = sdp._max_step(sdp._inverse_factor(x), d, x_lin, d_lin)
            assert alpha > 0.0
            if not np.isfinite(alpha):
                assert np.linalg.eigvalsh(d)[0] >= -1e-12 and np.all(d_lin >= 0.0)
                continue
            finite += 1
            inside = 0.999 * alpha
            assert np.linalg.eigvalsh(x + inside * d)[0] >= 0.0
            assert np.all(x_lin + inside * d_lin >= 0.0)
            # at alpha itself one of the two cones is on its boundary
            scale = np.linalg.norm(x) + alpha * np.linalg.norm(d) + np.abs(x_lin).sum()
            edge = min(np.linalg.eigvalsh(x + alpha * d)[0],
                       np.min(x_lin + alpha * d_lin, initial=np.inf))
            assert abs(edge) <= 1e-9 * scale
        assert finite >= 30

    def test_max_step_is_zero_without_a_usable_factor(self):
        d, x_lin, d_lin = -np.eye(3), np.ones(2), -np.ones(2)
        assert sdp._inverse_factor(-np.eye(3)) is None
        assert sdp._max_step(None, d, x_lin, d_lin) == 0.0
        inv = sdp._inverse_factor(np.eye(3))
        assert sdp._max_step(inv, np.full((3, 3), np.nan), x_lin, d_lin) == 0.0
        assert sdp._max_step(inv, d, x_lin, np.array([-1.0, np.inf])) == 0.0

    def test_two_blocks_go_in_block_diagonally(self):
        # max t s.t. diag(A1 - tI, A2 - tI) >= 0 is min(lambda_min A1, lambda_min A2)
        rng = np.random.default_rng(808)
        for _ in range(4):
            a1, a2 = random_hermitian(rng, 3), random_hermitian(rng, 2)
            c = np.zeros((5, 5), dtype=complex)
            c[:3, :3], c[3:, 3:] = a1, a2
            res = sdp.maximize_lmi([1.0], c, [np.eye(5)])
            assert res.status == sdp.STATUS_OPTIMAL
            want = min(np.linalg.eigvalsh(a1)[0], np.linalg.eigvalsh(a2)[0])
            assert abs(res.value - want) <= 1e-7 * (1.0 + abs(want))
            off = res.primal_matrix[:3, 3:]
            assert np.abs(off).max() <= 1e-8
            assert abs(np.trace(res.primal_matrix).real - 1.0) <= 1e-7

    def test_each_iterate_is_factored_once_per_iteration(self, monkeypatch):
        # per iteration: one Cholesky of X and one of S, the predictor and the
        # corrector Newton solves, and no solve inside the step-length tests
        counts = {"cholesky": 0, "solve": 0, "solve_in_step": 0, "steps": 0}
        in_step = []
        cholesky, solve, max_step = np.linalg.cholesky, np.linalg.solve, sdp._max_step

        def counting_cholesky(a):
            out = cholesky(a)
            counts["cholesky"] += 1
            return out

        def counting_solve(a, b):
            counts["solve"] += 1
            counts["solve_in_step"] += bool(in_step)
            return solve(a, b)

        def counting_step(*args):
            counts["steps"] += 1
            in_step.append(1)
            try:
                return max_step(*args)
            finally:
                in_step.pop()

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(sdp, "_max_step", counting_step)
        rng = np.random.default_rng(909)
        fs = [random_hermitian(rng, 4) for _ in range(5)]
        res = sdp.maximize_lmi(
            np.r_[1.0, np.zeros(5)], random_hermitian(rng, 4), [np.eye(4)] + fs,
            nonneg=range(1, 6), caps=[(0, 1.0)],
        )
        assert res.status == sdp.STATUS_OPTIMAL
        # the last iteration only finds the iterate optimal
        steps = res.residuals["iterations"] - 1
        assert steps >= 5
        assert counts == {"cholesky": 2 * steps, "solve": 2 * steps, "solve_in_step": 0,
                          "steps": 4 * steps}


class TestFeasibilityInput:
    def test_each_gamble_is_validated(self):
        with pytest.raises(DimensionMismatchError):
            gambles.Gamble(np.ones((3, 2)), (3,))
        with pytest.raises(ValidationError):
            gambles.Gamble(np.full((3, 3), np.inf), (3,))

    def test_asymmetric_gamble_warns_once(self):
        # Gamble symmetrises and warns; the solves reuse its matrix unchecked
        f = np.eye(3) + np.triu(np.ones((3, 3)), 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            a = gambles.AssessmentSet((gambles.Gamble(f, (3,)),), (3,))
            assert gambles.is_p_coherent(a).p_coherent
        assert sum("input symmetrised" in str(w.message) for w in caught) == 1


class TestLmiInput:
    def test_mis_shaped_coefficients_are_rejected(self):
        eye = np.eye(3)
        for b, c, a in [
            ([1.0], eye, np.ones((1, 3, 2))),
            ([1.0], eye, np.ones((1, 2, 2))),
            ([1.0, 1.0], eye, [eye, np.eye(2)]),
            ([1.0], np.ones((3, 2)), np.ones((1, 3, 2))),
            ([1.0], np.ones(3), np.ones((1, 3))),
            ([1.0, 1.0], eye, eye[None]),
        ]:
            with pytest.raises(DimensionMismatchError):
                sdp.maximize_lmi(b, c, a)

    def test_non_finite_coefficients_are_rejected(self):
        eye = np.eye(3)
        imag_inf = np.eye(3, dtype=complex)
        imag_inf[0, 1] = complex(0.0, np.inf)
        for c, a in [
            (eye, np.full((1, 3, 3), np.nan)),
            (np.full((3, 3), np.inf), eye[None]),
            (eye, imag_inf[None]),
        ]:
            with pytest.raises(ValidationError):
                sdp.maximize_lmi([1.0], c, a)

    def test_non_hermitian_coefficients_are_rejected_not_symmetrised(self):
        eye = np.eye(3)
        upper = np.triu(np.ones((3, 3)), 1)
        for c, a in [
            (eye, (eye + upper)[None]),
            (eye + upper, eye[None]),
            (eye, (1j * eye)[None]),
            (eye, (eye + 1j * (upper + upper.T))[None]),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="Hermitian"):
                    sdp.maximize_lmi([1.0], c, a)
        # rounding-level asymmetry is within the tolerance and goes through
        res = sdp.maximize_lmi([1.0], eye + 1e-12 * upper, eye[None])
        assert res.status == sdp.STATUS_OPTIMAL and abs(res.value - 1.0) <= 1e-7


class TestDeterminism:
    def test_bitwise_repeatability(self, witness_h):
        a, _ = unit_trace_minimum(witness_h)
        b, _ = unit_trace_minimum(witness_h)
        assert a.primal_value == b.primal_value and a.value == b.value
        assert np.array_equal(a.primal_matrix, b.primal_matrix)
        assert np.array_equal(a.y, b.y)

