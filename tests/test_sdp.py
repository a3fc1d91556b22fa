import numpy as np
import pytest

from conftest import random_hermitian
from pcoh import gambles, linalg, sdp
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


class TestPsdMinimize:
    def test_diagonal_eigen_case(self):
        prob = sdp.AffinePsdProblem(
            objective=np.diag([1.0, 2.0]), equality_constraints=[(np.eye(2), 1.0)]
        )
        sol = sdp.psd_minimize(prob)
        assert sol.status == sdp.STATUS_OPTIMAL
        assert abs(sol.value - 1.0) <= 1e-7
        assert np.allclose(sol.X, np.diag([1.0, 0.0]), atol=1e-6)

    def test_witness_fixture_minimum(self, witness_h):
        prob = sdp.AffinePsdProblem(
            objective=witness_h, equality_constraints=[(np.eye(4), 1.0)]
        )
        sol = sdp.psd_minimize(prob)
        assert sol.status == sdp.STATUS_OPTIMAL
        assert abs(sol.value + 3.0) <= 1e-7

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
            prob = sdp.AffinePsdProblem(
                objective=f,
                equality_constraints=[(np.eye(2), 1.0)],
                inequality_constraints=constraints,
            )
            sol = sdp.psd_minimize(prob)
            assert sol.status == sdp.STATUS_OPTIMAL
            want = bloch_grid_oracle(f, constraints)
            assert abs(sol.value - want) <= 1e-4

    def test_solution_invariants(self):
        rng = np.random.default_rng(7)
        f = random_hermitian(rng, 3)
        prob = sdp.AffinePsdProblem(
            objective=f,
            equality_constraints=[(np.eye(3), 1.0)],
            inequality_constraints=[(random_hermitian(rng, 3), -0.5)],
        )
        sol = sdp.psd_minimize(prob)
        assert sol.status == sdp.STATUS_OPTIMAL
        assert np.linalg.eigvalsh(sol.X)[0] >= -1e-7
        assert sol.certificate_residuals["equality_residual"] <= 1e-7
        assert sol.certificate_residuals["inequality_residual"] <= 1e-7

    def test_infeasible_and_unbounded_detection(self):
        prob = sdp.AffinePsdProblem(
            objective=np.eye(2), equality_constraints=[(np.eye(2), -1.0)]
        )
        assert sdp.psd_minimize(prob).status == sdp.STATUS_INFEASIBLE
        prob = sdp.AffinePsdProblem(
            objective=np.diag([-1.0, 0.0]),
            equality_constraints=[(np.diag([0.0, 1.0]), 1.0)],
        )
        assert sdp.psd_minimize(prob).status == sdp.STATUS_UNBOUNDED


class TestEigenAgreement:
    def test_fifty_random_instances(self):
        # unit-trace-only problems minimise to the smallest eigenvalue
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            c = random_hermitian(rng, n)
            prob = sdp.AffinePsdProblem(
                objective=c, equality_constraints=[(np.eye(n), 1.0)]
            )
            sol = sdp.psd_minimize(prob)
            assert sol.status == sdp.STATUS_OPTIMAL
            lam_min = linalg.hermitian_eigen(c).values[0]
            assert abs(sol.value - lam_min) <= 1e-7 * (1.0 + abs(lam_min))


class TestWeakDuality:
    def test_primal_not_below_dual(self):
        rng = np.random.default_rng(303)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            c = random_hermitian(rng, n)
            prob = sdp.AffinePsdProblem(
                objective=c,
                equality_constraints=[(np.eye(n), 1.0)],
                inequality_constraints=[(random_hermitian(rng, n), -1.0)],
            )
            sol = sdp.psd_minimize(prob)
            if sol.status != sdp.STATUS_OPTIMAL:
                continue
            # dual bound: b.y for the returned duals is a lower bound
            b = np.array([1.0, -1.0])
            assert sol.value >= float(b @ sol.duals) - 1e-6


class TestPsdFeasibility:
    def test_identity_alone(self):
        lam = sdp.psd_feasibility(np.eye(3), [])
        assert lam is not None and lam.size == 0

    def test_forced_shift(self):
        lam = sdp.psd_feasibility(-np.eye(3), [np.eye(3)])
        assert lam is not None
        assert lam[0] >= 1.0 - 1e-7
        assert linalg.is_psd(-np.eye(3) + lam[0] * np.eye(3), tol=1e-8)

    def test_indefinite_direction_is_infeasible(self, witness_h):
        # scan oracle: -I + t H keeps a negative eigenvalue for every t >= 0
        for t in np.linspace(0.0, 50.0, 201):
            assert np.linalg.eigvalsh(-np.eye(4) + t * witness_h)[0] < 0.0
        assert sdp.psd_feasibility(-np.eye(4), [witness_h]) is None

    def test_scaling_invariance_of_verdict(self):
        rng = np.random.default_rng(404)
        for _ in range(5):
            f0 = random_hermitian(rng, 3)
            fs = [random_hermitian(rng, 3)]
            v1 = sdp.psd_feasibility(f0, fs) is not None
            v2 = sdp.psd_feasibility(2.0 * f0, [2.0 * f for f in fs]) is not None
            assert v1 == v2

    def test_returned_multipliers_certify(self):
        rng = np.random.default_rng(505)
        for _ in range(5):
            base = random_hermitian(rng, 3)
            f0 = base @ base.conj().T - 0.3 * np.eye(3)
            fs = [np.eye(3), random_hermitian(rng, 3)]
            lam = sdp.psd_feasibility(f0, fs)
            assert lam is not None
            combo = f0 + sum(l * f for l, f in zip(lam, fs))
            assert np.linalg.eigvalsh(combo)[0] >= -1e-8

    def test_complex_data_embedding(self):
        lam = sdp.psd_feasibility(-SIGMA_Y, [np.eye(2)])
        assert lam is not None and lam[0] >= 1.0 - 1e-6


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


class TestDeterminism:
    def test_bitwise_repeatability(self, witness_h):
        prob = sdp.AffinePsdProblem(
            objective=witness_h, equality_constraints=[(np.eye(4), 1.0)]
        )
        a = sdp.psd_minimize(prob)
        b = sdp.psd_minimize(prob)
        assert a.value == b.value
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.duals, b.duals)


class TestTolerancePlumbing:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PCOH_SOLVER_TOL", "1e-6")
        assert sdp.solver_tolerance() == 1e-6
        monkeypatch.setenv("PCOH_SOLVER_TOL", "junk")
        with pytest.raises(Exception):
            sdp.solver_tolerance()

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("PCOH_SOLVER_TOL", "1e-6")
        assert sdp.solver_tolerance(1e-10) == 1e-10
