"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from conftest import random_hermitian, random_unitary
from pcoh import charges, entangle, gambles, linalg, quantum, realsos
from pcoh.fixtures import bell_density_matrix, bell_witness_gamble
from pcoh.quantum import DensityState

MAX_VIOLATION_ANGLES = (np.pi / 2.0, 0.0, np.pi / 4.0, -np.pi / 4.0)


def verdict(number, description, passed):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def bell_state():
    return DensityState(bell_density_matrix(), (2, 2))


@pytest.fixture(scope="module")
def witness():
    return bell_witness_gamble()


def test_criterion_01_witness_spectrum(witness):
    eig = linalg.hermitian_eigen(witness)
    ok = np.allclose(eig.values, [-3.0, -1.0, -1.0, 1.0], atol=1e-9)
    verdict(1, "witness fixture eigenvalues are {-3, -1, -1, 1} within 1e-9", ok)


def test_criterion_02_witness_trace(bell_state, witness):
    value = float(np.trace(witness @ bell_state.matrix).real)
    verdict(2, "trace of witness against the Bell state equals 1 within 1e-12",
            abs(value - 1.0) <= 1e-12)


def test_criterion_03_dutch_book_certificate(bell_state, witness):
    cfg = entangle.ProductStateSearchConfig(seed=0)
    g = gambles.Gamble(witness, (2, 2))
    sup, _ = entangle.product_state_maximum(g, cfg)
    cert = entangle.dutch_book_certificate(
        bell_state, epsilon=0.5, cfg=cfg, witness_prime=witness
    )
    ok = (
        abs(sup) <= 1e-4
        and cert.product_sup <= -0.49
        and abs(cert.trace_value - 0.5) <= 1e-12
    )
    verdict(3, "product supremum 0 within 1e-4; eps=0.5 certificate has "
               "sup <= -0.49 and trace value 0.5", ok)


def test_criterion_04_chsh(bell_state):
    value = entangle.chsh_value(bell_state, MAX_VIOLATION_ANGLES)
    g = entangle.chsh_gamble(*MAX_VIOLATION_ANGLES)
    shifted = gambles.Gamble((2.0 + 1e-3) * np.eye(4) - g.matrix, (2, 2))
    bound, _ = entangle.product_state_minimum(
        shifted, entangle.ProductStateSearchConfig(seed=0)
    )
    ok = abs(value - 2.0 * np.sqrt(2.0)) <= 1e-9 and bound >= -1e-6
    verdict(4, "CHSH value 2*sqrt(2) within 1e-9 and classical bound holds", ok)


def test_criterion_05_bell_marginals(bell_state):
    ok = all(
        np.abs(quantum.marginal_operator(bell_state, keep) - np.eye(2) / 2.0).max() <= 1e-12
        for keep in (0, 1)
    )
    verdict(5, "both Bell marginals equal I/2 to 1e-12", ok)


def test_criterion_06_vacuous_previsions_match_spectrum():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        dims = (n,)
        f = gambles.Gamble(random_hermitian(rng, n), dims)
        a = gambles.AssessmentSet.vacuous(dims)
        lower = gambles.lower_prevision(a, f)
        lam_min = linalg.hermitian_eigen(f.matrix).values[0]
        if abs(lower - lam_min) > 1e-7 * (1.0 + abs(lam_min)):
            ok = False
            break
        rho = gambles.prevision_witness(a, f)
        dual = float(np.trace(f.matrix @ rho).real)
        if abs(lower - dual) > 1e-6 * (1.0 + abs(lower)):
            ok = False
            break
    verdict(6, "vacuous lower prevision equals the least eigenvalue on 50 "
               "random instances (primal/dual agreement 1e-6)", ok)


def test_criterion_07_moment_fixture_dutch_book():
    z = realsos.entangled_moment_fixture()
    neg = -realsos.motzkin("soft")
    ok = (
        realsos.fixture_is_psd(z)
        and realsos.moment_functional(z, neg) == 31.0
        and z.z[(2, 2)] == 66.0
        and z.z[(2, 4)] == 17.0
        and z.z[(4, 2)] == 17.0
        and realsos.grid_min(neg, 2.0, 401) <= -1.0
    )
    verdict(7, "moment fixture is PSD, accepts the negated soft polynomial "
               "at exactly 31, and that polynomial is classically negative", ok)


def test_criterion_08_classic_motzkin():
    v = realsos.sos_check_detail(realsos.motzkin("classic"))
    cert_ok = False
    if not v.is_sos:
        moments = realsos.MomentMatrix10(v.moment_certificate)
        m = realsos.assemble_moment_matrix(moments)
        cert_ok = (
            v.certificate_value < 0.0
            and np.linalg.eigvalsh(m)[0] >= -1e-6 * (1.0 + np.linalg.norm(m))
        )
    grid_ok = realsos.grid_min(realsos.motzkin("classic"), 2.0, 401) >= -1e-9
    verdict(8, "classic Motzkin polynomial: not SOS (with separating moment "
               "certificate) yet nonnegative on the grid", (not v.is_sos) and cert_ok and grid_ok)


def test_criterion_09_signed_charges(bell_state):
    ok = True
    for seed in (1, 2, 3, 4, 5):
        support = charges.random_product_support((2, 2), 16, seed)
        charge, residual = charges.fit_signed_charge(bell_state, support)
        if residual > 1e-8 or charge.weights.min() > -1e-3:
            ok = False
            break
        if charges.nonneg_fit_feasible(bell_state, support, 1e-4):
            ok = False
            break
    fixture = charges.bell_charge_fixture()
    corner = gambles.Gamble(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
    moment = charges.charge_moment(fixture, corner)
    ok = ok and abs(moment - 0.5) <= 1e-3
    verdict(9, "Bell-state fits on seeded supports are exact and signed, no "
               "nonnegative fit at 1e-4, table replay moment 1/2 within 1e-3", ok)


def test_criterion_10_total_probability_rewrite():
    rng = np.random.default_rng(1010)
    thetas = np.arccos(np.linspace(-1.0, 1.0, 20))
    phis = 2.0 * np.pi * 0.618 * np.arange(20)
    ok = True
    for theta, phi in zip(thetas, phis):
        v = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
        rho = DensityState(np.outer(v, v.conj()), (2,))
        u = random_unitary(rng, 2)
        basis = quantum.ProjectiveMeasurement(
            (u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T,
             u @ np.diag([0.0, 1.0]).astype(complex) @ u.conj().T)
        )
        q = quantum.sic_probabilities(rho)
        r = quantum.sic_conditionals(basis)
        p = quantum.qbism_total_probability(q, r, 2)
        if np.abs(p - quantum.born_probabilities(rho, basis)).max() > 1e-8:
            ok = False
            break
    verdict(10, "informationally complete rewrite reproduces Born "
                "probabilities on 20 sampled qubit states within 1e-8", ok)


def test_criterion_11_property_suites(bell_state, witness):
    checks = []
    rng = np.random.default_rng(1111)

    # prevision translation and homogeneity
    rho0 = np.eye(4) / 4.0
    mats = []
    for _ in range(3):
        r = random_hermitian(rng, 4)
        mats.append(r - (float(np.trace(r @ rho0).real) - 0.1) * np.eye(4))
    a = gambles.AssessmentSet(tuple(gambles.Gamble(m, (2, 2)) for m in mats), (2, 2))
    f = gambles.Gamble(random_hermitian(rng, 4), (2, 2))
    base = gambles.lower_prevision(a, f)
    checks.append(all(
        abs(gambles.lower_prevision(a, f.shifted(c)) - (base + c)) <= 1e-7 * (1 + abs(base + c))
        for c in (-1.0, 0.5, 3.0)
    ))
    checks.append(all(
        abs(gambles.lower_prevision(a, f.scaled(s)) - s * base) <= 1e-6 * (1 + abs(s * base))
        for s in (0.5, 2.0)
    ))

    # conditioning repeatability
    pi = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    post, _ = quantum.luders_condition(bell_state, pi)
    again, p2 = quantum.luders_condition(post, pi)
    checks.append(np.linalg.norm(again.matrix - post.matrix) <= 1e-9 and abs(p2 - 1.0) <= 1e-9)

    # evolution composition
    rho = DensityState(np.eye(4) / 4.0, (2, 2))
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    v = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    chained = quantum.evolve(quantum.evolve(rho, u), v)
    direct = quantum.evolve(rho, v @ u)
    checks.append(np.linalg.norm(chained.matrix - direct.matrix) <= 1e-10)

    # tensor mixed-product identity
    ok_kron = True
    for _ in range(5):
        mats4 = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
        aa, bb, cc, dd = mats4
        lhs = linalg.kron(aa, bb) @ linalg.kron(cc, dd)
        rhs = linalg.kron(aa @ cc, bb @ dd)
        ok_kron &= np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))
    checks.append(ok_kron)

    # solver weak duality on a batch of minimisations: min <C,X> over states
    # with Tr(G X) >= -1, as the LMI max y_0 - y_1 s.t. C - y_0 I - y_1 G >= 0
    from pcoh import sdp

    ok_dual = True
    b = np.array([1.0, -1.0])
    for _ in range(5):
        n = int(rng.integers(2, 5))
        c = random_hermitian(rng, n)
        g = random_hermitian(rng, n)
        res = sdp.maximize_lmi(b, c, np.stack([np.eye(n), g]), nonneg=(1,))
        if res.status == sdp.STATUS_OPTIMAL:
            ok_dual &= res.primal_value >= float(b @ res.y) - 1e-6
    checks.append(ok_dual)

    verdict(11, "module property suites (translation, homogeneity, conditioning "
                "repeatability, evolution composition, tensor identity, weak duality)",
            all(checks))
