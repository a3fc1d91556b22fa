import numpy as np
import pytest

from conftest import S_FACTOR_LOSS_COEFFS
from pcoh import linalg, realsos, sdp
from pcoh.errors import SolverFailure, ValidationError

# the built-in entangled moment fixture, typed out entry for entry
FIXTURE_MATRIX = np.array(
    [
        [1, 0, 0, 353, 0, 353, 0, 0, 0, 0],
        [0, 353, 0, 0, 0, 0, 249572, 0, 66, 0],
        [0, 0, 353, 0, 0, 0, 0, 66, 0, 249572],
        [353, 0, 0, 249572, 0, 66, 0, 0, 0, 0],
        [0, 0, 0, 0, 66, 0, 0, 0, 0, 0],
        [353, 0, 0, 66, 0, 249572, 0, 0, 0, 0],
        [0, 249572, 0, 0, 0, 0, 706955894, 0, 17, 0],
        [0, 0, 66, 0, 0, 0, 0, 17, 0, 17],
        [0, 66, 0, 0, 0, 0, 17, 0, 17, 0],
        [0, 0, 249572, 0, 0, 0, 0, 17, 0, 706955894],
    ],
    dtype=float,
)

MARGINAL_MATRIX = np.array(
    [
        [1, 0, 353, 0],
        [0, 353, 0, 249572],
        [353, 0, 249572, 0],
        [0, 249572, 0, 706955894],
    ],
    dtype=float,
)


def expand_square(poly_coeffs):
    """Multiply a polynomial (coeff dict) with itself, the expansion oracle."""
    out = {}
    for (a1, b1), c1 in poly_coeffs.items():
        for (a2, b2), c2 in poly_coeffs.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


class TestMonomialVector:
    def test_origin(self):
        assert np.array_equal(
            realsos.monomial_vector(0.0, 0.0), np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        )

    def test_ones(self):
        assert np.array_equal(realsos.monomial_vector(1.0, 1.0), np.ones(10))

    def test_mixed_entry(self):
        v = realsos.monomial_vector(2.0, 3.0)
        assert v[7] == 12.0  # x1^2 x2 at (2, 3)
        assert v[6] == 8.0
        assert v[9] == 27.0


class TestMotzkin:
    def test_values_at_one_one(self):
        assert realsos.motzkin("soft").evaluate(1.0, 1.0) == 2.0
        assert realsos.motzkin("classic").evaluate(1.0, 1.0) == 0.0

    def test_values_at_origin(self):
        assert realsos.motzkin("soft").evaluate(0.0, 0.0) == 1.0
        assert realsos.motzkin("classic").evaluate(0.0, 0.0) == 1.0

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            realsos.motzkin("hard")


class TestSosCheck:
    def test_sum_of_two_squares(self):
        cert = realsos.sos_check_detail(realsos.BiPoly({(2, 0): 1.0, (0, 2): 1.0})).gram
        assert cert is not None
        assert abs(cert.Q[1, 1] - 1.0) <= 1e-6
        assert abs(cert.Q[2, 2] - 1.0) <= 1e-6
        assert np.linalg.eigvalsh(cert.Q)[0] >= -1e-7

    def test_classic_motzkin_rejected_with_certificate(self):
        verdict = realsos.sos_check_detail(realsos.motzkin("classic"))
        assert not verdict.is_sos
        assert verdict.gram is None
        # the separating functional is a PSD moment table negative on the poly
        assert verdict.certificate_value < -1e-6
        moments = realsos.MomentMatrix10(verdict.moment_certificate)
        assembled = realsos.assemble_moment_matrix(moments)
        assert np.linalg.eigvalsh(assembled)[0] >= -1e-6 * (1.0 + np.linalg.norm(assembled))

    def test_soft_variant_verdict_is_computed(self):
        # reported as a computed result: the margin is negative but tiny
        verdict = realsos.sos_check_detail(realsos.motzkin("soft"))
        assert not verdict.is_sos
        assert -1e-4 < verdict.margin < -1e-6

    def test_perfect_square_reconstructs(self):
        # (x1 x2 - 1)^2 expanded by the oracle
        base = {(1, 1): 1.0, (0, 0): -1.0}
        cert = realsos.sos_check_detail(realsos.BiPoly(expand_square(base))).gram
        assert cert is not None
        assert cert.coefficient_residual <= 1e-8

    def test_gram_reconstruction_residual(self):
        rng = np.random.default_rng(7)
        # random SOS polynomial: sum of three squares of random cubics
        total = {}
        for _ in range(3):
            coeffs = {
                exp: rng.standard_normal() for exp in realsos.MONOMIAL_EXPONENTS
            }
            for k, v in expand_square(coeffs).items():
                total[k] = total.get(k, 0.0) + v
        p = realsos.BiPoly(total)
        cert = realsos.sos_check_detail(p).gram
        assert cert is not None
        assert cert.coefficient_residual <= 1e-7
        # reconstruct and compare at sample points
        for _ in range(20):
            x1, x2 = rng.uniform(-1.5, 1.5, size=2)
            v = realsos.monomial_vector(x1, x2)
            assert abs(float(v @ cert.Q @ v) - p.evaluate(x1, x2)) <= 1e-6 * (
                1.0 + abs(p.evaluate(x1, x2))
            )

    @pytest.mark.parametrize(
        "poly, perturb",
        [
            # a solver that reports the classic Motzkin margin as zero
            (realsos.motzkin("classic"), lambda y: np.r_[0.0, y[1:]]),
            # or moves the Gram matrix off the PSD cone along the null space
            (realsos.BiPoly({(2, 0): 1.0, (0, 2): 1.0}), lambda y: np.r_[y[0], y[1:] + 1.0]),
        ],
        ids=["lifted-margin", "shifted-null"],
    )
    def test_gram_recheck_rejects_perturbed_solution(self, monkeypatch, poly, perturb):
        solve = sdp.maximize_lmi

        def perturbed(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.y = perturb(res.y)
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", perturbed)
        with pytest.raises(SolverFailure, match="re-check") as info:
            realsos.sos_check_detail(poly)
        assert info.value.residuals["gram_min_eig"] < -1e-3

    @pytest.mark.parametrize(
        "perturb, failed",
        [
            # a primal block with a large (0, 1) entry: the moment z_10 breaks PSD
            (lambda m: m + 10.0 * np.trace(m) * unit_pair(0, 1), lambda r: r["moment_min_eig"] < -1.0),
            # the uniform primal block: PSD moments, but a positive value
            (lambda m: np.eye(10) * np.trace(m) / 10.0, lambda r: r["certificate_value"] > 0.0),
        ],
        ids=["indefinite-moments", "positive-value"],
    )
    def test_moment_recheck_rejects_perturbed_solution(self, monkeypatch, perturb, failed):
        poly = realsos.motzkin("classic")
        verdict = realsos.sos_check_detail(poly)
        assert not verdict.is_sos and verdict.certificate_value < 0.0
        solve = sdp.maximize_lmi

        def perturbed(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.primal_matrix = perturb(res.primal_matrix)
            return res

        monkeypatch.setattr(sdp, "maximize_lmi", perturbed)
        with pytest.raises(SolverFailure, match="re-check") as info:
            realsos.sos_check_detail(poly)
        assert failed(info.value.residuals)

    def test_gram_recheck_rejects_coefficient_mismatch(self, monkeypatch):
        # Gram matrix I: strictly inside the cone, so only the coefficients can fail
        p = realsos.BiPoly({(2 * a, 2 * b): 1.0 for a, b in realsos.MONOMIAL_EXPONENTS})
        assert realsos.sos_check_detail(p).gram is not None
        lstsq = np.linalg.lstsq

        def off_target(a, b, rcond=None):
            x, *rest = lstsq(a, b, rcond=rcond)
            return (x + 1e-3, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", off_target)
        with pytest.raises(SolverFailure, match="re-check") as info:
            realsos.sos_check_detail(p)
        assert info.value.residuals["coefficient_residual"] > 1e-4

    def test_lost_slack_factor_still_gives_a_checked_verdict(self, monkeypatch):
        # the solve stops where S loses its factor and returns its best
        # iterate, whose Gram matrix passes the independent re-check
        inverse_factor, lost = sdp._inverse_factor, []

        def recording(p):
            out = inverse_factor(p)
            lost.append(out is None)
            return out

        monkeypatch.setattr(sdp, "_inverse_factor", recording)
        verdict = realsos.sos_check_detail(realsos.BiPoly(S_FACTOR_LOSS_COEFFS))
        assert any(lost)
        assert verdict.is_sos
        assert verdict.margin >= 0.5
        assert verdict.gram.coefficient_residual <= 1e-9

    def test_sos_implies_grid_nonnegative(self):
        rng = np.random.default_rng(11)
        base = {(1, 0): 1.0, (0, 1): -0.5, (2, 1): 0.3}
        p = realsos.BiPoly(expand_square(base))
        assert realsos.sos_check_detail(p).gram is not None
        assert realsos.grid_min(p, 3.0, 301) >= -1e-6


def unit_pair(i, j):
    """E_ij + E_ji in the 10x10 monomial basis."""
    e = np.zeros((10, 10))
    e[i, j] = e[j, i] = 1.0
    return e


class TestMomentFunctional:
    def test_constant(self):
        z = realsos.entangled_moment_fixture()
        assert realsos.moment_functional(z, realsos.BiPoly({(0, 0): 1.0})) == 1.0

    def test_negated_soft_motzkin(self):
        z = realsos.entangled_moment_fixture()
        assert realsos.moment_functional(z, -realsos.motzkin("soft")) == 31.0

    def test_square_monomial(self):
        z = realsos.entangled_moment_fixture()
        assert realsos.moment_functional(z, realsos.BiPoly({(2, 2): 1.0})) == 66.0

    def test_linearity(self):
        z = realsos.entangled_moment_fixture()
        p = realsos.BiPoly({(2, 2): 2.0, (0, 0): -3.0})
        want = 2.0 * 66.0 - 3.0
        assert realsos.moment_functional(z, p) == want

    def test_missing_moment_rejected(self):
        z = realsos.MomentMatrix10({(0, 0): 1.0})
        with pytest.raises(ValidationError):
            realsos.moment_functional(z, realsos.BiPoly({(2, 0): 1.0}))


class TestAssemble:
    def test_fixture_verbatim(self):
        z = realsos.entangled_moment_fixture()
        assert np.array_equal(realsos.assemble_moment_matrix(z), FIXTURE_MATRIX)

    def test_unit_mass_at_origin(self):
        table = {pair: 0.0 for pair in realsos.PRODUCT_EXPONENTS}
        table[(0, 0)] = 1.0
        out = realsos.assemble_moment_matrix(realsos.MomentMatrix10(table))
        want = np.zeros((10, 10))
        want[0, 0] = 1.0
        assert np.array_equal(out, want)

    def test_point_mass_outer_product(self):
        # moments of the point mass at (1, 1) equal v(1,1) v(1,1)^T
        table = {pair: 1.0 for pair in realsos.PRODUCT_EXPONENTS}
        out = realsos.assemble_moment_matrix(realsos.MomentMatrix10(table))
        v = realsos.monomial_vector(1.0, 1.0)
        assert np.array_equal(out, np.outer(v, v))

    def test_fixture_is_psd_after_normalisation(self):
        z = realsos.entangled_moment_fixture()
        assert realsos.fixture_is_psd(z)
        m = realsos.assemble_moment_matrix(z)
        scaled = m / np.linalg.norm(m)
        assert linalg.hermitian_eigen(scaled).values[0] >= -1e-6


def marginal_moment_matrix(zmat, var):
    """4x4 Hankel matrix of one variable's moments up to degree six."""
    key = (lambda d: (d, 0)) if var == "x1" else (lambda d: (0, d))
    return np.array([[zmat.z[key(i + j)] for j in range(4)] for i in range(4)])


class TestMarginals:
    def test_fixture_marginals_match_print(self):
        z = realsos.entangled_moment_fixture()
        for var in ("x1", "x2"):
            assert np.array_equal(marginal_moment_matrix(z, var), MARGINAL_MATRIX)

    def test_point_mass_marginal(self):
        table = {pair: 1.0 for pair in realsos.PRODUCT_EXPONENTS}
        out = marginal_moment_matrix(realsos.MomentMatrix10(table), "x1")
        assert np.array_equal(out, np.ones((4, 4)))

    def test_fixture_marginals_psd(self):
        z = realsos.entangled_moment_fixture()
        for var in ("x1", "x2"):
            m = marginal_moment_matrix(z, var)
            assert np.linalg.eigvalsh(m / np.linalg.norm(m))[0] >= -1e-9


class TestGridMin:
    def test_classic_motzkin_nonnegative(self):
        assert realsos.grid_min(realsos.motzkin("classic"), 2.0, 401) >= -1e-9

    def test_constant(self):
        assert realsos.grid_min(realsos.BiPoly({(0, 0): -1.0}), 2.0, 11) == -1.0

    def test_negated_soft_motzkin_is_negative(self):
        assert realsos.grid_min(-realsos.motzkin("soft"), 2.0, 401) <= -1.0


class TestDualityLink:
    def test_functional_equals_gram_pairing(self):
        # for coefficient-matched Gram Q and Hankel-tied Z the pairing is exact
        z = realsos.entangled_moment_fixture()
        zmat = realsos.assemble_moment_matrix(z)
        for coeffs in (
            {(2, 0): 1.0, (0, 2): 1.0},
            expand_square({(1, 1): 1.0, (0, 0): -1.0}),
        ):
            p = realsos.BiPoly(coeffs)
            cert = realsos.sos_check_detail(p).gram
            assert cert is not None
            pairing = float((cert.Q * zmat).sum())
            want = realsos.moment_functional(z, p)
            assert abs(pairing - want) <= 1e-6 * (1.0 + abs(want))

    def test_classical_dutch_book_reproduced(self):
        # the fixture is a valid P-coherent dual point (PSD), accepts the
        # negated soft polynomial with value 31, and that same polynomial is
        # classically negative on the plane
        z = realsos.entangled_moment_fixture()
        assert realsos.fixture_is_psd(z)
        neg = -realsos.motzkin("soft")
        assert realsos.moment_functional(z, neg) == 31.0
        assert realsos.grid_min(neg, 2.0, 401) < 0.0
