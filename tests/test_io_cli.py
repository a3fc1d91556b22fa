import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import S_FACTOR_LOSS_COEFFS, random_hermitian
import pcoh
from pcoh import charges, cli, io
from pcoh.charges import bell_charge_fixture
from pcoh.errors import ValidationError
from pcoh.fixtures import bell_density_matrix, bell_witness_gamble
from pcoh.gambles import AssessmentSet, Gamble
from pcoh.quantum import DensityState
from pcoh.realsos import BiPoly, entangled_moment_fixture


class TestMatrixJson:
    def test_round_trip_dense(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = io.matrix_from_json(io.matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_round_trip_upper_triangle(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 4)
        blob = io.matrix_to_json(h, upper=True)
        assert len(blob["data"]) == 10
        back = io.matrix_from_json(blob)
        assert np.allclose(back, h, atol=0.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            io.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
        with pytest.raises(ValidationError):
            io.matrix_from_json({"rows": 2, "cols": 2, "data": [[np.inf, 0.0]] * 4})
        with pytest.raises(ValidationError):
            io.matrix_from_json({"rows": 2, "cols": 2, "data": [1, 2, 3, 4]})
        with pytest.raises(ValidationError):
            io.vector_from_json([[1.0, 0.0], [2.0, 0.0, 0.0]])

    def test_vector_round_trip(self):
        v = np.array([1.0 + 2.0j, -0.5])
        assert np.array_equal(io.vector_from_json(io.vector_to_json(v)), v)


class TestDomainJson:
    def test_assessments(self):
        a = AssessmentSet(
            (Gamble(np.eye(4), (2, 2)), Gamble(bell_witness_gamble(), (2, 2))), (2, 2)
        )
        back = io.assessments_from_json(io.assessments_to_json(a))
        assert back.dims == (2, 2)
        assert all(
            np.array_equal(x.matrix, y.matrix) for x, y in zip(a.gambles, back.gambles)
        )

    def test_state(self):
        s = DensityState(bell_density_matrix(), (2, 2))
        back = io.state_from_json(io.state_to_json(s))
        assert np.allclose(back.matrix, s.matrix, atol=0.0)

    def test_charge(self):
        c = bell_charge_fixture()
        back = io.charge_from_json(io.charge_to_json(c), tol=1e-3)
        assert np.array_equal(back.weights, c.weights)

    def test_poly_and_moments(self):
        p = BiPoly({(4, 2): 1.0, (0, 0): -2.5})
        back = io.poly_from_json(io.poly_to_json(p))
        assert back.coeffs == p.coeffs
        z = entangled_moment_fixture()
        backz = io.moments_from_json(io.moments_to_json(z))
        assert backz.z == z.z

    def test_rejects_bad_exponent_keys(self):
        for key in ("x,1", "1,2,3", "1"):
            with pytest.raises(ValidationError):
                io.poly_from_json({"coeffs": {key: 1.0}})
            with pytest.raises(ValidationError):
                io.moments_from_json({"z": {key: 1.0}})
        with pytest.raises(ValidationError):
            io.poly_from_json({"coeffs": {"1,1": "one"}})


@pytest.fixture
def workdir(tmp_path):
    io.dump_json(
        io.assessments_to_json(AssessmentSet((Gamble(np.eye(4), (2, 2)),), (2, 2))),
        tmp_path / "accept_identity.json",
    )
    io.dump_json(
        io.assessments_to_json(AssessmentSet((Gamble(-np.eye(4), (2, 2)),), (2, 2))),
        tmp_path / "accept_negated.json",
    )
    io.dump_json(
        io.assessments_to_json(AssessmentSet.vacuous((2, 2))),
        tmp_path / "vacuous.json",
    )
    io.dump_json(
        io.gamble_to_json(Gamble(bell_witness_gamble(), (2, 2))),
        tmp_path / "witness.json",
    )
    io.dump_json(
        io.state_to_json(DensityState(bell_density_matrix(), (2, 2))),
        tmp_path / "bell.json",
    )
    io.dump_json(
        io.state_to_json(DensityState(np.eye(4) / 4.0, (2, 2))),
        tmp_path / "mixed.json",
    )
    noisy = 0.9 * bell_density_matrix() + 0.1 * np.eye(4) / 4.0
    io.dump_json(
        io.state_to_json(DensityState(noisy, (2, 2))), tmp_path / "noisy.json"
    )
    return tmp_path


def run_json(capsys, argv):
    rc = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestCliCoherence:
    def test_identity_fixture(self, workdir, capsys):
        rc, rep = run_json(capsys, ["coherence", "-i", str(workdir / "accept_identity.json")])
        assert rc == 0
        assert rep["results"]["p_coherent"] is True

    def test_negated_fixture(self, workdir, capsys):
        rc, rep = run_json(capsys, ["coherence", "-i", str(workdir / "accept_negated.json")])
        assert rc == 0
        assert rep["results"]["p_coherent"] is False
        assert abs(rep["results"]["certificate"][0] - 1.0) <= 1e-6

    def test_singleton_dual_set(self, workdir, capsys, tmp_path):
        s = DensityState(bell_density_matrix(), (2, 2))
        io.dump_json(
            io.assessments_to_json(AssessmentSet.for_single_state(s)),
            tmp_path / "single.json",
        )
        rc, rep = run_json(capsys, ["coherence", "-i", str(tmp_path / "single.json")])
        assert rc == 0
        assert rep["results"]["p_coherent"] is True


class TestCliPrevision:
    def test_vacuous_witness_lower(self, workdir, capsys):
        rc, rep = run_json(
            capsys,
            [
                "prevision",
                "-i",
                str(workdir / "vacuous.json"),
                "--gamble",
                str(workdir / "witness.json"),
                "--side",
                "lower",
            ],
        )
        assert rc == 0
        assert abs(rep["results"]["value"] + 3.0) <= 1e-6

    def test_singleton_witness_lower(self, workdir, capsys, tmp_path):
        s = DensityState(bell_density_matrix(), (2, 2))
        io.dump_json(
            io.assessments_to_json(AssessmentSet.for_single_state(s)),
            tmp_path / "single.json",
        )
        rc, rep = run_json(
            capsys,
            [
                "prevision",
                "-i",
                str(tmp_path / "single.json"),
                "--gamble",
                str(workdir / "witness.json"),
                "--side",
                "lower",
            ],
        )
        assert rc == 0
        assert abs(rep["results"]["value"] - 1.0) <= 1e-5


class TestCliWitness:
    def test_bell_certificate(self, workdir, capsys):
        rc, rep = run_json(capsys, ["witness", "-i", str(workdir / "bell.json"), "--epsilon", "0.5"])
        assert rc == 0
        cert = rep["results"]["certificate"]
        assert cert["product_sup"] < 0.0
        assert abs(cert["trace_value"] - 0.5) <= 1e-8

    def test_mixed_is_ppt(self, workdir, capsys):
        rc, rep = run_json(capsys, ["witness", "-i", str(workdir / "mixed.json")])
        assert rc == 0
        assert rep["results"]["ppt"] is True

    def test_noisy_bell_certificate(self, workdir, capsys):
        rc, rep = run_json(capsys, ["witness", "-i", str(workdir / "noisy.json")])
        assert rc == 0
        assert rep["results"]["certificate"] is not None

    def test_qubit_qutrit_certificate(self, tmp_path, capsys):
        v = np.zeros(6)
        v[0] = v[4] = 1.0 / np.sqrt(2.0)  # (|0,0> + |1,1>)/sqrt(2)
        rho = 0.9 * np.outer(v, v) + 0.1 * np.eye(6) / 6.0
        io.dump_json(io.state_to_json(DensityState(rho, (2, 3))), tmp_path / "qutrit.json")
        rc, rep = run_json(capsys, ["witness", "-i", str(tmp_path / "qutrit.json")])
        assert rc == 0
        assert rep["results"]["ppt"] is False
        cert = rep["results"]["certificate"]
        assert cert["trace_value"] >= 0.0
        assert cert["product_sup"] <= -cert["epsilon"] + 1e-12


class TestCliChsh:
    def test_bell_value(self, workdir, capsys):
        rc, rep = run_json(capsys, ["chsh", "-i", str(workdir / "bell.json")])
        assert rc == 0
        assert abs(rep["results"]["value"] - 2.8284271247) <= 1e-9

    def test_mixed_value_zero(self, workdir, capsys):
        rc, rep = run_json(capsys, ["chsh", "-i", str(workdir / "mixed.json")])
        assert rc == 0
        assert abs(rep["results"]["value"]) <= 1e-12

    def test_sweep_peaks_at_quarter_pi(self, workdir, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        rc, rep = run_json(
            capsys,
            ["chsh", "-i", str(workdir / "bell.json"), "--sweep", "181", "--csv", str(csv_path)],
        )
        assert rc == 0
        peak = rep["results"]["sweep"]["peak_beta1"]
        assert abs(peak - np.pi / 4.0) <= np.pi / 180.0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "beta1,value"
        assert len(rows) == 182


class TestCliSos:
    def test_classic_not_sos(self, capsys):
        rc, rep = run_json(capsys, ["sos", "--motzkin", "classic"])
        assert rc == 0
        assert rep["results"]["is_sos"] is False
        assert rep["results"]["moment_fixture_accepts_negation"] == 163.0

    def test_soft_reported_with_fixture_value(self, capsys):
        rc, rep = run_json(capsys, ["sos", "--motzkin", "soft"])
        assert rc == 0
        assert rep["results"]["moment_fixture_accepts_negation"] == 31.0

    def test_simple_poly_file(self, capsys, tmp_path):
        io.dump_json(
            io.poly_to_json(BiPoly({(2, 0): 1.0, (0, 2): 1.0})), tmp_path / "p.json"
        )
        rc, rep = run_json(capsys, ["sos", "-i", str(tmp_path / "p.json")])
        assert rc == 0
        assert rep["results"]["is_sos"] is True

    def test_poly_whose_solve_loses_the_slack_factor(self, capsys, tmp_path):
        io.dump_json(io.poly_to_json(BiPoly(S_FACTOR_LOSS_COEFFS)), tmp_path / "p.json")
        rc, rep = run_json(capsys, ["sos", "-i", str(tmp_path / "p.json")])
        assert rc == 0
        assert rep["results"]["is_sos"] is True


class TestCliCharge:
    def test_random_support_fit(self, workdir, capsys):
        rc, rep = run_json(
            capsys,
            ["charge", "-i", str(workdir / "bell.json"), "--random", "16", "--seed", "7"],
        )
        assert rc == 0
        assert rep["results"]["residual"] <= 1e-8
        assert rep["results"]["min_weight"] < 0.0
        assert rep["results"]["nonneg_fit_feasible"] is False

    def test_largest_random_support(self, capsys):
        rc, rep = run_json(
            capsys, ["charge", "--bell", "--random", str(charges.MAX_ATOMS), "--seed", "7"]
        )
        assert rc == 0
        assert rep["results"]["residual"] <= 1e-8
        assert len(rep["results"]["weights"]) == 4096

    def test_table_replay(self, workdir, capsys):
        rc, rep = run_json(capsys, ["charge", "-i", str(workdir / "bell.json"), "--bell-table"])
        assert rc == 0
        assert rep["results"]["moment_residual"] <= 1e-3
        assert abs(rep["results"]["corner_monomial_moment"] - 0.5) <= 1e-3

    def test_separable_exact_atoms_nonnegative(self, capsys, tmp_path):
        io.dump_json(
            io.state_to_json(DensityState(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))),
            tmp_path / "sep.json",
        )
        e0 = [[1.0, 0.0], [0.0, 0.0]]
        e1 = [[0.0, 0.0], [1.0, 0.0]]
        io.dump_json({"atoms": [[e0, e0], [e1, e1]]}, tmp_path / "sup.json")
        rc, rep = run_json(
            capsys,
            [
                "charge",
                "-i",
                str(tmp_path / "sep.json"),
                "--support",
                str(tmp_path / "sup.json"),
                "--fit-tol",
                "1e-8",
            ],
        )
        assert rc == 0
        assert rep["results"]["min_weight"] >= -1e-9
        assert rep["results"]["nonneg_fit_feasible"] is True


class TestCliContract:
    def test_exit_code_on_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2,2], "rho": {"rows": 2, "cols": 2, "data": []}}')
        assert cli.main(["witness", "-i", str(bad)]) == 2
        assert cli.main(["coherence", "-i", str(tmp_path / "missing.json")]) == 2

    def test_exit_code_on_malformed_json(self, workdir, tmp_path):
        bad = str(tmp_path / "bad.json")
        identity = [[1, 0], [0, 0], [0, 0], [1, 0]]
        cases = [
            (["coherence", "-i", bad],
             {"dims": [2], "gambles": [{"rows": 2, "cols": 2, "data": [1, 2, 3, 4]}]}),
            (["sos", "-i", bad], {"coeffs": {"x,1": 1}}),
            (["coherence", "-i", bad], {"dims": ["x"], "gambles": []}),
            (["coherence", "-i", bad], {"dims": [2], "gambles": 5}),
            (["coherence", "-i", bad],
             {"dims": [2], "gambles": [{"rows": -2, "cols": -2, "data": identity}]}),
            (["prevision", "-i", str(workdir / "vacuous.json"), "--gamble", bad],
             {"dims": "ab", "matrix": {"rows": 4, "cols": 4, "data": [[0, 0]] * 16}}),
            (["charge", "-i", str(workdir / "bell.json"), "--support", bad], {"foo": 1}),
        ]
        for argv, blob in cases:
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump(blob, fh)
            assert cli.main(argv) == 2, blob

    def test_exit_code_on_oversized_epsilon(self, workdir):
        assert cli.main(["witness", "-i", str(workdir / "bell.json"), "--epsilon", "2.0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["witness", "--bell", "--seed", "-1"],
        ["charge", "--bell", "--random", "4", "--seed", "-1"],
        ["chsh", "--bell", "--sweep", "-3"],
    ])
    def test_negative_seed_or_sweep_exits_2(self, capsys, argv):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, named", [
        (["charge", "--bell", "--random", "4", "--fit-tol", "-1"], "tolerance"),
        (["charge", "--bell", "--random", "4", "--fit-tol", "nan"], "tolerance"),
        (["witness", "--bell", "--epsilon", "inf"], "epsilon"),
        (["witness", "--bell", "--epsilon", "nan"], "epsilon"),
        (["charge", "--bell", "--random", "100000000"], "atoms"),
        (["charge", "--bell", "--random", "-3"], "atoms"),
    ])
    def test_out_of_range_number_exits_2_without_a_warning(self, capsys, argv, named):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert not seen, [str(w.message) for w in seen]
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err and named in err, err

    @pytest.mark.parametrize("value", ["1e-3", "junk"])
    def test_solver_tolerance_comes_from_no_environment_variable(self, capsys, monkeypatch, value):
        argv = ["sos", "--motzkin", "soft"]
        rc, plain = run_json(capsys, argv)
        monkeypatch.setenv("PCOH_SOLVER_TOL", value)
        rc_env, with_env = run_json(capsys, argv)
        assert rc == rc_env == 0
        assert with_env["results"] == plain["results"]

    def test_reports_deterministic_given_seed(self, workdir, capsys):
        rc1, rep1 = run_json(
            capsys, ["charge", "-i", str(workdir / "bell.json"), "--random", "8", "--seed", "3"]
        )
        rc2, rep2 = run_json(
            capsys, ["charge", "-i", str(workdir / "bell.json"), "--random", "8", "--seed", "3"]
        )
        rep1.pop("wall_time_ms")
        rep2.pop("wall_time_ms")
        assert rc1 == rc2 == 0
        assert rep1 == rep2

    def test_digest_tracks_inputs(self, workdir, capsys):
        _, rep1 = run_json(capsys, ["chsh", "-i", str(workdir / "bell.json")])
        _, rep2 = run_json(capsys, ["chsh", "-i", str(workdir / "mixed.json")])
        assert rep1["inputs_digest"] != rep2["inputs_digest"]

    def test_seed_recorded(self, workdir, capsys):
        _, rep = run_json(
            capsys, ["charge", "-i", str(workdir / "bell.json"), "--random", "4", "--seed", "11"]
        )
        assert rep["seed"] == 11

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test-only dependency; the command must start without it
        src = os.path.dirname(os.path.dirname(pcoh.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, pcoh.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
