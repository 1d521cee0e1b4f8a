"""Command-line interface: output formats, exit codes, determinism."""

import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from ctoqw import save_coin, validate_coin
from ctoqw.cli import main
from ctoqw.coins import three_level_stationary

COINS = Path(__file__).resolve().parents[1] / "coins"


def pairs_to_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassifyCommand:
    def test_three_level_transient(self, capsys):
        code, doc = run_json(capsys, ["classify", str(COINS / "three_level_c0.json")])
        assert code == 0
        assert doc["verdict"] == "Transient"
        assert doc["rule"] == "unique-stationary-nonzero-drift"
        assert doc["m"] == pytest.approx(-6.0 / 53.0, abs=1e-12)
        assert doc["transient_state"] is None

    def test_partial_reports_transient_state(self, capsys):
        code, doc = run_json(capsys, ["classify", str(COINS / "shared_partial_a.json")])
        assert code == 0
        assert doc["verdict"] == "PartiallyRecurrent"
        proj = pairs_to_matrix(doc["transient_state"])
        assert np.allclose(proj, proj.conj().T, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(1.0, abs=1e-10)

    def test_partial_reports_drift_slopes(self, capsys):
        code, doc = run_json(capsys, ["classify", str(COINS / "shared_partial_a.json")])
        assert code == 0
        assert doc["verdict"] == "PartiallyRecurrent"
        assert doc["rule"] == "shared-basis-one-unequal"
        assert doc["diagnostics"]["drift_slopes"] == pytest.approx([0.0, 1.89], abs=1e-12)

    def test_mixing_ham_transient_slopes(self, capsys):
        code, doc = run_json(capsys, ["classify", str(COINS / "shared_mixing_ham.json")])
        assert code == 0
        assert doc["verdict"] == "Transient"
        assert doc["rule"] == "shared-basis-both-unequal"
        assert doc["diagnostics"]["drift_slopes"] == pytest.approx([3.0, 3.0], abs=1e-12)

    def test_full_kernel_undetermined(self, capsys, tmp_path):
        path = tmp_path / "identity3.json"
        save_coin(validate_coin(np.eye(3), np.eye(3), np.zeros((3, 3))), path)
        code, doc = run_json(capsys, ["classify", str(path)])
        assert code == 0
        assert doc["verdict"] == "Undetermined"
        assert doc["rule"] == "multiple-stationary-no-criterion"
        assert doc["diagnostics"]["kernel_dim"] == 9
        assert doc["diagnostics"]["drift_slopes"] == [0.0] * 9
        assert doc["transient_state"] is None

    def test_format_csv_rejected(self, capsys):
        code = main(["classify", str(COINS / "three_level_c0.json"), "--format", "csv"])
        err = capsys.readouterr().err
        assert code == 1
        assert "json" in err


class TestStationaryCommand:
    def test_three_level_closed_form(self, capsys):
        code, doc = run_json(capsys, ["stationary", str(COINS / "three_level_c0.json")])
        assert code == 0
        assert doc["unique_stationary"] is True
        assert doc["kernel_dim"] == 1
        rho = pairs_to_matrix(doc["rho_inv"])
        assert np.abs(rho - three_level_stationary(0.0)).max() < 1e-9

    def test_multiple_stationary_flagged(self, capsys):
        code, doc = run_json(capsys, ["stationary", str(COINS / "shared_recurrent.json")])
        assert doc["unique_stationary"] is False
        assert doc["rho_inv"] is None
        assert doc["kernel_dim"] > 1


class TestDriftCommand:
    def test_tilted_value(self, capsys):
        code, doc = run_json(capsys, ["drift", str(COINS / "tilted_h1.json")])
        assert code == 0
        assert doc["m"] == pytest.approx(-2.0 / 17.0, abs=1e-12)
        assert doc["drift_operator_residual"] < 1e-8

    def test_undefined_without_unique_stationary(self, capsys):
        code = main(["drift", str(COINS / "shared_recurrent.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "undefined" in err


class TestEvolveCommand:
    def test_csv_round_trip(self, capsys):
        argv = ["evolve", str(COINS / "scalar_symmetric.json"),
                "--t", "2.0", "--site", "0", "--n", "41"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,p"
        assert len(lines) == 42
        t0, p0 = lines[1].split(",")
        assert float(t0) == 0.0 and float(p0) == 1.0
        # 17 significant digits: values round-trip through the text exactly
        p_end = float(lines[-1].split(",")[1])
        assert 0.0 < p_end < 1.0

    def test_deterministic_output(self, capsys):
        argv = ["evolve", str(COINS / "three_level_c1.json"),
                "--t", "1.0", "--site", "1", "--n", "11"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_json_format(self, capsys):
        code, doc = run_json(capsys, ["evolve", str(COINS / "scalar_symmetric.json"),
                                      "--t", "1.0", "--site", "0", "--n", "5",
                                      "--format", "json"])
        assert code == 0
        assert doc["site"] == 0
        assert len(doc["t"]) == len(doc["p"]) == 5

    def test_leak_breach_exits_2(self, capsys):
        code = main(["evolve", str(COINS / "scalar_symmetric.json"),
                     "--t", "8.0", "--site", "0", "--n", "5", "--trunc", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "leak" in err

    def test_rejects_nonpositive_time(self, capsys):
        code = main(["evolve", str(COINS / "scalar_symmetric.json"),
                     "--t", "-1.0", "--site", "0"])
        assert code == 1

    def test_out_file(self, tmp_path):
        target = tmp_path / "series.csv"
        code = main(["evolve", str(COINS / "scalar_symmetric.json"),
                     "--t", "1.0", "--site", "0", "--n", "5",
                     "--out", str(target)])
        assert code == 0
        assert target.read_text().splitlines()[0] == "t,p"


class TestSkeletonCommand:
    def test_json_keys(self, capsys):
        code, doc = run_json(capsys, ["skeleton", str(COINS / "scalar_symmetric.json"),
                                      "--delta", "1.0", "--n", "6"])
        assert code == 0
        assert doc["delta"] == 1.0 and doc["n_steps"] == 6 and doc["site"] == 0
        partials = doc["partial_sums"]
        assert len(partials) == 7
        assert partials[0] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        assert doc["sum"] == pytest.approx(partials[-1])

    def test_csv_format(self, capsys):
        code = main(["skeleton", str(COINS / "scalar_symmetric.json"),
                     "--delta", "1.0", "--n", "3", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,partial_sum"
        assert len(lines) == 5


class TestIntegralCommand:
    def test_recurrent_growth(self, capsys):
        code, doc = run_json(capsys, ["integral", str(COINS / "scalar_symmetric.json"),
                                      "--horizon", "20.0"])
        assert code == 0
        assert doc["value"] > doc["value_half_horizon"] > 0
        # sqrt(T) tail growth: doubling the horizon misses a factor 2
        assert 1.2 < doc["growth_ratio"] < 2.0


class TestSimulateCommand:
    def test_seeded_estimate(self, capsys):
        argv = ["simulate", str(COINS / "scalar_biased.json"),
                "--horizon", "100", "--paths", "100", "--seed", "7"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert abs(doc["mean"] - 3.0) < 4 * doc["stderr"]
        assert doc["n_paths"] == 100 and doc["seed"] == 7

    def test_deterministic(self, capsys):
        argv = ["simulate", str(COINS / "scalar_biased.json"),
                "--horizon", "100", "--paths", "100", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestVerifyCommand:
    def test_all_cases_pass(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        passes = [ln for ln in lines if ln.startswith("PASS")]
        assert len(passes) == 16
        assert not any(ln.startswith("FAIL") for ln in lines)
        assert lines[-1] == "All fixture checks passed"


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code = main(["classify", "/no/such/coin.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["classify", str(bad)])
        assert code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_trunc(self, capsys):
        code = main(["evolve", str(COINS / "scalar_symmetric.json"),
                     "--t", "1.0", "--site", "0", "--trunc", "0"])
        assert code == 1


class TestEntryPoint:
    def test_installed_script(self):
        exe = shutil.which("ctoqw")
        assert exe is not None
        proc = subprocess.run(
            [exe, "classify", str(COINS / "scalar_symmetric.json")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "Recurrent"
