"""Command-line interface: output formats, exit codes, determinism."""

import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from ctoqw import (
    build_block_generator,
    choose_radius,
    cli,
    load_coin,
    return_integral,
    save_coin,
    validate_coin,
)
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

    @pytest.mark.parametrize("argv", [
        ["evolve", "--t", "8.0", "--site", "0", "--n", "5", "--trunc", "2"],
        ["skeleton", "--delta", "1.0", "--n", "100", "--trunc", "2"],
    ], ids=["evolve", "skeleton"])
    def test_leak_breach_exits_2(self, capsys, argv):
        # output is still written, but a radius whose leak bound reaches
        # LEAK_TOL over the horizon is flagged on stderr with exit code 2
        code = main([argv[0], str(COINS / "scalar_symmetric.json")] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert "leak" in captured.err
        assert captured.out

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

    def test_short_horizon_on_a_three_site_ring(self, capsys):
        # the leak bound vanishes with t, so a --trunc 3 ring certifies T = 0.01
        code, doc = run_json(capsys, ["integral", str(COINS / "scalar_symmetric.json"),
                                      "--horizon", "0.01", "--trunc", "3"])
        assert code == 0
        assert doc["value"] == pytest.approx(0.00990099172, rel=1e-9)

    @pytest.mark.parametrize("name", ["three_level_c0.json", "scalar_symmetric.json",
                                      "scalar_biased.json"])
    def test_one_exponential_matches_two_integrals(self, capsys, name):
        code, doc = run_json(capsys, ["integral", str(COINS / name), "--horizon", "50"])
        assert code == 0
        coin = load_coin(COINS / name)
        gen = build_block_generator(coin, choose_radius(coin, 0, 50.0))
        rho = np.eye(coin.dim) / coin.dim
        assert doc["value"] == pytest.approx(return_integral(gen, rho, 0, 50.0), rel=1e-12)
        assert doc["value_half_horizon"] == pytest.approx(
            return_integral(gen, rho, 0, 25.0), rel=1e-12)


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

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_non_finite_horizon_exits_1(self, capsys, horizon):
        # argparse takes "nan" and "inf" as floats; the sampler must refuse them
        # rather than run every path to the jump limit
        code = main(["simulate", str(COINS / "scalar_biased.json"), "--horizon", horizon])
        assert code == 1
        assert "finite" in capsys.readouterr().err


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

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "verify.txt"
        code = main(["verify", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = target.read_text().splitlines()
        assert len([ln for ln in lines if ln.startswith("PASS")]) == 16
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

    @pytest.mark.parametrize("argv", [
        ["classify", "COIN", "--t", "5", "--paths", "3", "--trunc", "9"],
        ["verify", "--horizon", "3", "--seed", "4"],
        ["verify", "--format", "csv"],
        ["stationary", "COIN", "--site", "0"],
        ["simulate", "COIN", "--trunc", "4"],
    ], ids=["classify", "verify-horizon-seed", "verify-format", "stationary", "simulate"])
    def test_option_the_command_does_not_take_exits_1(self, capsys, argv):
        coin = str(COINS / "scalar_symmetric.json")
        with pytest.raises(SystemExit) as exc:
            main([coin if a == "COIN" else a for a in argv])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evolve", "--t", "nan", "--site", "0", "--trunc", "4"],
        ["evolve", "--t", "inf", "--site", "0", "--trunc", "4"],
        ["evolve", "--t", "nan", "--site", "0"],
        ["skeleton", "--delta", "nan", "--n", "3", "--trunc", "4"],
        ["integral", "--horizon", "inf"],
    ], ids=["evolve-nan-trunc", "evolve-inf-trunc", "evolve-nan", "skeleton-nan", "integral-inf"])
    def test_non_finite_time_exits_1(self, capsys, argv):
        code = main([argv[0], str(COINS / "three_level_c0.json")] + argv[1:])
        captured = capsys.readouterr()
        assert code == 1
        assert "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["evolve", "--t", "1", "--site", "0"],
        ["skeleton", "--delta", "1", "--n", "3"],
        ["integral", "--horizon", "1"],
    ], ids=["evolve", "skeleton", "integral"])
    def test_trunc_above_max_radius_exits_1(self, capsys, monkeypatch, command):
        # refused before any ring is allocated: (2r+1) d^4 entries per stack
        def unreachable(coin, radius):
            raise AssertionError(f"ring of radius {radius} built")

        monkeypatch.setattr(cli, "build_block_generator", unreachable)
        trunc = str(cli.MAX_RADIUS + 1)
        code = main([command[0], str(COINS / "scalar_symmetric.json")] + command[1:]
                    + ["--trunc", trunc])
        assert code == 1
        assert "--trunc" in capsys.readouterr().err

    def test_integral_format_csv_rejected(self, capsys):
        code = main(["integral", str(COINS / "scalar_symmetric.json"),
                     "--horizon", "2", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1
        assert "json" in captured.err
        assert captured.out == ""


class TestLeakCertificate:
    # One certificate per command: choose_radius certifies an auto-grown
    # radius, the CLI bounds a --trunc radius once, and return_integral
    # certifies its own horizons.
    @pytest.mark.parametrize("argv, calls", [
        (["evolve", "--t", "2", "--site", "0", "--n", "5"], 0),
        (["skeleton", "--delta", "0.5", "--n", "4"], 0),
        (["integral", "--horizon", "2"], 0),
        (["evolve", "--t", "2", "--site", "0", "--n", "5", "--trunc", "40"], 1),
        (["skeleton", "--delta", "0.5", "--n", "4", "--trunc", "40"], 1),
        (["integral", "--horizon", "2", "--trunc", "40"], 0),
    ], ids=["evolve", "skeleton", "integral", "evolve-trunc", "skeleton-trunc",
            "integral-trunc"])
    def test_leak_bound_calls(self, capsys, monkeypatch, argv, calls):
        seen = []
        bound = cli.leak_bound

        def counted(*args, **kwargs):
            seen.append(args)
            return bound(*args, **kwargs)

        monkeypatch.setattr(cli, "leak_bound", counted)
        code = main([argv[0], str(COINS / "three_level_c0.json")] + argv[1:])
        assert code == 0
        assert capsys.readouterr().out
        assert len(seen) == calls


class TestCommandTable:
    # The options each command reads, as the README documents them.
    EXPECTED = {
        "stationary": {"coin", "--out", "--format"},
        "drift": {"coin", "--out", "--format"},
        "classify": {"coin", "--out", "--format"},
        "evolve": {"coin", "--t", "--n", "--site", "--trunc", "--out", "--format"},
        "skeleton": {"coin", "--delta", "--n", "--site", "--trunc", "--out", "--format"},
        "integral": {"coin", "--horizon", "--trunc", "--out", "--format"},
        "simulate": {"coin", "--horizon", "--paths", "--seed", "--out", "--format"},
        "verify": {"--out"},
    }

    def test_subparsers_take_only_their_row(self):
        subparsers = cli._parser()._subparsers._group_actions[0].choices
        assert set(subparsers) == set(cli._COMMANDS) == set(self.EXPECTED)
        for name, (_, _, options, formats) in cli._COMMANDS.items():
            got = {s for a in subparsers[name]._actions
                   for s in (a.option_strings or [a.dest])} - {"-h", "--help"}
            assert got == set(options) | ({"--format"} if formats else set()), name
            assert got == self.EXPECTED[name], name

    def test_parser_reuse_leaks_no_state(self, capsys, monkeypatch):
        coin = str(COINS / "scalar_symmetric.json")
        runs = [
            ["evolve", coin, "--t", "1.0", "--site", "0", "--n", "5", "--format", "json"],
            ["classify", coin],
            ["evolve", coin, "--t", "1.0", "--site", "0", "--n", "5"],
            ["skeleton", coin, "--delta", "1.0", "--n", "3", "--format", "csv"],
            ["skeleton", coin, "--delta", "1.0", "--n", "3"],
        ]
        first_calls = []
        for argv in runs:
            cli._parser.cache_clear()
            assert main(argv) == 0
            first_calls.append(capsys.readouterr().out)

        used = []
        parse_args = cli._Parser.parse_args

        def spy(self, *args, **kwargs):
            used.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", spy)
        cli._parser.cache_clear()
        for argv, expected in zip(runs, first_calls):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected, argv[0]
        assert len(used) == len(runs)
        assert all(p is used[0] for p in used)


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
