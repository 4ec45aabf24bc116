"""Command-line interface: parsing, reports, exit codes."""

import json
from fractions import Fraction

import pytest

from digitq.cli import main, parse_angle


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("0", Fraction(0)),
        ("pi", Fraction(1)),
        ("1/3pi", Fraction(1, 3)),
        ("3/4 pi", Fraction(3, 4)),
        ("2pi", Fraction(2)),
        ("1/2pi", Fraction(1, 2)),
    ])
    def test_valid(self, text, expected):
        assert parse_angle(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "1.5pi", "2", "pi/3", "1/0pi", "0/0", "0/0pi"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    @pytest.mark.parametrize("argv", [
        ["polarization", "--theta", "1/0pi"],
        ["trace-rule", "--theta2", "1/3pi", "--theta1", "1/0pi"],
        ["trace-rule", "--theta1", "1/2pi", "--theta2", "1/0pi"],
        ["epr", "--dtheta", "1/0pi"],
        ["weak-reduction", "--theta0", "1/0pi"],
        ["state", "qubit", "--lambda", "0", "--theta", "1/0pi"],
        ["state", "qubit", "--theta", "1/2pi", "--lambda", "1/0pi"],
        ["state", "qutrit", "--theta1", "1/2pi", "--theta2", "1/3pi",
         "--lambda2", "0", "--lambda1", "1/0pi"],
        ["state", "qutrit", "--theta1", "1/2pi", "--theta2", "1/3pi",
         "--lambda1", "0", "--lambda2", "1/0pi"],
    ])
    def test_zero_denominator_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: invalid parse_angle value: '1/0pi'" in capsys.readouterr().err


class TestHelp:
    def test_help_enumerates_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("polarization", "trace-rule", "epr", "interference",
                     "weak-reduction", "seed-invariance", "state", "suite"):
            assert name in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["polarization", "--help"])
        out = capsys.readouterr().out
        for flag in ("--depth", "--length", "--out", "--format", "--theta"):
            assert flag in out
        with pytest.raises(SystemExit):
            main(["trace-rule", "--help"])
        assert "--seed" in capsys.readouterr().out


class TestStateCommand:
    def test_qubit_constant_zero(self, capsys):
        rc = main(["state", "qubit", "--theta", "0", "--lambda", "0",
                   "--length", "16384", "--prefix", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert ".00000000" in out

    def test_length_off_the_block_rule_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["polarization", "--theta", "1/3pi", "--length", "1000"])
        assert exc.value.code == 2
        assert "2^(n_max+2) = 16384" in capsys.readouterr().err

    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, capsys):
        # only the subcommands that read --depth, --length, --seed and
        # --out take them
        for argv in (["epr", "--dtheta", "1/2pi", "--length", "1000"],
                     ["epr", "--dtheta", "1/2pi", "--depth", "3"],
                     ["seed-invariance", "--length", "1000"],
                     ["polarization", "--theta", "1/3pi", "--seed", "7"],
                     ["state", "qubit", "--theta", "1/2pi", "--lambda", "0",
                      "--out", "unwritten"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_off_grid_exit_code(self, capsys):
        rc = main(["state", "qubit", "--theta", "1/2pi", "--lambda", "1/3pi"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "off-grid" in err

    def test_depth_bounds_the_grid_without_length(self, capsys):
        # 1/1024 pi is 1/2048 of a turn, depth 11, off the depth-3 grid
        rc = main(["state", "qubit", "--theta", "1/2pi", "--lambda", "1/1024pi",
                   "--depth", "3"])
        assert rc == 2
        assert "off-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["epr", "--dtheta", "1/2pi", "--pairs", "0"],
        ["weak-reduction", "--theta0", "1/2pi", "--walks", "0"],
        ["trace-rule", "--theta1", "1/2pi", "--theta2", "1/3pi", "--samples", "0"],
        ["polarization", "--theta", "1/3pi", "--depth", "-1"],
        ["trace-rule", "--theta1", "1/2pi", "--theta2", "1/3pi", "--samples", "8",
         "--depth3", "-1"],
        ["weak-reduction", "--theta0", "1/2pi", "--walks", "4", "--jitter-depth", "-2"],
        ["weak-reduction", "--theta0", "1/2pi", "--walks", "4", "--dt", "-1"],
        ["weak-reduction", "--theta0", "1/2pi", "--walks", "4", "--alpha", "0"],
        ["state", "qubit", "--theta", "1/2pi", "--lambda", "0", "--prefix", "0"],
        ["suite", "--samples", "0"],
        ["epr", "--dtheta", "1/2pi", "--seed", "-1"],
        ["weak-reduction", "--theta0", "1/2pi", "--walks", "4", "--seed", str(1 << 64)],
        ["weak-reduction", "--walks", "4", "--theta0", "0"],
        ["weak-reduction", "--walks", "4", "--theta0", "pi"],
    ])
    def test_out_of_range_values_are_usage_errors(self, argv, capsys):
        # counts are at least 1, depths at least 0, alpha and dt positive,
        # seeds in 0..2^64 - 1 (make_rng reads a seed mod 2^64, so -1 and
        # 2^64 - 1 would give the same statistics under different seeds)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: {argv[-1]} is not" in capsys.readouterr().err


class TestExperimentCommands:
    def test_polarization_writes_reports(self, tmp_path, capsys):
        rc = main(["polarization", "--theta", "1/3pi", "--depth", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload[0]["experiment"] == "polarization"
        assert payload[0]["passed"] is True
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("experiment,statistic")

    def test_csv_byte_identical_across_runs(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            rc = main(["epr", "--dtheta", "1/2pi", "--pairs", "512",
                       "--seed", "3", "--out", str(d), "--format", "csv"])
            assert rc == 0
        assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()

    def test_epr_correlation_near_zero(self, tmp_path):
        rc = main(["epr", "--dtheta", "1/2pi", "--pairs", "2048",
                   "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert abs(payload[0]["statistics"][0]["observed"]) <= 0.05

    def test_interference(self, capsys):
        rc = main(["interference", "--depth", "8"])
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["polarization", "--theta", "1/3pi", "--depth", "2", "--length", "16"],
        ["interference", "--depth", "3", "--length", "32"],
    ])
    def test_grid_sweeps_on_seeds_shorter_than_the_window(self, argv, capsys):
        assert main(argv) == 0

    def test_polarization_below_the_guard_exits_2(self, capsys):
        rc = main(["polarization", "--theta", "1/3pi", "--depth", "0", "--length", "4"])
        assert rc == 2
        assert ("error: 4 digits is below the 16-digit comparison guard"
                in capsys.readouterr().err)

    def test_weak_reduction_small(self, capsys):
        rc = main(["weak-reduction", "--theta0", "1/2pi", "--walks", "120",
                   "--seed", "1"])
        assert rc == 0

    def test_seed_invariance_negative_control(self, capsys):
        rc = main(["seed-invariance", "--negative-control"])
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["trace-rule", "--theta1", "1/2pi", "--theta2", "1/3pi", "--samples", "8",
         "--depth3", "9"],
        ["trace-rule", "--theta1", "1/2pi", "--theta2", "1/3pi", "--samples", "8",
         "--depth", "14"],
        ["epr", "--dtheta", "1/2pi", "--pairs", "100000"],
        ["weak-reduction", "--theta0", "1/2pi", "--walks", "4", "--jitter-depth", "14"],
    ])
    def test_experiment_grid_off_the_config_exits_2(self, argv, capsys):
        # the same grid contract as `state`: the trace rule's configs stop
        # at triadic depth 7 and dyadic depth 12, the EPR config at depth
        # 14 (2^14 pairs), the weak-reduction config at depth 12
        rc = main(argv)
        assert rc == 2
        assert "off-grid" in capsys.readouterr().err


class TestSuiteCommand:
    def test_reduced_suite_passes(self, tmp_path, capsys):
        rc = main(["suite", "--depth", "8", "--samples", "192", "--walks", "64",
                   "--seed", "0", "--out", str(tmp_path), "--format", "json"])
        out = capsys.readouterr().out
        assert "suite:" in out
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        names = {r["experiment"] for r in payload}
        assert {"operator_algebra", "polarization", "trace_rule", "epr",
                "interference", "weak_reduction", "seed_invariance"} <= names

    def test_negative_control_suite(self, capsys):
        rc = main(["suite", "--depth", "8", "--samples", "128", "--walks", "48",
                   "--negative-control"])
        out = capsys.readouterr().out
        assert "negative control: as expected" in out
        assert rc == 0
