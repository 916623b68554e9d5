import contextlib
import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hcslab
from hcslab import fock, heralding
from hcslab.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from hcslab.sweep import CSV_HEADER


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def no_basis(monkeypatch):
    """Fail the test if any Fock basis gets allocated."""

    def refuse(alpha, dim):
        raise AssertionError(f"allocated a basis of {dim} levels")

    monkeypatch.setattr(fock, "_coherent_amplitudes", refuse)
    monkeypatch.setattr(heralding, "_coherent_amplitudes", refuse)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["sweep", "--alpha-steps", "2"], ["sweep", "--bogus"]])
def test_main_restores_the_collector_state(capsys, enabled, argv):
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(SystemExit):
            run_cli(*argv)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # every CLI call pays for what the import loads; scipy.special once took most of it
    src = str(Path(hcslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import hcslab.cli, sys; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestSweepCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        code = run_cli(
            "sweep", "--witness", "squeezing", "--epsilon", "0.5", "--orders", "1,2",
            "--alpha-min", "0", "--alpha-max", "1", "--alpha-steps", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = [
            "sweep", "--witness", "antibunching", "--epsilon", "0,0.5", "--orders", "2",
            "--alpha-min", "0.1", "--alpha-max", "2", "--alpha-steps", "7",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(first)) == EXIT_OK
        assert run_cli(*args, "--out", str(second)) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_range_is_usage_error(self, tmp_path, capsys):
        code = run_cli("sweep", "--alpha-min", "3", "--alpha-max", "1", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--bogus")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["sweep"], ["figure", "3"]])
    def test_truncation_tol_is_not_accepted(self, capsys, command):
        # only validate and herald build Fock states, so only they take the oracle tolerance
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*command, "--truncation-tol", "1e-3")
        assert excinfo.value.code == 2
        assert "--truncation-tol" in capsys.readouterr().err

    def test_unwritable_path_is_io_error(self, capsys):
        code = run_cli("sweep", "--alpha-steps", "2", "--out", "/nonexistent-dir/x.csv")
        assert code == EXIT_IO
        capsys.readouterr()

    @pytest.mark.parametrize("witness,order", [("squeezing", 6), ("antibunching", 12)])
    def test_order_above_cap_is_usage_error_and_writes_nothing(self, tmp_path, capsys, witness, order):
        out = tmp_path / "x.csv"
        code = run_cli("sweep", "--witness", witness, "--orders", f"1,{order}", "--out", str(out))
        assert code == EXIT_USAGE
        assert "exceed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("witness,order", [("squeezing", 5), ("antibunching", 11)])
    def test_order_at_cap_is_accepted(self, tmp_path, witness, order):
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--witness", witness, "--orders", str(order), "--alpha-min", "0.5",
            "--alpha-max", "4", "--alpha-steps", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 3

    def test_high_order_antibunching_curve_is_complete(self, tmp_path):
        # <a^dag^12 a^12> up to |alpha| = 4 must come out exactly real, or the
        # imaginary-residue guard of hoa_g stops the curve half-way
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--witness", "antibunching", "--epsilon", "0.3", "--orders", "11", "--phi", "1.1",
            "--alpha-arg", "0.4", "--alpha-min", "0.05", "--alpha-max", "4", "--alpha-steps", "81",
            "--out", str(out),
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 81

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = run_cli("sweep", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "cannot read" in err and len(err.strip().splitlines()) == 1

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("alpha-steps 5\n")
        assert run_cli("figure", "3", "--config", str(config)) == EXIT_USAGE
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,line",
        [(["sweep"], "alpha-mx=2"), (["sweep"], "alpha_max=2"), (["sweep"], "truncation-tol=1e-3"),
         (["figure", "3"], "truncation-tol=1e-3"), (["herald"], "alpha=1")],
    )  # fmt: skip
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, command, line):
        config = tmp_path / "typo.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert run_cli(*command, "--config", str(config), "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"hcslab {command[0]}: unknown config key") and len(err.strip().splitlines()) == 1
        assert line.partition("=")[0] in err
        assert not out.exists()

    def test_huge_amplitude_coherent_antibunching_reads_one(self, tmp_path):
        # the ratio form never raises |alpha| to the 24th power
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--witness", "antibunching", "--epsilon", "1", "--orders", "11",
            "--alpha-min", "1e15", "--alpha-max", "1e15", "--alpha-steps", "2", "--out", str(out),
        )  # fmt: skip
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 and all(row[7:] == ["1", "0"] for row in rows)

    @pytest.mark.parametrize("alpha_max", ["inf", "1e200"])
    def test_alpha_beyond_domain_is_usage_error(self, tmp_path, capsys, alpha_max):
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--alpha-max", alpha_max, "--out", str(out)) == EXIT_USAGE
        assert "alpha_abs_max" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("witness=squeezing\nalpha-steps=5\nalpha-max=1\nepsilon=0.5\norders=1\n")
        out = tmp_path / "out.csv"
        code = run_cli("sweep", "--config", str(config), "--alpha-steps", "3", "--out", str(out))
        assert code == EXIT_OK
        # flag wins over config for steps; config supplies everything else
        assert len(out.read_text().splitlines()) == 1 + 3


class TestFigureCommand:
    def test_figure_3_rows(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert run_cli("figure", "3", "--out", str(out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 324
        assert "324" in capsys.readouterr().out

    def test_config_sets_output_path(self, tmp_path, capsys):
        out = tmp_path / "from-config.csv"
        config = tmp_path / "figure.cfg"
        config.write_text(f"# output of the preset\nout={out}\n")
        assert run_cli("figure", "4", "--config", str(config)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 360
        capsys.readouterr()


class TestValidateCommand:
    def test_small_grid_passes(self, capsys):
        code = run_cli(
            "validate", "--epsilon", "0,0.5,1", "--phi", "0", "--alpha-abs", "0,1", "--alpha-arg", "0",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "worst=" in out

    def test_large_alpha_state_passes(self, capsys):
        code = run_cli("validate", "--alpha-abs", "8", "--epsilon", "0.5", "--phi", "0", "--alpha-arg", "0")
        assert code == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out

    def test_forced_small_dimension_reports_truncation_class(self, capsys):
        code = run_cli(
            "validate", "--epsilon", "0.5", "--phi", "0", "--alpha-abs", "3", "--alpha-arg", "0",
            "--force-dim", "4",
        )
        assert code == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "TRUNCATION-INADEQUATE" in out
        assert "overall: FAIL" in out

    def test_coherent_row_reports_exact_zeros(self, capsys):
        code = run_cli("validate", "--epsilon", "1", "--phi", "0", "--alpha-abs", "1,2", "--alpha-arg", "0")
        assert code == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha_abs", ["1e4", "1e200"])
    def test_basis_beyond_max_dim_is_usage_error(self, capsys, no_basis, alpha_abs):
        code = run_cli("validate", "--epsilon", "0.5", "--phi", "0", "--alpha-arg", "0", "--alpha-abs", alpha_abs)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("hcslab validate: ") and "MAX_DIM" in err and len(err.strip().splitlines()) == 1

    def test_forced_dimension_beyond_max_dim_is_usage_error(self, capsys):
        code = run_cli(
            "validate", "--epsilon", "0.5", "--phi", "0", "--alpha-abs", "1", "--alpha-arg", "0",
            "--force-dim", str(fock.MAX_DIM + 1),
        )  # fmt: skip
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("hcslab validate: ") and "MAX_DIM" in err and len(err.strip().splitlines()) == 1


class TestHeraldCommand:
    def test_balanced_run_reports_mapping_and_fidelities(self, capsys):
        code = run_cli("herald", "--theta", "0", "--xpm", "0.01", "--alpha-abs", "1")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "epsilon=0" in out
        assert "fidelity linearized vs closed-form state: 1" in out
        assert "success probability" in out

    def test_exact_vs_linearized_reported(self, capsys):
        code = run_cli(
            "herald", "--t", "0.8", "--r", "0.6", "--theta", str(math.pi / 4),
            "--xpm", "0.01", "--alpha-abs", "1.5", "--kerr-mode", "exact",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("fidelity exact vs linearized"))
        assert float(line.split(":")[1]) >= 0.999

    def test_degenerate_settings_are_usage_error(self, capsys):
        code = run_cli("herald", "--theta", "0", "--xpm", "0")
        assert code == EXIT_USAGE
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["t=abc", "alpha-abs=big", "kerr-mode=fast"])
    def test_unparsable_config_value_is_usage_error(self, tmp_path, capsys, line):
        config = tmp_path / "herald.cfg"
        config.write_text(line + "\n")
        assert run_cli("herald", "--config", str(config)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("hcslab herald: ") and len(err.strip().splitlines()) == 1

    def test_large_amplitude_runs(self, capsys):
        assert run_cli("herald", "--alpha-abs", "40") == EXIT_OK
        assert "fidelity linearized vs closed-form state" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha_abs", ["1e4", "1e200"])
    def test_basis_beyond_max_dim_is_usage_error(self, capsys, no_basis, alpha_abs):
        # 1e4 would need about 1e8 levels; 1e200 used to overflow in map_to_hcs before any sizing
        assert run_cli("herald", "--alpha-abs", alpha_abs) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("hcslab herald: ") and "MAX_DIM" in err and len(err.strip().splitlines()) == 1

    def test_inadequate_truncation_exits_three(self, capsys):
        assert run_cli("herald", "--alpha-abs", "3", "--truncation-tol", "1e-18") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("hcslab herald: ") and "truncation inadequate" in err
        assert len(err.strip().splitlines()) == 1

    def test_csv_append(self, tmp_path, capsys):
        out = tmp_path / "herald.csv"
        args = ["herald", "--theta", "0.3", "--xpm", "0.02", "--alpha-abs", "1", "--out", str(out)]
        assert run_cli(*args) == EXIT_OK
        assert run_cli(*args) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t_bs2,r_bs2,theta")
        assert len(lines) == 3  # one header, two appended rows
