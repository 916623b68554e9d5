import io
import math

import pytest

from hcslab.sweep import CSV_HEADER, SweepSpec, figure_sweeps, iter_rows, write_sweeps

SMALL_SQUEEZING = SweepSpec(
    "squeezing", (0.25, 0.75), (1, 2), alpha_abs_min=0.0, alpha_abs_max=2.0, alpha_steps=5
)


def _render(specs) -> str:
    buffer = io.StringIO()
    write_sweeps(list(specs), buffer)
    return buffer.getvalue()


class TestSweepSpec:
    def test_rejects_unknown_witness(self):
        with pytest.raises(ValueError):
            SweepSpec("wigner", (0.5,), (1,))

    def test_rejects_bad_alpha_range(self):
        with pytest.raises(ValueError):
            SweepSpec("squeezing", (0.5,), (1,), alpha_abs_min=3.0, alpha_abs_max=1.0)

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            SweepSpec("squeezing", (0.5,), (1,), alpha_steps=1)

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError):
            SweepSpec("squeezing", (0.5,), ())

    def test_rejects_epsilon_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SweepSpec("squeezing", (1.5,), (1,))

    def test_alpha_values_inclusive_and_uniform(self):
        values = SMALL_SQUEEZING.alpha_values()
        assert values[0] == 0.0 and values[-1] == 2.0
        steps = [b - a for a, b in zip(values, values[1:])]
        assert all(step == pytest.approx(0.5) for step in steps)


class TestRows:
    def test_header_and_row_count(self):
        text = _render([SMALL_SQUEEZING])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == 2 * 2 * 5  # epsilons x orders x alpha steps

    def test_deterministic_ordering_and_bytes(self):
        assert _render([SMALL_SQUEEZING]) == _render([SMALL_SQUEEZING])
        rows = [line.split(",") for line in _render([SMALL_SQUEEZING]).splitlines()[1:]]
        eps_column = [float(r[2]) for r in rows]
        assert eps_column == sorted(eps_column)  # epsilon is the outer loop

    def test_flags_match_values(self):
        for row in iter_rows(SMALL_SQUEEZING):
            value, flag = row[7], row[8]
            assert flag == int(value < 0.0)
        anti = SweepSpec("antibunching", (0.5,), (1, 2), alpha_abs_min=0.2, alpha_abs_max=2.0, alpha_steps=4)
        for row in iter_rows(anti):
            value, flag = row[7], row[8]
            assert flag == int(value < 1.0)
            assert value >= 0.0 and math.isfinite(value)

    def test_vacuum_point_skipped_only_for_pure_vacuum(self, capsys):
        spec = SweepSpec("antibunching", (0.0, 1.0), (1,), alpha_abs_min=0.0, alpha_abs_max=1.0, alpha_steps=3)
        rows = list(iter_rows(spec))
        # eps=0 keeps its alpha=0 point (a single photon is a valid state);
        # only the true vacuum row at eps=1, alpha=0 disappears
        assert len(rows) == 2 * 3 - 1
        assert "vacuum" in capsys.readouterr().err

    def test_high_order_squeezing_curve_is_complete(self):
        # generic phases used to trip the imaginary-residue guard from |alpha| ~ 2.3
        spec = SweepSpec("squeezing", (0.5,), (4,), phi=1.0, psi=0.7, alpha_arg=0.3)
        assert len(list(iter_rows(spec))) == 81

    @pytest.mark.parametrize("witness,order", [("squeezing", 6), ("antibunching", 12)])
    def test_spec_rejects_order_above_cap(self, witness, order):
        with pytest.raises(ValueError, match="exceed"):
            SweepSpec(witness, (0.5,), (1, order))

    def test_written_file_has_lf_endings(self, tmp_path):
        out = tmp_path / "sweep.csv"
        write_sweeps([SMALL_SQUEEZING], str(out))
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").splitlines()[0] == CSV_HEADER


class TestFigurePresets:
    @pytest.mark.parametrize(
        "name,expected_rows",
        [("2a", 243), ("2b", 486), ("3", 324), ("4", 360)],
    )
    def test_row_counts(self, name, expected_rows, tmp_path):
        out = tmp_path / f"fig{name}.csv"
        rows = write_sweeps(figure_sweeps(name), str(out))
        assert rows == expected_rows
        assert len(out.read_text().splitlines()) == expected_rows + 1

    def test_2b_covers_both_quadratures(self):
        psis = {spec.psi for spec in figure_sweeps("2b")}
        assert psis == {0.0, math.pi / 2}

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            figure_sweeps("5")
