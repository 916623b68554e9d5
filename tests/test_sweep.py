import cmath
import io
import math
from pathlib import Path

import pytest

from hcslab import sweep
from hcslab.moments import ClosedFormMoments, HcsParams
from hcslab.sweep import CSV_HEADER, MAX_ALPHA_ABS, SweepSpec, figure_sweeps, write_sweeps
from hcslab.witnesses import QuadratureSpec, hm_squeezing, hoa_g

#: Figure CSVs written by the per-point sweep that preceded the per-curve one.
FIGURE_DATA = Path(__file__).resolve().parent / "data"

SMALL_SQUEEZING = SweepSpec(
    "squeezing", (0.25, 0.75), (1, 2), alpha_abs_min=0.0, alpha_abs_max=2.0, alpha_steps=5
)


def _render(specs) -> str:
    buffer = io.StringIO()
    write_sweeps(list(specs), buffer)
    return buffer.getvalue()


def _rows(spec):
    """The CSV rows of one spec, split into columns, with value and flag parsed."""
    rows = [line.split(",") for line in _render([spec]).splitlines()[1:]]
    return [row[:7] + [float(row[7]), int(row[8])] for row in rows]


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

    @pytest.mark.parametrize("alpha_max", [math.inf, 2 * MAX_ALPHA_ABS])
    def test_rejects_alpha_beyond_domain(self, alpha_max):
        with pytest.raises(ValueError, match="alpha_abs_max"):
            SweepSpec("squeezing", (0.5,), (1,), alpha_abs_max=alpha_max)

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
        for row in _rows(SMALL_SQUEEZING):
            value, flag = row[7], row[8]
            assert flag == int(value < 0.0)
        anti = SweepSpec("antibunching", (0.5,), (1, 2), alpha_abs_min=0.2, alpha_abs_max=2.0, alpha_steps=4)
        for row in _rows(anti):
            value, flag = row[7], row[8]
            assert flag == int(value < 1.0)
            assert value >= 0.0 and math.isfinite(value)

    def test_vacuum_point_skipped_only_for_pure_vacuum(self, capsys):
        spec = SweepSpec("antibunching", (0.0, 1.0), (1,), alpha_abs_min=0.0, alpha_abs_max=1.0, alpha_steps=3)
        rows = _rows(spec)
        # eps=0 keeps its alpha=0 point (a single photon is a valid state);
        # only the true vacuum row at eps=1, alpha=0 disappears
        assert len(rows) == 2 * 3 - 1
        assert "vacuum" in capsys.readouterr().err

    def test_high_order_squeezing_curve_is_complete(self):
        # generic phases used to trip the imaginary-residue guard from |alpha| ~ 2.3
        spec = SweepSpec("squeezing", (0.5,), (4,), phi=1.0, psi=0.7, alpha_arg=0.3)
        assert len(_rows(spec)) == 81

    @pytest.mark.parametrize("witness,orders", [("squeezing", (1, 3, 5)), ("antibunching", (1, 4, 11))])
    def test_curve_matches_single_state_providers(self, witness, orders):
        # one witness call per curve over an array of amplitudes gives, point by
        # point, what the same witness gives on a provider of that one state
        spec = SweepSpec(witness, (0.0, 0.3, 1.0), orders, phi=2.1, psi=0.4, alpha_abs_max=6.0, alpha_steps=13,
                         alpha_arg=-0.8)  # fmt: skip
        for row in _rows(spec):
            eps, order, alpha_abs = float(row[2]), int(row[1]), float(row[5])
            provider = ClosedFormMoments(HcsParams(eps, spec.phi, alpha_abs * cmath.exp(1j * spec.alpha_arg)))
            if witness == "squeezing":
                expected = hm_squeezing(provider, QuadratureSpec(spec.psi), order).s_value
            else:
                expected = hoa_g(provider, order).g_value
            assert row[7] == pytest.approx(expected, rel=1e-14, abs=1e-15), row

    def test_coherent_antibunching_reads_exactly_one(self):
        spec = SweepSpec("antibunching", (1.0,), (1, 2, 11), phi=0.3, alpha_abs_min=0.05, alpha_steps=40,
                         alpha_arg=1.2)  # fmt: skip
        rows = _rows(spec)
        assert len(rows) == 3 * 40
        assert all(row[7:] == [1.0, 0] for row in rows)

    @pytest.mark.parametrize("witness,order", [("squeezing", 6), ("antibunching", 12)])
    def test_spec_rejects_order_above_cap(self, witness, order):
        with pytest.raises(ValueError, match="exceed"):
            SweepSpec(witness, (0.5,), (1, order))

    @pytest.mark.parametrize("previous", [None, "earlier contents\n"])
    def test_failure_part_way_leaves_target_untouched(self, tmp_path, monkeypatch, previous):
        out = tmp_path / "sweep.csv"
        if previous is not None:
            out.write_text(previous)
        calls = []

        def failing_witness(*args):
            calls.append(args)
            if len(calls) == 2:  # the first curve's rows are already written
                raise RuntimeError("witness failed part-way")
            return hm_squeezing(*args)

        monkeypatch.setattr(sweep, "hm_squeezing", failing_witness)
        with pytest.raises(RuntimeError, match="part-way"):
            write_sweeps([SMALL_SQUEEZING], str(out))
        assert len(calls) == 2
        assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["sweep.csv"])
        if previous is not None:
            assert out.read_text() == previous

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

    @pytest.mark.parametrize("name", ["2a", "2b", "3", "4"])
    def test_matches_committed_figure_data(self, name, tmp_path):
        out = tmp_path / "figure.csv"
        write_sweeps(figure_sweeps(name), str(out))
        got = [line.split(",") for line in out.read_text().splitlines()]
        expected = [line.split(",") for line in (FIGURE_DATA / f"figure_{name}.csv").read_text().splitlines()]
        assert got[0] == expected[0] and len(got) == len(expected)
        flipped = 0
        for new, old in zip(got[1:], expected[1:]):
            assert new[:7] == old[:7]
            if new[0] == "antibunching" and new[2] == "1":
                # coherent state: the ratio form gives g = 1 exactly, where the
                # old quotient of moments read 0.99999999999999978 on some points
                assert new[7:] == ["1", "0"], new
                flipped += old[8] == "1"
                continue
            assert new[8] == old[8], new
            assert abs(float(new[7]) - float(old[7])) <= 1e-12, new
        assert flipped == (21 if name == "4" else 0)

    def test_2b_covers_both_quadratures(self):
        psis = {spec.psi for spec in figure_sweeps("2b")}
        assert psis == {0.0, math.pi / 2}

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            figure_sweeps("5")
