import json
import math

import numpy as np
import pytest

from lgmet.cli import main
from lgmet.estimation import EstimationRecord
from lgmet.scan import (RunConfig, ScanTable, parse_grid, phase_map,
                        render_svg_lineplot, reproduce_figure, scan_b,
                        scan_theta, table_from_json, table_to_csv,
                        table_to_json, violation_threshold_b, write_table)


class TestParseGrid:
    def test_single_value(self):
        np.testing.assert_allclose(parse_grid("0.5"), [0.5])

    def test_range(self):
        np.testing.assert_allclose(parse_grid("0:1:5"), [0, 0.25, 0.5, 0.75, 1.0])

    def test_scale(self):
        np.testing.assert_allclose(parse_grid("0.5", scale=math.pi), [math.pi / 2])

    def test_rejects_short_count(self):
        with pytest.raises(ValueError):
            parse_grid("0:1:1")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("0:1")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0:inf:5", "nan:1:5", "-inf:0:2"])
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(text, scale=math.pi)


class TestRunConfig:
    def test_rejects_b_out_of_range(self):
        with pytest.raises(ValueError):
            RunConfig(b_values=np.array([0.5, 1.2]))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            RunConfig(b_values=np.array([]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(b_values=np.array([0.5, value]))
        with pytest.raises(ValueError, match="finite"):
            RunConfig(theta_values=np.array([value, 0.1]))


class TestScans:
    def test_scan_theta_single_point(self):
        table = scan_theta(RunConfig(b_values=[1.0], theta_values=[0.0]))
        assert len(table.rows) == 1
        assert table.rows[0].C == pytest.approx(1.0, abs=1e-10)
        assert table.rows[0].K_LG == pytest.approx(2.0, abs=1e-10)

    def test_scan_theta_needs_single_b(self):
        with pytest.raises(ValueError):
            scan_theta(RunConfig(b_values=[0.5, 1.0], theta_values=[0.0, 1.0]))

    def test_scan_theta_fisher_collapse(self):
        grid = np.linspace(0, math.pi, 129)
        table = scan_theta(RunConfig(b_values=[0.99], theta_values=grid))
        near_pi = min(table.rows, key=lambda r: abs(r.theta - math.pi))
        assert near_pi.F < 1e-3

    def test_scan_b_threshold_window(self):
        table = scan_b(RunConfig(b_values=np.linspace(0.8, 1.0, 201),
                                 theta_values=[0.95 * math.pi]))
        violating = [r.b for r in table.rows if abs(r.K_LG) > 2]
        assert 0.93 <= min(violating) <= 0.95

    def test_scan_b_fisher_monotone(self):
        table = scan_b(RunConfig(b_values=np.linspace(0.0, 1.0, 101),
                                 theta_values=[0.95 * math.pi]))
        f = table.column("F")
        assert np.all(np.diff(f) >= -1e-9)

    def test_phase_map_single_cell(self):
        table = phase_map(RunConfig(b_values=[1.0], theta_values=[0.0]))
        assert len(table.rows) == 1
        assert table.rows[0].F_ratio == pytest.approx(1.0, abs=1e-10)

    def test_phase_map_row_order(self):
        table = phase_map(RunConfig(b_values=[0.5, 1.0],
                                    theta_values=np.linspace(0, 1, 3)))
        keys = [(r.b, r.theta) for r in table.rows]
        assert keys == sorted(keys)

    def test_violation_threshold_bisection(self):
        b_star = violation_threshold_b(5, 0.95 * math.pi, tol=1e-4)
        assert 0.93 <= b_star <= 0.95


def _toy_table():
    rows = [EstimationRecord(theta=0.1 * k, b=0.5, C=0.3 - 0.1 * k, K_LG=1.0,
                             F=0.25 * k, F_Q=1.0, F_ratio=0.25 * k)
            for k in range(3)]
    return ScanTable({"tool": "lgmet test", "sweep": "toy"}, rows)


class TestSerialization:
    def test_csv_header_and_shape(self):
        text = table_to_csv(_toy_table(), include_metadata=False)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,b,C,K_LG,F,F_Q,F_ratio"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_empty_table_is_header_only(self):
        text = table_to_csv(ScanTable({}, []), include_metadata=False)
        assert text == "theta,b,C,K_LG,F,F_Q,F_ratio\n"

    def test_csv_metadata_commented(self):
        text = table_to_csv(_toy_table())
        data = [l for l in text.strip().split("\n") if not l.startswith("#")]
        assert data[0].startswith("theta,")

    def test_twelve_significant_digits(self):
        rows = [EstimationRecord(theta=math.pi, b=1.0, C=-1.0, K_LG=-2.0,
                                 F=35 / 3, F_Q=35 / 3, F_ratio=1.0)]
        text = table_to_csv(ScanTable({}, rows), include_metadata=False)
        assert "3.14159265359" in text
        assert "11.6666666667" in text

    def test_json_round_trip_bit_identical(self):
        table = _toy_table()
        table.rows[1] = EstimationRecord(theta=0.1 + 1e-16, b=1 / 3, C=2 / 7,
                                         K_LG=-0.1, F=1e-300, F_Q=35 / 3,
                                         F_ratio=1e-300 / (35 / 3))
        back = table_from_json(table_to_json(table))
        for a, b in zip(table.rows, back.rows):
            assert a == b

    def test_write_table_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(_toy_table(), "xml", tmp_path / "t.xml")

    def test_write_table_reports_path_on_failure(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            write_table(_toy_table(), "csv", tmp_path / "no" / "such" / "t.csv")


class TestSvg:
    def test_polyline_per_column(self, tmp_path):
        path = tmp_path / "plot.svg"
        render_svg_lineplot(_toy_table(), "theta", ["C", "F"], path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "theta" in text and "C, F" in text

    def test_rejects_empty_table(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg_lineplot(ScanTable({}, []), "theta", ["C"], tmp_path / "p.svg")


class TestFigures:
    def test_figure_1a_violates_somewhere(self, tmp_path):
        (path,) = reproduce_figure("1a", tmp_path)
        lines = [l for l in path.read_text().strip().split("\n")
                 if not l.startswith("#")][1:]
        klg = [abs(float(l.split(",")[3])) for l in lines]
        assert len(lines) == 512
        assert max(klg) > 2.0

    def test_figure_2b_never_violates(self, tmp_path):
        (path,) = reproduce_figure("2b", tmp_path)
        lines = [l for l in path.read_text().strip().split("\n")
                 if not l.startswith("#")][1:]
        assert all(abs(float(l.split(",")[3])) <= 2.0 for l in lines)

    def test_figure_3_shape_and_order(self, tmp_path):
        (path,) = reproduce_figure("3", tmp_path)
        lines = [l for l in path.read_text().strip().split("\n")
                 if not l.startswith("#")][1:]
        assert len(lines) == 5 * 256
        keys = [(float(l.split(",")[1]), float(l.split(",")[0])) for l in lines]
        assert keys == sorted(keys)

    def test_figure_with_plot(self, tmp_path):
        paths = reproduce_figure("1b", tmp_path, plot=True)
        assert paths[1].suffix == ".svg"
        assert paths[1].exists()

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_figure("4c", tmp_path)


class TestCli:
    def test_report_json(self, capsys):
        assert main(["report", "--b", "1", "--theta", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["F"] == pytest.approx(35 / 3, abs=1e-9)
        assert row["F_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_scan_theta_to_file(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["scan-theta", "--b", "0.9", "--theta", "0:1:9",
                     "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().strip().split("\n")
                 if not l.startswith("#")]
        assert len(lines) == 10

    def test_bad_config_exits_nonzero(self, capsys):
        code = main(["scan-theta", "--b", "1.5", "--theta", "0:1:9"])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("lgmet: error:") and err.count("\n") == 1

    def test_bad_grid_exits_nonzero(self, capsys):
        assert main(["scan-b", "--b", "0:1:1", "--theta", "0.95"]) != 0

    def test_custom_partition_flag(self, capsys):
        code = main(["report", "--two-j", "1", "--b", "0", "--theta", "0.3",
                     "--partition=-1:1;1:-1", "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["F_Q"] == pytest.approx(0.0, abs=1e-12)

    def test_figure_subcommand(self, tmp_path, capsys):
        code = main(["figure", "2a", "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "figure_2a.csv").exists()

    def test_plot_without_out_rejected(self, capsys):
        assert main(["scan-theta", "--b", "1", "--theta", "0.5", "--plot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--plot requires --out" in captured.err

    @pytest.mark.parametrize("flag", ["--b", "--theta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_report_rejects_non_finite(self, flag, value, capsys):
        # the --flag=value form; test_space_separated_values covers "--flag -inf"
        args = {"--b": "1", "--theta": "0.5", flag: value}
        assert main(["report"] + ["%s=%s" % kv for kv in args.items()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lgmet: error:") and "finite" in captured.err

    @pytest.mark.parametrize("extra", [["--two-j", "7"],
                                       ["--partition", "7:7,5,3,1;-7:-1,-3,-5,-7"],
                                       ["--out", "x.csv"]])
    def test_figure_rejects_sweep_flags(self, extra, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["figure", "1a", "--outdir", str(tmp_path)] + extra)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_space_separated_values(self, capsys):
        def data(argv):
            assert main(argv) == 0
            return [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]

        spaced = data(["report", "--b", "1", "--theta", "-1e-3"])
        assert spaced == data(["report", "--b", "1", "--theta=-1e-3"])
        assert float(spaced[1].split(",")[0]) == pytest.approx(-1e-3 * math.pi)
        assert data(["report", "--b", "1", "--theta", "1", "--partition", "-5:-1,-3,-5;5:5,3,1"]) \
            == data(["report", "--b", "1", "--theta", "1"])

    def test_space_separated_inf_reaches_grid_parser(self, capsys):
        assert main(["scan-b", "--b", "0:1:3", "--theta", "-inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err
