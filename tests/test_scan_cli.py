import json
import math
import os
import pathlib
import re
import subprocess
import sys as _sys
import warnings

import numpy as np
import pytest

import lgmet.cli
import lgmet.scan
from lgmet import build_measurement, make_spin_system, max_violation
from lgmet.cli import main
from lgmet.estimation import COLUMNS, ROW_DTYPE
from lgmet.measurement import PartitionSpec, parse_partition
from lgmet.scan import (MAX_GRID_COUNT, MAX_ROW_COUNT, SWEEPS, RunConfig, ScanTable, parse_grid,
                        render_svg_lineplot, reproduce_figure, scan_theta, sweep, table_to_csv,
                        table_to_json, violation_threshold_b, write_sweep)
from conftest import count_calls
import oracles

SRC = pathlib.Path(lgmet.cli.__file__).resolve().parents[1]


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

    def test_rejects_count_above_limit(self, monkeypatch):
        # linspace must never see the count: a grid this large cannot be allocated
        monkeypatch.setattr(np, "linspace", None)
        for count in (MAX_GRID_COUNT + 1, 10 ** 18):
            with pytest.raises(ValueError, match="limit of %d" % MAX_GRID_COUNT):
                parse_grid("0:1:%d" % count)


class TestRunConfig:
    def test_rejects_b_out_of_range(self):
        with pytest.raises(ValueError):
            RunConfig(b_values=np.array([0.5, 1.2]))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            RunConfig(b_values=np.array([]))

    def test_rejects_grids_that_are_not_1d(self):
        # a 2-D grid used to fail inside numpy: float() of a row, or a vecdot core dimension
        with pytest.raises(ValueError, match=re.escape("b grid must be a non-empty 1-D array, "
                                                       "got shape (1, 2)")):
            RunConfig(b_values=[[0.5, 1.0]], theta_values=[0.1])
        with pytest.raises(ValueError, match=re.escape("theta grid must be a non-empty 1-D "
                                                       "array, got shape (2, 1)")):
            RunConfig(b_values=[0.5], theta_values=[[0.1], [0.2]])
        with pytest.raises(ValueError, match="theta grid"):
            RunConfig(b_values=[0.5], theta_values=np.zeros((1, 0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(b_values=np.array([0.5, value]))
        with pytest.raises(ValueError, match="finite"):
            RunConfig(theta_values=np.array([value, 0.1]))

    def test_rejects_row_count_above_limit(self):
        side = math.isqrt(MAX_ROW_COUNT)
        assert RunConfig(b_values=np.zeros(MAX_ROW_COUNT // side),
                         theta_values=np.zeros(side)) is not None
        with pytest.raises(ValueError, match="rows, above the limit of %d" % MAX_ROW_COUNT):
            RunConfig(b_values=np.zeros(MAX_ROW_COUNT // side + 1), theta_values=np.zeros(side))

    def test_numpy_two_j_is_written(self):
        table = sweep("scan-theta", RunConfig(two_j=np.int64(5), theta_values=[0.5]))
        assert type(table.metadata["config"]["two_j"]) is int
        assert table_to_csv(table) == table_to_csv(scan_theta(RunConfig(theta_values=[0.5])))
        assert json.loads(table_to_json(table))["metadata"]["config"]["two_j"] == 5

    @pytest.mark.parametrize("two_j", [5.0, 0, -1])
    def test_rejects_bad_two_j(self, two_j):
        with pytest.raises(ValueError, match="two_j"):
            RunConfig(two_j=two_j)

    @pytest.mark.parametrize("build", [make_spin_system, lambda two_j: RunConfig(two_j=two_j)],
                             ids=["make_spin_system", "RunConfig"])
    def test_two_j_check_rejects_bools_and_keeps_integers(self, build):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match="two_j must be a positive integer"):
                build(flag)
        for two_j in (1, 3, np.int64(3), np.int32(2), np.uint8(1)):
            assert type(build(two_j).two_j) is int and build(two_j).two_j == two_j


# (two_j, theta in pi units, partition text or None, message part): inputs that
# two_j rules out, with no spin system
BAD_INPUTS = [
    (5, math.nan, None, "finite"),
    (5, math.inf, None, "finite"),
    (5, -math.inf, None, "finite"),
    (5, 1e307, None, "rad is too large: 3 theta times 5 overflows"),
    (5, -1e15, None, "rad is too large: 3 theta times 5 reaches 2**54"),
    (4095, 1e13, None, "rad is too large: 3 theta times 4095 reaches 2**54"),
    (5, 0.5, "5:5,3;-5:-1,-3,-5", "does not cover 1 of the 6 m values (2m): [1]"),
    (4095, 0.5, "4095:4095", "does not cover 4095 of the 4096 m values"),
    (5, 0.5, "5:5,3,1;-5:1,-1,-3,-5", "2m=1 assigned more than once"),
    (5, 0.5, "4:5,3,1;-5:-1,-3,-5", "2mu=4 off the m lattice"),
    (5, 0.5, "7:5,3,1;-5:-1,-3,-5", "2mu=7 outside [-2j, 2j]"),
    (5, 0.5, "5:5,3,1,2;-5:-1,-3,-5", "2m=2 not in the spin ladder"),
    (4, 0.5, None, "m=0 is unassigned for integer spin"),
]


class TestChecksBeforeSpinBuild:
    """Every input rule follows from two_j, b, the partition and theta, so a bad input
    fails before the O(d^3) spin build, on every route into it."""

    @pytest.fixture(autouse=True)
    def no_spin(self, monkeypatch):
        def no_spin(two_j):
            raise AssertionError("spin system built before the inputs were checked")

        monkeypatch.setattr(lgmet.scan, "make_spin_system", no_spin)

    @pytest.mark.parametrize("two_j, theta, partition, message", BAD_INPUTS)
    def test_sweep(self, two_j, theta, partition, message):
        for kind in SWEEPS:
            with pytest.raises(ValueError, match=re.escape(message)):
                sweep(kind, RunConfig(two_j, [0.9], [theta * math.pi],
                                      None if partition is None else parse_partition(partition)))

    @pytest.mark.parametrize("two_j, theta, partition, message", BAD_INPUTS)
    def test_cli(self, two_j, theta, partition, message, capsys):
        # the CLI names a non-finite theta as a grid value, and a finite one in radians
        for verb in SWEEPS:
            argv = [verb, "--two-j", str(two_j), "--b", "0.9", "--theta", repr(theta)]
            assert main(argv + ([] if partition is None else ["--partition", partition])) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("lgmet: error: ") and message in captured.err

    @pytest.mark.parametrize("two_j, theta, partition, message", BAD_INPUTS)
    def test_violation_threshold_b(self, two_j, theta, partition, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            violation_threshold_b(two_j, theta * math.pi, partition=None if partition is None
                                  else parse_partition(partition))


class TestScans:
    def test_scan_theta_single_point(self):
        table = sweep("scan-theta", RunConfig(b_values=[1.0], theta_values=[0.0]))
        assert len(table.rows) == 1
        assert table.rows[0].C == pytest.approx(1.0, abs=1e-10)
        assert table.rows[0].K_LG == pytest.approx(2.0, abs=1e-10)

    def test_scan_theta_needs_single_b(self):
        with pytest.raises(ValueError, match="scan-theta needs a single --b value"):
            sweep("scan-theta", RunConfig(b_values=[0.5, 1.0], theta_values=[0.0, 1.0]))

    def test_unknown_kind_lists_the_sweeps(self):
        with pytest.raises(ValueError, match=re.escape(
                "unknown sweep 'foo' (expected one of scan-theta, scan-b, phase-map, report)")):
            sweep("foo", RunConfig())

    def test_report_needs_single_point(self):
        with pytest.raises(ValueError, match="report needs a single --b and a single --theta"):
            sweep("report", RunConfig(theta_values=[0.0, 1.0]))

    def test_scan_theta_fisher_collapse(self):
        grid = np.linspace(0, math.pi, 129)
        table = sweep("scan-theta", RunConfig(b_values=[0.99], theta_values=grid))
        near_pi = min(table.rows, key=lambda r: abs(r.theta - math.pi))
        assert near_pi.F < 1e-3

    def test_scan_b_threshold_window(self):
        table = sweep("scan-b", RunConfig(b_values=np.linspace(0.8, 1.0, 201),
                                          theta_values=[0.95 * math.pi]))
        violating = [r.b for r in table.rows if abs(r.K_LG) > 2]
        assert 0.93 <= min(violating) <= 0.95

    def test_scan_b_fisher_monotone(self):
        table = sweep("scan-b", RunConfig(b_values=np.linspace(0.0, 1.0, 101),
                                          theta_values=[0.95 * math.pi]))
        f = table.rows.F
        assert np.all(np.diff(f) >= -1e-9)

    def test_phase_map_single_cell(self):
        table = sweep("phase-map", RunConfig(b_values=[1.0], theta_values=[0.0]))
        assert len(table.rows) == 1
        assert table.rows[0].F_ratio == pytest.approx(1.0, abs=1e-10)

    def test_rows_are_one_float64_record_array(self):
        table = sweep("phase-map",
                      RunConfig(b_values=[0.5, 1.0], theta_values=np.linspace(0, 1, 3)))
        assert isinstance(table.rows, np.recarray)
        assert table.rows.dtype.names == COLUMNS
        assert all(table.rows.dtype[c] == np.float64 for c in COLUMNS)
        assert table.rows.view(np.float64).shape == (6 * len(COLUMNS),)
        assert table.rows.b.tolist() == [0.5] * 3 + [1.0] * 3
        assert [r.F for r in table.rows] == table.rows["F"].tolist()

    def test_phase_map_row_order(self):
        table = sweep("phase-map", RunConfig(b_values=[0.5, 1.0],
                                             theta_values=np.linspace(0, 1, 3)))
        keys = [(r.b, r.theta) for r in table.rows]
        assert keys == sorted(keys)


def _bench_theta_star(two_j):
    """theta* at b = 1 as the threshold_search benchmark finds it: [0, 3 pi / d], 32 points."""
    sys = make_spin_system(two_j)
    return max_violation(sys, build_measurement(sys, 1.0), 0.0, 3 * math.pi / sys.dim, 32)[0]


class TestViolationThreshold:
    @pytest.mark.parametrize("two_j, theta, tol", [
        (5, 0.95 * math.pi, 1e-4),
        (5, 0.95 * math.pi, 1e-6),
        *[(two_j, None, 1e-6) for two_j in (5, 51, 201, 401)],
    ])
    def test_matches_measurement_bisection(self, two_j, theta, tol):
        """Against a bisection that builds a measurement and reads oracles.point_klg per step."""
        if theta is None:
            theta = _bench_theta_star(two_j)
        b_star = violation_threshold_b(two_j, theta, tol=tol)
        assert abs(b_star - oracles.threshold_b(two_j, theta, tol=tol)) <= tol

    def test_explicit_partition(self):
        part = PartitionSpec(((5, (5, 3)), (1, (1, -1)), (-5, (-3, -5))))
        b_star = violation_threshold_b(5, 0.95 * math.pi, tol=1e-6, partition=part)
        assert abs(b_star - oracles.threshold_b(5, 0.95 * math.pi, tol=1e-6, partition=part)) <= 1e-6

    def test_no_measurement_per_step(self, monkeypatch):
        """The bisection steps read a fixed-theta kernel and gaps resolved once, not a new
        measurement: one partition walk whatever the step count."""
        builds = count_calls(monkeypatch, lgmet.measurement.build_measurement)
        walks = count_calls(monkeypatch, lgmet.measurement.resolve_partition)
        steps = count_calls(monkeypatch, lgmet.measurement._a_diags)
        for partition in (None, PartitionSpec(((5, (5, 3)), (1, (1, -1)), (-5, (-3, -5))))):
            counts = {}
            for tol in (1e-2, 1e-8):
                del builds[:], walks[:], steps[:]
                violation_threshold_b(5, 0.95 * math.pi, tol=tol, partition=partition)
                counts[tol] = len(builds), len(walks), len(steps)
            assert counts[1e-8][2] > counts[1e-2][2] + 10
            assert counts[1e-8][0] == counts[1e-2][0] <= 1
            assert counts[1e-8][1] == counts[1e-2][1] == 1

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"), ({"theta": math.nan}, "theta"),
        ({"theta": math.inf}, "theta"), ({"theta": -math.inf}, "theta"),
        ({"theta": 1e308}, "theta=1e\\+308 rad is too large"),
        ({"theta": -1e308}, "theta=-1e\\+308 rad is too large"),
        ({"theta": 2e15}, "theta=2000000000000000.0 rad is too large: 3 theta times 5 reaches 2"),
    ])
    def test_rejects_bad_arguments_before_any_work(self, monkeypatch, kwargs, match):
        # a check that lets the call through reaches the spin build and fails with
        # AssertionError, instead of looping forever (tol <= 0) or answering nan; a
        # phase 3 theta (d - 1) that overflows or reaches 2**54 is named from two_j alone
        def no_spin(two_j):
            raise AssertionError("spin system built before the arguments were checked")

        monkeypatch.setattr(lgmet.scan, "make_spin_system", no_spin)
        args = {"two_j": 5, "theta": 0.95 * math.pi, **kwargs}
        with pytest.raises(ValueError, match=match):
            violation_threshold_b(**args)

    @pytest.mark.parametrize("theta", [1e308, -1e308, 7e307])
    def test_rejects_overflowing_phase_before_kernel(self, monkeypatch, theta):
        # a finite theta whose phase 3 theta (d - 1) overflows would build a nan kernel
        def no_kernel(*args):
            raise AssertionError("kernel built before the phase was checked")

        monkeypatch.setattr(lgmet.scan, "_klg_kernel", no_kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("theta=%r rad is too large" % theta)):
                violation_threshold_b(5, theta)

    @pytest.mark.parametrize("two_j, theta", [(5, 0.0), (5, math.pi), (7, 0.0), (51, 0.0),
                                              (201, 0.0)])
    def test_no_violation_at_b1_where_klg_is_two(self, two_j, theta):
        # at theta in pi Z, |U|^2 is a permutation, so K_LG = 2 C and |K_LG| <= 2 at every b;
        # the b = 1 kernel form reads 2 + 2e-15 at two_j 5 and 7, rounding that must not start
        # a bisection (it ended at b* = 0.999969482421875)
        with pytest.raises(ValueError, match="no violation at b=1"):
            violation_threshold_b(two_j, theta)

    def test_tol_below_float_spacing_terminates(self, monkeypatch):
        # the bracket stops shrinking at adjacent floats; count steps so that a
        # regression fails here instead of hanging the suite
        steps = []
        a_diags = lgmet.scan._a_diags

        def counted(*args):
            steps.append(1)
            if len(steps) > 200:
                raise AssertionError("bisection did not terminate")
            return a_diags(*args)

        monkeypatch.setattr(lgmet.scan, "_a_diags", counted)
        b_star = violation_threshold_b(5, 0.95 * math.pi, tol=1e-300)
        coarse = violation_threshold_b(5, 0.95 * math.pi, tol=1e-12)
        assert abs(b_star - coarse) <= 1e-12


def _table(rows, metadata=None):
    """A table of the given (theta, b, C, K_LG, F, F_Q, F_ratio) tuples."""
    return ScanTable(metadata or {}, np.rec.fromrecords(rows, dtype=ROW_DTYPE))


def _toy_table():
    return _table([(0.1 * k, 0.5, 0.3 - 0.1 * k, 1.0, 0.25 * k, 1.0, 0.25 * k)
                   for k in range(3)], {"tool": "lgmet test", "sweep": "toy"})


def _data_section(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


class TestSerialization:
    def test_csv_header_and_shape(self):
        text = _data_section(table_to_csv(_toy_table()))
        lines = text.strip().split("\n")
        assert lines[0] == "theta,b,C,K_LG,F,F_Q,F_ratio"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_empty_table_is_header_only(self):
        text = table_to_csv(_table([]))
        assert text == "theta,b,C,K_LG,F,F_Q,F_ratio\n"

    def test_csv_metadata_commented(self):
        text = table_to_csv(_toy_table())
        data = [l for l in text.strip().split("\n") if not l.startswith("#")]
        assert data[0].startswith("theta,")

    def test_twelve_significant_digits(self):
        table = _table([(math.pi, 1.0, -1.0, -2.0, 35 / 3, 35 / 3, 1.0)])
        text = _data_section(table_to_csv(table))
        assert "3.14159265359" in text
        assert "11.6666666667" in text

    def test_json_round_trip_bit_identical(self):
        table = _toy_table()
        table.rows[1] = (0.1 + 1e-16, 1 / 3, 2 / 7, -0.1, 1e-300, 35 / 3, 1e-300 / (35 / 3))
        payload = json.loads(table_to_json(table))
        back = np.array([[row[c] for c in COLUMNS] for row in payload["rows"]])
        assert back.tobytes() == table.rows.tobytes()

    def test_write_table_rejects_unknown_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(lgmet.scan, "sweep", None)  # the format is checked first
        for path in (tmp_path / "t.xml", None):
            with pytest.raises(ValueError, match="unknown format 'xml'"):
                write_sweep("report", RunConfig(), "xml", path)
        assert list(tmp_path.iterdir()) == [] and capsys.readouterr().out == ""

    def test_write_sweep_rejects_unknown_kind_before_the_sweep(self, tmp_path, monkeypatch,
                                                                capsys):
        monkeypatch.setattr(lgmet.scan, "sweep", None)
        for path in (tmp_path / "t.csv", None):
            with pytest.raises(ValueError, match="unknown sweep 'foo' \\(expected one of "
                               + ", ".join(SWEEPS)):
                write_sweep("foo", RunConfig(), "csv", path)
        assert list(tmp_path.iterdir()) == [] and capsys.readouterr().out == ""

    def test_write_table_reports_path_on_failure(self, tmp_path):
        missing = tmp_path / "no" / "such"
        with pytest.raises(OSError, match="no/such/t.csv"):
            write_sweep("report", RunConfig(), "csv", missing / "t.csv")
        with pytest.raises(OSError, match="no/such/t.svg"):
            write_sweep("report", RunConfig(), "csv", tmp_path / "t.csv", missing / "t.svg")


class TestSvg:
    def test_polyline_per_column(self, tmp_path):
        path = tmp_path / "plot.svg"
        render_svg_lineplot(_toy_table(), "theta", ["C", "F"], path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "theta" in text and "C, F" in text

    def test_rejects_empty_table(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg_lineplot(_table([]), "theta", ["C"], tmp_path / "p.svg")

    @staticmethod
    def _assert_points_match_per_point_oracle(table, x_column, y_columns, path):
        render_svg_lineplot(table, x_column, y_columns, path)
        points = re.findall(r'<polyline fill="none" stroke="[^"]*" points="([^"]*)"/>',
                            path.read_text())
        assert points == oracles.svg_polyline_points(table, x_column, y_columns)

    @pytest.mark.parametrize("which", sorted(lgmet.scan.FIGURE_SETTINGS))
    def test_figure_points_byte_equal_to_per_point_oracle(self, tmp_path, which):
        kind, b_values, theta_values = lgmet.scan.FIGURE_SETTINGS[which]
        table = lgmet.scan.sweep(kind, RunConfig(b_values=b_values, theta_values=theta_values))
        self._assert_points_match_per_point_oracle(table, *SWEEPS[kind][2:4], tmp_path / "p.svg")

    @pytest.mark.parametrize("x_column, y_columns, rows", [
        ("b", ["C", "F"], 3),       # constant x column
        ("theta", ["F_Q"], 3),      # constant y column
        ("theta", ["C", "F"], 1),   # one row: both constant
    ])
    def test_constant_columns_byte_equal_to_per_point_oracle(self, tmp_path, x_column,
                                                             y_columns, rows):
        table = _table(_toy_table().rows.tolist()[:rows])
        self._assert_points_match_per_point_oracle(table, x_column, y_columns,
                                                   tmp_path / "p.svg")


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

    def test_unknown_format_makes_no_directory(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            reproduce_figure("1a", tmp_path / "out", fmt="xml")
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_report_json(self, capsys):
        assert main(["report", "--b", "1", "--theta", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["F"] == pytest.approx(35 / 3, abs=1e-9)
        assert row["F_ratio"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.xfail(strict=True, reason="known defect: 1 - C^2 below SINGULAR_DENOMINATOR "
                       "with |C'| = 1.2e-5 raises InconsistentCorrelationError near theta = 0")
    def test_report_near_zero_theta(self, capsys):
        # theta = 1e-6 rad, b = 1 - 5e-12: the theta -> 0 twin of the near-pi defects
        assert main(["report", "--b", "0.9999999999949978", "--theta", "3.183098861837907e-07",
                     "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["theta"] == 1e-6
        # C'^2 / ((1 - C)(1 + C)) in mpmath at 60 and 120 digits (they agree), from the
        # float b and theta, the J_x eigh of mpmath.eigsy and the default partition
        assert row["F"] == pytest.approx(3.0236965126206137, rel=1e-14)

    @pytest.mark.xfail(strict=True, reason="known defect: at large spin the true |C'| near pi "
                       "passes 1e-6 while 1 - C^2 stays below SINGULAR_DENOMINATOR, so "
                       "InconsistentCorrelationError is a false alarm (ROADMAP item 14)")
    def test_report_near_pi_large_spin(self, capsys):
        # theta = pi - delta, delta = pi 1e-9, b = 1: |C'| is about (d^2 - 1) delta / 3
        for two_j in (51, 201):
            assert main(["report", "--two-j", str(two_j), "--b", "1", "--theta", "0.999999999",
                         "--format", "json"]) == 0, two_j
            row = json.loads(capsys.readouterr().out)["rows"][0]
            # F / F_Q - 1 of the closed form C = sin(d theta) / (d sin theta) in 60-digit
            # mpmath: -1.8e-15 at two_j = 51, -2.7e-14 at 201
            assert abs(row["F"] / row["F_Q"] - 1.0) <= 1e-10, two_j

    @pytest.mark.xfail(strict=True, reason="known defect: 1 - C^2 at theta = pi is below "
                       "SINGULAR_DENOMINATOR, so F takes the |C''| limit, 11.67, not C'^2 / "
                       "(1 - C^2) (ROADMAP item 4)")
    def test_report_near_projective_at_pi(self, capsys):
        # b = 1 - 1e-12 at theta = pi: C = -1 + 3.3e-12, and C'^2 / (1 - C^2) is tiny
        assert main(["report", "--b", "0.999999999999", "--theta", "1", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        # C'^2 / ((1 - C)(1 + C)) in mpmath at 60 and 120 digits (they agree), from the
        # float b and theta, the J_x eigh of mpmath.eigsy and the default partition
        assert abs(row["F"] - 3.0620772946705e-19) <= 1e-14 * row["F_Q"]

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

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        runs = [tmp_path / "run1", tmp_path / "run2"]
        for outdir in runs:
            for which in sorted(lgmet.scan.FIGURE_SETTINGS):
                assert main(["figure", which, "--plot", "--outdir", str(outdir / "csv")]) == 0
                assert main(["figure", which, "--format", "json",
                             "--outdir", str(outdir / "json")]) == 0
            assert main(["phase-map", "--b", "0:1:3", "--theta", "0:0.5:4", "--format", "json",
                         "--plot", "--out", str(outdir / "pm.json")]) == 0
            assert main(["report", "--b", "0.9", "--theta", "0.95",
                         "--out", str(outdir / "report.csv")]) == 0
        files = [sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file()) for run in runs]
        assert files[0] == files[1] and len(files[0]) == 18
        for name in files[0]:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_reused_parser_writes_the_same_bytes_after_failed_calls(self, tmp_path, capsys):
        """One parser serves every main call; a call that exits 2 leaves no trace in the next."""
        def outputs(name):
            outdir = tmp_path / name
            assert main(["figure", "2a", "--plot", "--outdir", str(outdir)]) == 0
            assert main(["phase-map", "--b", "0:1:3", "--theta", "0:0.5:4", "--format", "json",
                         "--plot", "--out", str(outdir / "pm.json")]) == 0
            assert main(["report", "--two-j", "7", "--b", "0.9", "--theta", "-1e-3",
                         "--out", str(outdir / "report.csv")]) == 0
            return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

        first = outputs("first")
        assert main(["scan-theta", "--two-j", "3", "--b", "2", "--theta", "0:1:3",
                     "--format", "json", "--out", str(tmp_path / "x.json")]) == 2  # ValueError
        for argv in (["report", "--two-j", "9", "--b", "1"],  # argparse: --theta missing
                     ["figure", "1a", "--out", "x.csv"], ["scan-b", "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert outputs("second") == first and len(first) == 5
        assert lgmet.cli._process_parser() is lgmet.cli._process_parser()

    @pytest.mark.parametrize("verb", [None, *SWEEPS, "figure"])
    def test_help_matches_a_fresh_parser(self, verb, capsys):
        argv = ["--help"] if verb is None else [verb, "--help"]
        main(["report", "--b", "1", "--theta", "0.5"])  # the process parser has been used
        texts = []
        for parse in (main, lgmet.cli.build_parser().parse_args):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: lgmet")

    def test_import_builds_no_parser(self):
        code = "import lgmet.cli as c; print(c._process_parser.cache_info().currsize)"
        out = subprocess.run([_sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
        assert out == "0\n"

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

    @pytest.mark.parametrize("grids", [["--b", "1", "--theta", "0:1:3"],
                                       ["--b", "0:1:3", "--theta", "1"],
                                       ["--b", "0.5:1:2", "--theta", "0:1:2"]])
    def test_report_rejects_grids(self, grids, capsys):
        assert main(["report"] + grids) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lgmet: error: report needs a single")

    def test_huge_grid_count_is_a_clean_error(self, capsys):
        assert main(["scan-theta", "--b", "1", "--theta", "0:1:%d" % 10 ** 18]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the limit of %d" % MAX_GRID_COUNT in captured.err

    def test_huge_phase_map_is_a_clean_error(self, capsys):
        grid = "0:1:%d" % MAX_GRID_COUNT
        assert main(["phase-map", "--b", grid, "--theta", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rows, above the limit of %d" % MAX_ROW_COUNT in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["scan-theta", "--b", "0:1:3", "--theta", "1"], "scan-theta needs a single --b value"),
        (["scan-b", "--b", "0.5", "--theta", "0:1:3"], "scan-b needs a single --theta value")])
    def test_sweep_errors_name_the_verb(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lgmet: error: %s\n" % message

    def test_verbs_look_up_sweeps_at_call_time(self, monkeypatch, capsys):
        """Every verb runs scan.sweep as bound at call time, with its own kind."""
        calls = []
        original = lgmet.scan.sweep

        def spy(kind, config):
            calls.append((kind, config))
            return original(kind, config)

        monkeypatch.setattr(lgmet.scan, "sweep", spy)
        for verb in SWEEPS:
            assert main([verb, "--b", "1", "--theta", "1"]) == 0
        assert [kind for kind, _ in calls] == list(SWEEPS)
        assert all(config.theta_values.tolist() == [math.pi] for _, config in calls)

    @pytest.mark.parametrize("flag, spec, message", [
        ("--theta", "0:1:2.5", "invalid literal for int() with base 10: '2.5'"),
        ("--theta", "0:1:nan", "invalid literal for int() with base 10: 'nan'"),
        ("--b", "", "could not convert string to float: ''"),
    ])
    def test_bad_grid_spec_is_named(self, flag, spec, message, capsys):
        args = {"--b": "0.5", "--theta": "0:1:3", flag: spec}
        assert main(["scan-theta"] + ["%s=%s" % kv for kv in args.items()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lgmet: error: bad grid spec %r: %s\n" % (spec, message)

    def test_space_separated_inf_reaches_grid_parser(self, capsys):
        assert main(["scan-b", "--b", "0:1:3", "--theta", "-inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err
