"""The benchmark's workloads: inputs made from a seed, timed operations, output checks.

A workload is built in two steps.  The constructor makes the inputs from the
seed and is all that the set-up time measures.  ``prepare()`` then computes
the reference values the checks compare against; it is not timed.

Each pass runs the same list of ``Op``s.  An op fails if it raises, exits
non-zero or gives output outside its checks.  Ops listed in ``KNOWN_DEFECTS``
still count as failed; they only leave the run's ``correct`` flag alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from lgmet import cli, correlations, measurement, scan, spin

import oracle

REFERENCE = json.loads((pathlib.Path(__file__).parent / "reference.json").read_text())

COLUMNS = ("theta", "b", "C", "K_LG", "F", "F_Q", "F_ratio")
ABS_TOL = 1e-9       # C and K_LG are O(1); the program carries 12+ digits
REL_TOL = 1e-9       # F_Q, and F <= F_Q
NEAR_PI_REL_TOL = 1e-8

# Near-pi reports the program gets wrong at the commit that defined the
# benchmark: F is formed from 1 - C^2, which cancels as C^2 -> 1, and for
# delta = 1e-7 the |C''| fallback raises on a nonzero slope.
KNOWN_DEFECTS = {
    "report delta=1e-05": "F from 1 - C^2 loses ~2e-7 relative near theta = pi",
    "report delta=1e-06": "F from 1 - C^2 loses ~2e-5 relative near theta = pi",
    "report delta=1e-07": "InconsistentCorrelationError on a valid input near theta = pi",
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]          # problems found; empty when the output is right
    outputs: list = field(default_factory=list)   # files removed before the op runs


def figure_digest(csv_text: str) -> tuple[int, str]:
    """Row count and sha256 of a figure CSV's data section ('#' metadata excluded)."""
    data = "".join(line for line in csv_text.splitlines(True) if not line.startswith("#"))
    return data.count("\n") - 1, hashlib.sha256(data.encode()).hexdigest()


def _rows_from_csv(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("unexpected CSV header %r" % lines[0])
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).reshape(-1, 7)


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _cli_problems(result) -> list[str]:
    code, err = result
    return [] if code == 0 else ["exit %s: %s" % (code, err)]


def _row_problems(rows: np.ndarray) -> list[str]:
    """Checks every row must pass: finite values and F <= F_Q."""
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite values in %d rows" % int(np.sum(~np.isfinite(rows).all(1))))
    f, f_q = rows[:, 4], rows[:, 5]
    bad = f > f_q * (1 + REL_TOL) + 1e-12
    if np.any(bad):
        problems.append("F > F_Q in %d rows" % int(np.sum(bad)))
    return problems


class DenseReference:
    """Oracle C, K_LG and F_Q at chosen (two_j, b, theta), cached."""

    def __init__(self):
        self._spins: dict[int, oracle.DenseSpin] = {}
        self._weights: dict[tuple[int, float], np.ndarray] = {}

    def spin(self, two_j: int) -> oracle.DenseSpin:
        if two_j not in self._spins:
            self._spins[two_j] = oracle.DenseSpin(two_j)
        return self._spins[two_j]

    def weights(self, two_j: int, theta: float) -> np.ndarray:
        key = (two_j, theta)
        if key not in self._weights:
            self._weights[key] = self.spin(two_j).weights(theta)
        return self._weights[key]

    def values(self, two_j: int, b: float, theta: float) -> tuple[float, float, float]:
        s = self.spin(two_j)
        a = oracle.observable_diag(two_j, b)
        w1 = self.weights(two_j, theta)
        return (s.correlation(a, w1), s.klg(a, w1, self.weights(two_j, 3 * theta)), s.qfi(a))

    def klg(self, two_j: int, b: float, theta: float) -> float:
        s = self.spin(two_j)
        a = oracle.observable_diag(two_j, b)
        return s.klg(a, self.weights(two_j, theta), self.weights(two_j, 3 * theta))


def _sample_problems(rows: np.ndarray, index, expected: dict, label: str) -> list[str]:
    problems = []
    for i in index:
        c, k, f_q = expected[i]
        row = rows[i]
        if abs(row[2] - c) > ABS_TOL or abs(row[3] - k) > ABS_TOL:
            problems.append("%s row %d: C, K_LG = %.12g, %.12g; oracle %.12g, %.12g"
                            % (label, i, row[2], row[3], c, k))
        if abs(row[5] - f_q) > REL_TOL * f_q:
            problems.append("%s row %d: F_Q = %.12g; oracle %.12g" % (label, i, row[5], f_q))
    return problems


class PaperCli:
    """Spin 5/2 through ``lgmet.cli.main``: the five figures, a phase map, near-pi reports.

    d = 6, so the cost is per-row Python work, per-row QFI, serialization and
    SVG, not the spectral kernel.  It is the only workload that parses argv and
    writes files; the near-pi reports exercise the C^2 -> 1 branch.
    """

    FIGURES = ("1a", "1b", "2a", "2b", "3")
    PHASE_B = (0.0, 1.0, 101)
    PHASE_THETA_COUNT = 256
    DELTAS = tuple(10.0 ** -k for k in range(2, 13))
    SAMPLES = 16

    def __init__(self, seed: int, workdir: pathlib.Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.pm_path = workdir / "phase_map.json"
        self.report_path = workdir / "report.csv"
        # The seed sets the phase map's theta range, [0, hi*pi]; hi <= 0.999
        # keeps its b = 1 rows clear of the near-pi reports' window.
        self.phase_theta = (0.0, round(float(rng.uniform(0.9, 0.999)), 6), self.PHASE_THETA_COUNT)
        n_rows = self.PHASE_B[2] * self.PHASE_THETA_COUNT
        self.sample_index = np.sort(rng.choice(n_rows, self.SAMPLES, replace=False))
        self._ops = [self._figure_op(w) for w in self.FIGURES]
        self._ops.append(self._phase_map_op())
        self._ops += [self._report_op(delta) for delta in self.DELTAS]
        self.rows_per_pass = (sum(REFERENCE[w]["rows"] for w in self.FIGURES)
                              + n_rows + len(self.DELTAS))

    def ops(self) -> list[Op]:
        return self._ops

    def expected_counts(self) -> tuple[dict, dict]:
        """Per-pass call counts: (always exact, exact whenever the layer is called)."""
        n = len(self._ops)
        return ({"cli.main.calls": n},
                {"scan.sweep.calls": n, "scan.render_svg.calls": len(self.FIGURES),
                 "estimation.estimation_report.calls": self.rows_per_pass})

    def prepare(self) -> None:
        dense = DenseReference()
        b = np.linspace(*self.PHASE_B)
        lo, hi, count = self.phase_theta
        theta = np.linspace(lo * math.pi, hi * math.pi, count)
        self.pm_grid = np.column_stack([np.tile(theta, b.size), np.repeat(b, theta.size)])
        self.pm_expected = {int(i): dense.values(5, self.pm_grid[i, 1], self.pm_grid[i, 0])
                            for i in self.sample_index}
        self.report_theta = {d: float(repr(1.0 - d)) * math.pi for d in self.DELTAS}
        self.report_fisher = {d: oracle.projective_fisher(t) for d, t in self.report_theta.items()}

    # -- ops ---------------------------------------------------------------

    def _figure_op(self, which: str) -> Op:
        argv = ["figure", which, "--plot", "--outdir", str(self.workdir)]
        csv_path = self.workdir / ("figure_%s.csv" % which)
        svg_path = self.workdir / ("figure_%s.svg" % which)

        def check(result):
            problems = _cli_problems(result)
            if problems:
                return problems
            text = csv_path.read_text()
            n_rows, digest = figure_digest(text)
            ref = REFERENCE[which]
            if (n_rows, digest) != (ref["rows"], ref["sha256"]):
                problems.append("figure %s data section differs from the reference "
                                "(%d rows, sha256 %s)" % (which, n_rows, digest[:12]))
            rows = _rows_from_csv(text)
            problems += _row_problems(rows)
            svg = svg_path.read_text() if svg_path.exists() else ""
            if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
                problems.append("figure %s SVG missing or malformed" % which)
            if which == "1a":
                f, f_q = rows[-1, 4], rows[-1, 5]
                if abs(f - 35 / 3) > 1e-10 * 35 / 3 or abs(f_q - 35 / 3) > 1e-10 * 35 / 3:
                    problems.append("figure 1a at theta = pi: F, F_Q = %r, %r, not 35/3" % (f, f_q))
            if which == "2a":
                b, k = rows[:, 1], np.abs(rows[:, 3])
                cross = (k[:-1] <= 2) & (k[1:] > 2) & (b[:-1] >= 0.93) & (b[1:] <= 0.95)
                if not np.any(cross):
                    problems.append("figure 2a: |K_LG| does not cross 2 for b in [0.93, 0.95]")
            return problems

        return Op("figure " + which, lambda: _run_cli(argv), check, [csv_path, svg_path])

    def _phase_map_op(self) -> Op:
        spec = lambda g: "%r:%r:%d" % g
        argv = ["phase-map", "--b", spec(self.PHASE_B), "--theta", spec(self.phase_theta),
                "--format", "json", "--out", str(self.pm_path)]

        def check(result):
            problems = _cli_problems(result)
            if problems:
                return problems
            payload = json.loads(self.pm_path.read_text())
            rows = np.array([[r[c] for c in COLUMNS] for r in payload["rows"]], dtype=float)
            if rows.shape != (len(self.pm_grid), 7):
                return ["phase map has %d rows, expected %d" % (len(rows), len(self.pm_grid))]
            if np.max(np.abs(rows[:, :2] - self.pm_grid)) > 1e-12:
                problems.append("phase map (theta, b) grid differs from the request")
            problems += _row_problems(rows)
            problems += _sample_problems(rows, self.sample_index, self.pm_expected, "phase map")
            return problems

        return Op("phase-map", lambda: _run_cli(argv), check, [self.pm_path])

    def _report_op(self, delta: float) -> Op:
        argv = ["report", "--b", "1", "--theta", repr(1.0 - delta), "--out", str(self.report_path)]

        def check(result):
            problems = _cli_problems(result)
            if problems:
                return problems
            rows = _rows_from_csv(self.report_path.read_text())
            theta, f = rows[0, 0], rows[0, 4]
            ref = self.report_fisher[delta]
            if abs(theta - self.report_theta[delta]) > 1e-11 or abs(f - ref) > NEAR_PI_REL_TOL * ref:
                problems.append("report at theta = pi - %.3g: F = %.12g, reference %.12g (rel %.2g)"
                                % (math.pi * delta, f, ref, abs(f - ref) / ref))
            return problems

        return Op("report delta=%.0e" % delta, lambda: _run_cli(argv), check, [self.report_path])


class LargeJTheta:
    """``scan.scan_theta`` at b = 0.99 for large spins, nothing written.

    The O(d^3) spin and QFI eigh and the O(d^2)-per-theta kernel dominate;
    there is no serialization, so a kernel or QFI change must show here and a
    serialization change must not.
    """

    TWO_J = (51, 201, 401)
    B = 0.99
    N_THETA = 32
    SAMPLES = 2

    def __init__(self, seed: int, workdir=None):
        rng = np.random.default_rng(seed)
        self.configs = {}
        self.sample_index = {}
        for two_j in self.TWO_J:
            theta = np.sort(rng.uniform(0.0, math.pi, self.N_THETA))
            self.configs[two_j] = scan.RunConfig(two_j=two_j, b_values=np.array([self.B]),
                                                 theta_values=theta)
            self.sample_index[two_j] = np.sort(rng.choice(self.N_THETA, self.SAMPLES, replace=False))
        self._ops = [self._op(two_j) for two_j in self.TWO_J]

    def ops(self) -> list[Op]:
        return self._ops

    def expected_counts(self) -> tuple[dict, dict]:
        return ({"scan.sweep.calls": len(self.TWO_J)},
                {"estimation.estimation_report.calls": len(self.TWO_J) * self.N_THETA})

    def prepare(self) -> None:
        dense = DenseReference()
        self.expected = {}
        for two_j, config in self.configs.items():
            self.expected[two_j] = {int(i): dense.values(two_j, self.B, config.theta_values[i])
                                    for i in self.sample_index[two_j]}

    def _op(self, two_j: int) -> Op:
        config = self.configs[two_j]

        def check(table):
            rows = np.array([[getattr(r, c) for c in COLUMNS] for r in table.rows], dtype=float)
            if rows.shape != (self.N_THETA, 7):
                return ["two_j=%d: %d rows, expected %d" % (two_j, len(rows), self.N_THETA)]
            problems = []
            if np.any(rows[:, 0] != config.theta_values) or np.any(rows[:, 1] != self.B):
                problems.append("two_j=%d: (theta, b) differ from the request" % two_j)
            problems += _row_problems(rows)
            problems += _sample_problems(rows, self.sample_index[two_j], self.expected[two_j],
                                         "two_j=%d" % two_j)
            return problems

        return Op("scan_theta two_j=%d" % two_j, lambda: scan.scan_theta(config), check)


class ThresholdSearch:
    """``max_violation`` at a few b, then ``violation_threshold_b`` at the theta* found.

    Many measurements with few theta each, so the measurement and kernel builds
    dominate over evaluation; no QFI and no output.  The theta window is
    [0, 3 pi / d]: the violation lobe near theta = 0 is about 1.6 / d wide, so a
    fixed [0, pi/2] window would need a grid of order d points to find it.
    """

    TWO_J = (5, 51, 201, 401)
    GRID_POINTS = 32
    B_OTHER = 2            # b values besides b = 1, drawn from [0.9, 1)
    TOL = 1e-6

    def __init__(self, seed: int, workdir=None):
        rng = np.random.default_rng(seed)
        self.b_values = {two_j: [1.0] + sorted(rng.uniform(0.9, 1.0, self.B_OTHER).tolist())
                         for two_j in self.TWO_J}
        self.theta_star: dict[int, float] = {}
        self._ops = []
        for two_j in self.TWO_J:
            self._ops += [self._max_violation_op(two_j, b) for b in self.b_values[two_j]]
            self._ops.append(self._threshold_op(two_j))

    def ops(self) -> list[Op]:
        return self._ops

    def expected_counts(self) -> tuple[dict, dict]:
        n = len(self.TWO_J)
        return ({"correlations.max_violation.calls": n * (1 + self.B_OTHER),
                 "scan.violation_threshold_b.calls": n}, {})

    def prepare(self) -> None:
        self.dense = DenseReference()
        for two_j in self.TWO_J:
            self.dense.spin(two_j)

    def _window(self, two_j: int) -> float:
        return 3 * math.pi / (two_j + 1)

    def _max_violation_op(self, two_j: int, b: float) -> Op:
        hi = self._window(two_j)

        def run():
            sys_ = spin.make_spin_system(two_j)
            meas = measurement.build_measurement(sys_, b)
            result = correlations.max_violation(sys_, meas, 0.0, hi, self.GRID_POINTS)
            if b == 1.0:
                self.theta_star[two_j] = result[0]
            return result

        def check(result):
            theta, k = result
            if not 0.0 <= theta <= hi:
                return ["two_j=%d b=%.6f: theta* = %r outside [0, %r]" % (two_j, b, theta, hi)]
            ref = abs(self.dense.klg(two_j, b, theta))
            if abs(k - ref) > ABS_TOL:
                return ["two_j=%d b=%.6f: |K_LG(theta*)| = %r; oracle %r" % (two_j, b, k, ref)]
            return []

        return Op("max_violation two_j=%d b=%.6f" % (two_j, b), run, check)

    def _threshold_op(self, two_j: int) -> Op:
        def run():
            theta = self.theta_star.pop(two_j)
            return theta, scan.violation_threshold_b(two_j, theta, tol=self.TOL)

        def check(result):
            theta, b_star = result
            if not 0.0 < b_star <= 1.0:
                return ["two_j=%d: b* = %r outside (0, 1]" % (two_j, b_star)]
            below = abs(self.dense.klg(two_j, b_star - self.TOL, theta))
            above = abs(self.dense.klg(two_j, min(b_star + self.TOL, 1.0), theta))
            if not below <= 2.0 < above:
                return ["two_j=%d: |K_LG| = %r, %r around b* = %r does not bracket 2"
                        % (two_j, below, above, b_star)]
            return []

        return Op("violation_threshold_b two_j=%d" % two_j, run, check)


WORKLOADS = {"paper_cli": PaperCli, "large_j_theta": LargeJTheta,
             "threshold_search": ThresholdSearch}
