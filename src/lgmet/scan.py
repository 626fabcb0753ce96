"""Parameter sweeps over (theta, b), table serialization, and figure datasets.

A sweep produces a ScanTable: run metadata plus ordered EstimationRecords.
Tables serialize to CSV (metadata as '#' comment lines, then a fixed 7-column
data section) or JSON, and can be rendered as a minimal SVG line chart.
"""

from __future__ import annotations

import datetime
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .correlations import klg_equal_interval
from .estimation import EstimationRecord, _rows
from .measurement import PartitionSpec, build_measurement, format_partition
from .spin import make_spin_system

COLUMNS = ("theta", "b", "C", "K_LG", "F", "F_Q", "F_ratio")

FIGURE_SETTINGS = {
    "1a": dict(kind="theta", b=1.0, theta=(0.0, math.pi, 512)),
    "1b": dict(kind="theta", b=0.99, theta=(0.0, math.pi, 512)),
    "2a": dict(kind="b", theta=0.95 * math.pi, b=(0.0, 1.0, 201)),
    "2b": dict(kind="b", theta=0.34 * math.pi, b=(0.0, 1.0, 201)),
    "3": dict(kind="map", b_list=(0.5, 0.7, 0.9, 0.99, 1.0),
              theta=(0.0, math.pi / 2, 256)),
}


def parse_grid(text: str, scale: float = 1.0) -> np.ndarray:
    """Parse "lo:hi:count" into a linspace, or a single real into a 1-grid.

    scale multiplies the parsed values (pi for theta given in pi units).
    Non-finite values (nan, inf) are rejected.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid spec must be lo:hi:count, got %r" % text)
        lo, hi = float(parts[0]) * scale, float(parts[1]) * scale
        count = int(parts[2])
        if count < 2:
            raise ValueError("grid count must be at least 2, got %d" % count)
    else:
        lo = hi = float(text) * scale
        count = 1
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid values must be finite, got %r" % text)
    return np.linspace(lo, hi, count) if count > 1 else np.array([lo])


@dataclass
class RunConfig:
    """Parsed sweep parameters; theta values are in radians."""

    two_j: int = 5
    b_values: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    theta_values: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    partition: PartitionSpec | None = None

    def __post_init__(self):
        self.b_values = np.atleast_1d(np.asarray(self.b_values, float))
        self.theta_values = np.atleast_1d(np.asarray(self.theta_values, float))
        if self.b_values.size == 0 or self.theta_values.size == 0:
            raise ValueError("empty parameter grid")
        if not (np.all(np.isfinite(self.b_values)) and np.all(np.isfinite(self.theta_values))):
            raise ValueError("every b and theta grid point must be finite")
        if np.any(self.b_values < 0.0) or np.any(self.b_values > 1.0):
            raise ValueError("every b grid point must lie in [0, 1]")

    def describe(self) -> dict:
        return {
            "two_j": self.two_j,
            "b": [float(x) for x in self.b_values],
            "theta": [float(x) for x in self.theta_values],
            "partition": (format_partition(self.partition)
                          if self.partition is not None else "default"),
        }


@dataclass
class ScanTable:
    metadata: dict
    rows: list[EstimationRecord]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def _metadata(config: RunConfig, sweep: str) -> dict:
    return {
        "tool": "lgmet %s" % __version__,
        "sweep": sweep,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.describe(),
    }


def _grid_rows(config: RunConfig) -> list[EstimationRecord]:
    """Records over the Cartesian (b, theta) grid, sorted by (b, theta)."""
    sys = make_spin_system(config.two_j)
    rows = []
    for b in config.b_values:
        rows += _rows(sys, build_measurement(sys, float(b), config.partition),
                      config.theta_values)
    return rows


def scan_theta(config: RunConfig) -> ScanTable:
    """One record per theta grid point at fixed b."""
    if config.b_values.size != 1:
        raise ValueError("scan_theta needs a single b value")
    return ScanTable(_metadata(config, "theta"), _grid_rows(config))


def scan_b(config: RunConfig) -> ScanTable:
    """One record per b grid point at fixed theta."""
    if config.theta_values.size != 1:
        raise ValueError("scan_b needs a single theta value")
    return ScanTable(_metadata(config, "b"), _grid_rows(config))


def phase_map(config: RunConfig) -> ScanTable:
    """Full Cartesian (b, theta) grid, rows sorted by (b, theta)."""
    return ScanTable(_metadata(config, "phase-map"), _grid_rows(config))


def violation_threshold_b(two_j: int, theta: float, b_lo: float = 0.0,
                          b_hi: float = 1.0, tol: float = 1e-4,
                          partition: PartitionSpec | None = None) -> float:
    """Smallest b in (b_lo, b_hi] with |K_LG(theta)| > 2, by bisection.

    Requires no violation at b_lo and violation at b_hi.
    """
    sys = make_spin_system(two_j)

    def violates(b: float) -> bool:
        meas = build_measurement(sys, b, partition)
        return abs(klg_equal_interval(sys, meas, theta)) > 2.0

    if violates(b_lo):
        raise ValueError("already violated at b_lo=%g" % b_lo)
    if not violates(b_hi):
        raise ValueError("no violation at b_hi=%g" % b_hi)
    lo, hi = b_lo, b_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# Row templates filled for all rows at once.  The output is byte-identical to
# formatting each value with "%.12g" (CSV) and to json.dumps(..., indent=2) of
# the rows as dicts (JSON), which formats numbers exactly as the compact
# encoder does: float.__repr__, NaN, Infinity, -Infinity.
_CSV_ROW = ",".join(["%.12g"] * len(COLUMNS))
_JSON_ROW = "    {\n" + ",\n".join("      %s: %%s" % json.dumps(c) for c in COLUMNS) + "\n    }"
_row_values = operator.attrgetter(*COLUMNS)


def _flat_values(rows: list[EstimationRecord]) -> tuple:
    return tuple(itertools.chain.from_iterable(map(_row_values, rows)))


def table_to_csv(table: ScanTable, include_metadata: bool = True) -> str:
    lines = []
    if include_metadata:
        for key, value in table.metadata.items():
            lines.append("# %s: %s" % (key, json.dumps(value) if isinstance(value, dict) else value))
    lines.append(",".join(COLUMNS))
    if table.rows:
        lines.append("\n".join([_CSV_ROW] * len(table.rows)) % _flat_values(table.rows))
    return "\n".join(lines) + "\n"


def table_to_json(table: ScanTable) -> str:
    head = json.dumps({"metadata": table.metadata, "rows": []}, indent=2)
    if not table.rows:
        return head + "\n"
    values = json.dumps(_flat_values(table.rows))[1:-1].split(", ")
    body = ",\n".join([_JSON_ROW] * len(table.rows)) % tuple(values)
    return head[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}\n"


def table_from_json(text: str) -> ScanTable:
    payload = json.loads(text)
    rows = [EstimationRecord(**row) for row in payload["rows"]]
    return ScanTable(payload.get("metadata", {}), rows)


def write_table(table: ScanTable, fmt: str, path) -> None:
    """Serialize a table to CSV or JSON at the given path."""
    if fmt == "csv":
        text = table_to_csv(table)
    elif fmt == "json":
        text = table_to_json(table)
    else:
        raise ValueError("unknown format %r (expected csv or json)" % fmt)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError("cannot write table to %s: %s" % (path, exc)) from exc


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def render_svg_lineplot(table: ScanTable, x_column: str, y_columns: list[str],
                        path, width: int = 720, height: int = 480) -> None:
    """Write a single line chart: one polyline per y column, labeled axes."""
    if not table.rows:
        raise ValueError("cannot plot an empty table")
    margin = 60.0
    x = table.column(x_column)
    ys = [table.column(c) for c in y_columns]
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_all = np.concatenate(ys)
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
             % (width, height)]
    parts.append('<rect width="%d" height="%d" fill="white"/>' % (width, height))
    parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                 % (margin, height - margin, width - margin, height - margin))
    parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                 % (margin, margin, margin, height - margin))
    parts.append('<text x="%g" y="%g" text-anchor="middle">%s</text>'
                 % (width / 2, height - margin / 3, x_column))
    parts.append('<text x="%g" y="%g" text-anchor="middle" '
                 'transform="rotate(-90 %g %g)">%s</text>'
                 % (margin / 3, height / 2, margin / 3, height / 2,
                    ", ".join(y_columns)))
    for k, (name, y) in enumerate(zip(y_columns, ys)):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        points = " ".join("%g,%g" % (sx(xv), sy(yv)) for xv, yv in zip(x, y))
        parts.append('<polyline fill="none" stroke="%s" points="%s"/>'
                     % (color, points))
        parts.append('<text x="%g" y="%g" fill="%s">%s</text>'
                     % (width - margin + 5, margin + 15 * k, color, name))
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError("cannot write plot to %s: %s" % (path, exc)) from exc


def reproduce_figure(which: str, outdir, plot: bool = False,
                     fmt: str = "csv") -> list:
    """Regenerate the dataset behind one figure; returns the written paths."""
    import pathlib

    if which not in FIGURE_SETTINGS:
        raise ValueError("unknown figure %r (expected one of %s)"
                         % (which, ", ".join(FIGURE_SETTINGS)))
    settings = FIGURE_SETTINGS[which]
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if settings["kind"] == "theta":
        lo, hi, n = settings["theta"]
        config = RunConfig(b_values=np.array([settings["b"]]),
                           theta_values=np.linspace(lo, hi, n))
        table = scan_theta(config)
        x_col, y_cols = "theta", ["C", "K_LG", "F", "F_Q"]
    elif settings["kind"] == "b":
        lo, hi, n = settings["b"]
        config = RunConfig(b_values=np.linspace(lo, hi, n),
                           theta_values=np.array([settings["theta"]]))
        table = scan_b(config)
        x_col, y_cols = "b", ["K_LG", "F", "F_Q"]
    else:
        lo, hi, n = settings["theta"]
        config = RunConfig(b_values=np.array(settings["b_list"]),
                           theta_values=np.linspace(lo, hi, n))
        table = phase_map(config)
        x_col, y_cols = "K_LG", ["F_ratio"]

    paths = []
    ext = "json" if fmt == "json" else "csv"
    data_path = outdir / ("figure_%s.%s" % (which, ext))
    write_table(table, fmt, data_path)
    paths.append(data_path)
    if plot:
        svg_path = outdir / ("figure_%s.svg" % which)
        render_svg_lineplot(table, x_col, y_cols, svg_path)
        paths.append(svg_path)
    return paths
