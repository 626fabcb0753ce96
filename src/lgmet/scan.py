"""Parameter sweeps over (theta, b), table serialization, and figure datasets.

A sweep produces a ScanTable: run metadata plus one float64 record array whose
fields are COLUMNS, one row per (b, theta).  Tables serialize to CSV (metadata as
'#' comment lines, then a 7-column data section) or to JSON built column by column,
and render as a minimal SVG line chart.  write_sweep is the one output path of the
CLI verbs and figures; with no timestamp, a rerun writes the same bytes.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys as _sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, correlations
from .correlations import MAX_GRID_COUNT, _check_phases, _klg_kernel
from .estimation import COLUMNS, _rows
from .measurement import PartitionSpec, _a_diags, format_partition, resolve_partition
from .spin import _check_two_j, make_spin_system

# sweep kind -> (metadata "sweep" name, grids given as a single value, plot x column,
# plot y columns, CLI help)
SWEEPS = {
    "scan-theta": ("theta", ("b",), "theta", ("C", "K_LG", "F", "F_Q"), "sweep theta at fixed b"),
    "scan-b": ("b", ("theta",), "b", ("K_LG", "F", "F_Q"), "sweep b at fixed theta"),
    "phase-map": ("phase-map", (), "K_LG", ("F_ratio",), "full Cartesian (b, theta) sweep"),
    "report": ("theta", ("b", "theta"), "theta", ("F", "F_Q"), "single-point estimation record"),
}

# figure -> (sweep, b grid, theta grid)
FIGURE_SETTINGS = {
    "1a": ("scan-theta", np.array([1.0]), np.linspace(0.0, math.pi, 512)),
    "1b": ("scan-theta", np.array([0.99]), np.linspace(0.0, math.pi, 512)),
    "2a": ("scan-b", np.linspace(0.0, 1.0, 201), np.array([0.95 * math.pi])),
    "2b": ("scan-b", np.linspace(0.0, 1.0, 201), np.array([0.34 * math.pi])),
    "3": ("phase-map", np.array([0.5, 0.7, 0.9, 0.99, 1.0]),
          np.linspace(0.0, math.pi / 2, 256)),
}

# Largest number of rows (b count times theta count) in one sweep.
MAX_ROW_COUNT = 10 ** 6


def parse_grid(text: str, scale: float = 1.0) -> np.ndarray:
    """Parse "lo:hi:count" into a linspace, or a single real into a 1-grid.

    scale multiplies the parsed values (pi for theta given in pi units).
    Non-finite values (nan, inf) and counts above MAX_GRID_COUNT are rejected.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError("grid spec must be lo:hi:count, got %r" % text)
    lo_text, hi_text, count_text = parts if len(parts) == 3 else (text, text, "1")
    try:
        lo, hi, count = float(lo_text) * scale, float(hi_text) * scale, int(count_text)
    except ValueError as exc:
        raise ValueError("bad grid spec %r: %s" % (text, exc)) from None
    if len(parts) == 3 and count < 2:
        raise ValueError("grid count must be at least 2, got %d" % count)
    if count > MAX_GRID_COUNT:
        raise ValueError("grid count %d exceeds the limit of %d" % (count, MAX_GRID_COUNT))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid values must be finite, got %r" % text)
    return np.linspace(lo, hi, count) if count > 1 else np.array([lo])


@dataclass
class RunConfig:
    """Parsed sweep parameters, theta in radians; every field but the partition is checked here."""

    two_j: int = 5
    b_values: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    theta_values: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    partition: PartitionSpec | None = None

    def __post_init__(self):
        self.two_j = _check_two_j(self.two_j)  # the JSON metadata cannot encode a numpy integer
        self.b_values = np.atleast_1d(np.asarray(self.b_values, float))
        self.theta_values = np.atleast_1d(np.asarray(self.theta_values, float))
        for name, grid in (("b", self.b_values), ("theta", self.theta_values)):
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError("the %s grid must be a non-empty 1-D array, got shape %s"
                                 % (name, grid.shape))
        if not np.all((self.b_values >= 0.0) & (self.b_values <= 1.0)):  # False for NaN
            raise ValueError("every b grid point must be finite and lie in [0, 1]")
        _check_phases(self.two_j + 1, self.theta_values)
        rows = self.b_values.size * self.theta_values.size
        if rows > MAX_ROW_COUNT:
            raise ValueError("%d b values times %d theta values is %d rows, above the limit of %d"
                             % (self.b_values.size, self.theta_values.size, rows, MAX_ROW_COUNT))

    def describe(self) -> dict:
        partition = "default" if self.partition is None else format_partition(self.partition)
        return {"two_j": self.two_j, "b": self.b_values.tolist(),
                "theta": self.theta_values.tolist(), "partition": partition}


@dataclass
class ScanTable:
    """Run metadata and the rows: a float64 record array with the fields COLUMNS."""

    metadata: dict
    rows: np.recarray


def _sweep_kind(kind: str) -> tuple:
    if kind not in SWEEPS:
        raise ValueError("unknown sweep %r (expected one of %s)" % (kind, ", ".join(SWEEPS)))
    return SWEEPS[kind]


def sweep(kind: str, config: RunConfig) -> ScanTable:
    """The SWEEPS kind's table: one row per (b, theta), b-major in the order of the grids."""
    name, single, *_ = _sweep_kind(kind)
    sizes = {"b": config.b_values.size, "theta": config.theta_values.size}
    if any(sizes[flag] != 1 for flag in single):
        raise ValueError("%s needs %s value"
                         % (kind, " and ".join("a single --" + flag for flag in single)))
    gaps = resolve_partition(config.two_j, config.partition)
    sys = make_spin_system(config.two_j)
    # b values per block, within the budget for each b's row of _coefficients (one per frequency)
    step = max(1, correlations.BLOCK_ELEMENTS // correlations._frequencies(sys.dim).size)
    blocks = np.split(config.b_values, range(step, config.b_values.size, step))
    rows = [_rows(sys, block, _a_diags(gaps, block), config.theta_values) for block in blocks]
    metadata = {"tool": "lgmet %s" % __version__, "sweep": name, "config": config.describe()}
    return ScanTable(metadata, np.concatenate(rows).view(np.recarray))


def scan_theta(config: RunConfig) -> ScanTable:
    """sweep("scan-theta"); bench/workloads.py calls it and counts large_j_theta sweeps on it."""
    return sweep("scan-theta", config)


def violation_threshold_b(two_j: int, theta: float, tol: float = 1e-4,
                          partition: PartitionSpec | None = None) -> float:
    """Smallest b in (0, 1] with |K_LG(theta)| > 2, by bisection.

    Requires no violation at b = 0 and one beyond rounding at b = 1.  K_LG at the fixed
    theta is the quadratic form a^T Q a in the observable diagonal a, so Q is
    built once (O(d^3)) and each step costs O(d^2).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive, got %r" % tol)
    two_j = _check_two_j(two_j)
    _check_phases(two_j + 1, theta)
    gaps = resolve_partition(two_j, partition)
    sys = make_spin_system(two_j)
    kernel = _klg_kernel(sys, theta)

    def klg(b: float) -> float:
        a = _a_diags(gaps, [b])[0]
        return abs(float(a @ kernel @ a))

    lo, hi = 0.0, 1.0
    if klg(lo) > 2.0:
        raise ValueError("already violated at b=0")
    # At theta in pi Z, |U|^2 is a permutation and |K_LG| = |2 C| <= 2 at every b, so b = 1 must
    # clear 2 by more than a^T Q a rounds.  To first order in u = 2^-53, with |a_k| <= 1 and V
    # orthogonal: phases, trig and h-term sums round each U entry by (h + 3 + 6 j |theta|) u
    # <= 3 d (1 + |theta|) u, as sum_c |V_kc V_lc| <= 1; sum_kl |U_kl| <= d^1.5 then bounds
    # sum_kl |dQ_kl| by 24 d^1.5 (1 + |theta|) u + 16 u, and the form's two d-term sums add
    # 2 d u sum_kl |Q_kl| <= 8 d u: in all at most 20 d^1.5 (1 + |theta|) eps, eps = 2^-52.
    if klg(hi) - 2.0 <= 20.0 * (two_j + 1) ** 1.5 * (1.0 + abs(theta)) * 2.0 ** -52:
        raise ValueError("no violation at b=1 beyond the rounding of K_LG")
    mid = 0.5 * (lo + hi)
    # a tol below the float spacing at b* ends when lo and hi are adjacent floats
    while hi - lo > tol and lo < mid < hi:
        if klg(mid) > 2.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


# CSV fills one "%.12g" row template for all rows at once.  JSON interleaves key prefixes
# (the "}," closing a row folded into the next row's first) with value texts, byte-identical
# to json.dumps(..., indent=2) of the rows as dicts: float.__repr__, NaN, Infinity, -Infinity.
_CSV_ROW = ",".join(["%.12g"] * len(COLUMNS))
_JSON_FIRST = "    {\n      %s: " % json.dumps(COLUMNS[0])
_JSON_PREFIXES = np.array(["\n    },\n" + _JSON_FIRST]
                          + [",\n      %s: " % json.dumps(c) for c in COLUMNS[1:]], dtype=object)


def table_to_csv(table: ScanTable) -> str:
    lines = ["# %s: %s" % (key, json.dumps(value) if isinstance(value, dict) else value)
             for key, value in table.metadata.items()]
    lines.append(",".join(COLUMNS))
    if table.rows.size:
        lines.append("\n".join([_CSV_ROW] * table.rows.size)
                     % tuple(table.rows.view(np.float64).tolist()))
    return "\n".join(lines) + "\n"


def table_to_json(table: ScanTable) -> str:
    head = json.dumps({"metadata": table.metadata, "rows": []}, indent=2)
    if not table.rows.size:
        return head + "\n"
    parts = np.empty((table.rows.size, 2 * len(COLUMNS)), dtype=object)
    parts[:, 0::2], parts[0, 0] = _JSON_PREFIXES, _JSON_FIRST
    for j, column in enumerate(table.rows.view(np.float64).reshape(-1, len(COLUMNS)).T):
        # one text per distinct value, keyed by its bits so that -0.0 and 0.0 stay apart
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        if 2 * bits.size > column.size:  # texts gathered out of row order slow the final join
            bits, inverse = column.view(np.int64), slice(None)
        texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        for i in np.flatnonzero(~np.isfinite(bits.view(np.float64))).tolist():
            texts[i] = json.dumps(float(texts[i]))  # NaN, Infinity, -Infinity as JSON spells them
        parts[:, 2 * j + 1] = texts[inverse]
    return head[:-len("[]\n}")] + "[\n" + "".join(parts.ravel().tolist()) + "\n    }\n  ]\n}\n"


def _serializer(fmt: str):
    """table_to_csv or table_to_json, looked up at call time; ValueError for another fmt."""
    if fmt not in ("csv", "json"):
        raise ValueError("unknown format %r (expected csv or json)" % fmt)
    return table_to_csv if fmt == "csv" else table_to_json


def _write_text(path, text: str) -> None:
    """Write text to path, the one place an output file is opened."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError("cannot write %s: %s" % (path, exc)) from exc


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def render_svg_lineplot(table: ScanTable, x_column: str, y_columns: list[str], path) -> None:
    """Write a single line chart: one polyline per y column, labeled axes."""
    if not table.rows.size:
        raise ValueError("cannot plot an empty table")
    width, height, margin = 720, 480, 60.0
    x = table.rows[x_column]
    ys = [table.rows[c] for c in y_columns]
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_all = np.concatenate(ys)
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    # pixel coordinates of all points at once; each element takes the float
    # operations of the per-point formula in the same order, so the %g text is unchanged
    sx = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
    points_template = " ".join(["%g,%g"] * x.size)
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
        sy = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        points = points_template % tuple(np.column_stack((sx, sy)).ravel().tolist())
        parts.append('<polyline fill="none" stroke="%s" points="%s"/>'
                     % (color, points))
        parts.append('<text x="%g" y="%g" fill="%s">%s</text>'
                     % (width - margin + 5, margin + 15 * k, color, name))
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def write_sweep(kind: str, config: RunConfig, fmt: str, path=None, svg_path=None) -> list:
    """Run sweep(kind, config) and write its table as fmt to path, or to stdout if None.

    With svg_path, the line chart of the kind's SWEEPS plot columns is written there
    too.  An unknown kind or fmt is a ValueError before the sweep runs.  Returns
    the paths written.
    """
    x_column, y_columns = _sweep_kind(kind)[2:4]
    serialize = _serializer(fmt)
    table = sweep(kind, config)
    if path is None:
        _sys.stdout.write(serialize(table))
    else:
        _write_text(path, serialize(table))
    if svg_path is not None:
        render_svg_lineplot(table, x_column, y_columns, svg_path)
    return [p for p in (path, svg_path) if p is not None]


def reproduce_figure(which: str, outdir, plot: bool = False,
                     fmt: str = "csv") -> list:
    """Regenerate the dataset behind one figure; returns the written paths."""
    if which not in FIGURE_SETTINGS:
        raise ValueError("unknown figure %r (expected one of %s)"
                         % (which, ", ".join(FIGURE_SETTINGS)))
    _serializer(fmt)  # an unknown format makes no directory
    kind, b_values, theta_values = FIGURE_SETTINGS[which]
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return write_sweep(kind, RunConfig(b_values=b_values, theta_values=theta_values), fmt,
                       outdir / ("figure_%s.%s" % (which, fmt)),
                       outdir / ("figure_%s.svg" % which) if plot else None)
