"""Bulk table serializers against the per-row reference formatters they replace."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgmet.estimation import ROW_DTYPE
from lgmet.scan import (COLUMNS, RunConfig, ScanTable, reproduce_figure, sweep, table_to_csv,
                        table_to_json)


def reference_json(table: ScanTable) -> str:
    """One dict per row through the indented pure-Python encoder."""
    payload = {"metadata": table.metadata,
               "rows": [dict(zip(COLUMNS, row.tolist())) for row in table.rows]}
    return json.dumps(payload, indent=2) + "\n"


def reference_csv(table: ScanTable, include_metadata: bool = True) -> str:
    """Each value formatted on its own with "%.12g"."""
    lines = []
    if include_metadata:
        for key, value in table.metadata.items():
            lines.append("# %s: %s" % (key, json.dumps(value) if isinstance(value, dict) else value))
    lines.append(",".join(COLUMNS))
    for row in table.rows:
        lines.append(",".join("%.12g" % getattr(row, c) for c in COLUMNS))
    return "\n".join(lines) + "\n"


METADATA = {"tool": "lgmet test", "sweep": "toy",
            "config": {"two_j": 5, "b": [0.5, 1.0], "partition": "default"}}

SPECIAL = (-0.0, 0.0, 1e-300, 5e-324, 1 / 3, -2 / 7, 1e22, 123456789012.5,
           math.nan, math.inf, -math.inf)


def _table(metadata, rows) -> ScanTable:
    return ScanTable(metadata, np.rec.fromrecords([tuple(r) for r in rows], dtype=ROW_DTYPE))


def _tables():
    rng = np.random.default_rng(5)
    special = [np.roll(SPECIAL, k)[:len(COLUMNS)] for k in range(len(SPECIAL))]
    # the table is float64, so int-valued entries are stored as floats
    ints = [[0.0, 1.0, -1.0, 2.0, 0.0, 35.0, 1.0], [3.0, 0.0, 1.0, -2.0, 7.0, 7.0, 1.0]]
    numpy_floats = [rng.normal(size=len(COLUMNS)) * 10.0 ** k for k in range(-5, 6)]
    mixed = [[0.5, 1.0, -0.0, math.nan, math.inf, 2 / 3, 1.0]]
    # few distinct values, each repeated in many places; NaN with either sign bit
    pool = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1 / 3, -1 / 3, 1.0, 5e-324]
    repeated = rng.choice(np.array(pool), size=(300, len(COLUMNS)))
    return {
        "empty": _table(METADATA, []),
        "empty-no-metadata": _table({}, []),
        "special": _table(METADATA, special),
        "int-valued": _table(METADATA, ints),
        "np.float64": _table(METADATA, numpy_floats),
        "mixed": _table({}, mixed),
        "repeated": _table(METADATA, repeated),
    }


@pytest.mark.parametrize("name", sorted(_tables()))
def test_json_bytes_match_reference(name):
    table = _tables()[name]
    assert table_to_json(table) == reference_json(table)


@pytest.mark.parametrize("name", sorted(_tables()))
@pytest.mark.parametrize("include_metadata", [True, False])
def test_csv_bytes_match_reference(name, include_metadata):
    table = _tables()[name]
    text = table_to_csv(table)
    if not include_metadata:
        text = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    assert text == reference_csv(table, include_metadata)


def test_figure_3_table_matches_reference(tmp_path):
    (path,) = reproduce_figure("3", tmp_path, fmt="json")
    text = path.read_text()
    payload = json.loads(text)
    table = _table(payload["metadata"], [[row[c] for c in COLUMNS] for row in payload["rows"]])
    assert len(table.rows) == 1280
    assert text == reference_json(table)
    assert table_to_json(table) == text
    assert table_to_csv(table) == reference_csv(table)


EDGES = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5)
FLOATS = st.sampled_from(EDGES) | st.floats()


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


@st.composite
def mixed_tables(draw) -> ScanTable:
    """Tables with one column of at most half its length distinct and one fully distinct.

    The other columns are random bit patterns (any double, NaN payloads included)
    with a third of them replaced by EDGES.
    """
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(45, 55))
    pool = draw(st.lists(FLOATS, min_size=1, max_size=max(1, n // 2)))
    columns = [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
               draw(st.lists(FLOATS, min_size=n, max_size=n, unique_by=_bits))]
    if n >= 2:
        assert 2 * len({_bits(x) for x in columns[0]}) <= n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for _ in COLUMNS[2:]:
        column = rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64).view(np.float64)
        edge = rng.random(n) < 1 / 3
        column[edge] = rng.choice(EDGES, edge.sum())
        columns.append(column.tolist())
    order = draw(st.permutations(range(len(COLUMNS))))
    return _table(METADATA, list(zip(*(columns[k] for k in order))))


@settings(max_examples=100, deadline=None)
@given(table=mixed_tables())
def test_json_bytes_match_reference_on_random_tables(table):
    assert table_to_json(table) == reference_json(table)


def test_json_peak_memory_is_bounded():
    """table_to_json's traced peak on a 101 x 256 phase map stays within 4x its output.

    A large map's JSON must not hold many copies of its text at once (peak RSS).
    """
    table = sweep("phase-map", RunConfig(b_values=np.linspace(0.0, 1.0, 101),
                                         theta_values=np.linspace(0.0, 0.95 * math.pi, 256)))
    tracemalloc.start()
    try:
        text = table_to_json(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 25856
    assert peak <= 4 * len(text), (peak, len(text))
