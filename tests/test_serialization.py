"""Bulk table serializers against the per-row reference formatters they replace."""

import json
import math

import numpy as np
import pytest

from lgmet.estimation import ROW_DTYPE
from lgmet.scan import COLUMNS, ScanTable, reproduce_figure, table_to_csv, table_to_json


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

