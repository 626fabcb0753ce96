"""Figure data sections must stay byte-identical to the recorded reference digests.

bench/reference.json holds, per figure, the row count and the sha256 of the
CSV data section (header and rows, '#' metadata lines dropped) as first
recorded.  Any change to the numbers at 12 significant digits fails here.
"""

import hashlib
import json
import pathlib

import pytest

from lgmet.scan import FIGURE_SETTINGS, reproduce_figure

REFERENCE = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "bench" / "reference.json").read_text())


def test_reference_covers_every_figure():
    assert sorted(REFERENCE) == sorted(FIGURE_SETTINGS)


@pytest.mark.parametrize("which", sorted(FIGURE_SETTINGS))
def test_figure_data_section_matches_reference(which, tmp_path):
    (path,) = reproduce_figure(which, tmp_path)
    data = "".join(line for line in path.read_text().splitlines(True)
                   if not line.startswith("#"))
    assert data.count("\n") - 1 == REFERENCE[which]["rows"]
    assert hashlib.sha256(data.encode()).hexdigest() == REFERENCE[which]["sha256"]
