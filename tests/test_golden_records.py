"""The records of four fixed inputs against tests/golden/, walked with
tools/compare_records.py's diff; tools/golden_records.py rewrites them."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import golden_records  # noqa: E402
from compare_records import diff  # noqa: E402


@pytest.mark.parametrize("name", sorted(golden_records.INPUTS))
def test_record_matches_its_golden_file(name):
    # strings, integers, bools, keys and list lengths exactly; floats to
    # the tolerance the tool states and measures
    floats, others = diff(golden_records.golden(name), golden_records.record(name))
    assert others == []
    worst = max(floats, key=lambda item: item[1], default=("", 0.0))
    assert worst[1] <= golden_records.TOLERANCE, f"{len(floats)} floats differ, worst {worst}"
