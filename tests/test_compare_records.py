"""tools/compare_records.py's record diff on small dicts."""

import importlib.util
import math
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_records.py"
_spec = importlib.util.spec_from_file_location("compare_records", _TOOL)
compare_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_records)
diff = compare_records.diff
by_field = compare_records.by_field


def test_equal_records_have_no_differences():
    rec = {"a": 1, "b": [0.5, float("nan"), {"c": "x", "d": True}], "e": None}
    assert diff(rec, {"a": 1, "b": [0.5, float("nan"), {"c": "x", "d": True}], "e": None}) == ([], [])


def test_floats_are_listed_with_their_path_and_size():
    floats, others = diff({"t": [{"rmse": 0.1, "cost": 2.0}], "n": 3},
                          {"t": [{"rmse": 0.1 + 1e-12, "cost": 2.5}], "n": 3})
    assert others == []
    assert [path for path, _ in floats] == ["$.t[0].rmse", "$.t[0].cost"]
    assert math.isclose(floats[0][1], 1e-12, rel_tol=1e-3) and floats[1][1] == 0.5


def test_an_integer_and_a_float_compare_as_floats():
    assert diff({"x": 1}, {"x": 1.0}) == ([], [])
    assert diff({"x": 1}, {"x": 1.5}) == ([("$.x", 0.5)], [])


def test_nan_against_a_number_differs_by_inf():
    assert diff([float("nan")], [0.0]) == ([("$[0]", math.inf)], [])


def test_non_float_differences_are_reported_and_not_walked():
    floats, others = diff(
        {"n_iters": 5, "ok": True, "name": "a", "counts": [1, 2], "sub": {"k": 1.0}, "v": 1.0},
        {"n_iters": 6, "ok": False, "name": "b", "counts": [1, 2, 3], "sub": {"j": 2.0}, "v": "1.0"})
    assert floats == []
    assert others == [
        ("$.n_iters", 5, 6),
        ("$.ok", True, False),
        ("$.name", "a", "b"),
        ("$.counts length", 2, 3),
        ("$.sub keys", ["k"], ["j"]),
        ("$.v", 1.0, "1.0"),
    ]


def test_a_bool_is_not_a_number():
    assert diff([True], [1]) == ([], [("$[0]", True, 1)])


def test_float_differences_are_summarised_per_field_name():
    floats, _ = diff(
        {"trials": [{"cost": [1.0, 2.0], "final_cost": 3.0, "rmse": 0.1}, {"final_cost": 4.0}]},
        {"trials": [{"cost": [1.5, 2.25], "final_cost": 3.0, "rmse": 0.3}, {"final_cost": 5.0}]})
    summary = by_field(floats)
    assert list(summary) == ["final_cost", "cost", "rmse"]
    assert summary["final_cost"] == (1, 1.0) and summary["cost"] == (2, 0.5)
    assert summary["rmse"][0] == 1 and math.isclose(summary["rmse"][1], 0.2)
    assert by_field([]) == {}
