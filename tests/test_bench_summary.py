"""tools/bench_summary.py on two tiny synthetic perfbench/out directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _TOOL)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

METRICS = json.loads((_TOOL.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]


def _write_side(directory, sha, trial_s):
    directory.mkdir()
    fingerprint = {key: "same" for key in bench_summary.ENVIRONMENT}
    for seed, value in enumerate(trial_s):
        end_to_end = {m["name"]: {"value": value} for m in METRICS}
        end_to_end["trials_per_s"] = {"value": 1.0 / value}
        end_to_end["failed_frac"] = {"value": 0.0}
        result = {"fingerprint": {**fingerprint, "git_sha": sha, "seconds": 36},
                  "end_to_end": end_to_end}
        (directory / f"shared-u-seed{seed}-trace0.json").write_text(json.dumps(result))
    # traced runs and other files are not paired
    (directory / "shared-u-seed0-trace1.json").write_text("{}")
    return directory


def test_summarise_pairs_runs_and_fills_missing_shas(tmp_path):
    parent = bench_summary.load_side(_write_side(tmp_path / "p", None, [2.0, 2.2, 1.9]))
    change = bench_summary.load_side(_write_side(tmp_path / "c", "c" * 40, [1.0, 2.3, 0.9]))
    assert sorted(parent) == [("shared-u", 0), ("shared-u", 1), ("shared-u", 2)]
    bench_summary.fill_sha(parent, "a" * 40, "parent")
    bench_summary.fill_sha(change, "c" * 40, "change")  # the SHA it already records
    summary = bench_summary.summarise(parent, change, METRICS)

    assert summary["git_sha"] == {"parent": ["a" * 40], "change": ["c" * 40]}
    assert summary["seconds"] == 36
    shared = summary["workloads"]["shared-u"]
    assert shared["seeds"] == [0, 1, 2] and shared["pairs"] == 3
    assert shared["failed"] == {"parent": 0, "change": 0}
    row = shared["metrics"]["trial_s"]
    assert row["parent"]["median"] == 2.0 and row["change"]["median"] == 1.0
    assert row["change_over_parent"] == 0.5
    assert row["change_better_pairs"] == 2
    assert shared["metrics"]["trials_per_s"]["change_better_pairs"] == 2


def test_an_unfilled_sha_is_written_as_null(tmp_path):
    _write_side(tmp_path / "p", None, [2.0, 2.2])
    _write_side(tmp_path / "c", "c" * 40, [1.0, 1.1])
    out = tmp_path / "BENCH_t.json"
    assert bench_summary.main(["--label", "t", "--parent", str(tmp_path / "p"),
                               "--change", str(tmp_path / "c"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["git_sha"] == {"parent": [None], "change": ["c" * 40]}
    assert '"None"' not in out.read_text()


def test_a_recorded_sha_that_differs_is_refused(tmp_path):
    change = bench_summary.load_side(_write_side(tmp_path / "c", "c" * 40, [1.0]))
    with pytest.raises(SystemExit, match="records git_sha c+, not d+"):
        bench_summary.fill_sha(change, "d" * 40, "change")


def test_main_writes_the_shas_given(tmp_path, capsys):
    _write_side(tmp_path / "p", None, [2.0, 2.2])
    _write_side(tmp_path / "c", None, [1.0, 1.1])
    out = tmp_path / "BENCH_t.json"
    assert bench_summary.main(["--label", "t", "--parent", str(tmp_path / "p"),
                               "--change", str(tmp_path / "c"), "--parent-sha", "a" * 40,
                               "--change-sha", "b" * 40, "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["label"] == "t"
    assert summary["git_sha"] == {"parent": ["a" * 40], "change": ["b" * 40]}
    assert set(summary["workloads"]["shared-u"]["metrics"]) == {m["name"] for m in METRICS}
    assert "wrote" in capsys.readouterr().out
