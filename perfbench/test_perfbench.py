"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They are not part of the repository's tier-1 suite (pytest's testpaths is
``tests``); the smoke runs take about half a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hmsbl import experiments  # noqa: E402
from spans import LAYER_METRICS, TRIAL_SPAN, Tracer, layer_metrics, per_trial, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_is_well_formed():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= s["run_seconds"] <= 60 and isinstance(s["run_seconds"], int)
    assert 2 <= len(s["workloads"]) <= 8
    names = [w["name"] for w in s["workloads"]] + [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in s["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
    assert all(UNIT.match(m["unit"]) for m in s["end_to_end"] + s["per_layer"])
    setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in s["end_to_end"])
    declared_layers = {name for name, *_ in LAYER_METRICS} | {"trace.trial_s", "trace.untraced_trial_s"}
    assert {m["name"] for m in s["per_layer"]} <= declared_layers


def _small_config():
    return {
        "experiment": "custom", "seed": 5, "array": {"nx": 3, "ny": 4},
        "scene": {"snr_db": 25, "num_snapshots": 20,
                  "generator": {"kind": "random_on_grid", "k": 2, "min_separation": 0.3}},
        "grids": {"mu": 16, "mv": 16}, "algorithms": ["hmsbl", "msbl"],
        "solvers": {"hmsbl": {"max_iters": 12, "lambda_mode": "adaptive"},
                    "msbl": {"max_iters": 12}},
        "trials": 1,
    }


def _small_budget_config():
    with open(os.path.join(ROOT, "configs", "exp3.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(array={"nx": 3, "ny": 4}, grids={"mu": 16, "mv": 16}, trials=1, budgets=[4, 8])
    cfg["scene"]["generator"]["min_separation"] = 0.3
    for solver_spec in cfg["solvers"].values():
        solver_spec["max_iters"] = 8
    return cfg


def _run(cfg):
    config, errors = experiments.validate_config(json.dumps(cfg))
    assert not errors
    return experiments.run_experiment(config)


def _traced_records(cfgs):
    tracer = Tracer()
    records = []
    with tracer.installed():
        for i, cfg in enumerate(cfgs):
            with tracer.trial_span(i):
                records.append(_run(cfg))
    return tracer, records


def test_traced_spans_nest_and_account_for_the_trial():
    tracer, _ = _traced_records([_small_config(), _small_budget_config()])

    spans = {rec[0]: rec for rec in tracer.spans}
    assert spans and all(rec[5] is not None for rec in spans.values())
    for rec in spans.values():
        if rec[1] is None:
            assert rec[3] == TRIAL_SPAN
            continue
        parent = spans[rec[1]]
        assert parent[4] <= rec[4] <= rec[5] <= parent[5]
        assert parent[2] == rec[2]
    selfs = self_times(tracer.spans)
    assert min(selfs.values()) >= 0
    for trial, row in per_trial(tracer.spans).items():
        total_self = sum(r[2] for r in row.values())
        assert total_self == pytest.approx(row[TRIAL_SPAN][1], rel=1e-9)

    names = {rec[3] for rec in tracer.spans}
    for expected in ("solver.run", "msbl.run", "solver.e_step", "msbl.e_step", "solver.update_lambda",
                     "pairing.root_music_v", "metrics.match_and_rmse", "dictionary.kron_dictionary",
                     "experiments.run_experiment"):
        assert expected in names
    metrics, detail = layer_metrics(tracer)
    assert {name for name, *_ in LAYER_METRICS} - set(metrics) == set()
    assert detail["accounting"]["self_time_over_trial_min"] == pytest.approx(1.0, rel=1e-9)


def test_tracing_leaves_records_and_functions_unchanged():
    import hmsbl.solver
    before = (hmsbl.solver.run, experiments.run_experiment, experiments.match_and_rmse)
    plain = _run(_small_config()).comparable_dict()
    _, records = _traced_records([_small_config()])
    assert records[0].comparable_dict() == plain
    assert (hmsbl.solver.run, experiments.run_experiment, experiments.match_and_rmse) == before


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_exactly_the_declared_metrics(trace, kind):
    proc = run_bench("--workload", "shared-u", "--seed", "424242", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if declared[k] != "count")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "shared-u", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
