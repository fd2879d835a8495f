import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hmsbl import cli
from hmsbl.dictionary import uniform_grid
from hmsbl.experiments import (
    ALGORITHMS,
    _FIELDS,
    ConfigError,
    ResultRecord,
    _algorithm,
    _generic_trial,
    _hmsbl_allocation,
    _params_for,
    _paired_minima,
    _relative_spread,
    _time_rounds,
    _trial_inputs,
    emit_plot_data,
    load_config,
    run_and_save,
    run_bench,
    run_experiment,
    scene_for_trial,
    validate_config,
)
from hmsbl.signal_model import noise_power
from hmsbl.solver import HMsblParams, HMsblState, SolverError, run


def _base_config(**over):
    cfg = {
        "experiment": "custom",
        "seed": 3,
        "array": {"nx": 3, "ny": 3},
        "scene": {
            "snr_db": 20,
            "num_snapshots": 40,
            "sources": [{"u": 0.3, "v": -0.4}],
        },
        "grids": {"mu": 15, "mv": 15},
        "algorithms": ["hmsbl"],
        "solvers": {"hmsbl": {"max_iters": 30}},
        "trials": 2,
    }
    cfg.update(over)
    return cfg


def _dumps(cfg):
    return json.dumps(cfg)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_base():
    config, errors = validate_config(_dumps(_base_config()))
    assert errors == []
    assert config.experiment == "custom"
    assert config.k_sources() == 1


def test_validate_reports_missing_seed():
    cfg = _base_config()
    del cfg["seed"]
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert any(e.startswith("seed") for e in errors)


def test_validate_names_infeasible_source_index():
    cfg = _base_config()
    cfg["scene"]["sources"] = [{"u": 0.1, "v": 0.1}, {"u": 0.9, "v": 0.9}]
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert any("sources[1]" in e and "exceeds 1" in e for e in errors)


def test_validate_names_out_of_range_source_components():
    cfg = _base_config()
    cfg["scene"]["sources"].append({"u": 1.2, "v": 0.0})
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == ["scene.sources[1]: direction cosines must lie in [-1, 1], got (1.2, 0.0)"]


@pytest.mark.parametrize("snr_db", [-4000, 4000, -3090.0, 3240.0])
def test_validate_rejects_snr_beyond_the_float_range(snr_db):
    # 10^(-snr_db/10) overflows (-4000, -3090) or underflows to 0 (4000, 3240)
    cfg = _base_config()
    cfg["scene"]["snr_db"] = snr_db
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == [f"scene.snr_db: the noise power 10^(-snr_db/10) is outside the float "
                      f"range, got {float(snr_db)}"]


@pytest.mark.parametrize("snr_db", [-3080.0, 3000.0])
def test_validate_accepts_snr_with_a_representable_noise_power(snr_db):
    cfg = _base_config()
    cfg["scene"]["snr_db"] = snr_db
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    assert 0.0 < noise_power(config.snr_db) < float("inf")


def test_validate_rejects_zero_trials():
    config, errors = validate_config(_dumps(_base_config(trials=0)))
    assert config is None
    assert any(e.startswith("trials") for e in errors)


def test_validate_collects_multiple_errors():
    cfg = _base_config(trials=0)
    del cfg["seed"]
    cfg["scene"]["snr_db"] = "loud"
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert len(errors) >= 3


def test_validate_rejects_bad_json():
    config, errors = validate_config("{not json")
    assert config is None
    assert "invalid JSON" in errors[0]


def test_validate_allocation_against_scene():
    cfg = _base_config(allocation=[1, 1])
    config, errors = validate_config(_dumps(cfg))
    assert config is None  # scene has one source, allocation sums to 2
    assert any("allocation" in e for e in errors)


def test_validate_allocation_capacity():
    cfg = _base_config(allocation=[3])  # ny - 1 = 2
    cfg["scene"]["sources"] = [{"u": 0.1, "v": -0.3}, {"u": 0.1, "v": 0.0},
                               {"u": 0.1, "v": 0.3}]
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert any("ny - 1" in e for e in errors)


def test_validate_grid_product_indices():
    cfg = _base_config()
    cfg["scene"] = {"snr_db": 20, "num_snapshots": 40,
                    "generator": {"kind": "grid_product",
                                  "u_indices": [2, 99], "v_indices": [5]}}
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert any("u_indices" in e and "99" in e for e in errors)


def test_validate_rejects_repeated_grid_product_indices():
    # exp2 with u_indices [30, 30] would place its 10 sources as 5 coincident
    # pairs; each repeated index is named once, with its field
    with open(os.path.join(_REPO, "configs/exp2.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["scene"]["generator"]["u_indices"] = [30, 30]
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == ["scene.generator.u_indices: index 30 repeated"]
    del cfg["allocation"]
    cfg["scene"]["generator"].update(u_indices=[65, 30, 65], v_indices=[90, 10, 90, 10, 50, 90])
    assert validate_config(_dumps(cfg))[1] == [
        "scene.generator.u_indices: index 65 repeated",
        "scene.generator.v_indices: index 10 repeated",
        "scene.generator.v_indices: index 90 repeated"]


def test_grid_product_boundary_point_validates_and_builds():
    # on an 11-point grid (points[8], points[9]) = (0.6000000000000001, 0.8)
    # lies on the unit circle up to rounding; the generator accepts it as an
    # explicit source does
    u, v = uniform_grid(11).points[[8, 9]]
    assert u ** 2 + v ** 2 > 1.0
    cfg = _base_config(grids={"mu": 11, "mv": 11})
    cfg["scene"]["sources"] = [{"u": u, "v": v}]
    assert validate_config(_dumps(cfg))[1] == []
    cfg["scene"] = {"snr_db": 20, "num_snapshots": 40,
                    "generator": {"kind": "grid_product", "u_indices": [8], "v_indices": [9]}}
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    [source] = scene_for_trial(config, 0).sources
    assert (source.u, source.v) == (u, v)
    # points off the disk are still named, u-major
    cfg["scene"]["generator"].update(u_indices=[0, 8], v_indices=[9, 0])
    assert validate_config(_dumps(cfg))[1] == [
        "scene.generator: grid point (-1.0000, 0.8000) violates u^2 + v^2 <= 1",
        "scene.generator: grid point (-1.0000, -1.0000) violates u^2 + v^2 <= 1",
        "scene.generator: grid point (0.6000, -1.0000) violates u^2 + v^2 <= 1"]


def test_validate_exp1_needs_sweep():
    cfg = _base_config(experiment="exp1")
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert any("mv_sweep" in e for e in errors)


def test_validate_exp3_budget_vs_max_iters():
    cfg = _base_config(experiment="exp3", budgets=[50])
    cfg["solvers"]["hmsbl"]["max_iters"] = 30
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert any("max_iters" in e and "budget" in e for e in errors)


def test_validate_random_generator_fits_grid():
    # k sources need k distinct u and k distinct v grid points
    cfg = _base_config()
    cfg["scene"] = {"snr_db": 20, "num_snapshots": 40,
                    "generator": {"kind": "random_on_grid", "k": 7, "min_separation": 0.0}}
    cfg["grids"] = {"mu": 6, "mv": 9}
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == ["scene.generator.k: must be <= min(mu, mv) = 6, got 7"]
    cfg["scene"]["generator"]["k"] = 6
    assert validate_config(_dumps(cfg))[1] == []


def test_validate_rejects_repeated_algorithm_names():
    cfg = _base_config(algorithms=["hmsbl", "msbl", "hmsbl", "hmsbl"])
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == ["algorithms: repeated name 'hmsbl'"]


def test_validate_rejects_hmsbl_on_one_row_array():
    # H-MSBL places at most ny - 1 sources per u-bin; M-SBL has no such limit
    cfg = _base_config(array={"nx": 3, "ny": 1})
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == ["array.ny: hmsbl needs ny >= 2 (it places at most ny - 1 sources "
                      "per u-bin), got 1"]
    cfg.update(algorithms=["msbl"], solvers={"msbl": {"max_iters": 30}})
    assert validate_config(_dumps(cfg))[1] == []


def test_exp3_records_an_algorithm_with_no_estimate_at_any_iteration():
    # pruning to the strongest block at once leaves one ny = 2 block for two
    # sources, so every H-MSBL allocation fails; M-SBL estimates once
    cfg = _base_config(experiment="exp3", array={"nx": 3, "ny": 2}, budgets=[2, 5],
                       algorithms=["hmsbl", "msbl"], trials=1,
                       solvers={a: {"max_iters": 5, "prune_tol": 0.99} for a in ("hmsbl", "msbl")})
    cfg["grids"] = {"mu": 12, "mv": 12}
    cfg["scene"]["sources"] = [{"u": 0.3, "v": -0.4}, {"u": -0.5, "v": 0.2}]
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the all-NaN means read NaN without a warning
        record = run_experiment(config)
    curves = record.trials[0]["curves"]
    assert np.isnan(curves["hmsbl"]).all() and not np.isnan(curves["msbl"]).all()
    assert np.isnan(record.aggregate["budgets"]["5"]["hmsbl"])
    assert all(np.isnan(rmse) for _, rmse in record.convergence["hmsbl"])
    assert record.errors == [{
        "trial": 0, "algorithm": "hmsbl",
        "error": "no estimate at any of 5 iterations; last: SolverError: cannot allocate "
                 "2 sources across 1 active blocks"}]


def _small_exp3_config():
    with open(os.path.join(_REPO, "configs/exp3.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(trials=1, grids={"mu": 16, "mv": 16}, budgets=[10, 50])
    for spec in cfg["solvers"].values():
        spec["max_iters"] = 50
    return cfg


def _fail_solves_after(monkeypatch, n_iters):
    # every solve fails by construction: the real EM runs n_iters
    # iterations, each handed to the observer as usual, then raises
    monkeypatch.delenv("HMSBL_WORKERS", raising=False)  # solves stay in this process

    def failing(y, dictionary, params, on_iteration=None):
        run(y, dictionary, dataclasses.replace(params, max_iters=n_iters), on_iteration)
        raise SolverError(f"injected failure after {n_iters} iterations")
    monkeypatch.setattr("hmsbl.solver.run", failing)


def test_exp3_records_a_failed_solve_and_keeps_its_curve(monkeypatch):
    _fail_solves_after(monkeypatch, 25)
    config, errors = validate_config(_dumps(_small_exp3_config()))
    assert errors == []
    record = run_experiment(config)
    trial = record.trials[0]
    assert sorted(trial["errors"]) == ["hmsbl", "msbl"]
    assert [e["algorithm"] for e in record.errors] == ["hmsbl", "msbl"]
    assert all(e["error"].startswith("SolverError: ") for e in record.errors)
    for algo in ("hmsbl", "msbl"):
        curve = np.array(trial["curves"][algo])
        ran = np.flatnonzero(~np.isnan(curve))
        # the iterations that ran keep their values; NaN from the failure on
        assert len(curve) == 50 and 10 <= len(ran) < 50
        assert len(ran) == 25
        assert np.array_equal(ran, np.arange(len(ran)))
        assert np.isfinite(record.aggregate["budgets"]["10"][algo])
        assert np.isnan(record.aggregate["budgets"]["50"][algo])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at snr_db 300 (lam = 1e-30) Sigma_y stops being numerically "
                          "positive definite after some iterations")
def test_exp3_solves_at_snr_300():
    cfg = _small_exp3_config()
    cfg["scene"]["snr_db"] = 300
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    record = run_experiment(config)
    assert record.errors == []


def test_hmsbl_allocation_stacks_counts_on_the_strongest_blocks():
    # powers [1, 3, 0, 2, 0, 0] (0: pruned) have two usable peaks, so more
    # sources than that spread over the active blocks 1, 3, 0 (descending
    # gamma), at most ny - 1 = 3 each
    state = HMsblState(gamma=np.array([1.0, 3.0, 0.0, 2.0, 0.0, 0.0]),
                       b_mats=np.zeros((6, 4, 4), dtype=complex), noise_var=0.1)
    grid = uniform_grid(6)
    config = SimpleNamespace(allocation=None)

    def counts(k):
        return list(_hmsbl_allocation(state, grid, config, k))
    assert counts(2) == [(1, 1), (3, 1)]
    assert counts(4) == [(1, 2), (3, 1), (0, 1)]
    assert counts(5) == [(1, 2), (3, 2), (0, 1)]
    assert counts(9) == [(1, 3), (3, 3), (0, 3)]
    with pytest.raises(SolverError, match="cannot allocate 10 sources across 3 active blocks"):
        counts(10)


def test_validate_rejects_unknown_timing_keys():
    cfg = _base_config(timing={"repetitions": 3, "bogus": 1})
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == ["timing: unknown keys ['bogus']"]


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STOCK_CONFIGS = ["configs/exp1.json", "configs/exp2.json", "configs/exp3.json",
                  "perfbench/large_array.json"]


def test_config_echo_revalidates():
    texts = [_dumps(_base_config())]
    for name in _STOCK_CONFIGS:
        with open(os.path.join(_REPO, name), encoding="utf-8") as fh:
            texts.append(fh.read())
    for text in texts:
        config, errors = validate_config(text)
        assert errors == []
        again, errors = validate_config(json.dumps(config.to_dict()))
        assert errors == []
        assert again == config
        assert json.dumps(again.to_dict()) == json.dumps(config.to_dict())


def _with_generator(cfg, **generator):
    cfg["scene"] = {"snr_db": 20, "num_snapshots": 40, "generator": generator}
    return cfg


@pytest.mark.parametrize("edit, error", [
    (lambda c: c.update(trails=40), "config: unknown keys ['trails']"),
    (lambda c: c["array"].update(nz=4), "array: unknown keys ['nz']"),
    (lambda c: c["scene"].update(noise="white"), "scene: unknown keys ['noise']"),
    (lambda c: c["grids"].update(mw=9), "grids: unknown keys ['mw']"),
    (lambda c: c["solvers"].update(hmsb1={}), "solvers: unknown keys ['hmsb1']"),
    (lambda c: c["solvers"]["hmsbl"].update(tol=0.1), "solvers.hmsbl: unknown keys ['tol']"),
    (lambda c: c["solvers"].update(msbl={"iters": 3}), "solvers.msbl: unknown keys ['iters']"),
    (lambda c: c["scene"]["sources"][0].update(w=0.1), "scene.sources[0]: unknown keys ['w']"),
    (lambda c: _with_generator(c, kind="random_on_grid", k=2, min_sep=0.3),
     "scene.generator: unknown keys ['min_sep']"),
    (lambda c: _with_generator(c, kind="grid_product", u_indices=[7], v_indices=[7], k=1),
     "scene.generator: unknown keys ['k']"),
])
def test_validate_rejects_unknown_keys_at_every_level(edit, error):
    cfg = _base_config()
    edit(cfg)
    config, errors = validate_config(_dumps(cfg))
    assert config is None
    assert errors == [error]


def _number_paths():
    """One concrete JSON path for every "number" and "lambda" row of the
    schema, with ``<algo>`` standing for each algorithm."""
    for path, kind, *_ in _FIELDS:
        if kind in ("number", "lambda"):
            concrete = path.replace("[]", "[0]").replace(":random_on_grid", "")
            algos = ALGORITHMS if "<algo>" in path else ("",)
            yield from (concrete.replace("<algo>", algo) for algo in algos)


def _config_with(path, value):
    """The base config, with a random_on_grid generator for a generator
    path, and ``value`` placed at ``path``."""
    cfg = _base_config()
    if path.startswith("scene.generator."):
        _with_generator(cfg, kind="random_on_grid", k=1)
    *parents, last = path.replace("[0]", ".0").split(".")
    node = cfg
    for key in parents:
        node = node[int(key)] if key.isdigit() else node.setdefault(key, {})
    node[last] = value
    return cfg


# NaN, Infinity and -Infinity, which json.loads accepts, and an integer
# literal that float() cannot convert
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("path", list(_number_paths()))
def test_validate_rejects_non_finite_numbers(path, value):
    config, errors = validate_config(_dumps(_config_with(path, value)))
    assert config is None
    assert errors == [f"{path}: expected a finite number, got {value!r}"]


def test_an_empty_solver_spec_takes_the_solver_defaults():
    config, errors = validate_config(_dumps(_base_config(solvers={"hmsbl": {}})))
    assert errors == []
    assert list(config.to_dict()["solvers"]["hmsbl"].items()) == [
        ("max_iters", 500), ("prune_tol", 0.001), ("cost_tol", 0.0),
        ("lambda_mode", "fixed"), ("lambda_value", "oracle"), ("compress", True)]
    assert _params_for(config, "hmsbl") == HMsblParams(lambda_value=noise_power(20.0))


def test_config_error_survives_pickling():
    err = ConfigError(["scene.generator: could not place 6 sources", "trials: must be >= 1"])
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is ConfigError
    assert again.errors == err.errors
    assert str(again) == str(err)


def test_load_config_raises_collected_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(_dumps(_base_config(trials=0)))
    with pytest.raises(ConfigError) as ei:
        load_config(p)
    assert ei.value.errors


# ---------------------------------------------------------------------------
# scenes


def test_scene_for_trial_deterministic():
    config, _ = validate_config(_dumps(_base_config()))
    a = scene_for_trial(config, 0)
    b = scene_for_trial(config, 0)
    assert a == b
    assert scene_for_trial(config, 1).seed != a.seed


def test_scene_random_generator_feasible_and_separated():
    cfg = _base_config()
    cfg["scene"] = {"snr_db": 20, "num_snapshots": 40,
                    "generator": {"kind": "random_on_grid", "k": 3,
                                  "min_separation": 0.2}}
    cfg["grids"] = {"mu": 50, "mv": 50}
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    for t in range(5):
        scene = scene_for_trial(config, t)
        pts = np.array([[s.u, s.v] for s in scene.sources])
        assert pts.shape == (3, 2)
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0)
        du = np.abs(pts[:, 0][:, None] - pts[:, 0][None, :])[np.triu_indices(3, 1)]
        assert du.min() >= 0.2


def test_scene_grid_product_layout():
    cfg = _base_config()
    cfg["scene"] = {"snr_db": 20, "num_snapshots": 40,
                    "generator": {"kind": "grid_product",
                                  "u_indices": [3, 10], "v_indices": [2, 7, 12]}}
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    scene = scene_for_trial(config, 0)
    assert scene.k == 6
    us = sorted({s.u for s in scene.sources})
    assert len(us) == 2  # two shared u coordinates


# ---------------------------------------------------------------------------
# running


def test_custom_run_reproducible():
    config, _ = validate_config(_dumps(_base_config()))
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert r1.comparable_dict() == r2.comparable_dict()
    assert r1.created_utc != "" and r1.tool_version != ""
    assert r1.aggregate["hmsbl"]["count"] == 2
    assert r1.aggregate["hmsbl"]["mean_rmse"] < 0.2


def test_records_do_not_depend_on_worker_count(monkeypatch):
    config, _ = validate_config(_dumps(_base_config(trials=2)))
    records = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("HMSBL_WORKERS", workers)
        records[workers] = run_experiment(config).comparable_dict()
    assert len(records["1"]["trials"]) == 2
    assert records["1"] == records["2"]


def test_record_roundtrip_and_plots(tmp_path):
    config, _ = validate_config(_dumps(_base_config()))
    record, paths = run_and_save(config, str(tmp_path))
    assert all(os.path.exists(p) for p in paths)
    loaded = ResultRecord.load(os.path.join(tmp_path, "record.json"))
    assert loaded.comparable_dict() == record.comparable_dict()

    # csv floats parse back bit-exact
    with open(os.path.join(tmp_path, "convergence.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "rmse", "algorithm"]
    # custom experiments produce no convergence curves: header only
    assert len(rows) == 1


def test_emit_plot_data_headers_only_for_empty(tmp_path):
    record = ResultRecord(experiment="custom", config={}, tool_version="x",
                          created_utc="now")
    paths = emit_plot_data(record, "all", str(tmp_path))
    assert sorted(os.path.basename(p) for p in paths) == [
        "convergence.csv", "scatter.csv", "timing.csv"]
    for p in paths:
        with open(p) as fh:
            assert len(fh.read().strip().splitlines()) == 1


def test_emit_plot_data_float_roundtrip(tmp_path):
    record = ResultRecord(
        experiment="exp1", config={}, tool_version="x", created_utc="now",
        timing=[{"mv": 25, "algorithm": "hmsbl",
                 "seconds": 0.12345678901234567, "per_iteration_seconds": 1 / 3}])
    (path,) = emit_plot_data(record, "timing", str(tmp_path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["seconds"]) == 0.12345678901234567
    assert float(rows[0]["per_iteration_seconds"]) == 1 / 3


def test_emit_plot_data_rejects_unknown_kind(tmp_path):
    record = ResultRecord(experiment="custom", config={}, tool_version="x",
                          created_utc="now")
    with pytest.raises(ValueError):
        emit_plot_data(record, "heatmap", str(tmp_path))


@pytest.mark.parametrize("section, value, error", [
    ("scatter", [{"u": 0.1, "is_truth": 1, "algorithm": "truth"}], "KeyError: 'v'"),
    ("convergence", [1, 2], "AttributeError"),
    ("timing", [["a"]], "TypeError"),
])
def test_cli_emit_plots_malformed_record_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                    section, value, error):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"experiment": "custom", "config": {}, "tool_version": "x",
                                "created_utc": "now", section: value}))
    out = tmp_path / "plots"
    assert cli.main(["emit-plots", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: cannot emit plots from record {path}: malformed {section!r} section")
    assert error in line
    assert not out.exists()


def test_records_carry_an_environment_fingerprint_outside_comparison():
    config, _ = validate_config(_dumps(_base_config(trials=1)))
    r1, r2 = run_experiment(config), run_experiment(config)
    assert set(r1.environment) == {"python", "numpy", "scipy", "blas", "thread_env", "cpu_count"}
    assert r1.environment["numpy"] == np.__version__
    assert set(r1.environment["thread_env"]) == {"OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert r1.to_dict()["environment"] == r1.environment
    assert "environment" not in r1.comparable_dict()
    r2.environment = dict(r2.environment, cpu_count=-1)
    assert r1.comparable_dict() == r2.comparable_dict()


def test_record_saved_without_environment_loads_and_emits_plots(tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({
        "experiment": "exp1", "config": {}, "tool_version": "0.1.0", "created_utc": "now",
        "timing": [{"mv": 5, "algorithm": "hmsbl", "seconds": 0.5, "per_iteration_seconds": 0.01}],
        "scatter": [{"u": 0.1, "v": 0.2, "is_truth": 1, "algorithm": "truth"}],
        "convergence": {}, "trials": [], "aggregate": {}, "errors": []}))
    record = ResultRecord.load(path)
    assert record.environment == {}
    assert cli.main(["emit-plots", str(path), "--out", str(tmp_path / "plots")]) == 0
    with open(tmp_path / "plots" / "timing.csv") as fh:
        assert list(csv.DictReader(fh))[0]["seconds"] == "0.5"


def test_record_with_keys_of_a_newer_writer_loads_and_emits_plots(tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({
        "experiment": "exp1", "config": {}, "tool_version": "9.9.9", "created_utc": "now",
        "timing": [{"mv": 5, "algorithm": "hmsbl", "seconds": 0.5, "per_iteration_seconds": 0.01}],
        "provenance": {"host": "elsewhere"}, "schema": 2}))
    record = ResultRecord.load(path)
    assert record.tool_version == "9.9.9" and not hasattr(record, "provenance")
    assert cli.main(["emit-plots", str(path), "--kind", "timing",
                     "--out", str(tmp_path / "plots")]) == 0
    with open(tmp_path / "plots" / "timing.csv") as fh:
        assert list(csv.DictReader(fh))[0]["seconds"] == "0.5"


@pytest.mark.parametrize("missing", ["experiment", "config", "tool_version", "created_utc"])
def test_cli_emit_plots_record_without_a_header_field_exits_2(tmp_path, capsys, missing):
    header = {"experiment": "custom", "config": {}, "tool_version": "x", "created_utc": "now"}
    del header[missing]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(dict(header, extra=1)))
    out = tmp_path / "plots"
    assert cli.main(["emit-plots", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: cannot load record {path}: ") and repr(missing) in line
    assert not out.exists()


@pytest.mark.parametrize("content", [[1], "experiment config"])
def test_cli_emit_plots_record_that_is_not_a_json_object_exits_2(tmp_path, capsys, content):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "plots"
    assert cli.main(["emit-plots", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == f"error: cannot load record {path}: the record is not a JSON object"
    assert not out.exists()


def test_generic_trial_records_estimates_and_provenance_of_the_reader():
    # an exp2 trial, shortened: the record holds the reader's (K, 2) pairs
    # as lists and its per-block rooting dicts, keys in this order
    with open(os.path.join(_REPO, "configs/exp2.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(trials=1)
    cfg["solvers"]["hmsbl"]["max_iters"] = 40
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    entry = _generic_trial(config, 0)["algorithms"]["hmsbl"]

    scene, truth, y, pair = _trial_inputs(config, 0)
    dictionary, estimate = _algorithm(config, "hmsbl", pair, len(truth))
    state, _, _ = run(y, dictionary, _params_for(config, "hmsbl"))
    pairs, provenance = estimate(state)
    assert pairs.shape == (10, 2)
    assert entry["estimates"] == pairs.tolist()
    assert [list(p) for p in entry["provenance"]] == [["block", "eigen_gap", "low_confidence"]] * 2
    assert entry["provenance"] == list(provenance)
    assert all(type(p["block"]) is int for p in entry["provenance"])


def test_trial_errors_are_recorded_not_raised():
    # an impossible allocation (more v's than blocks can hold) fails that
    # trial but the run still completes and reports the error
    cfg = _base_config()
    cfg["scene"]["sources"] = [{"u": 0.1, "v": -0.6}, {"u": 0.1, "v": -0.2},
                               {"u": 0.1, "v": 0.2}, {"u": 0.1, "v": 0.6}]
    cfg["array"] = {"nx": 3, "ny": 2}  # capacity 1 per block
    cfg["solvers"]["hmsbl"]["prune_tol"] = 0.5  # aggressive: few blocks survive
    cfg["trials"] = 1
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    record = run_experiment(config)
    entry = record.trials[0]["algorithms"]["hmsbl"]
    assert "error" in entry or entry["rmse"] >= 0  # either recorded or solved


# ---------------------------------------------------------------------------
# paired timing


def _synthetic_rounds(n_rounds=6, n_points=5, n_iters=60):
    """Iteration times shaped (round, point, iteration): a per-iteration
    pattern with a slow first iteration, and a host running 1.7x slower in
    rounds 1, 3 and 4."""
    pattern = 1e-3 * (1.0 + 0.2 * np.sin(np.arange(n_iters)))
    pattern[0] *= 5.0
    levels = np.ones(n_rounds)
    levels[[1, 3, 4]] = 1.7
    return levels[:, None, None] * np.broadcast_to(pattern, (n_rounds, n_points, n_iters))


def test_paired_spread_cancels_round_slowdown():
    rounds = _synthetic_rounds()
    assert _relative_spread(_paired_minima(rounds)) == pytest.approx(0.0, abs=1e-12)

    # rounds at three host levels, each point 10% fast, even or 10% slow in
    # turn: the pooled raw medians fall in different rounds and differ,
    # the round-normalised minima do not
    jitter = np.array([[0.9, 1.0, 1.1], [1.0, 1.1, 0.9], [1.1, 0.9, 1.0]])
    rounds = np.array([1.0, 1.7, 2.5])[:, None, None] * np.repeat(jitter[:, :, None], 60, axis=2)
    assert _relative_spread(np.median(rounds, axis=(0, 2))) > 0.2
    assert _relative_spread(_paired_minima(rounds)) == pytest.approx(0.0, abs=1e-12)


def test_paired_spread_reports_per_point_difference():
    rounds = _synthetic_rounds()
    rounds[:, 2] *= 1.5
    minima = _paired_minima(rounds)
    assert _relative_spread(minima) == pytest.approx(0.5)
    assert np.argmax(minima) == 2


def test_paired_spread_ignores_contention_bursts():
    # contention slows most of point 1's iterations in every round; its
    # median moves, its fastest iteration does not
    rounds = _synthetic_rounds()
    rounds[:, 1, 15:55] *= 1.7
    assert _relative_spread(np.median(rounds, axis=(0, 2))) > 0.25
    assert _relative_spread(_paired_minima(rounds)) == pytest.approx(0.0, abs=1e-12)


def test_time_rounds_mirrors_the_order_of_points():
    calls = []

    def point(p):
        def fn():
            calls.append(p)
            return None, None, SimpleNamespace(iter_seconds=[p + 1.0] * 3)
        return fn

    walls, iters = _time_rounds([point(0), point(1), point(2)], rounds=2)
    assert calls == [0, 1, 2] + 2 * [0, 1, 2, 2, 1, 0]
    assert walls.shape == (2, 3, 2)
    assert iters.shape == (2, 3, 6)
    np.testing.assert_array_equal(iters[1, 2], [3.0] * 6)


def test_run_bench_rows_and_assessment():
    cfg = _base_config(
        grids={"mu": 15, "mv": 15, "mv_sweep": [5, 10, 20]},
        algorithms=["hmsbl", "msbl"],
        solvers={"hmsbl": {"max_iters": 30}, "msbl": {"max_iters": 30}},
        timing={"repetitions": 2, "iterations": 4},
    )
    config, errors = validate_config(_dumps(cfg))
    assert errors == []
    rows, assessment = run_bench(config)
    assert [(r["mv"], r["algorithm"]) for r in rows] == [
        (mv, algo) for mv in (5, 10, 20) for algo in ("hmsbl", "msbl")]
    for r in rows:
        assert set(r) == {"mv", "algorithm", "seconds", "per_iteration_seconds"}
        assert 0 < r["per_iteration_seconds"] < r["seconds"]
    assert set(assessment) == {"hmsbl_variation", "hmsbl_variation_raw",
                               "msbl_strictly_increasing"}
    assert assessment["hmsbl_variation"] >= 0
    assert assessment["hmsbl_variation_raw"] >= 0


def test_timing_spreads_are_left_out_of_comparison():
    def record(spread, raw):
        return ResultRecord(experiment="exp1", config={}, tool_version="x", created_utc="now",
                            aggregate={"timing": {"hmsbl_variation": spread,
                                                  "hmsbl_variation_raw": raw,
                                                  "msbl_strictly_increasing": True}})
    assert record(0.1, 0.2).comparable_dict() == record(0.3, 0.4).comparable_dict()


# ---------------------------------------------------------------------------
# cli


def _run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "hmsbl.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_cli_validate_ok(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(_dumps(_base_config()))
    r = _run_cli(["validate", str(p)])
    assert r.returncode == 0
    assert "OK" in r.stdout


def test_cli_validate_bad_exits_2(tmp_path):
    cfg = _base_config()
    del cfg["seed"]
    p = tmp_path / "c.json"
    p.write_text(_dumps(cfg))
    r = _run_cli(["validate", str(p)])
    assert r.returncode == 2
    assert "seed" in r.stderr


def test_cli_validate_oversized_generator_one_line(tmp_path):
    cfg = _base_config()
    cfg["scene"] = {"snr_db": 20, "num_snapshots": 40,
                    "generator": {"kind": "random_on_grid", "k": 80}}
    cfg["grids"] = {"mu": 6, "mv": 6}
    p = tmp_path / "c.json"
    p.write_text(_dumps(cfg))
    for command in ("validate", "run"):
        r = _run_cli([command, str(p), "--out", str(tmp_path)] if command == "run"
                     else [command, str(p)])
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"invalid config {p}: scene.generator.k: must be <= min(mu, mv) = 6, got 80"]


def test_cli_validate_unknown_keys_exits_2(tmp_path):
    cfg = _base_config(trails=40)
    cfg["array"]["nz"] = 4
    p = tmp_path / "c.json"
    p.write_text(_dumps(cfg))
    r = _run_cli(["validate", str(p)])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [f"invalid config {p}: config: unknown keys ['trails']",
                                     f"invalid config {p}: array: unknown keys ['nz']"]


def test_cli_validate_non_finite_number_exits_2_on_one_line(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(_dumps(_config_with("scene.sources[0].u", float("nan"))))
    r = _run_cli(["validate", str(p)])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"invalid config {p}: scene.sources[0].u: expected a finite number, got nan"]


@pytest.mark.parametrize("snr_db", [-4000, 4000])
def test_cli_rejects_an_out_of_range_snr_on_one_line(tmp_path, snr_db):
    # before validate bounded it, run died in noise_power (OverflowError)
    # or in _params_for (a fixed lambda of 0)
    with open(os.path.join(_REPO, "configs/exp3.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(trials=1, budgets=[3])
    cfg["scene"]["snr_db"] = snr_db
    for spec in cfg["solvers"].values():
        spec["max_iters"] = 3
    p = tmp_path / "c.json"
    p.write_text(_dumps(cfg))
    for args in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path)]):
        r = _run_cli(args)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"invalid config {p}: scene.snr_db: the noise power 10^(-snr_db/10) is outside "
            f"the float range, got {float(snr_db)}"]


def test_cli_validate_repeated_algorithm_exits_2(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(_dumps(_base_config(algorithms=["hmsbl", "hmsbl"])))
    r = _run_cli(["validate", str(p)])
    assert r.returncode == 2
    assert r.stderr.splitlines() == [f"invalid config {p}: algorithms: repeated name 'hmsbl'"]


def _unplaceable_generator_config(**over):
    # six sources cannot keep a 0.9 separation in u inside [-1, 1]
    return _with_generator(_base_config(**over), kind="random_on_grid", k=6, min_separation=0.9)


def test_cli_run_reports_worker_config_error_on_one_line(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(_dumps(_unplaceable_generator_config(trials=2)))
    r = subprocess.run([sys.executable, "-m", "hmsbl.cli", "run", str(p), "--out", str(tmp_path)],
                       capture_output=True, text=True, env=dict(os.environ, HMSBL_WORKERS="2"))
    assert r.returncode == 1
    assert r.stderr.splitlines() == [
        "error: scene.generator: could not place 6 sources with separation 0.9"]


def test_cli_bench_reports_config_error_on_one_line(tmp_path):
    cfg = _unplaceable_generator_config(experiment="exp1",
                                        grids={"mu": 15, "mv": 15, "mv_sweep": [5, 10]})
    p = tmp_path / "c.json"
    p.write_text(_dumps(cfg))
    r = _run_cli(["bench", str(p), "--out", str(tmp_path)])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: scene.generator: could not place 6 sources with separation 0.9"]


def test_cli_bench_writes_a_record_with_timing_and_environment(tmp_path, capsys):
    cfg = _base_config(experiment="exp1", grids={"mu": 15, "mv": 15, "mv_sweep": [5, 10]},
                       timing={"repetitions": 1, "iterations": 2})
    p = tmp_path / "c.json"
    p.write_text(_dumps(cfg))
    out = tmp_path / "bench"
    assert cli.main(["bench", str(p), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["record.json", "timing.csv"]
    record = ResultRecord.load(out / "record.json")
    assert record.experiment == "exp1" and record.created_utc
    assert record.environment
    printed = capsys.readouterr().out.split("\n", 2)
    assert printed[:2] == [f"wrote {out / 'record.json'}", f"wrote {out / 'timing.csv'}"]
    assert record.aggregate["timing"] == json.loads(printed[2])
    assert sorted({row["mv"] for row in record.timing}) == [5, 10]


def test_cli_run_completes_when_a_solve_fails(tmp_path, monkeypatch, capsys):
    _fail_solves_after(monkeypatch, 25)
    p = tmp_path / "c.json"
    p.write_text(_dumps(_small_exp3_config()))
    assert cli.main(["run", str(p), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == ["2 trial(s) failed; see record.json errors[]"]
    assert len(json.loads((tmp_path / "record.json").read_text())["errors"]) == 2


@pytest.mark.parametrize("command", ["validate", "emit-plots"])
def test_cli_undecodable_file_exits_2_on_one_line(tmp_path, command):
    p = tmp_path / "c.json"
    p.write_bytes(b'{"seed": "\xff"}')
    r = _run_cli([command, str(p)])
    assert r.returncode == 2
    assert r.stdout == ""
    [line] = r.stderr.splitlines()
    assert line.startswith("error: cannot ") and str(p) in line and "decode" in line


def test_cli_missing_file_exits_2():
    r = _run_cli(["validate", "/nonexistent/nope.json"])
    assert r.returncode == 2


def test_cli_run_and_emit_plots(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(_dumps(_base_config(trials=1)))
    out = tmp_path / "out"
    r = _run_cli(["run", str(p), "--out", str(out)])
    assert r.returncode == 0, r.stderr
    assert (out / "record.json").exists()

    out2 = tmp_path / "replot"
    r2 = _run_cli(["emit-plots", str(out / "record.json"), "--out", str(out2)])
    assert r2.returncode == 0, r2.stderr
    assert (out2 / "timing.csv").exists()
    assert (out / "timing.csv").read_text() == (out2 / "timing.csv").read_text()


@pytest.mark.parametrize("command", ["run", "bench", "emit-plots"])
def test_cli_unusable_output_directory_exits_2_on_one_line_before_any_trial(
        tmp_path, monkeypatch, capsys, command):
    # an --out (or a config output_dir) that is a file, or lies under one
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(cli.experiments, "run_experiment", lambda config: pytest.fail("a trial ran"))
    monkeypatch.setattr(cli.experiments, "run_bench", lambda config: pytest.fail("a trial ran"))
    p = tmp_path / "c.json"
    if command == "run":
        target = blocker / "out"
        p.write_text(_dumps(_base_config(trials=1, output_dir=str(target))))
        argv = ["run", str(p)]
    elif command == "bench":
        target = blocker
        cfg = _base_config(experiment="exp1", grids={"mu": 15, "mv": 15, "mv_sweep": [5]})
        p.write_text(_dumps(cfg))
        argv = ["bench", str(p), "--out", str(target)]
    else:
        target = blocker
        p.write_text(json.dumps({"experiment": "custom", "config": {}, "tool_version": "x",
                                 "created_utc": "now"}))
        argv = ["emit-plots", str(p), "--out", str(target)]
    with pytest.raises(SystemExit) as exit_:
        raise SystemExit(cli.main(argv))
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: cannot write to {target}: ")


def test_cli_version():
    r = _run_cli(["--version"])
    assert r.returncode == 0
    assert "hmsbl" in r.stdout


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_cli_run_rejects_bad_worker_count(tmp_path, value):
    p = tmp_path / "c.json"
    p.write_text(_dumps(_base_config(trials=1)))
    r = subprocess.run([sys.executable, "-m", "hmsbl.cli", "run", str(p), "--out", str(tmp_path)],
                       capture_output=True, text=True, env=dict(os.environ, HMSBL_WORKERS=value))
    assert r.returncode == 1
    assert r.stderr.strip().splitlines() == [
        f"error: HMSBL_WORKERS must be a positive integer, got {value!r}"]
    assert not (tmp_path / "record.json").exists()


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_import_sets_single_threaded_blas_default(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, hmsbl; print(os.environ['OPENBLAS_NUM_THREADS'])"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == want
