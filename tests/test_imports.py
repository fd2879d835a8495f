"""SciPy's linear algebra loads at the first solve, never at import, and
its optimizer never: matching uses the package's own assignment solver.

Validating configs and re-emitting plots from a record are the package's
fast paths; they import hmsbl and nothing that solves.  The check runs in
a fresh interpreter, whose ``sys.modules`` holds only what that work
loaded.

The top-level namespace is each module's ``__all__``, re-exported: the
same objects under the same names, and no others.
"""

import importlib
import json
import os
import subprocess
import sys

import hmsbl
from hmsbl.experiments import ResultRecord

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CONFIGS = [os.path.join(_REPO, name) for name in (
    "configs/exp1.json", "configs/exp2.json", "configs/exp3.json", "perfbench/large_array.json")]

_CHILD = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.") or m.startswith("concurrent.futures"))

record, out, *configs = sys.argv[1:]
import hmsbl
from hmsbl import cli, experiments
for path in configs:
    with open(path, encoding="utf-8") as fh:
        config, errors = experiments.validate_config(fh.read())
    assert errors == [], (path, errors)
assert cli.main(["validate", configs[0]]) == 0
assert cli.main(["emit-plots", record, "--out", out]) == 0
before = loaded()

import numpy as np
from hmsbl.dictionary import dictionary_pair, uniform_grid
from hmsbl.signal_model import Scene, Source, UraConfig, synthesize_snapshots
ura = UraConfig(2, 3)
grid_u = uniform_grid(7)
y = synthesize_snapshots(Scene(sources=(Source(grid_u.points[2], 0.3),), snr_db=20.0,
                               num_snapshots=6, seed=1), ura)
hmsbl.run(y, dictionary_pair(ura, grid_u, uniform_grid(5)), hmsbl.HMsblParams(max_iters=2))
hmsbl.match_and_rmse([[0.1, 0.2]], [[0.1, 0.25]])
print(json.dumps({"before": before, "after": loaded()}))
"""


def test_validate_and_emit_plots_never_load_scipy(tmp_path):
    record = tmp_path / "record.json"
    ResultRecord(
        experiment="exp3", config={}, tool_version="x", created_utc="now",
        timing=[{"mv": 5, "algorithm": "hmsbl", "seconds": 0.5, "per_iteration_seconds": 0.01}],
        scatter=[{"u": 0.1, "v": 0.2, "is_truth": 1, "algorithm": "truth"}],
        convergence={"hmsbl": [[1, 0.3], [2, 0.1]]},
    ).write(record)
    r = subprocess.run([sys.executable, "-c", _CHILD, str(record), str(tmp_path / "plots"),
                        *_CONFIGS], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen["before"] == []
    assert "scipy.linalg" in seen["after"]
    assert "scipy.optimize" not in seen["after"]
    assert sorted(os.listdir(tmp_path / "plots")) == ["convergence.csv", "scatter.csv", "timing.csv"]


# the public names, by the module that defines them
_PUBLIC = {
    "_version": ["__version__"],
    "signal_model": ["UraConfig", "Source", "Scene", "SnapshotSet", "angles_to_uv", "noise_power",
                     "synthesize_snapshots", "sample_covariance"],
    "dictionary": ["Grid1D", "DictionaryPair", "KronDictionary", "uniform_grid", "steering",
                   "steering_matrix", "dictionary_pair", "effective_dictionary", "kron_dictionary",
                   "kron_factorization_check"],
    "solver": ["SolverError", "DegenerateInputError", "HMsblParams", "HMsblState", "Posterior",
               "RunDiagnostics", "init_state", "e_step", "update_gamma", "update_b",
               "update_lambda", "ml_cost", "prune", "compress_snapshots", "run"],
    "pairing": ["PeakSelection", "RootMusicEstimate", "select_peaks", "root_music_v",
                "pair_estimates", "msbl_estimates"],
    "metrics": ["MatchReport", "MatchCountError", "match_and_rmse"],
    "experiments": ["ExperimentConfig", "ConfigError", "ResultRecord", "validate_config",
                    "load_config", "scene_for_trial", "run_experiment", "run_bench",
                    "run_and_save", "bench_and_save", "emit_plot_data"],
}


def test_top_level_names_are_the_modules_public_objects():
    pinned = sorted(name for names in _PUBLIC.values() for name in names)
    assert len(pinned) == 54
    assert sorted(hmsbl.__all__) == pinned
    public = {name for name in vars(hmsbl) if not name.startswith("_")}
    modules = {name for name, obj in vars(hmsbl).items() if type(obj) is type(hmsbl)}
    assert public - modules == set(pinned) - {"__version__"}  # the star imports bring no more
    for module_name, names in _PUBLIC.items():
        module = importlib.import_module(f"hmsbl.{module_name}")
        for name in names:
            obj = getattr(hmsbl, name)
            assert obj is getattr(module, name), name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
