"""Property tests of the validate => run contract over generated configs.

Every config that ``validate_config`` accepts must either run to a record
or fail with one of the errors the CLI reports on one line (exit 1), and
one unknown key anywhere in a valid config must cost exactly one error
that names its level.
"""

import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hmsbl.experiments import ALGORITHMS, ConfigError, run_experiment, validate_config
from hmsbl.solver import DegenerateInputError, SolverError

# what ``hmsbl run`` turns into one line and exit 1
_CLI_CAUGHT = (SolverError, DegenerateInputError, ConfigError)

_PROPERTY_SETTINGS = dict(deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.filter_too_much,
                                                 HealthCheck.too_slow])


@st.composite
def _solver_specs(draw):
    spec = {"max_iters": draw(st.integers(1, 5))}
    if draw(st.booleans()):
        spec["prune_tol"] = draw(st.sampled_from([0.0, 1e-3, 0.3]))
        spec["cost_tol"] = draw(st.sampled_from([0.0, 1e-6]))
        spec["compress"] = draw(st.booleans())
    spec["lambda_mode"] = draw(st.sampled_from(["fixed", "adaptive"]))
    spec["lambda_value"] = draw(st.sampled_from(["oracle", 0.05, 1.0]))
    return spec


@st.composite
def _scenes(draw, mu, mv):
    scene = {"snr_db": draw(st.sampled_from([-5, 10, 30])),
             "num_snapshots": draw(st.integers(1, 12))}
    form = draw(st.sampled_from(["sources", "grid_product", "random_on_grid"]))
    if form == "sources":
        scene["sources"] = [{"u": draw(st.floats(-0.7, 0.7)), "v": draw(st.floats(-0.7, 0.7))}
                            for _ in range(draw(st.integers(1, 3)))]
    elif form == "grid_product":
        # inner grid points, so every product point has u^2 + v^2 <= 1
        scene["generator"] = {
            "kind": "grid_product",
            "u_indices": draw(st.lists(st.integers(mu // 4, (3 * mu) // 4), min_size=1,
                                       max_size=2, unique=True)),
            "v_indices": draw(st.lists(st.integers(mv // 4, (3 * mv) // 4), min_size=1,
                                       max_size=2, unique=True)),
        }
    else:
        scene["generator"] = {"kind": "random_on_grid",
                              "k": draw(st.integers(1, min(3, mu, mv))),
                              "min_separation": draw(st.sampled_from([0.0, 0.2, 0.9]))}
    return scene


@st.composite
def _valid_configs(draw):
    experiment = draw(st.sampled_from(["custom", "exp1", "exp2", "exp3"]))
    mu, mv = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    algorithms = draw(st.sampled_from([["hmsbl"], ["msbl"], list(ALGORITHMS)]))
    solvers = {algo: draw(_solver_specs()) for algo in algorithms}
    cfg = {
        "experiment": experiment,
        "seed": draw(st.integers(0, 2**31)),
        "array": {"nx": draw(st.integers(1, 4)), "ny": draw(st.integers(1, 4))},
        "scene": draw(_scenes(mu, mv)),
        "grids": {"mu": mu, "mv": mv},
        "algorithms": algorithms,
        "solvers": solvers,
        "trials": 1,
    }
    if experiment == "exp1":
        cfg["grids"]["mv_sweep"] = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
        cfg["timing"] = {"repetitions": 1, "iterations": draw(st.integers(1, 3))}
    if experiment == "exp3":
        horizon = min(spec["max_iters"] for spec in solvers.values())
        cfg["budgets"] = draw(st.lists(st.integers(1, horizon), min_size=1, max_size=2))
    return cfg


@settings(max_examples=40, **_PROPERTY_SETTINGS)
@given(_valid_configs())
def test_accepted_configs_run_or_fail_with_a_reported_error(cfg):
    config, errors = validate_config(json.dumps(cfg))
    assume(not errors)
    try:
        record = run_experiment(config)
    except _CLI_CAUGHT:
        return
    assert record.config == config.to_dict()
    assert len(record.trials) == 1


def _insert_unknown_key(cfg, draw):
    """Add one key no table row names at a level drawn from those the config
    has or may have; return that level's path."""
    levels = ["config", "array", "scene", "grids", "timing", "solvers"]
    levels += [f"solvers.{algo}" for algo in ALGORITHMS]
    if "generator" in cfg["scene"]:
        levels.append("scene.generator")
    else:
        levels += [f"scene.sources[{i}]" for i in range(len(cfg["scene"]["sources"]))]
    level = draw(st.sampled_from(levels))
    key = draw(st.sampled_from(["trails", "nz", "min_sep", "extra", "Kind"]))
    if level == "config":
        target = cfg
    elif level.startswith("scene.sources["):
        target = cfg["scene"]["sources"][int(level[len("scene.sources["):-1])]
    elif level == "scene.generator":
        target = cfg["scene"]["generator"]
    elif level.startswith("solvers."):
        target = cfg["solvers"].setdefault(level.split(".")[1], {})
    else:
        target = cfg.setdefault(level, {})
    target[key] = 1
    return level, key


@settings(max_examples=150, **_PROPERTY_SETTINGS)
@given(_valid_configs(), st.data())
def test_one_unknown_key_gives_one_error_at_its_level(cfg, data):
    assume(not validate_config(json.dumps(cfg))[1])
    level, key = _insert_unknown_key(cfg, data.draw)
    config, errors = validate_config(json.dumps(cfg))
    assert config is None
    assert errors == [f"{level}: unknown keys [{key!r}]"]
