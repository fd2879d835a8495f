"""Config-driven benchmark scenarios.

Three stock scenarios compare the block solver against the flat baseline:

* ``exp1``: per-iteration wall time swept over the v-grid size, plus a
  single-scene (u, v) scatter.  The block solver never touches a v grid,
  so its per-iteration time should be flat while the baseline grows.
* ``exp2``: shared-u identifiability.  Sources arrive on a product of a
  few u points and several v points, more sources per u bin than one, and
  recovery goes through blockwise rooting.
* ``exp3``: accuracy versus EM iteration budget for both algorithms.

``custom`` runs the generic trial engine on any valid config.  Configs are
single JSON documents; ``validate_config`` collects every problem instead
of stopping at the first.  Records are reproducible from (config, seed)
except for timestamps and wall-clock fields.
"""

import concurrent.futures
import csv
import datetime
import functools
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import solver
from ._version import __version__
from .dictionary import Grid1D, uniform_grid, dictionary_pair, kron_dictionary
from .metrics import MatchCountError, match_and_rmse
from .msbl import msbl_estimates, msbl_run
from .pairing import PeakAllocation, pair_estimates, select_peaks
from .signal_model import Scene, Source, UraConfig, noise_power, synthesize_snapshots

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "ResultRecord",
    "validate_config",
    "load_config",
    "scene_for_trial",
    "run_experiment",
    "run_bench",
    "run_and_save",
    "emit_plot_data",
]

EXPERIMENT_KINDS = ("exp1", "exp2", "exp3", "custom")
ALGORITHMS = ("hmsbl", "msbl")

_SOLVER_DEFAULTS = {
    "max_iters": 500,
    "prune_tol": 1e-3,
    "prune_mode": "relative",
    "b_loading": 1e-10,
    "cost_tol": 0.0,
    "lambda_mode": "fixed",
    "lambda_value": "oracle",
    "compress": True,
}

_TIMING_DEFAULTS = {"repetitions": 5, "iterations": 60}

# record keys that vary run to run and are excluded from reproducibility
_VOLATILE_KEYS = {"created_utc", "seconds", "per_iteration_seconds", "iter_seconds",
                  "hmsbl_variation", "hmsbl_variation_raw"}


class ConfigError(ValueError):
    """A config failed validation; ``errors`` lists every problem."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    nx: int
    ny: int
    snr_db: float
    num_snapshots: int
    sources: list = None
    generator: dict = None
    mu: int = 100
    mv: int = 100
    mv_sweep: list = None
    algorithms: list = field(default_factory=lambda: list(ALGORITHMS))
    solvers: dict = field(default_factory=dict)
    allocation: list = None
    trials: int = 1
    budgets: list = None
    timing: dict = field(default_factory=lambda: dict(_TIMING_DEFAULTS))
    success_rmse: float = 0.05
    output_dir: str = None

    def k_sources(self) -> int:
        if self.sources is not None:
            return len(self.sources)
        kind = self.generator["kind"]
        if kind == "grid_product":
            return len(self.generator["u_indices"]) * len(self.generator["v_indices"])
        return int(self.generator["k"])

    def to_dict(self) -> dict:
        scene = {"snr_db": self.snr_db, "num_snapshots": self.num_snapshots}
        if self.sources is not None:
            scene["sources"] = [{"u": u, "v": v} for u, v in self.sources]
        else:
            scene["generator"] = dict(self.generator)
        grids = {"mu": self.mu, "mv": self.mv}
        if self.mv_sweep is not None:
            grids["mv_sweep"] = list(self.mv_sweep)
        out = {
            "experiment": self.experiment,
            "seed": self.seed,
            "array": {"nx": self.nx, "ny": self.ny},
            "scene": scene,
            "grids": grids,
            "algorithms": list(self.algorithms),
            "solvers": {k: dict(v) for k, v in self.solvers.items()},
            "trials": self.trials,
            "timing": dict(self.timing),
            "success_rmse": self.success_rmse,
        }
        if self.allocation is not None:
            out["allocation"] = list(self.allocation)
        if self.budgets is not None:
            out["budgets"] = list(self.budgets)
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out


def _check_int(errs, path, value, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        errs.append(f"{path}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errs.append(f"{path}: must be >= {minimum}, got {value}")
        return None
    return value


def _check_number(errs, path, value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errs.append(f"{path}: expected a number, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errs.append(f"{path}: must be >= {minimum}, got {value}")
        return None
    return float(value)


def _validate_solver_spec(errs, path, raw, budgets):
    if not isinstance(raw, dict):
        errs.append(f"{path}: expected an object")
        return None
    spec = dict(_SOLVER_DEFAULTS)
    unknown = set(raw) - set(_SOLVER_DEFAULTS)
    if unknown:
        errs.append(f"{path}: unknown keys {sorted(unknown)}")
    spec.update({k: v for k, v in raw.items() if k in _SOLVER_DEFAULTS})
    _check_int(errs, f"{path}.max_iters", spec["max_iters"], minimum=1)
    _check_number(errs, f"{path}.prune_tol", spec["prune_tol"], minimum=0)
    if spec["prune_mode"] not in ("relative", "absolute"):
        errs.append(f"{path}.prune_mode: must be 'relative' or 'absolute'")
    _check_number(errs, f"{path}.b_loading", spec["b_loading"], minimum=0)
    _check_number(errs, f"{path}.cost_tol", spec["cost_tol"], minimum=0)
    if spec["lambda_mode"] not in ("fixed", "adaptive"):
        errs.append(f"{path}.lambda_mode: must be 'fixed' or 'adaptive'")
    lv = spec["lambda_value"]
    if spec["lambda_mode"] == "fixed" and lv != "oracle":
        v = _check_number(errs, f"{path}.lambda_value", lv)
        if v is not None and v <= 0:
            errs.append(f"{path}.lambda_value: must be > 0 or 'oracle'")
    if not isinstance(spec["compress"], bool):
        errs.append(f"{path}.compress: expected true or false")
    if budgets and isinstance(spec["max_iters"], int) and spec["max_iters"] < max(budgets):
        errs.append(f"{path}.max_iters: below the largest budget {max(budgets)}")
    return spec


def validate_config(text: str):
    """Parse and validate a JSON config.

    Returns (ExperimentConfig, []) on success or (None, errors) where every
    entry names the offending field.  Never raises on bad input.
    """
    errs = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"config: invalid JSON ({exc})"]
    if not isinstance(raw, dict):
        return None, ["config: top level must be an object"]

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENT_KINDS:
        errs.append(f"experiment: must be one of {list(EXPERIMENT_KINDS)}, got {experiment!r}")
    if "seed" not in raw:
        errs.append("seed: required field is missing")
        seed = None
    else:
        seed = _check_int(errs, "seed", raw["seed"], minimum=0)

    array = raw.get("array")
    nx = ny = None
    if not isinstance(array, dict):
        errs.append("array: required object with nx and ny")
    else:
        nx = _check_int(errs, "array.nx", array.get("nx"), minimum=1)
        ny = _check_int(errs, "array.ny", array.get("ny"), minimum=1)

    scene = raw.get("scene")
    snr_db = num_snapshots = None
    sources = generator = None
    if not isinstance(scene, dict):
        errs.append("scene: required object")
    else:
        snr_db = _check_number(errs, "scene.snr_db", scene.get("snr_db"))
        num_snapshots = _check_int(errs, "scene.num_snapshots", scene.get("num_snapshots"), minimum=1)
        has_src = "sources" in scene
        has_gen = "generator" in scene
        if has_src == has_gen:
            errs.append("scene: exactly one of 'sources' or 'generator' is required")
        elif has_src:
            sources = _validate_sources(errs, scene["sources"])
        else:
            generator = _validate_generator(errs, scene["generator"])

    grids = raw.get("grids")
    mu = mv = None
    mv_sweep = None
    if not isinstance(grids, dict):
        errs.append("grids: required object with mu and mv")
    else:
        mu = _check_int(errs, "grids.mu", grids.get("mu"), minimum=2)
        mv = _check_int(errs, "grids.mv", grids.get("mv"), minimum=2)
        if "mv_sweep" in grids:
            sweep = grids["mv_sweep"]
            if not isinstance(sweep, list) or not sweep:
                errs.append("grids.mv_sweep: expected a non-empty list")
            else:
                mv_sweep = [_check_int(errs, f"grids.mv_sweep[{i}]", m, minimum=2)
                            for i, m in enumerate(sweep)]
        if experiment == "exp1" and mv_sweep is None:
            errs.append("grids.mv_sweep: required for exp1")

    budgets = None
    if experiment == "exp3":
        if not isinstance(raw.get("budgets"), list) or not raw["budgets"]:
            errs.append("budgets: required non-empty list for exp3")
        else:
            budgets = [_check_int(errs, f"budgets[{i}]", b, minimum=1)
                       for i, b in enumerate(raw["budgets"])]
            if any(b is None for b in budgets):
                budgets = None
    elif "budgets" in raw:
        budgets = [b for b in raw["budgets"] if isinstance(b, int)]

    algorithms = raw.get("algorithms", list(ALGORITHMS))
    if (not isinstance(algorithms, list) or not algorithms
            or any(a not in ALGORITHMS for a in algorithms)):
        errs.append(f"algorithms: must be a non-empty subset of {list(ALGORITHMS)}")
        algorithms = list(ALGORITHMS)

    solvers_raw = raw.get("solvers", {})
    solvers = {}
    if not isinstance(solvers_raw, dict):
        errs.append("solvers: expected an object keyed by algorithm")
    else:
        for algo in algorithms:
            spec = _validate_solver_spec(errs, f"solvers.{algo}", solvers_raw.get(algo, {}),
                                         budgets if experiment == "exp3" else None)
            if spec is not None:
                solvers[algo] = spec

    trials = _check_int(errs, "trials", raw.get("trials", 1), minimum=1)

    allocation = raw.get("allocation")
    if allocation is not None:
        if not isinstance(allocation, list) or not allocation:
            errs.append("allocation: expected a non-empty list of counts")
            allocation = None
        else:
            counts = [_check_int(errs, f"allocation[{i}]", c, minimum=1)
                      for i, c in enumerate(allocation)]
            if ny is not None and all(c is not None for c in counts):
                if any(c > ny - 1 for c in counts):
                    errs.append(f"allocation: counts must be <= ny - 1 = {ny - 1}")

    timing = dict(_TIMING_DEFAULTS)
    if "timing" in raw:
        if not isinstance(raw["timing"], dict):
            errs.append("timing: expected an object")
        else:
            unknown = set(raw["timing"]) - set(_TIMING_DEFAULTS)
            if unknown:
                errs.append(f"timing: unknown keys {sorted(unknown)}")
            timing.update({k: v for k, v in raw["timing"].items() if k in _TIMING_DEFAULTS})
            _check_int(errs, "timing.repetitions", timing["repetitions"], minimum=1)
            _check_int(errs, "timing.iterations", timing["iterations"], minimum=1)

    success_rmse = raw.get("success_rmse", 0.05)
    _check_number(errs, "success_rmse", success_rmse, minimum=0)

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        errs.append("output_dir: expected a string path")

    if errs:
        return None, errs

    config = ExperimentConfig(
        experiment=experiment, seed=seed, nx=nx, ny=ny,
        snr_db=snr_db, num_snapshots=num_snapshots,
        sources=sources, generator=generator,
        mu=mu, mv=mv, mv_sweep=mv_sweep,
        algorithms=list(algorithms), solvers=solvers,
        allocation=allocation, trials=trials, budgets=budgets,
        timing=timing, success_rmse=float(success_rmse),
        output_dir=output_dir,
    )
    post_errs = _cross_validate(config)
    if post_errs:
        return None, post_errs
    return config, []


def _validate_sources(errs, raw):
    if not isinstance(raw, list) or not raw:
        errs.append("scene.sources: expected a non-empty list")
        return None
    out = []
    for i, s in enumerate(raw):
        if not isinstance(s, dict) or "u" not in s or "v" not in s:
            errs.append(f"scene.sources[{i}]: expected an object with u and v")
            continue
        u = _check_number(errs, f"scene.sources[{i}].u", s["u"])
        v = _check_number(errs, f"scene.sources[{i}].v", s["v"])
        if u is None or v is None:
            continue
        if abs(u) > 1 or abs(v) > 1:
            errs.append(f"scene.sources[{i}]: components must lie in [-1, 1]")
        elif u**2 + v**2 > 1.0 + 1e-12:
            errs.append(f"scene.sources[{i}]: u^2 + v^2 = {u**2 + v**2} exceeds 1")
        else:
            out.append((u, v))
    return out if len(out) == len(raw) else None


def _validate_generator(errs, raw):
    if not isinstance(raw, dict):
        errs.append("scene.generator: expected an object")
        return None
    kind = raw.get("kind")
    if kind == "grid_product":
        for key in ("u_indices", "v_indices"):
            idx = raw.get(key)
            if not isinstance(idx, list) or not idx or not all(
                    isinstance(i, int) and i >= 0 for i in idx):
                errs.append(f"scene.generator.{key}: expected a list of grid indices")
        return dict(raw)
    if kind == "random_on_grid":
        _check_int(errs, "scene.generator.k", raw.get("k"), minimum=1)
        _check_number(errs, "scene.generator.min_separation",
                      raw.get("min_separation", 0.15), minimum=0)
        out = dict(raw)
        out.setdefault("min_separation", 0.15)
        return out
    errs.append(f"scene.generator.kind: must be 'grid_product' or 'random_on_grid', got {kind!r}")
    return None


def _cross_validate(config):
    errs = []
    gen = config.generator
    if gen is not None and gen["kind"] == "grid_product":
        grid_u = uniform_grid(config.mu)
        grid_v = uniform_grid(config.mv)
        for key, grid in (("u_indices", grid_u), ("v_indices", grid_v)):
            for i in gen[key]:
                if i >= grid.size:
                    errs.append(f"scene.generator.{key}: index {i} outside the {grid.size}-point grid")
        if not errs:
            for iu in gen["u_indices"]:
                for iv in gen["v_indices"]:
                    u, v = grid_u.points[iu], grid_v.points[iv]
                    if u**2 + v**2 > 1.0:
                        errs.append(
                            f"scene.generator: grid point ({u:.4f}, {v:.4f}) violates u^2 + v^2 <= 1")
    if gen is not None and gen["kind"] == "random_on_grid" and gen["k"] > min(config.mu, config.mv):
        errs.append(f"scene.generator.k: must be <= min(mu, mv) = {min(config.mu, config.mv)}, "
                    f"got {gen['k']}")
    if config.allocation is not None and sum(config.allocation) != config.k_sources():
        errs.append(
            f"allocation: counts sum to {sum(config.allocation)} but the scene has "
            f"{config.k_sources()} sources")
    return errs


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    config, errors = validate_config(text)
    if config is None:
        raise ConfigError(errors)
    return config


# ---------------------------------------------------------------------------
# scenes and solver plumbing


def scene_for_trial(config: ExperimentConfig, trial: int) -> Scene:
    """Deterministic per-trial scene: seeds derive from (config.seed, trial)
    via seed-sequence spawning, so trials are independent and order-free."""
    scene_seed = int(np.random.SeedSequence((config.seed, trial)).generate_state(1)[0])
    if config.sources is not None:
        sources = [Source(u, v) for u, v in config.sources]
    else:
        gen = config.generator
        grid_u = uniform_grid(config.mu)
        grid_v = uniform_grid(config.mv)
        if gen["kind"] == "grid_product":
            sources = [
                Source(float(grid_u.points[iu]), float(grid_v.points[iv]))
                for iu in gen["u_indices"] for iv in gen["v_indices"]
            ]
        else:
            sources = _draw_random_sources(
                gen["k"], gen["min_separation"], grid_u, grid_v,
                np.random.default_rng(np.random.SeedSequence((config.seed, trial, 1))),
            )
    return Scene(sources=tuple(sources), snr_db=config.snr_db,
                 num_snapshots=config.num_snapshots, seed=scene_seed)


def _draw_random_sources(k, min_sep, grid_u, grid_v, rng, max_tries=2000):
    """k feasible on-grid sources with pairwise-distinct, separated u and v."""
    for _ in range(max_tries):
        iu = rng.choice(grid_u.size, size=k, replace=False)
        iv = rng.choice(grid_v.size, size=k, replace=False)
        u = grid_u.points[iu]
        v = grid_v.points[iv]
        if np.any(u**2 + v**2 > 1.0):
            continue
        du = np.abs(u[:, None] - u[None, :])[np.triu_indices(k, 1)]
        dv = np.abs(v[:, None] - v[None, :])[np.triu_indices(k, 1)]
        if du.size and (du.min() < min_sep or dv.min() < min_sep):
            continue
        return [Source(float(a), float(b)) for a, b in zip(u, v)]
    raise ConfigError([f"scene.generator: could not place {k} sources with separation {min_sep}"])


def _params_for(config: ExperimentConfig, algo: str, overrides=None) -> solver.HMsblParams:
    spec = dict(config.solvers.get(algo, _SOLVER_DEFAULTS))
    if overrides:
        spec.update(overrides)
    lam = spec["lambda_value"]
    if spec["lambda_mode"] == "fixed" and lam == "oracle":
        lam = noise_power(config.snr_db)
    return solver.HMsblParams(
        max_iters=spec["max_iters"],
        prune_tol=spec["prune_tol"],
        prune_mode=spec["prune_mode"],
        b_loading=spec["b_loading"],
        cost_tol=spec["cost_tol"],
        lambda_mode=spec["lambda_mode"],
        lambda_value=lam if spec["lambda_mode"] == "fixed" else 1e-2,
        compress=spec["compress"],
    )


def _hmsbl_allocation(state, grid_u: Grid1D, config: ExperimentConfig, k: int) -> PeakAllocation:
    """Allocation of v counts to blocks.  Explicit config counts go to the
    strongest peaks in order; otherwise one source per peak, falling back to
    cycling extra counts onto the strongest active blocks."""
    ny = state.block_size
    masked = np.where(state.active, state.gamma, 0.0)
    if config.allocation is not None:
        sel = select_peaks(masked, grid_u, len(config.allocation))
        return PeakAllocation(tuple(zip(sel.indices, config.allocation)))
    sel = select_peaks(masked, grid_u, min(k, grid_u.size))
    idx = [i for i in sel.indices if state.active[i] and state.gamma[i] > 0]
    if len(idx) >= k:
        return PeakAllocation(tuple((i, 1) for i in idx[:k]))
    # fewer usable peaks than sources: stack counts onto the strongest blocks
    order = sorted(np.flatnonzero(state.active), key=lambda i: -state.gamma[i])
    counts = {}
    remaining = k
    while remaining > 0:
        progressed = False
        for i in order:
            if remaining == 0:
                break
            if counts.get(i, 0) < ny - 1:
                counts[i] = counts.get(i, 0) + 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise solver.SolverError(
                f"cannot allocate {k} sources across {len(order)} active blocks")
    return PeakAllocation(tuple(counts.items()))


def _estimate_hmsbl(state, grid_u, config, k):
    alloc = _hmsbl_allocation(state, grid_u, config, k)
    est = pair_estimates(state, grid_u, alloc)
    return est, [asdict(p) for p in est.provenance]


# ---------------------------------------------------------------------------
# trial engines


def _generic_trial(config: ExperimentConfig, trial: int) -> dict:
    scene = scene_for_trial(config, trial)
    ura = UraConfig(config.nx, config.ny)
    y = synthesize_snapshots(scene, ura)
    grid_u = uniform_grid(config.mu)
    grid_v = uniform_grid(config.mv)
    pair = dictionary_pair(ura, grid_u, grid_v)
    k = scene.k
    out = {
        "trial": trial,
        "scene": {"sources": [[s.u, s.v] for s in scene.sources], "seed": scene.seed},
        "algorithms": {},
    }
    for algo in config.algorithms:
        params = _params_for(config, algo)
        try:
            if algo == "hmsbl":
                state, _, diag = solver.run(y, pair, params)
                est, provenance = _estimate_hmsbl(state, grid_u, config, k)
                pairs = est.as_array()
            else:
                kdict = kron_dictionary(pair, prune=True)
                state, _, diag = msbl_run(y, kdict, params)
                pairs = np.array(msbl_estimates(state, k))
                provenance = None
            report = match_and_rmse(pairs, scene)
            entry = {
                "estimates": pairs.tolist(),
                "rmse": report.rmse,
                "per_source_err": [float(np.sqrt(e)) for e in report.per_source_sq_err],
                "max_source_err": float(np.sqrt(max(report.per_source_sq_err))),
                "assignment": list(report.assignment),
                "n_iters": diag.n_iters,
                "converged": diag.converged,
                "final_cost": diag.cost_trace[-1],
                "active_count": int(state.active.sum()),
                "seconds": float(sum(diag.iter_seconds)),
            }
            if provenance is not None:
                entry["provenance"] = provenance
            out["algorithms"][algo] = entry
        except (solver.SolverError, MatchCountError, ValueError) as exc:
            out["algorithms"][algo] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def _budget_curve_trial(config: ExperimentConfig, trial: int) -> dict:
    """One exp3 trial: rmse after every EM iteration for each algorithm."""
    scene = scene_for_trial(config, trial)
    ura = UraConfig(config.nx, config.ny)
    y = synthesize_snapshots(scene, ura)
    grid_u = uniform_grid(config.mu)
    grid_v = uniform_grid(config.mv)
    pair = dictionary_pair(ura, grid_u, grid_v)
    k = scene.k
    horizon = max(config.budgets)
    truth = np.array([[s.u, s.v] for s in scene.sources])
    curves = {}
    for algo in config.algorithms:
        params = _params_for(config, algo, overrides={"max_iters": horizon})
        curve = []

        if algo == "hmsbl":
            def observe(it, state, post):
                try:
                    est, _ = _estimate_hmsbl(state, grid_u, config, k)
                    curve.append(match_and_rmse(est, truth).rmse)
                except (solver.SolverError, MatchCountError, ValueError):
                    curve.append(float("nan"))
            solver.run(y, pair, params, on_iteration=observe)
        else:
            kdict = kron_dictionary(pair, prune=True)

            def observe(it, state, post):
                try:
                    idx = np.flatnonzero(state.active)
                    order = idx[np.argsort(-state.gamma[idx], kind="stable")][:k]
                    pts = kdict.column_labels[order]
                    curve.append(match_and_rmse(pts, truth).rmse)
                except (MatchCountError, ValueError):
                    curve.append(float("nan"))
            msbl_run(y, kdict, params, on_iteration=observe)

        while len(curve) < horizon:  # early convergence holds the last value
            curve.append(curve[-1])
        curves[algo] = curve
    return {
        "trial": trial,
        "scene": {"sources": truth.tolist(), "seed": scene.seed},
        "curves": curves,
        "at_budgets": {
            str(b): {algo: curves[algo][b - 1] for algo in config.algorithms}
            for b in config.budgets
        },
    }


def _worker_count() -> int:
    raw = os.environ.get("HMSBL_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError([f"HMSBL_WORKERS must be a positive integer, got {raw!r}"])
    return workers


def _map_trials(fn, config: ExperimentConfig):
    workers = _worker_count()
    trials = range(config.trials)
    if workers == 1:
        return [fn(config, t) for t in trials]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, config, t): t for t in trials}
        results = [None] * config.trials
        for fut, t in futures.items():
            results[t] = fut.result()
        return results


# ---------------------------------------------------------------------------
# experiment drivers


def _relative_spread(values) -> float:
    """(max - min) / min of a sequence of positive values."""
    return float((max(values) - min(values)) / min(values))


def _paired_minima(rounds) -> np.ndarray:
    """Per-point fastest iteration time, each time taken relative to its round.

    ``rounds[r][p]`` holds the per-iteration seconds of sweep point p in
    round r.  Every time is divided by the fastest iteration of its round,
    which cancels a host speed level that the round's back-to-back points
    share; a point's figure is then its fastest normalised iteration over
    all rounds.  Host contention only ever adds time, so the fastest
    iteration tracks the uncontended cost, where a median moves as soon as
    more than half of a point's iterations were slowed (Chen and Revels,
    "Robust benchmarking in noisy environments", 2016).
    """
    times = np.asarray(rounds, dtype=float)
    levels = times.reshape(times.shape[0], -1).min(axis=1)
    return (times / levels[:, None, None]).min(axis=(0, 2))


def _time_rounds(fns, rounds: int):
    """One discarded warm-up call of each solver run in ``fns``, then
    ``rounds`` rounds that each call them all back to back, in order and
    then in reverse.  The mirrored order gives every point the same mean
    position in its round, so a drift of host speed across the round moves
    all points alike.  Returns the wall seconds of every call, shaped
    (round, point, 2), and the solver's own per-iteration seconds of both
    calls, shaped (round, point, 2 * iterations)."""
    for fn in fns:
        fn()
    order = list(range(len(fns)))
    walls, iters = [], []
    for _ in range(rounds):
        round_walls = [[] for _ in fns]
        round_iters = [[] for _ in fns]
        for p in order + order[::-1]:
            t0 = time.perf_counter()
            *_, diagnostics = fns[p]()
            round_walls[p].append(time.perf_counter() - t0)
            round_iters[p].extend(diagnostics.iter_seconds)
        walls.append(round_walls)
        iters.append(round_iters)
    return np.asarray(walls), np.asarray(iters, dtype=float)


def run_bench(config: ExperimentConfig):
    """Per-iteration timing of both algorithms across the v-grid sweep.

    Pruning is disabled and the iteration count pinned during timing so
    every iteration does identical work.  The design is paired: for one
    algorithm at a time, after one discarded warm-up run per sweep point,
    each of ``timing.repetitions`` rounds runs every sweep point back to
    back, forward and then backward (``_time_rounds``), so that no point
    always holds the same place in a round.  An algorithm's rounds are
    kept together: alternated with the baseline's heavy runs, the first
    point of each block-solver round ran about 10% slow on a 2-vCPU Xeon
    host.
    Iteration times come from the solver's own ``iter_seconds``, so one-off
    set-up cost is excluded.  Each row holds, per (mv, algorithm), the
    median wall time of a whole run and the median iteration time over all
    rounds.

    Returns (rows, assessment).  ``hmsbl_variation`` is the block solver's
    relative spread (max - min) / min across the sweep of the per-point
    minima of ``_paired_minima``; since every point does the same work,
    it measures how far the timing still moves with Mv once host speed
    shifts common to a round are cancelled.  ``hmsbl_variation_raw`` is the
    same spread of the rows' unnormalised medians, and
    ``msbl_strictly_increasing`` says whether the baseline's median
    iteration time grows at every step of the sweep.
    """
    scene = scene_for_trial(config, 0)
    ura = UraConfig(config.nx, config.ny)
    y = synthesize_snapshots(scene, ura)
    grid_u = uniform_grid(config.mu)
    sweep = config.mv_sweep or [config.mv]
    overrides = {"max_iters": config.timing["iterations"], "prune_tol": 0.0, "cost_tol": 0.0}
    runs = {algo: [] for algo in config.algorithms}
    for mv in sweep:
        pair = dictionary_pair(ura, grid_u, uniform_grid(mv))
        for algo in config.algorithms:
            params = _params_for(config, algo, overrides=overrides)
            if algo == "hmsbl":
                runs[algo].append(functools.partial(solver.run, y, pair, params))
            else:
                kdict = kron_dictionary(pair, prune=True)
                runs[algo].append(functools.partial(msbl_run, y, kdict, params))

    timed = {algo: _time_rounds(fns, config.timing["repetitions"]) for algo, fns in runs.items()}
    seconds = {algo: np.median(walls, axis=(0, 2)) for algo, (walls, _) in timed.items()}
    per_iter = {algo: np.median(iters, axis=(0, 2)) for algo, (_, iters) in timed.items()}
    rows = [
        {
            "mv": mv,
            "algorithm": algo,
            "seconds": float(seconds[algo][i]),
            "per_iteration_seconds": float(per_iter[algo][i]),
        }
        for i, mv in enumerate(sweep)
        for algo in config.algorithms
    ]
    assessment = {}
    for algo in config.algorithms:
        if algo == "hmsbl":
            assessment["hmsbl_variation"] = _relative_spread(_paired_minima(timed[algo][1]))
            assessment["hmsbl_variation_raw"] = _relative_spread(per_iter[algo])
        else:
            assessment["msbl_strictly_increasing"] = bool(all(
                b > a for a, b in zip(per_iter[algo], per_iter[algo][1:])))
    return rows, assessment


def run_experiment(config: ExperimentConfig) -> "ResultRecord":
    """Dispatch a validated config to its scenario and collect a record."""
    record = ResultRecord(
        experiment=config.experiment,
        config=config.to_dict(),
        tool_version=__version__,
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    if config.experiment == "exp1":
        rows, assessment = run_bench(config)
        record.timing = rows
        record.aggregate["timing"] = assessment
        scatter_trial = _generic_trial(config, 0)
        record.trials = [scatter_trial]
        record.scatter = _scatter_rows(scatter_trial)
        _collect_errors(record)
        return record

    if config.experiment == "exp3":
        record.trials = _map_trials(_budget_curve_trial, config)
        horizon = max(config.budgets)
        for algo in config.algorithms:
            stack = np.array([t["curves"][algo] for t in record.trials])
            mean_curve = np.nanmean(stack, axis=0)
            record.convergence[algo] = [[i + 1, float(r)] for i, r in enumerate(mean_curve)]
        record.aggregate["budgets"] = {
            str(b): {
                algo: float(np.nanmean([t["at_budgets"][str(b)][algo] for t in record.trials]))
                for algo in config.algorithms
            }
            for b in config.budgets
        }
        record.aggregate["horizon"] = horizon
        return record

    # exp2 and custom share the generic engine
    record.trials = _map_trials(_generic_trial, config)
    for algo in config.algorithms:
        entries = [t["algorithms"][algo] for t in record.trials
                   if "error" not in t["algorithms"][algo]]
        if entries:
            rmses = np.array([e["rmse"] for e in entries])
            record.aggregate[algo] = {
                "mean_rmse": float(rmses.mean()),
                "std_rmse": float(rmses.std()),
                "success_rate": float((rmses < config.success_rmse).mean()),
                "count": len(entries),
                "all_sources_within_rate": float(np.mean(
                    [e["max_source_err"] < config.success_rmse for e in entries])),
            }
        else:
            record.aggregate[algo] = {"count": 0}
    _collect_errors(record)
    return record


def _scatter_rows(trial: dict):
    rows = [{"u": u, "v": v, "is_truth": 1, "algorithm": "truth"}
            for u, v in trial["scene"]["sources"]]
    for algo, entry in trial["algorithms"].items():
        for u, v in entry.get("estimates", []):
            rows.append({"u": u, "v": v, "is_truth": 0, "algorithm": algo})
    return rows


def _collect_errors(record):
    for t in record.trials:
        for algo, entry in t.get("algorithms", {}).items():
            if "error" in entry:
                record.errors.append({"trial": t["trial"], "algorithm": algo,
                                      "error": entry["error"]})


# ---------------------------------------------------------------------------
# records and plot data


@dataclass
class ResultRecord:
    """Everything one experiment produced, JSON-serializable."""

    experiment: str
    config: dict
    tool_version: str
    created_utc: str
    trials: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    timing: list = field(default_factory=list)
    scatter: list = field(default_factory=list)
    convergence: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "tool_version": self.tool_version,
            "created_utc": self.created_utc,
            "trials": self.trials,
            "aggregate": self.aggregate,
            "timing": self.timing,
            "scatter": self.scatter,
            "convergence": self.convergence,
            "errors": self.errors,
        }

    def comparable_dict(self) -> dict:
        """The record with timestamps and wall-clock fields removed; two runs
        of the same config must agree on this exactly."""
        return _strip_volatile(self.to_dict())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=_json_default)

    @classmethod
    def load(cls, path) -> "ResultRecord":
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        return cls(**d)


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in _VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


_CSV_LAYOUT = {
    "timing": ("timing.csv", ["mv", "algorithm", "seconds", "per_iteration_seconds"]),
    "scatter": ("scatter.csv", ["u", "v", "is_truth", "algorithm"]),
    "convergence": ("convergence.csv", ["iteration", "rmse", "algorithm"]),
}


def emit_plot_data(record: ResultRecord, kind: str = "all", out_dir="."):
    """Write plot-ready CSVs from a record.

    ``kind`` is one of timing, scatter, convergence, or all.  Headers are
    always written, so an empty record yields header-only files.  Floats are
    written with repr so parsing them back is bit-exact.  Returns the paths
    written.
    """
    kinds = list(_CSV_LAYOUT) if kind == "all" else [kind]
    if any(k not in _CSV_LAYOUT for k in kinds):
        raise ValueError(f"kind must be one of {list(_CSV_LAYOUT) + ['all']}, got {kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k in kinds:
        name, header = _CSV_LAYOUT[k]
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in _csv_rows(record, k):
                writer.writerow([_csv_cell(v) for v in row])
        paths.append(path)
    return paths


def _csv_rows(record: ResultRecord, kind: str):
    if kind == "timing":
        return [[r["mv"], r["algorithm"], r["seconds"], r["per_iteration_seconds"]]
                for r in record.timing]
    if kind == "scatter":
        return [[r["u"], r["v"], r["is_truth"], r["algorithm"]] for r in record.scatter]
    rows = []
    for algo, curve in record.convergence.items():
        rows.extend([it, rmse, algo] for it, rmse in curve)
    return rows


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def run_and_save(config: ExperimentConfig, out_dir=None):
    """Run an experiment, write record.json plus the plot CSVs, and return
    (record, written paths)."""
    record = run_experiment(config)
    target = out_dir or config.output_dir or "."
    os.makedirs(target, exist_ok=True)
    record_path = os.path.join(target, "record.json")
    record.write(record_path)
    paths = [record_path] + emit_plot_data(record, "all", target)
    return record, paths
