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
import copy
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
from .msbl import msbl_estimates
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

GENERATOR_KINDS = ("grid_product", "random_on_grid")

_REQUIRED = object()

# The config schema: one row (JSON path, kind, minimum, default) per field,
# in the key order of ExperimentConfig.to_dict.
#   kind     "int" or "number" (at least ``minimum`` when one is given;
#            numbers become floats), "bool", "str", "lambda" (a positive
#            number or "oracle"), "ints" (a non-empty list of "int"),
#            "object" (checked against the rows under its path), "objects"
#            (a non-empty list of objects whose rows sit under ``path[]``),
#            a tuple (one of its values) or a list (a non-empty list drawn
#            from its values).
#   path     ``<algo>`` stands for every name in ALGORITHMS; the rows under
#            ``path:K`` apply only to an object whose ``kind`` is K.
#   default  _REQUIRED, None (optional and left out when absent, as is a
#            JSON null), or the value an absent field takes.
# Keys with no row are rejected at every level.
_FIELDS = (
    ("experiment", EXPERIMENT_KINDS, None, _REQUIRED),
    ("seed", "int", 0, _REQUIRED),
    ("array", "object", None, _REQUIRED),
    ("array.nx", "int", 1, _REQUIRED),
    ("array.ny", "int", 1, _REQUIRED),
    ("scene", "object", None, _REQUIRED),
    ("scene.snr_db", "number", None, _REQUIRED),
    ("scene.num_snapshots", "int", 1, _REQUIRED),
    ("scene.sources", "objects", None, None),
    ("scene.sources[].u", "number", None, _REQUIRED),
    ("scene.sources[].v", "number", None, _REQUIRED),
    ("scene.generator", "object", None, None),
    ("scene.generator.kind", GENERATOR_KINDS, None, _REQUIRED),
    ("scene.generator:grid_product.u_indices", "ints", 0, _REQUIRED),
    ("scene.generator:grid_product.v_indices", "ints", 0, _REQUIRED),
    ("scene.generator:random_on_grid.k", "int", 1, _REQUIRED),
    ("scene.generator:random_on_grid.min_separation", "number", 0, 0.15),
    ("grids", "object", None, _REQUIRED),
    ("grids.mu", "int", 2, _REQUIRED),
    ("grids.mv", "int", 2, _REQUIRED),
    ("grids.mv_sweep", "ints", 2, None),
    ("algorithms", list(ALGORITHMS), None, list(ALGORITHMS)),
    ("solvers", "object", None, {}),
    ("solvers.<algo>", "object", None, {}),
    ("solvers.<algo>.max_iters", "int", 1, 500),
    ("solvers.<algo>.prune_tol", "number", 0, 1e-3),
    ("solvers.<algo>.prune_mode", ("relative", "absolute"), None, "relative"),
    ("solvers.<algo>.b_loading", "number", 0, 1e-10),
    ("solvers.<algo>.cost_tol", "number", 0, 0.0),
    ("solvers.<algo>.lambda_mode", ("fixed", "adaptive"), None, "fixed"),
    ("solvers.<algo>.lambda_value", "lambda", None, "oracle"),
    ("solvers.<algo>.compress", "bool", None, True),
    ("trials", "int", 1, 1),
    ("timing", "object", None, {}),
    ("timing.repetitions", "int", 1, 5),
    ("timing.iterations", "int", 1, 60),
    ("success_rmse", "number", 0, 0.05),
    ("allocation", "ints", 1, None),
    ("budgets", "ints", 1, None),
    ("output_dir", "str", None, None),
)

# objects whose fields are ExperimentConfig attributes of their own
_GROUPS = ("array", "scene", "grids")

# record keys that vary run to run and are excluded from reproducibility
_VOLATILE_KEYS = {"created_utc", "seconds", "per_iteration_seconds", "iter_seconds",
                  "hmsbl_variation", "hmsbl_variation_raw"}


class ConfigError(ValueError):
    """A config failed validation; ``errors`` lists every problem."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)

    def __reduce__(self):
        # unpickling must rebuild from the list, not from the joined message
        return type(self), (self.errors,)


def _attributes():
    """(group or None, name) of every ExperimentConfig attribute, in table order."""
    for path, *_ in _FIELDS:
        parts = path.split(".")
        if len(parts) == 1 and path not in _GROUPS:
            yield None, path
        elif len(parts) == 2 and parts[0] in _GROUPS:
            yield parts[0], parts[1]


@dataclass
class ExperimentConfig:
    """A validated config.  The attributes are the top-level fields of
    ``_FIELDS``, with the fields of array, scene and grids standing in for
    those objects; an absent optional field is None.  ``sources`` holds
    {"u", "v"} objects and ``solvers`` one spec per name in ``algorithms``.
    Build one with ``validate_config``, which fills in the defaults."""

    experiment: str
    seed: int
    nx: int
    ny: int
    snr_db: float
    num_snapshots: int
    sources: list
    generator: dict
    mu: int
    mv: int
    mv_sweep: list
    algorithms: list
    solvers: dict
    trials: int
    timing: dict
    success_rmse: float
    allocation: list
    budgets: list
    output_dir: str

    def k_sources(self) -> int:
        if self.sources is not None:
            return len(self.sources)
        if self.generator["kind"] == "grid_product":
            return len(self.generator["u_indices"]) * len(self.generator["v_indices"])
        return self.generator["k"]

    def to_dict(self) -> dict:
        out = {}
        for group, name in _attributes():
            value = getattr(self, name)
            if value is not None:
                (out.setdefault(group, {}) if group else out)[name] = copy.deepcopy(value)
        return out


def _rows_under(prefix):
    """(key, path, kind, minimum, default) of the table rows directly under
    the table path ``prefix``."""
    rows = []
    for path, kind, minimum, default in _FIELDS:
        parent, _, key = path.rpartition(".")
        if parent == prefix:
            rows.extend((name, path, kind, minimum, default)
                        for name in (ALGORITHMS if key == "<algo>" else (key,)))
    return rows


def _check_object(errs, raw, where, prefix):
    """The JSON object ``raw``, found at ``where`` and described by the rows
    under ``prefix``, in table order with defaults filled in; None after
    appending its errors to ``errs``."""
    if not isinstance(raw, dict):
        errs.append(f"{where}: expected an object")
        return None
    rows = _rows_under(prefix)
    kinds = next((kind for key, _, kind, _, _ in rows if key == "kind"), None)
    if kinds is not None:
        if raw.get("kind") not in kinds:
            errs.append(f"{where}.kind: must be one of {list(kinds)}, got {raw.get('kind')!r}")
            return None
        rows += _rows_under(f"{prefix}:{raw['kind']}")
    unknown = set(raw) - {key for key, *_ in rows}
    if unknown:
        errs.append(f"{where or 'config'}: unknown keys {sorted(unknown)}")
    out, ok = {}, not unknown
    for key, path, kind, minimum, default in rows:
        at = f"{where}.{key}" if where else key
        value = raw.get(key)
        if value is None and default is None:  # optional: absent or null
            continue
        if key not in raw:
            if default is _REQUIRED:
                errs.append(f"{at}: required field is missing")
                ok = False
                continue
            value = copy.deepcopy(default)
        value = _check_value(errs, value, at, path, kind, minimum)
        ok = ok and value is not None
        out[key] = value
    return out if ok else None


def _check_value(errs, value, at, path, kind, minimum):
    """``value`` checked against one row's kind and minimum; None after
    appending an error to ``errs``."""
    if kind == "object":
        return _check_object(errs, value, at, path)
    if kind in ("ints", "objects"):
        if not isinstance(value, list) or not value:
            errs.append(f"{at}: expected a non-empty list")
            return None
        item_path, item_kind = (f"{path}[]", "object") if kind == "objects" else (path, "int")
        items = [_check_value(errs, v, f"{at}[{i}]", item_path, item_kind, minimum)
                 for i, v in enumerate(value)]
        return None if any(v is None for v in items) else items
    if isinstance(kind, list):
        if not isinstance(value, list) or not value or any(v not in kind for v in value):
            errs.append(f"{at}: must be a non-empty subset of {kind}")
            return None
        repeated = next((v for i, v in enumerate(value) if v in value[:i]), None)
        if repeated is not None:
            errs.append(f"{at}: repeated name {repeated!r}")
            return None
        return list(value)
    if isinstance(kind, tuple):
        if value not in kind:
            errs.append(f"{at}: must be one of {list(kind)}, got {value!r}")
            return None
        return value
    if kind == "bool" or kind == "str":
        if not isinstance(value, bool if kind == "bool" else str):
            errs.append(f"{at}: expected {'true or false' if kind == 'bool' else 'a string'}")
            return None
        return value
    if kind == "lambda" and value == "oracle":
        return value
    if isinstance(value, bool) or not isinstance(value, int if kind == "int" else (int, float)):
        errs.append(f"{at}: expected {'an integer' if kind == 'int' else 'a number'}, got {value!r}")
        return None
    if kind == "lambda" and not value > 0:
        errs.append(f"{at}: must be > 0 or 'oracle'")
        return None
    if minimum is not None and value < minimum:
        errs.append(f"{at}: must be >= {minimum}, got {value}")
        return None
    return value if kind == "int" else float(value)


def validate_config(text: str):
    """Parse and validate a JSON config against ``_FIELDS``, then the rules
    that span fields.

    Returns (ExperimentConfig, []) on success or (None, errors) where every
    entry names the offending field.  Never raises on bad input.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"config: invalid JSON ({exc})"]
    if not isinstance(raw, dict):
        return None, ["config: top level must be an object"]
    errs = []
    doc = _check_object(errs, raw, "", "")
    if doc is None:
        return None, errs
    fields = {name: (doc[group] if group else doc).get(name) for group, name in _attributes()}
    fields["solvers"] = {algo: fields["solvers"][algo] for algo in fields["algorithms"]}
    config = ExperimentConfig(**fields)
    errs = _cross_validate(config)
    return (None, errs) if errs else (config, [])


def _cross_validate(config):
    """The rules that span fields, on a config whose fields all passed."""
    if (config.sources is None) == (config.generator is None):
        return ["scene: exactly one of 'sources' or 'generator' is required"]
    errs = []
    if "hmsbl" in config.algorithms and config.ny < 2:
        errs.append(f"array.ny: hmsbl needs ny >= 2 (it places at most ny - 1 sources "
                    f"per u-bin), got {config.ny}")
    if config.experiment == "exp1" and config.mv_sweep is None:
        errs.append("grids.mv_sweep: required for exp1")
    if config.experiment == "exp3":
        if config.budgets is None:
            errs.append("budgets: required non-empty list for exp3")
        else:
            errs.extend(f"solvers.{algo}.max_iters: below the largest budget {max(config.budgets)}"
                        for algo, spec in config.solvers.items()
                        if spec["max_iters"] < max(config.budgets))
    for i, source in enumerate(config.sources or ()):
        u, v = source["u"], source["v"]
        if abs(u) > 1 or abs(v) > 1:
            errs.append(f"scene.sources[{i}]: components must lie in [-1, 1]")
        elif u**2 + v**2 > 1.0 + 1e-12:
            errs.append(f"scene.sources[{i}]: u^2 + v^2 = {u**2 + v**2} exceeds 1")
    gen = config.generator
    if gen is not None and gen["kind"] == "grid_product":
        grid_u = uniform_grid(config.mu)
        grid_v = uniform_grid(config.mv)
        grid_errs = [f"scene.generator.{key}: index {i} outside the {grid.size}-point grid"
                     for key, grid in (("u_indices", grid_u), ("v_indices", grid_v))
                     for i in gen[key] if i >= grid.size]
        if not grid_errs:
            for iu in gen["u_indices"]:
                for iv in gen["v_indices"]:
                    u, v = grid_u.points[iu], grid_v.points[iv]
                    if u**2 + v**2 > 1.0:
                        grid_errs.append(
                            f"scene.generator: grid point ({u:.4f}, {v:.4f}) violates u^2 + v^2 <= 1")
        errs.extend(grid_errs)
    if gen is not None and gen["kind"] == "random_on_grid" and gen["k"] > min(config.mu, config.mv):
        errs.append(f"scene.generator.k: must be <= min(mu, mv) = {min(config.mu, config.mv)}, "
                    f"got {gen['k']}")
    if config.allocation is not None:
        if any(c > config.ny - 1 for c in config.allocation):
            errs.append(f"allocation: counts must be <= ny - 1 = {config.ny - 1}")
        if sum(config.allocation) != config.k_sources():
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
        sources = [Source(s["u"], s["v"]) for s in config.sources]
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
    spec = dict(config.solvers[algo])
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
    spreading the counts evenly over the strongest active blocks."""
    masked = np.where(state.active, state.gamma, 0.0)
    if config.allocation is not None:
        sel = select_peaks(masked, grid_u, len(config.allocation))
        return PeakAllocation(tuple(zip(sel.indices, config.allocation)))
    sel = select_peaks(masked, grid_u, min(k, grid_u.size))
    idx = [i for i in sel.indices if state.active[i] and state.gamma[i] > 0]
    if len(idx) >= k:
        return PeakAllocation(tuple((i, 1) for i in idx[:k]))
    # fewer usable peaks than sources: spread the counts evenly over the
    # active blocks, stronger ones first; a block holds at most ny - 1
    order = sorted(np.flatnonzero(state.active), key=lambda i: -state.gamma[i])
    n = len(order)
    if k > n * (state.block_size - 1):
        raise solver.SolverError(f"cannot allocate {k} sources across {n} active blocks")
    return PeakAllocation(tuple((order[j], k // n + (j < k % n)) for j in range(min(n, k))))


def _algorithm(config: ExperimentConfig, algo: str, pair, k: int):
    """(dictionary, estimate) of one algorithm: the dictionary its EM runs
    on, and ``estimate(state) -> (pairs, provenance)``, which reads the k
    (u, v) estimates off a state of that EM as an array plus the block
    solver's rooting provenance (None for the flat baseline).  This is the
    only place that knows how the algorithms differ."""
    if algo == "hmsbl":
        def estimate(state):
            est = pair_estimates(state, pair.grid_u, _hmsbl_allocation(state, pair.grid_u, config, k))
            return est.as_array(), [asdict(p) for p in est.provenance]
        return pair, estimate
    kdict = kron_dictionary(pair, prune=True)
    return kdict, lambda state: (np.array(msbl_estimates(state, kdict.column_labels, k)), None)


# ---------------------------------------------------------------------------
# trial engines

# what one algorithm's failure on one trial raises; the trial records it
# and the experiment goes on
_TRIAL_ERRORS = (solver.SolverError, MatchCountError, ValueError)


def _trial_inputs(config: ExperimentConfig, trial: int):
    """(scene, snapshots, dictionary pair) of one trial."""
    scene = scene_for_trial(config, trial)
    ura = UraConfig(config.nx, config.ny)
    y = synthesize_snapshots(scene, ura)
    return scene, y, dictionary_pair(ura, uniform_grid(config.mu), uniform_grid(config.mv))


def _generic_trial(config: ExperimentConfig, trial: int) -> dict:
    scene, y, pair = _trial_inputs(config, trial)
    out = {
        "trial": trial,
        "scene": {"sources": [[s.u, s.v] for s in scene.sources], "seed": scene.seed},
        "algorithms": {},
    }
    for algo in config.algorithms:
        try:
            dictionary, estimate = _algorithm(config, algo, pair, scene.k)
            state, _, diag = solver.run(y, dictionary, _params_for(config, algo))
            pairs, provenance = estimate(state)
            report = match_and_rmse(pairs, scene)
        except _TRIAL_ERRORS as exc:
            out["algorithms"][algo] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
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
    return out


def _budget_curve_trial(config: ExperimentConfig, trial: int) -> dict:
    """One exp3 trial: rmse after every EM iteration for each algorithm.
    An algorithm whose solve fails keeps the values of the iterations that
    ran, is NaN after them and gets an entry in the trial's ``errors``; so
    does one with no estimate at any iteration, naming the last failure."""
    scene, y, pair = _trial_inputs(config, trial)
    horizon = max(config.budgets)
    truth = np.array([[s.u, s.v] for s in scene.sources])
    curves, errors = {}, {}
    for algo in config.algorithms:
        params = _params_for(config, algo, overrides={"max_iters": horizon})
        curve, failures = [], []
        try:
            dictionary, estimate = _algorithm(config, algo, pair, scene.k)

            def observe(it, state, post):
                try:
                    curve.append(match_and_rmse(estimate(state)[0], truth).rmse)
                except _TRIAL_ERRORS as exc:
                    failures.append(exc)
                    curve.append(float("nan"))
            solver.run(y, dictionary, params, on_iteration=observe)
        except _TRIAL_ERRORS as exc:
            errors[algo] = f"{type(exc).__name__}: {exc}"
            curve += [float("nan")] * (horizon - len(curve))
        else:
            if len(failures) == len(curve):
                errors[algo] = (f"no estimate at any of {len(curve)} iterations; last: "
                                f"{type(failures[-1]).__name__}: {failures[-1]}")
            curve += curve[-1:] * (horizon - len(curve))  # early convergence holds the last value
        curves[algo] = curve
    out = {
        "trial": trial,
        "scene": {"sources": truth.tolist(), "seed": scene.seed},
        "curves": curves,
        "at_budgets": {
            str(b): {algo: curves[algo][b - 1] for algo in config.algorithms}
            for b in config.budgets
        },
    }
    if errors:
        out["errors"] = errors
    return out


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
            dictionary, _ = _algorithm(config, algo, pair, scene.k)
            params = _params_for(config, algo, overrides=overrides)
            runs[algo].append(functools.partial(solver.run, y, dictionary, params))

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
            mean_curve = _mean_over_trials([t["curves"][algo] for t in record.trials])
            record.convergence[algo] = [[i + 1, float(r)] for i, r in enumerate(mean_curve)]
        record.aggregate["budgets"] = {
            str(b): {
                algo: float(_mean_over_trials([t["at_budgets"][str(b)][algo] for t in record.trials]))
                for algo in config.algorithms
            }
            for b in config.budgets
        }
        record.aggregate["horizon"] = horizon
        _collect_errors(record)
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


def _mean_over_trials(values):
    """``np.nanmean`` over the first axis, but NaN without a warning where
    every trial is NaN: the record's ``errors`` already says why."""
    values = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.nansum(values, axis=0) / np.sum(~np.isnan(values), axis=0)


def _scatter_rows(trial: dict):
    rows = [{"u": u, "v": v, "is_truth": 1, "algorithm": "truth"}
            for u, v in trial["scene"]["sources"]]
    for algo, entry in trial["algorithms"].items():
        for u, v in entry.get("estimates", []):
            rows.append({"u": u, "v": v, "is_truth": 0, "algorithm": algo})
    return rows


def _collect_errors(record):
    for t in record.trials:
        errors = {algo: entry["error"] for algo, entry in t.get("algorithms", {}).items()
                  if "error" in entry}
        errors.update(t.get("errors", {}))
        for algo, error in errors.items():
            record.errors.append({"trial": t["trial"], "algorithm": algo, "error": error})


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
