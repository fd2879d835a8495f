"""Benchmark of hmsbl on three paper workloads.

    python3 perfbench/run.py --workload shared-u --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` and driven the way users drive it: a validated config per trial,
``hmsbl.experiments.run_experiment``, and the returned record.  Each run
measures one workload for ``--seconds`` seconds, checks every result,
prints a metric table and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics of a traced run (see spans.py).  A result
file with the environment fingerprint is written to ``perfbench/out/``.
The exit code is 0 when every check passed, 1 when one failed and 2 when
the benchmark could not start.  Workloads and metrics: perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "shared-u": os.path.join(ROOT, "configs", "exp2.json"),
    "budget-curve": os.path.join(ROOT, "configs", "exp3.json"),
    "large-array": os.path.join(HERE, "large_array.json"),
}

# fresh processes timed from start to a validated config, spread over the
# timed loop; setup_s is their minimum, which tracks the host's fast phases
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 60

# recorded, never set: the program's threading policy is part of what is measured
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from hmsbl import experiments
with open(sys.argv[2], encoding="utf-8") as fh:
    config, errors = experiments.validate_config(fh.read())
sys.exit(1 if errors else 0)
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here: no program to import, or a bad spec."""


def measure_setup(config_path):
    """Seconds from process start to a validated config in a fresh
    interpreter: interpreter start, imports and config validation."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, config_path],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return seconds


def import_program():
    sys.path.insert(0, SRC)
    try:
        from hmsbl import experiments
    except ImportError as exc:
        raise BenchmarkError(f"cannot import hmsbl from {SRC}: {exc}") from exc
    if not os.path.abspath(experiments.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"hmsbl was imported from {experiments.__file__}, not {SRC}")
    return experiments


def trial_seed(seed, index):
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Workload:
    """One workload's base config and how to run and check one trial.

    Trial ``i`` is the base config with ``trials: 1`` and a config seed
    derived from (workload seed, i), so a seed fixes every input.
    """

    def __init__(self, name, experiments, seed):
        self.experiments = experiments
        self.seed = seed
        self.path = WORKLOADS[name]
        with open(self.path, encoding="utf-8") as fh:
            self.base = json.load(fh)
        self.base["trials"] = 1
        self.budget_curve = self.base["experiment"] == "exp3"

    def _run(self, cfg):
        config, errors = self.experiments.validate_config(json.dumps(cfg))
        if errors:
            raise BenchmarkError(f"config rejected: {errors}")
        return config, self.experiments.run_experiment(config)

    def trial(self, index):
        """Run trial ``index``: config to matched RMSE.  Never raises."""
        cfg = dict(self.base, seed=trial_seed(self.seed, index))
        out = {"index": index, "seed": cfg["seed"]}
        t0 = time.perf_counter()
        try:
            config, record = self._run(cfg)
            out.update(self._budget_outcome(record, config) if self.budget_curve
                       else self._generic_outcome(record, config))
        except Exception:  # one broken trial is reported, the rest still run
            out.update(ok=False, error=traceback.format_exc(limit=3))
            record = None
        out["seconds"] = time.perf_counter() - t0
        out["comparable"] = record.comparable_dict() if record is not None else None
        return out

    def _generic_outcome(self, record, config):
        entry = record.trials[0]["algorithms"]["hmsbl"]
        if "error" in entry:
            return {"ok": False, "error": entry["error"]}
        within = (entry["max_source_err"] < config.success_rmse
                  and len(entry["estimates"]) == config.k_sources())
        return {
            "ok": within and math.isfinite(entry["rmse"]) and not record.errors,
            "rmse": entry["rmse"],
            "all_within": within,
            "em": {"hmsbl": [entry["seconds"], entry["n_iters"]]},
        }

    def _budget_outcome(self, record, config):
        at = record.trials[0]["at_budgets"]
        finite = all(math.isfinite(v) for row in at.values() for v in row.values())
        rmse = at[str(max(config.budgets))]["hmsbl"]
        return {"ok": finite, "rmse": rmse, "all_within": rmse < config.success_rmse,
                "at_budgets": at}

    def iteration_timing(self, index):
        """Per-iteration times for the budget-curve scene of trial ``index``.

        exp3 records carry no wall-clock fields, so the same scene runs
        once more as a ``custom`` config, whose record gives seconds and
        n_iters per algorithm.  M-SBL costs three times what H-MSBL does
        here and its figure is table-only, so it runs on every fourth
        trial; H-MSBL runs on every trial.  Never raises.
        """
        cfg = {k: v for k, v in self.base.items() if k != "budgets"}
        cfg.update(experiment="custom", seed=trial_seed(self.seed, index),
                   algorithms=self.base["algorithms"] if index % 4 == 0 else ["hmsbl"])
        try:
            _, record = self._run(cfg)
            entries = record.trials[0]["algorithms"]
            return {"ok": not record.errors,
                    "em": {a: [e["seconds"], e["n_iters"]] for a, e in entries.items()
                           if "error" not in e}}
        except Exception:
            return {"ok": False, "error": traceback.format_exc(limit=3)}


def run_for(workload, seconds, tracer=None, iteration_timing=False, setup=None):
    """Trials 0, 1, 2, ... until ``seconds`` have passed (at least one).

    Side measurements run between trials, so that they see the same phases
    of the host as the trials do: the iteration-timing run after every trial
    when ``iteration_timing`` is set, and, when a ``setup`` list is given, a
    set-up sample appended to it whenever fewer than SETUP_SAMPLES spread
    evenly over ``seconds`` have been taken.  Returns the trial results and
    the loop's wall time without the side measurements.
    """
    results = []
    side = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while not results or time.perf_counter() < deadline:
        index = len(results)
        if tracer is None:
            result = workload.trial(index)
        else:
            with tracer.trial_span(index):
                result = workload.trial(index)
        t0 = time.perf_counter()
        if iteration_timing:
            timing = workload.iteration_timing(index)
            result["em"] = timing.get("em", {})
            if not timing["ok"]:
                result.update(ok=False, error=timing.get("error", "iteration-timing run recorded errors"))
        if setup is not None and len(setup) < SETUP_SAMPLES * (t0 - start) / seconds:
            setup.append(measure_setup(workload.path))
        side += time.perf_counter() - t0
        results.append(result)
    return results, time.perf_counter() - start - side


def check_repeats(reference, results):
    """Every trial with the reference's index must reproduce its record."""
    for r in results:
        if r["index"] == reference["index"] and r["comparable"] != reference["comparable"]:
            r["ok"] = False
            r["error"] = "record differs from an earlier run of the same trial"


def budget_criterion(results):
    """Paper criterion 7 over the run's trials: mean H-MSBL RMSE <= mean
    M-SBL RMSE at every budget.  It is a statement about means: on a single
    scene M-SBL can land exactly on the grid and beat rooting.  Returns
    (means per budget, passed)."""
    rows = [r["at_budgets"] for r in results if "at_budgets" in r]
    if not rows:
        return {}, False
    means = {b: {a: statistics.fmean(row[b][a] for row in rows) for a in rows[0][b]}
             for b in rows[0]}
    return means, all(m["hmsbl"] <= m["msbl"] for m in means.values())


def end_to_end(results, loop_s, setup, attempted, failed):
    """End-to-end metrics with sample counts: {name: (value, unit, n)}."""
    seconds = [r["seconds"] for r in results]
    good = [r for r in results if "rmse" in r]
    out = {
        "trial_s": (statistics.median(seconds), "s", len(seconds)),
        "trials_per_s": (len(seconds) / loop_s, "1/s", len(seconds)),
        "setup_s": (min(setup), "s", len(setup)),
        "rmse_mean": (statistics.fmean(r["rmse"] for r in good) if good else math.nan,
                      "1", len(good)),
        "success_rate": (sum(r["all_within"] for r in good) / len(results), "1", len(results)),
        "failed_frac": (failed / attempted, "1", attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
    }
    # EM iterations run back to back, so their time is pooled over the run,
    # as work done per second; on a host whose speed switches between two
    # levels a median of per-trial figures jumps between them
    for algo in ("hmsbl", "msbl"):
        em = [r["em"][algo] for r in results if algo in r.get("em", {})]
        if em:
            out[f"{algo}_iter_ms"] = (1e3 * sum(s for s, _ in em) / sum(n for _, n in em),
                                      "ms", len(em))
    return out


def select(measured, kind):
    """The BENCHMARK.json metrics of ``kind``, each measured with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    out = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchmarkError(f"{kind} metric {m['name']} [{m['unit']}] was not measured: {got}")
        out[m["name"]] = got
    return out


def git_sha():
    """Commit of the checkout; None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(args, workload, workers_env):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "process_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "hmsbl_workers_env_removed": workers_env,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.base,
    }


def print_end_to_end(measured):
    print(f"{'metric':<16}{'value':>14}  {'unit':<5}{'n':>5}")
    for name, (value, unit, n) in measured.items():
        print(f"{name:<16}{value:>14.6g}  {unit:<5}{n:>5}")


def print_layers(detail):
    print(f"{'layer metric':<30}{'value':>12}  {'unit':<6}{'calls/trial':>12}"
          f"{'busy ms/trial':>15}{'share':>8}")
    for name, d in detail.items():
        if name == "accounting":
            continue
        cells = [_cell(d["value"], "{:.6g}"), _cell(d["calls_per_trial"], "{:g}"),
                 _cell(d["busy_s_per_trial"] and 1e3 * d["busy_s_per_trial"], "{:.4g}"),
                 _cell(d["share_of_trial"] and 100 * d["share_of_trial"], "{:.1f}%")]
        print(f"{name:<30}{cells[0]:>12}  {d['unit']:<6}{cells[1]:>12}{cells[2]:>15}{cells[3]:>8}")


def _cell(value, fmt):
    return "-" if value is None else fmt.format(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the program's process pool is out of scope: every trial runs in this process
    workers_env = os.environ.pop("HMSBL_WORKERS", None)
    try:
        setup = [measure_setup(WORKLOADS[args.workload])]
        workload = Workload(args.workload, import_program(), args.seed)
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    # the warm-up trial fills lazy state and is the reference for the repeat check
    warm = workload.trial(0)
    result = {"setup_s_samples": setup}
    if args.trace:
        from spans import Tracer, layer_metrics
        untraced, loop_s = run_for(workload, args.seconds / 2, setup=setup)
        tracer = Tracer()
        with tracer.installed():
            traced, _ = run_for(workload, args.seconds / 2, tracer)
        results = untraced + traced
        layers, detail = layer_metrics(tracer)
        base_s = statistics.median(r["seconds"] for r in untraced)
        traced_s = statistics.median(r["seconds"] for r in traced)
        layers["trace.trial_s"] = {"value": traced_s, "unit": "s"}
        layers["trace.untraced_trial_s"] = {"value": base_s, "unit": "s"}
        detail["accounting"]["tracing_overhead_frac"] = traced_s / base_s - 1
        result.update(layers=detail, spans=tracer.spans, counters=tracer.counters)
    else:
        untraced, loop_s = run_for(workload, args.seconds, iteration_timing=workload.budget_curve,
                                   setup=setup)
        results = untraced
    check_repeats(warm, results)

    attempted = 1 + len(results)
    failures = [f"trial {r['index']} (config seed {r['seed']}): {r.get('error', 'check failed')}"
                for r in [warm] + results if not r["ok"]]
    if workload.budget_curve:
        means, passed = budget_criterion(results)
        result["budget_means"] = means
        if not passed:
            failures.append(f"criterion 7, mean RMSE per budget: {means}")
    failed = len(failures)
    measured = end_to_end(untraced, loop_s, setup, attempted, failed)
    result.update(
        fingerprint=fingerprint(args, workload, workers_env),
        end_to_end={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in measured.items()},
        failures=failures,
        warmup={k: v for k, v in warm.items() if k != "comparable"},
        trials=[{k: v for k, v in r.items() if k != "comparable"} for r in results],
    )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  trials {len(results)}  failed {failed}/{attempted}")
    for failure in failures:
        print(f"FAILED {failure}")
    try:
        if args.trace:
            print_layers(detail)
            acc = detail["accounting"]
            print(f"self times / traced trial time: {acc['self_time_over_trial_min']:.6f}"
                  f"..{acc['self_time_over_trial_max']:.6f}  probes {1e3 * acc['probe_s_per_trial']:.4g}"
                  f" ms/trial  tracing overhead {100 * acc['tracing_overhead_frac']:+.1f}%"
                  f" of untraced trial_s")
            metrics = select(layers, "per_layer")
        else:
            print_end_to_end(measured)
            metrics = select({k: {"value": v, "unit": u} for k, (v, u, _) in measured.items()},
                             "end_to_end")
    except BenchmarkError as exc:
        print(f"benchmark spec mismatch: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=float)
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
