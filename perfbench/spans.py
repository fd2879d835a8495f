"""Span tracing for the traced benchmark run.

The tracer wraps hmsbl's public functions at the names their callers look
them up (``hmsbl.solver.run``, which ``msbl_run`` also goes through, and the
names bound in ``hmsbl.experiments``), keeps every span in memory and turns
them into per-layer metrics.  Nothing here is installed in an untraced run.

The EM core's private stages cannot be wrapped, so the public stage
functions (``e_step``, ``ml_cost``, ``update_gamma``, ``update_b``) are
probed instead: on a sample of the iterations ``solver.run`` visits, its
``on_iteration`` hook calls them on the same state, posterior and compressed
snapshots.  Probe spans are children of the run span, so the run's self time
stays the EM core's own work and the probes show up as tracing overhead.
"""

import statistics
import time
from contextlib import contextmanager

# probe calls per EM run; spread evenly over max_iters
PROBES_PER_RUN = 6
_PROBED = {"e_step", "ml_cost", "update_gamma", "update_b"}

# (metric, unit, kind, source).  Kinds, each a median over traced trials
# unless noted:
#   busy      inclusive time of the spans named `source` in one trial
#   self      self time of those spans in one trial
#   per_call  time of one call, median over every call (the probed stages)
#   calls     number of spans named `source` in one trial
#   count     counter `source` summed over one trial
#   ratio     counter source[0] over counter source[1], pooled over trials
LAYER_METRICS = [
    ("solver.self_ms", "ms", "self", "solver.run"),
    ("solver.e_step_ms", "ms", "per_call", "solver.e_step"),
    ("solver.ml_cost_ms", "ms", "per_call", "solver.ml_cost"),
    ("solver.update_gamma_ms", "ms", "per_call", "solver.update_gamma"),
    ("solver.update_b_ms", "ms", "per_call", "solver.update_b"),
    ("solver.update_lambda_ms", "ms", "busy", "solver.update_lambda"),
    ("solver.init_state_ms", "ms", "busy", "solver.init_state"),
    ("solver.compress_ms", "ms", "busy", "solver.compress_snapshots"),
    ("solver.prune_us", "us", "busy", "solver.prune"),
    ("solver.iters", "count", "count", "solver.iters"),
    ("solver.converged_frac", "count", "ratio", ("solver.converged", "solver.runs")),
    ("solver.active_frac", "count", "ratio", ("solver.active", "solver.iters")),
    ("msbl.self_ms", "ms", "self", "msbl.run"),
    ("msbl.e_step_ms", "ms", "per_call", "msbl.e_step"),
    ("msbl.ml_cost_ms", "ms", "per_call", "msbl.ml_cost"),
    ("msbl.update_gamma_ms", "ms", "per_call", "msbl.update_gamma"),
    ("msbl.active_frac", "count", "ratio", ("msbl.active", "msbl.iters")),
    ("pairing.select_peaks_us", "us", "busy", "pairing.select_peaks"),
    ("pairing.root_music_us", "us", "busy", "pairing.root_music_v"),
    ("pairing.pair_estimates_ms", "ms", "busy", "pairing.pair_estimates"),
    ("pairing.calls", "count", "calls", "pairing.pair_estimates"),
    ("pairing.low_confidence_frac", "count", "ratio", ("pairing.low_confidence", "pairing.rootings")),
    ("pairing.fallback_frac", "count", "ratio", ("pairing.fallback", "pairing.selections")),
    ("metrics.match_ms", "ms", "busy", "metrics.match_and_rmse"),
    ("metrics.match_calls", "count", "calls", "metrics.match_and_rmse"),
    ("dictionary.pair_ms", "ms", "busy", "dictionary.dictionary_pair"),
    ("dictionary.kron_ms", "ms", "busy", "dictionary.kron_dictionary"),
    ("dictionary.flat_columns", "count", "count", "dictionary.flat_columns"),
    ("signal_model.synthesize_ms", "ms", "busy", "signal_model.synthesize_snapshots"),
    ("experiments.validate_ms", "ms", "busy", "experiments.validate_config"),
    ("experiments.self_ms", "ms", "self", ("trial", "experiments.run_experiment")),
]

_SCALE = {"ms": 1e3, "us": 1e6, "s": 1.0}

TRIAL_SPAN = "trial"


class Tracer:
    """In-memory spans ``[id, parent, trial, name, start, end]`` plus
    per-trial counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.trial = None
        self._stack = []
        self._layer = "solver"
        self._data = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.trial, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, key, value=1):
        per_trial = self.counters.setdefault(self.trial, {})
        per_trial[key] = per_trial.get(key, 0) + value

    @contextmanager
    def trial_span(self, trial):
        self.trial = trial
        try:
            with self.span(TRIAL_SPAN):
                yield
        finally:
            self.trial = None

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, after=None, layered=False):
        """Wrap ``fn`` in a span.  A ``layered`` name is a stage of
        ``solver.run`` and takes the running layer's prefix (solver or msbl)."""
        def wrapper(*args, **kwargs):
            with self.span(f"{self._layer}.{name}" if layered else name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_run(self, run, solver, flat_type):
        def traced_run(y, dictionary, params, on_iteration=None):
            layer = "msbl" if isinstance(dictionary, flat_type) else "solver"
            stride = max(1, params.max_iters // PROBES_PER_RUN)
            outer = (self._layer, self._data)
            self._layer, self._data = layer, y

            def hook(it, state, post):
                self.count(f"{layer}.iters")
                self.count(f"{layer}.active", float(state.active.mean()))
                if (it - 1) % stride == 0:
                    self._probe(solver, layer, dictionary, params, state, post)
                if on_iteration is not None:
                    on_iteration(it, state, post)

            try:
                with self.span(f"{layer}.run"):
                    result = run(y, dictionary, params, on_iteration=hook)
            finally:
                self._layer, self._data = outer
            self.count(f"{layer}.runs")
            self.count(f"{layer}.converged", int(result[2].converged))
            return result
        traced_run.__wrapped__ = run
        return traced_run

    def _probe(self, solver, layer, dictionary, params, state, post):
        data = self._data
        with self.span(f"{layer}.e_step"):
            solver.e_step(data, state, dictionary)
        with self.span(f"{layer}.ml_cost"):
            solver.ml_cost(data, state, dictionary)
        with self.span(f"{layer}.update_gamma"):
            solver.update_gamma(post, state, data.n_snapshots, params.b_loading)
        if layer == "solver":
            with self.span(f"{layer}.update_b"):
                solver.update_b(post, state, data.n_snapshots)

    def _set_data(self, out):
        self._data = out

    def _count_selection(self, sel):
        self.count("pairing.selections")
        self.count("pairing.fallback", int(sel.fallback))

    def _count_rooting(self, est):
        self.count("pairing.rootings")
        self.count("pairing.low_confidence", int(est.low_confidence))

    def _count_columns(self, kdict):
        self.count("dictionary.flat_columns", kdict.size)

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        from hmsbl import dictionary, experiments, pairing, solver

        patches = [
            (experiments, "validate_config", self._timed("experiments.validate_config", experiments.validate_config)),
            (experiments, "run_experiment", self._timed("experiments.run_experiment", experiments.run_experiment)),
            (experiments, "synthesize_snapshots",
             self._timed("signal_model.synthesize_snapshots", experiments.synthesize_snapshots)),
            (experiments, "dictionary_pair", self._timed("dictionary.dictionary_pair", experiments.dictionary_pair)),
            (experiments, "kron_dictionary",
             self._timed("dictionary.kron_dictionary", experiments.kron_dictionary, self._count_columns)),
            (experiments, "select_peaks",
             self._timed("pairing.select_peaks", experiments.select_peaks, self._count_selection)),
            (experiments, "pair_estimates", self._timed("pairing.pair_estimates", experiments.pair_estimates)),
            (pairing, "root_music_v",
             self._timed("pairing.root_music_v", pairing.root_music_v, self._count_rooting)),
            (experiments, "match_and_rmse", self._timed("metrics.match_and_rmse", experiments.match_and_rmse)),
            (solver, "run", self._wrap_run(solver.run, solver, dictionary.KronDictionary)),
            (solver, "init_state", self._timed("init_state", solver.init_state, layered=True)),
            (solver, "compress_snapshots",
             self._timed("compress_snapshots", solver.compress_snapshots, self._set_data, layered=True)),
            (solver, "update_lambda", self._timed("update_lambda", solver.update_lambda, layered=True)),
            (solver, "prune", self._timed("prune", solver.prune, layered=True)),
        ]
        originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)


# -- summaries ---------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    out = {rec[0]: rec[5] - rec[4] for rec in spans}
    for rec in spans:
        if rec[1] is not None:
            out[rec[1]] -= rec[5] - rec[4]
    return out


def per_trial(spans):
    """{trial: {name: [calls, busy_s, self_s]}} for spans inside trials."""
    selfs = self_times(spans)
    table = {}
    for rec in spans:
        if rec[2] is None:
            continue
        row = table.setdefault(rec[2], {}).setdefault(rec[3], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += rec[5] - rec[4]
        row[2] += selfs[rec[0]]
    return table


def _names(source):
    return source if isinstance(source, tuple) else (source,)


def layer_metrics(tracer):
    """Per-layer metrics from a traced run.

    Returns (metrics, detail): ``metrics`` maps each LAYER_METRICS name the
    run exercised to {"value", "unit"}; ``detail`` gives every metric's
    calls and busy time per trial and its share of the traced trial time,
    plus the accounting of the trial time by self times.
    """
    table = per_trial(tracer.spans)
    trials = sorted(table)

    def med(fn):
        return statistics.median(fn(table[t], tracer.counters.get(t, {})) for t in trials)

    def total(row, names, column):
        return sum(row[n][column] for n in names if n in row)

    trial_s = med(lambda row, _: row[TRIAL_SPAN][1])
    metrics, detail = {}, {}
    for name, unit, kind, source in LAYER_METRICS:
        names = _names(source)
        calls = med(lambda row, _: total(row, names, 0))
        busy = med(lambda row, _: total(row, names, 2 if kind == "self" else 1))
        if kind in ("busy", "self"):
            value = busy * _SCALE[unit] if calls else None
        elif kind == "per_call":
            durations = [rec[5] - rec[4] for rec in tracer.spans
                         if rec[3] == source and rec[2] is not None]
            value = statistics.median(durations) * _SCALE[unit] if durations else None
        elif kind == "calls":
            value = calls or None
        elif kind == "count":
            value = med(lambda _, c: c.get(source, 0)) or None
        else:
            num = sum(tracer.counters.get(t, {}).get(source[0], 0) for t in trials)
            den = sum(tracer.counters.get(t, {}).get(source[1], 0) for t in trials)
            value = num / den if den else None
        # a probed stage has no busy time of its own inside the run: each
        # public stage function recomputes work that run() shares between
        # stages, so per-call time x iterations would overstate it
        timed = kind in ("busy", "self", "calls")
        detail[name] = {"unit": unit, "kind": kind, "value": value,
                        "calls_per_trial": calls if timed or kind == "per_call" else None,
                        "busy_s_per_trial": busy if timed else None,
                        "share_of_trial": busy / trial_s if timed else None}
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}

    accounted = [sum(row[2] for row in table[t].values()) / table[t][TRIAL_SPAN][1]
                 for t in trials]
    detail["accounting"] = {
        "trials": len(trials),
        "trial_s_median": trial_s,
        "self_time_over_trial_min": min(accounted),
        "self_time_over_trial_max": max(accounted),
        "probe_s_per_trial": med(lambda row, _: sum(
            r[1] for n, r in row.items() if n.split(".")[-1] in _PROBED)),
    }
    return metrics, detail
