import json
from itertools import permutations

import numpy as np
import pytest

from hmsbl.experiments import run_experiment, validate_config
from hmsbl.metrics import MatchCountError, _assign, match_and_rmse
from oracles import match_and_rmse_numpy


def test_match_exact_identity():
    truth = np.array([[0.1, 0.2], [-0.3, 0.4]])
    rep = match_and_rmse(truth.copy(), truth)
    assert rep.rmse == 0.0
    assert rep.assignment == (0, 1)
    assert not rep.unmatched


def test_match_permutation_invariance():
    rng = np.random.default_rng(0)
    truth = rng.uniform(-0.7, 0.7, size=(5, 2))
    est = truth + rng.normal(0, 0.01, size=truth.shape)
    base = match_and_rmse(est, truth)
    for _ in range(10):
        perm = rng.permutation(5)
        rep = match_and_rmse(est[perm], truth)
        assert rep.rmse == pytest.approx(base.rmse, rel=1e-12)
        # assignment composed with the permutation recovers the same pairing
        np.testing.assert_array_equal(np.array(perm)[list(rep.assignment)],
                                      list(base.assignment))


def test_match_finds_optimal_not_greedy():
    # classic greedy trap: nearest-first pairing strands the last truth point
    truth = np.array([[0.0, 0.0], [0.3, 0.0]])
    est = np.array([[0.1, 0.0], [-0.4, 0.0]])
    rep = match_and_rmse(est, truth)
    best = min(
        np.sqrt(((0.1) ** 2 + (0.3 - (-0.4)) ** 2) / 2),
        np.sqrt(((0.4) ** 2 + (0.3 - 0.1) ** 2) / 2),
    )
    assert rep.rmse == pytest.approx(best, rel=1e-12)


def test_match_accepts_lists_of_rows():
    truth = [[0.1, 0.2], [-0.3, 0.4]]
    est = [[-0.3, 0.4], [0.1, 0.2]]
    rep = match_and_rmse(est, truth)
    assert rep.rmse == 0.0
    assert rep.assignment == (1, 0)
    assert match_and_rmse(np.array(est), np.array(truth)) == rep


def test_match_count_mismatch_raises_with_partial():
    truth = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.2]])
    est = np.array([[0.01, 0.0], [0.5, 0.49]])
    with pytest.raises(MatchCountError) as ei:
        match_and_rmse(est, truth)
    partial = ei.value.partial_report
    assert partial.unmatched
    assert len([a for a in partial.assignment if a >= 0]) == 2
    assert partial.rmse > 0


def test_match_large_k_uses_assignment_solver():
    # 9 sources, shuffled: the assignment undoes the shuffle
    rng = np.random.default_rng(1)
    truth = np.column_stack([np.linspace(-0.8, 0.8, 9), np.zeros(9)])
    est = truth + rng.normal(0, 1e-3, size=truth.shape)
    perm = rng.permutation(9)
    rep = match_and_rmse(est[perm], truth)
    np.testing.assert_array_equal(np.array(perm)[list(rep.assignment)], np.arange(9))


def _brute_force_sq_sum(truth, est):
    """Least total squared error over every one-to-one pairing of the
    smaller set into the larger."""
    small, large = (truth, est) if len(truth) <= len(est) else (est, truth)
    cost = np.sum((small[:, None, :] - large[None, :, :]) ** 2, axis=2)
    picks = np.array(list(permutations(range(len(large)), len(small))))
    return cost[np.arange(len(small)), picks].sum(axis=1).min()


def test_exhaustive_and_hungarian_agree():
    rng = np.random.default_rng(2)
    for k in range(1, 8):
        for _ in range(3):
            truth = rng.uniform(-0.7, 0.7, size=(k, 2))
            est = rng.uniform(-0.7, 0.7, size=(k, 2))
            r = match_and_rmse(est, truth)
            best = np.sqrt(_brute_force_sq_sum(truth, est) / k)
            assert r.rmse == pytest.approx(best, rel=1e-12)
            assert sorted(r.assignment) == list(range(k))


@pytest.mark.parametrize("n_truth, n_est", [(3, 5), (5, 3), (1, 4), (4, 1), (2, 6), (6, 2)])
def test_partial_report_is_the_best_injection(n_truth, n_est):
    rng = np.random.default_rng(10 * n_truth + n_est)
    for _ in range(5):
        truth = rng.uniform(-0.7, 0.7, size=(n_truth, 2))
        est = rng.uniform(-0.7, 0.7, size=(n_est, 2))
        with pytest.raises(MatchCountError) as ei:
            match_and_rmse(est, truth)
        partial = ei.value.partial_report
        n = min(n_truth, n_est)
        assert partial.unmatched
        assert len(partial.assignment) == len(partial.per_source_sq_err) == n
        assert len(set(partial.assignment)) == n
        assert partial.rmse == pytest.approx(np.sqrt(_brute_force_sq_sum(truth, est) / n), rel=1e-12)


def _seeded_costs(n, seed):
    """``n`` cost matrices of 1-10 rows by 1-10 columns, tall and wide,
    cycling through uniform entries, small integers (many ties), rounded
    squares, and small integers with about a third of the pairs forbidden
    by +inf."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        shape = tuple(rng.integers(1, 11, size=2))
        kind = i % 4
        if kind == 0:
            yield rng.uniform(size=shape)
        elif kind == 1:
            yield rng.integers(0, 3, size=shape).astype(float)
        elif kind == 2:
            yield np.round(rng.uniform(size=shape) ** 2, 1)
        else:
            cost = rng.integers(0, 4, size=shape).astype(float)
            cost[rng.uniform(size=shape) < 0.3] = np.inf
            yield cost


def test_assign_matches_scipy_on_seeded_matrices():
    # the port must return SciPy's pairs, ties included, so records do not
    # depend on which solver matched them
    from scipy.optimize import linear_sum_assignment

    compared = infeasible = 0
    shapes = set()
    for cost in _seeded_costs(10400, seed=22):
        try:
            want = linear_sum_assignment(cost)
        except ValueError:
            with pytest.raises(ValueError, match="infeasible"):
                _assign(cost)
            infeasible += 1
            continue
        rows, cols = _assign(cost)
        np.testing.assert_array_equal(rows, want[0])
        np.testing.assert_array_equal(cols, want[1])
        compared += 1
        shapes.add(cost.shape)
    assert compared >= 10000
    assert infeasible > 0
    assert len(shapes) == 100


def test_assign_square_constant_cost_is_the_identity():
    rows, cols = _assign(np.ones((5, 5)))
    assert rows.tolist() == cols.tolist() == [0, 1, 2, 3, 4]


def test_assign_tall_returns_rows_ascending():
    cost = np.array([[5.0, 0.0], [0.0, 5.0], [1.0, 1.0]])
    rows, cols = _assign(cost)
    assert rows.tolist() == [0, 1]
    assert cols.tolist() == [1, 0]


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_assign_rejects_nan_and_minus_inf(bad):
    cost = np.ones((3, 4))
    cost[1, 2] = bad
    with pytest.raises(ValueError, match="invalid numeric entries"):
        _assign(cost)
    with pytest.raises(ValueError, match="invalid numeric entries"):
        _assign(cost.T)


def test_assign_rejects_infeasible_cost():
    # row 0 and row 1 may only take column 0
    cost = np.array([[1.0, np.inf, np.inf], [2.0, np.inf, np.inf]])
    with pytest.raises(ValueError, match="infeasible"):
        _assign(cost)
    with pytest.raises(ValueError, match="infeasible"):
        _assign(cost.T)


def test_assign_empty_and_non_matrix():
    for shape in [(0, 3), (3, 0), (0, 0)]:
        rows, cols = _assign(np.zeros(shape))
        assert rows.size == cols.size == 0
    with pytest.raises(ValueError, match="2-D"):
        _assign(np.zeros(3))


def test_match_empty_truth_rejected():
    with pytest.raises(ValueError):
        match_and_rmse(np.zeros((1, 2)), np.zeros((0, 2)))


def _report_fields(report):
    # each field with its Python type; NaN compares equal to NaN
    fields = (report.assignment, report.per_source_sq_err, report.rmse, report.unmatched)
    return [(type(f), [type(x) for x in f] if isinstance(f, tuple) else None,
             "nan" if f != f else f) for f in fields]


def _match_outcome(fn, est, truth):
    try:
        return "report", _report_fields(fn(est, truth))
    except MatchCountError as exc:
        return "count", str(exc), _report_fields(exc.partial_report)


def test_match_agrees_with_the_numpy_form_field_for_field():
    # the same MatchReport, with the same Python types, as the numpy form on
    # seeded sets of 1-6 sources: equal and unequal counts, and ties from
    # coordinates on a coarse lattice
    rng = np.random.default_rng(23)
    kinds = set()
    for i in range(1200):
        k = int(rng.integers(1, 7))
        n_est = k if i % 2 == 0 else int(rng.integers(0, 7))
        if i % 3 == 0:  # many equal costs
            truth = rng.integers(-2, 3, size=(k, 2)) * 0.25
            est = rng.integers(-2, 3, size=(n_est, 2)) * 0.25
        else:
            truth = rng.uniform(-0.9, 0.9, size=(k, 2))
            est = rng.uniform(-0.9, 0.9, size=(n_est, 2))
        got = _match_outcome(match_and_rmse, est, truth)
        assert got == _match_outcome(match_and_rmse_numpy, est, truth)
        kinds.add((got[0], i % 3 == 0, n_est == 0))
    assert kinds == {(kind, ties, False) for kind in ("report", "count") for ties in (False, True)} | {
        ("count", False, True), ("count", True, True)}


def _record(trials):
    cfg = {
        "experiment": "custom", "seed": 5, "array": {"nx": 3, "ny": 3},
        "scene": {"snr_db": 20, "num_snapshots": 40,
                  "generator": {"kind": "random_on_grid", "k": 2, "min_separation": 0.3}},
        "grids": {"mu": 15, "mv": 15}, "algorithms": ["hmsbl", "msbl"],
        "solvers": {"hmsbl": {"max_iters": 30}, "msbl": {"max_iters": 30}},
        "trials": trials, "success_rmse": 0.05,
    }
    config, errors = validate_config(json.dumps(cfg))
    assert errors == []
    return run_experiment(config)


def test_aggregate_trials():
    record = _record(3)
    for algo in ("hmsbl", "msbl"):
        entries = [t["algorithms"][algo] for t in record.trials]
        assert all("error" not in e for e in entries)
        rmse = np.array([e["rmse"] for e in entries])
        worst = np.array([e["max_source_err"] for e in entries])
        assert record.aggregate[algo] == {
            "mean_rmse": rmse.mean(),
            "std_rmse": rmse.std(),  # population std
            "success_rate": np.mean(rmse < 0.05),
            "count": 3,
            "all_sources_within_rate": np.mean(worst < 0.05),
        }


def test_aggregate_single_report_has_zero_std():
    agg = _record(1).aggregate["hmsbl"]
    assert agg["std_rmse"] == 0.0
    assert agg["count"] == 1
