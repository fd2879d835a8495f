"""Estimation accuracy: optimal truth-to-estimate matching and its RMSE."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MatchReport", "MatchCountError", "match_and_rmse"]


@dataclass(frozen=True)
class MatchReport:
    """Optimal truth-to-estimate matching.  ``assignment[i]`` is the
    estimate index paired with truth source i; squared error per source is
    (u - u_hat)^2 + (v - v_hat)^2 and rmse is the root of their mean."""

    assignment: tuple
    per_source_sq_err: tuple
    rmse: float
    unmatched: bool = False


class MatchCountError(ValueError):
    """Estimate and truth counts differ.  ``partial_report`` carries the
    exact matching of the smaller set into the larger, flagged unmatched:
    its pairs, listed in truth order, have the least total squared error
    of any one-to-one pairing."""

    def __init__(self, message: str, partial_report: MatchReport):
        super().__init__(message)
        self.partial_report = partial_report


def match_and_rmse(estimates, truth) -> MatchReport:
    """Optimally assign estimates to truth sources and report errors.

    Both arguments are array-likes of (u, v) rows.  The assignment is
    exact for square and rectangular costs alike, and the same one SciPy's
    ``linear_sum_assignment`` returns; no SciPy is loaded for it.  Raises
    MatchCountError (with the exact partial report) when the two sets
    differ in size.
    """
    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    tru = np.asarray(truth, dtype=float).reshape(-1, 2)
    if tru.shape[0] == 0:
        raise ValueError("truth must contain at least one source")
    d = tru[:, None, :] - est[None, :, :]
    cost = (d * d).sum(axis=2)
    rows, cols = _assign(cost)
    errs = cost[rows, cols]
    report = MatchReport(
        assignment=tuple(cols.tolist()),
        per_source_sq_err=tuple(errs.tolist()),
        rmse=math.sqrt(errs.mean()) if errs.size else math.nan,
        unmatched=est.shape[0] != tru.shape[0],
    )
    if report.unmatched:
        raise MatchCountError(f"{est.shape[0]} estimates for {tru.shape[0]} truth sources", report)
    return report


def _assign(cost):
    """Minimum-cost assignment of the rows of a 2-D cost array to distinct
    columns, or of its columns to distinct rows when rows outnumber them.

    Returns (rows, cols) as SciPy's ``linear_sum_assignment`` does: rows
    ascending, and the same pairs, ties included.  This is a port of its
    shortest-augmenting-path solver (Crouse, IEEE TAES 2016), written with
    scalar loops because the matrices here are k x k for a few sources.
    A +inf entry forbids its pair; NaN, -inf, or no feasible assignment
    raise ValueError.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim}-D array")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    if not (cost > -math.inf).all():  # false for NaN and -inf alike
        raise ValueError("matrix contains invalid numeric entries")
    c = cost.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Dijkstra from row ``cur`` over the reduced costs; ``remaining``
        # starts at nc-1..0 and a visited column is replaced by the last one,
        # the order in which SciPy scans, so ties resolve as they do there
        remaining = list(range(nc - 1, -1, -1))
        dist = [math.inf] * nc
        seen_rows = []
        seen_cols = []
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            index = -1
            lowest = math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                # among equally short paths prefer one ending at a free column
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] == -1):
                    lowest = dist[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the duals on the rows and columns the search reached, then
        # flip the assignment along the path from the sink back to ``cur``
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        rows = [col4row[j] for j in cols]
    else:
        rows, cols = range(nr), col4row
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
