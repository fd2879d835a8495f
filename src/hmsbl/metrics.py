"""Estimation accuracy: optimal truth-to-estimate matching and its RMSE."""

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
    scipy's ``linear_sum_assignment``, exact for square and rectangular
    costs alike; SciPy is imported at the first call, not with the package.
    Raises MatchCountError (with the exact partial report) when the two
    sets differ in size.
    """
    from scipy.optimize import linear_sum_assignment

    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    tru = np.asarray(truth, dtype=float).reshape(-1, 2)
    if tru.shape[0] == 0:
        raise ValueError("truth must contain at least one source")
    cost = np.sum((tru[:, None, :] - est[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    errs = cost[rows, cols]
    report = MatchReport(
        assignment=tuple(int(j) for j in cols),
        per_source_sq_err=tuple(float(e) for e in errs),
        rmse=float(np.sqrt(errs.mean())) if errs.size else float("nan"),
        unmatched=est.shape[0] != tru.shape[0],
    )
    if report.unmatched:
        raise MatchCountError(f"{est.shape[0]} estimates for {tru.shape[0]} truth sources", report)
    return report
