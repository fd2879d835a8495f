"""Flat multi-snapshot SBL baseline over the 2-D (u, v) grid.

This is the same EM solver as the block module with every dictionary
column its own block of width one, so the correlation update collapses to
the scalar 1 and the power update becomes the classic
gamma_p <- sigma_x,p + ||mu_p||^2 / L.  Per-iteration cost scales with the
pruned column count mu * mv, which is exactly what the block solver avoids.
The baseline is ``solver.run`` on a ``KronDictionary``, whose columns the
solver applies without forming them, as the block solver's operator over
the whole u grid followed by one product through the v grid; this module
reads its (u, v) estimates off the resulting state.
"""

import numpy as np

from . import solver

__all__ = ["msbl_estimates"]


def msbl_estimates(state: solver.HMsblState, column_labels: np.ndarray, k: int) -> np.ndarray:
    """(k, 2) array of the (u, v) labels of the k largest active powers,
    strongest first, ties to the lower column index; ``column_labels``
    holds one (u, v) row per column."""
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = np.flatnonzero(state.active)
    if idx.size < k:
        raise ValueError(f"only {idx.size} active grid points for k = {k}")
    neg = -state.gamma[idx]
    if k < idx.size:  # sort only the powers at or above the k-th largest, ties included
        top = neg <= np.partition(neg, k - 1)[k - 1]
        idx, neg = idx[top], neg[top]
    order = idx[np.argsort(neg, kind="stable")][:k]
    return column_labels[order]
