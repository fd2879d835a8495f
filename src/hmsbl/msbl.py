"""Flat multi-snapshot SBL baseline on an explicit 2-D dictionary.

This is the same EM solver as the block module with every dictionary
column its own block of width one, so the correlation update collapses to
the scalar 1 and the power update becomes the classic
gamma_p <- sigma_x,p + ||mu_p||^2 / L.  Per-iteration cost scales with the
pruned column count mu * mv, which is exactly what the block solver avoids.
"""

import numpy as np

from . import solver
from .dictionary import KronDictionary
from .signal_model import SnapshotSet

__all__ = ["msbl_run", "msbl_estimates"]


def msbl_run(y: SnapshotSet, dictionary: KronDictionary, params: solver.HMsblParams,
             on_iteration=None):
    """EM on the flat dictionary.  Returns (solver state, posterior mean,
    diagnostics); the state has one width-one block and the mean one row per
    dictionary column."""
    state, post, diagnostics = solver.run(y, dictionary, params, on_iteration=on_iteration)
    return state, post.mu, diagnostics


def msbl_estimates(state: solver.HMsblState, column_labels: np.ndarray, k: int) -> list:
    """(u, v) labels of the k largest active powers, ties to the lower
    column index; ``column_labels`` holds one (u, v) row per column."""
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = np.flatnonzero(state.active)
    if idx.size < k:
        raise ValueError(f"only {idx.size} active grid points for k = {k}")
    order = idx[np.argsort(-state.gamma[idx], kind="stable")][:k]
    return [tuple(column_labels[i]) for i in order]
