"""Estimate readers: the (u, v) estimates of a converged EM state.

For H-MSBL, gridless v recovery from learned block correlations.  After
the block solver converges, block i of the state describes the sources
sharing u-grid point i: gamma_i carries their combined power and B_i the
correlation across the ny-element column array, i.e. a noisy sum of outer
products a(v) a(v)^H of length-ny steering vectors.  Polynomial rooting of
the noise subspace of B_i therefore recovers the v components without any
v grid, and pairing with the block's u point is automatic.

For the flat M-SBL baseline, whose columns are the (u, v) grid cells
themselves, the estimates are the labels of the k strongest active cells.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dictionary import Grid1D
from .solver import HMsblState

__all__ = [
    "PeakSelection",
    "RootMusicEstimate",
    "select_peaks",
    "root_music_v",
    "pair_estimates",
    "msbl_estimates",
]

# eigen-gap ratio below which a rooting result is marked unreliable
_GAP_TOL = 0.1


@dataclass(frozen=True)
class PeakSelection:
    """Chosen block indices, descending by power.  ``fallback`` is set when
    there were fewer strict local maxima than requested and the largest
    values were taken instead."""

    indices: tuple
    fallback: bool


@dataclass(frozen=True)
class RootMusicEstimate:
    """Recovered v values (ascending) with the eigen-gap diagnostic."""

    values: np.ndarray
    eigen_gap: float
    low_confidence: bool


def select_peaks(gamma, grid_u: Grid1D, k_peaks: int) -> PeakSelection:
    """Indices of the k_peaks largest strict local maxima of the power
    spectrum, endpoints compared one-sided.  Falls back to the k_peaks
    largest values (flagged) when maxima are scarce.  Ties break toward
    the lower index."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 1 or g.size != grid_u.size:
        raise ValueError("gamma must be 1-D with one entry per grid point")
    if not (1 <= k_peaks <= g.size):
        raise ValueError(f"k_peaks must lie in [1, {g.size}]")
    # a stable sort of -g breaks ties toward the lower index
    left = np.concatenate(([True], g[1:] > g[:-1]))
    right = np.concatenate((g[:-1] > g[1:], [True]))
    maxima = np.flatnonzero(left & right)
    if maxima.size >= k_peaks:
        order = maxima[np.argsort(-g[maxima], kind="stable")]
        return PeakSelection(indices=tuple(order[:k_peaks].tolist()), fallback=False)
    order = np.argsort(-g, kind="stable")
    return PeakSelection(indices=tuple(order[:k_peaks].tolist()), fallback=True)


def root_music_v(b: np.ndarray, k: int) -> RootMusicEstimate:
    """Root the MUSIC polynomial of a block correlation matrix.

    Parameters
    ----------
    b : Hermitian PSD matrix of size ny.
    k : number of v components to extract, 1 <= k <= ny - 1.

    Returns
    -------
    RootMusicEstimate with k values in [-1, 1].  The polynomial is
    z^(ny-1) a(1/z)^H E_n E_n^H a(z); its roots come in conjugate
    reciprocal pairs and the k roots inside the unit circle closest to it
    are kept, v = arg(root) / pi.  A small gap between the k-th and
    (k+1)-th eigenvalues flags the result as low confidence.

    LAPACK is called directly, ``zheevd`` for the eigenvectors and ``zgeev``
    for the roots; SciPy is imported at the first call, not with the
    package.  A LAPACK failure raises ``np.linalg.LinAlgError``.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("correlation matrix must be square")
    ny = b.shape[0]
    if not (1 <= k <= ny - 1):
        raise ValueError(f"k must lie in [1, {ny - 1}] for a {ny}-element block")
    scale = float(np.max(np.abs(b)))
    if scale > 0 and np.max(np.abs(b - b.conj().T)) > 1e-8 * scale:
        raise ValueError("correlation matrix must be Hermitian")

    from scipy.linalg import lapack

    evals, evecs, info = lapack.zheevd(b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed to converge (info = {info})")
    noise = evecs[:, : ny - k]
    c = noise @ noise.conj().T
    order, starts = _diagonals(ny)
    roots = _polyroots(np.add.reduceat(c.take(order), starts))

    mag = np.abs(roots)
    nearest = np.argsort(np.abs(1.0 - mag), kind="stable")
    chosen = roots[nearest[mag[nearest] < 1.0][:k]]
    degenerate = chosen.size < k
    if degenerate:
        # double roots can straddle or sit on the circle; take the nearest
        # leftover roots, skipping conjugate reciprocals of ones already kept
        chosen = list(chosen)
        for r in roots[nearest[mag[nearest] >= 1.0]]:
            if len(chosen) == k:
                break
            if all(abs(r * np.conj(c0) - 1.0) > 1e-8 for c0 in chosen):
                chosen.append(r)
        while len(chosen) < k:
            chosen.append(0.0 + 0.0j)

    values = np.sort(np.angle(np.asarray(chosen)) / np.pi)
    desc = evals[::-1]
    gap = float((desc[k - 1] - desc[k]) / desc[0]) if desc[0] > 0 else 0.0
    return RootMusicEstimate(
        values=values,
        eigen_gap=gap,
        low_confidence=bool(gap < _GAP_TOL or degenerate),
    )


@lru_cache(maxsize=None)
def _diagonals(ny: int):
    """(order, starts) for an ny x ny matrix c: ``c.take(order)`` lists its
    diagonals from offset ny - 1 down to -(ny - 1), and ``np.add.reduceat``
    at ``starts`` sums each one, the polynomial's coefficients."""
    idx = np.arange(ny * ny).reshape(ny, ny)
    diags = [np.diagonal(idx, m) for m in range(ny - 1, -ny, -1)]
    order = np.concatenate(diags)
    starts = np.cumsum([0] + [d.size for d in diags[:-1]])
    order.flags.writeable = starts.flags.writeable = False  # shared by every caller
    return order, starts


def _polyroots(p: np.ndarray) -> np.ndarray:
    """The roots ``np.roots(p)`` returns, by the same route: leading and
    trailing zero coefficients are stripped, the companion matrix's
    eigenvalues come from ``zgeev``, and each trailing zero adds a zero
    root."""
    from scipy.linalg import lapack

    nonzero = np.flatnonzero(p)
    if nonzero.size == 0:
        return np.zeros(0, dtype=complex)
    trailing = p.size - 1 - nonzero[-1]
    p = p[nonzero[0]: nonzero[-1] + 1]
    n = p.size - 1
    roots = np.zeros(0, dtype=complex)
    if n > 0:
        # built transposed in C order, so its transpose is the Fortran-ordered
        # companion: first row -p[1:] / p[0], ones on the subdiagonal
        comp_t = np.zeros((n, n), dtype=complex)
        comp_t[:, 0] = -p[1:] / p[0]
        if not np.isfinite(comp_t[:, 0]).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        comp_t.flat[1::n + 1] = 1.0
        roots, _, _, info = lapack.zgeev(comp_t.T, compute_vl=0, compute_vr=0, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgeev failed to converge (info = {info})")
    return np.concatenate((roots, np.zeros(trailing, dtype=complex)))


def pair_estimates(state, grid_u: Grid1D, allocation):
    """Root every allocated block and pair its v values with the block's
    u-grid point.

    ``allocation`` is a non-empty sequence of (block, count) pairs with
    distinct blocks, each active and in range, and each count in
    [1, ny - 1] so that the noise subspace is nonempty.  Returns
    (pairs, provenance): the (K, 2) array of (u, v) estimates, block by
    block in allocation order with each block's v ascending, and one
    {"block", "eigen_gap", "low_confidence"} dict per block.
    """
    allocation = [(int(block), int(count)) for block, count in allocation]
    if not allocation:
        raise ValueError("allocation must contain at least one block")
    blocks = [block for block, _ in allocation]
    if len(set(blocks)) != len(blocks):
        raise ValueError("allocation blocks must be distinct")
    ny = state.block_size
    for block, count in allocation:
        if not (0 <= block < state.n_blocks):
            raise ValueError(f"block {block} out of range")
        if not state.active[block]:
            raise ValueError(f"block {block} is inactive")
        if not (1 <= count <= ny - 1):
            raise ValueError(f"cannot root {count} components from a {ny}-element block")
    pairs = []
    provenance = []
    for block, count in allocation:
        est = root_music_v(state.b_mats[block], count)
        u = float(grid_u.points[block])
        pairs.extend((u, float(v)) for v in est.values)
        provenance.append({"block": block, "eigen_gap": est.eigen_gap,
                           "low_confidence": est.low_confidence})
    return np.array(pairs, dtype=float).reshape(-1, 2), tuple(provenance)


def msbl_estimates(state: HMsblState, column_labels: np.ndarray, k: int) -> np.ndarray:
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
