"""Slow reference implementations used as test oracles.

Everything here is written the obvious way: explicit loops, dense matrices,
textbook Gaussian conditioning.  Nothing imports from the package's solver
internals (only its public types), so agreement is evidence rather than
tautology.
"""

import numpy as np

from hmsbl.metrics import MatchCountError, MatchReport, _assign
from hmsbl.solver import HMsblParams


def steering_loop(freq, n):
    out = np.empty(n, dtype=complex)
    for m in range(n):
        out[m] = np.exp(1j * np.pi * m * freq)
    return out


def snapshot_loop(sources, symbols, nx, ny):
    """Noise-free snapshots by summing per-sensor, per-source terms."""
    n_snap = symbols.shape[1]
    y = np.zeros((nx * ny, n_snap), dtype=complex)
    for l in range(n_snap):
        for p in range(nx):
            for q in range(ny):
                row = p * ny + q  # y index varies fastest
                acc = 0.0 + 0.0j
                for k, (u, v) in enumerate(sources):
                    acc += symbols[k, l] * np.exp(1j * np.pi * (p * u + q * v))
                y[row, l] = acc
    return y


def cov_loop(y, n_snapshots):
    n = y.shape[0]
    s = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            s[a, b] = np.sum(y[a, :] * np.conj(y[b, :])) / n_snapshots
    return s


def kron_identity_loop(phi_u, ny):
    """(Phi_u o I_ny) by the index formula: D[p*ny+q, m*ny+r] = Phi_u[p, m] * (q == r)."""
    nx, m_u = phi_u.shape
    d = np.zeros((nx * ny, m_u * ny), dtype=phi_u.dtype)
    for p in range(nx):
        for q in range(ny):
            for m in range(m_u):
                d[p * ny + q, m * ny + q] = phi_u[p, m]
    return d


def flat_dictionary_loop(labels, nx, ny):
    """Flat 2-D dictionary by the steering formula: column c holds
    exp(j pi (p u_c + q v_c)) at row p*ny + q for the (u_c, v_c) of ``labels``."""
    d = np.zeros((nx * ny, len(labels)), dtype=complex)
    for c, (u, v) in enumerate(labels):
        for p in range(nx):
            for q in range(ny):
                d[p * ny + q, c] = np.exp(1j * np.pi * (p * u + q * v))
    return d


def block_diag_prior(gamma, b_mats):
    m, b, _ = b_mats.shape
    sigma0 = np.zeros((m * b, m * b), dtype=complex)
    for i in range(m):
        sigma0[i * b:(i + 1) * b, i * b:(i + 1) * b] = gamma[i] * b_mats[i]
    return sigma0


def dense_sigma_y(phi_u, ny, gamma, b_mats, lam):
    d = kron_identity_loop(phi_u, ny)
    sigma0 = block_diag_prior(gamma, b_mats)
    n = d.shape[0]
    return d @ sigma0 @ d.conj().T + lam * np.eye(n)


def dense_posterior(y_mat, phi_u, ny, gamma, b_mats, lam):
    """Gaussian conditioning on the dense model; returns (mu, per-block cov)."""
    return dense_block_posterior(y_mat, kron_identity_loop(phi_u, ny), gamma, b_mats, lam)


def dense_block_posterior(y_mat, d, gamma, b_mats, lam):
    """``dense_posterior`` for any dense dictionary ``d`` whose columns form
    blocks of the width of ``b_mats``."""
    sigma0 = block_diag_prior(gamma, b_mats)
    sigma_y = d @ sigma0 @ d.conj().T + lam * np.eye(d.shape[0])
    gain = sigma0 @ d.conj().T @ np.linalg.inv(sigma_y)
    mu = gain @ y_mat
    sigma_x = sigma0 - gain @ d @ sigma0
    m, b = b_mats.shape[:2]
    blocks = np.array([sigma_x[i * b:(i + 1) * b, i * b:(i + 1) * b] for i in range(m)])
    return mu, blocks


def dense_ml_cost(scm, phi_u, ny, gamma, b_mats, lam):
    sigma_y = dense_sigma_y(phi_u, ny, gamma, b_mats, lam)
    sign, logdet = np.linalg.slogdet(sigma_y)
    assert sign.real > 0
    return float(logdet + np.trace(np.linalg.solve(sigma_y, scm)).real)


def dense_em(y, dmat, b, params: HMsblParams):
    """The paper's EM loop, literally, on the dense dictionary ``dmat``
    (n x M b) of M blocks of width ``b``, for the snapshots ``y`` (a
    ``SnapshotSet``) and ``params.max_iters`` iterations; ``cost_tol`` and
    ``compress`` are not read.

    Start: gamma_i = ||S||_F / ||D D^H||_F and B_i = I / sqrt(b), with
    lambda ``params.lambda_value`` or 0.01 tr(S) / n.  Each iteration takes
    the ``dense_block_posterior`` moments M_i = Sigma_x^i + mu_i mu_i^H / L
    of the current prior (a block whose moment has no positive trace is
    zeroed), sets Gamma_i = M_i and gamma_i = ||M_i||_F, updates lambda
    densely in adaptive mode, and zeroes the blocks pruning drops.

    Returns (costs, priors, lams): log det Sigma_y + tr(Sigma_y^-1 S), the
    stacked Gamma_i and lambda at the start and after every iteration.
    """
    y_mat, n_snap = y.y, y.n_snapshots
    n, m = dmat.shape[0], dmat.shape[1] // b
    scm = y_mat @ y_mat.conj().T / n_snap
    ones = np.ones(m)

    def cost(prior, lam):
        sigma_y = dmat @ block_diag_prior(ones, prior) @ dmat.conj().T + lam * np.eye(n)
        sign, logdet = np.linalg.slogdet(sigma_y)
        assert sign.real > 0
        return float(logdet + np.trace(np.linalg.solve(sigma_y, scm)).real)

    g0 = np.linalg.norm(scm, "fro") / np.linalg.norm(dmat @ dmat.conj().T, "fro")
    prior = np.array([g0 * np.eye(b, dtype=complex) / np.sqrt(b) for _ in range(m)])
    if params.lambda_mode == "fixed":
        lam = float(params.lambda_value)
    else:
        lam = 0.01 * float(np.trace(scm).real) / n
    costs, priors, lams = [cost(prior, lam)], [prior], [lam]
    for _ in range(params.max_iters):
        mu, sigma_blocks = dense_block_posterior(y_mat, dmat, ones, prior, lam)
        mu_b = mu.reshape(m, b, -1)
        moments = sigma_blocks + mu_b @ mu_b.conj().swapaxes(-1, -2) / n_snap
        moments = 0.5 * (moments + moments.conj().swapaxes(-1, -2))
        moments[np.einsum("mkk->m", moments).real <= 0] = 0.0
        gamma = np.array([np.linalg.norm(mi, "fro") for mi in moments])
        assert gamma.any()
        if params.lambda_mode == "adaptive":
            misfit = np.linalg.norm(y_mat - dmat @ mu, "fro") ** 2
            g = dmat @ np.diag(np.repeat(gamma, b).astype(complex)) @ dmat.conj().T
            penalty = lam * np.trace(np.linalg.solve(g + lam * np.eye(n), g)).real / n
            floor = 1e-12 * np.linalg.norm(y_mat, "fro") ** 2 / (n_snap * n)
            lam = float(max(misfit / (n * n_snap) + penalty, floor))
        if params.prune_tol > 0:
            moments[gamma < params.prune_tol * gamma.max()] = 0.0
        prior = moments
        costs.append(cost(prior, lam))
        priors.append(prior)
        lams.append(lam)
    return costs, priors, lams


def dense_flat_posterior(y_mat, dmat, gamma, lam):
    """Flat (block size 1) conditioning oracle; returns (mu, per-column var)."""
    sigma0 = np.diag(gamma.astype(complex))
    sigma_y = dmat @ sigma0 @ dmat.conj().T + lam * np.eye(dmat.shape[0])
    gain = sigma0 @ dmat.conj().T @ np.linalg.inv(sigma_y)
    mu = gain @ y_mat
    sigma_x = sigma0 - gain @ dmat @ sigma0
    return mu, np.diag(sigma_x).real.copy()


def dense_flat_cost(scm, dmat, gamma, lam):
    sigma_y = dmat @ np.diag(gamma.astype(complex)) @ dmat.conj().T + lam * np.eye(dmat.shape[0])
    sign, logdet = np.linalg.slogdet(sigma_y)
    assert sign.real > 0
    return float(logdet + np.trace(np.linalg.solve(sigma_y, scm)).real)


def msbl_gamma_star_scalar(d_col, scm, lam, lo=1e-12, hi=1e3, n=400001):
    """Single-column ML weight by brute grid search on the scalar cost.

    cost(g) = logdet(g d d^H + lam I) + tr(inv * scm); with one column the
    minimizer has the closed form max(0, q / ||d||^4 - lam / ||d||^2) where
    q = d^H scm d, which the caller can cross-check.
    """
    grid = np.concatenate([[0.0], np.geomspace(lo, hi, n)])
    n_rows = d_col.shape[0]
    best_g, best_c = 0.0, np.inf
    for g in grid:
        sigma = g * np.outer(d_col, d_col.conj()) + lam * np.eye(n_rows)
        sign, logdet = np.linalg.slogdet(sigma)
        c = logdet + np.trace(np.linalg.solve(sigma, scm)).real
        if c < best_c:
            best_c, best_g = c, g
    return best_g


def select_peaks_loop(g, k_peaks):
    """(indices, fallback) of the k_peaks largest strict local maxima of g,
    endpoints compared one-sided, ties toward the lower index; the k_peaks
    largest values, flagged, when there are fewer maxima."""
    n = len(g)
    maxima = [
        i for i in range(n)
        if (i == 0 or g[i] > g[i - 1]) and (i == n - 1 or g[i] > g[i + 1])
    ]
    maxima.sort(key=lambda i: (-g[i], i))
    if len(maxima) >= k_peaks:
        return tuple(maxima[:k_peaks]), False
    order = sorted(range(n), key=lambda i: (-g[i], i))
    return tuple(order[:k_peaks]), True


def vandermonde_projector_roots(b, k):
    """Noise-subspace polynomial roots computed symbolically enough to trust:
    eigendecompose, form the projector, evaluate its quadratic form on the
    steering vector over a fine v grid, and return the k deepest minima."""
    ny = b.shape[0]
    evals, evecs = np.linalg.eigh(b)
    en = evecs[:, :ny - k]
    proj = en @ en.conj().T
    vs = np.linspace(-1, 1, 200001)
    vals = np.empty(vs.size)
    for i, v in enumerate(vs):
        a = steering_loop(v, ny)
        vals[i] = (a.conj() @ proj @ a).real
    idx = []
    order = np.argsort(vals)
    for j in order:
        if all(abs(vs[j] - vs[i]) > 0.02 for i in idx):
            idx.append(j)
        if len(idx) == k:
            break
    return np.sort(vs[np.array(idx)])


def root_music_np_roots(b, k):
    """(values, eigen_gap, low_confidence) of root-MUSIC as the package first
    computed it: ``np.linalg.eigh``, one ``np.trace`` per diagonal and
    ``np.roots``.  ``b`` is a Hermitian ny x ny block and 1 <= k <= ny - 1."""
    b = np.asarray(b, dtype=complex)
    ny = b.shape[0]
    evals, evecs = np.linalg.eigh(b)
    noise = evecs[:, : ny - k]
    c = noise @ noise.conj().T
    coeffs = np.array([np.trace(c, offset=m) for m in range(ny - 1, -ny, -1)])
    roots = np.roots(coeffs)

    inside = sorted(roots[np.abs(roots) < 1.0], key=lambda r: abs(1.0 - abs(r)))
    chosen = list(inside[:k])
    degenerate = len(chosen) < k
    if degenerate:
        # double roots can straddle or sit on the circle; take the nearest
        # leftover roots, skipping conjugate reciprocals of ones already kept
        rest = sorted(roots[np.abs(roots) >= 1.0], key=lambda r: abs(1.0 - abs(r)))
        for r in rest:
            if len(chosen) == k:
                break
            if all(abs(r * np.conj(c0) - 1.0) > 1e-8 for c0 in chosen):
                chosen.append(r)
        while len(chosen) < k:
            chosen.append(0.0 + 0.0j)

    values = np.sort(np.angle(np.array(chosen)) / np.pi)
    desc = evals[::-1]
    gap = float((desc[k - 1] - desc[k]) / desc[0]) if desc[0] > 0 else 0.0
    return values, gap, bool(gap < 0.1 or degenerate)


def match_and_rmse_numpy(estimates, truth):
    """``metrics.match_and_rmse`` with its earlier per-element numpy scalar
    conversions; the assignment is the package's own ``_assign``."""
    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    tru = np.asarray(truth, dtype=float).reshape(-1, 2)
    if tru.shape[0] == 0:
        raise ValueError("truth must contain at least one source")
    cost = np.sum((tru[:, None, :] - est[None, :, :]) ** 2, axis=2)
    rows, cols = _assign(cost)
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
