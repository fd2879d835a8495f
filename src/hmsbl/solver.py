"""Block-sparse Bayesian EM solver shared by H-MSBL and the flat baseline.

The model is Y = D X + V with D organized in M column blocks of width b.
Block i of X carries a zero-mean Gaussian prior with covariance
gamma_i * B_i, where gamma_i >= 0 is the block power and B_i is a
unit-Frobenius correlation matrix.  Noise is white with variance lam.

For H-MSBL the dictionary is Phi_u kron I_ny (b = ny) and each B_i absorbs
the v-frequency structure of the sources sharing u-bin i, so no v grid is
ever formed.  The flat baseline is the same solver with b = 1 on an
explicit 2-D dictionary.  Neither backend materializes Phi_u kron I_ny:
the marginal covariance is assembled blockwise as

    Sigma_y = sum_i gamma_i (phi_i phi_i^H) kron B_i + lam I

which is one GEMM of the cached table of outer products phi_i phi_i^H
(M x nx^2) against the stacked gamma_i B_i (M x ny^2).  The per-block
quadratic forms D_i^H W D_i are one GEMM through the same table.

An EM iteration never forms the posterior.  With R = Sigma_y^-1, the
sample covariance S = Y Y^H / L and Gamma_i = gamma_i B_i, the posterior
mean is mu_i = Gamma_i D_i^H R Y, so the second moment that the gamma and
B updates consume is

    M_i = Sigma_x^i + mu_i mu_i^H / L = Gamma_i - Gamma_i D_i^H (R - R S R) D_i Gamma_i

The M-step is Gamma_i <- M_i: gamma_i = ||M_i||_F and B_i = M_i / gamma_i,
with no per-block inverse.  And, because D mu = Y - lam R Y, the noise
update's data misfit is

    ||Y - D mu||_F^2 = lam^2 L tr(R S R).

One Cholesky factorisation of Sigma_y per iteration gives log det Sigma_y
and R; R S R, the cost log det Sigma_y + tr(R S), the moments and the
misfit follow by GEMMs, so per-iteration cost never depends on the number
of snapshots or on any v-grid size.  ``mu`` and ``sigma_blocks`` of the
posterior that ``run`` reports are computed only when first read.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dictionary import DictionaryPair, KronDictionary
from .signal_model import SnapshotSet, sample_covariance

__all__ = [
    "SolverError",
    "DegenerateInputError",
    "HMsblParams",
    "HMsblState",
    "Posterior",
    "RunDiagnostics",
    "init_state",
    "e_step",
    "update_gamma",
    "update_b",
    "update_lambda",
    "ml_cost",
    "prune",
    "compress_snapshots",
    "run",
]


class SolverError(RuntimeError):
    """An EM run reached a numerically invalid or degenerate state."""


class DegenerateInputError(ValueError):
    """Input data carries no energy to fit."""


@dataclass
class HMsblParams:
    """Knobs for one EM run.

    ``lambda_mode`` is "fixed" (use ``lambda_value``) or "adaptive"
    (re-estimate the noise variance each iteration).  ``prune_tol`` is a
    relative threshold against the largest block power, or an absolute one
    with ``prune_mode="absolute"``; zero disables pruning.  ``compress``
    replaces Y by a rank-preserving square root of Y Y^H when snapshots
    outnumber rows, leaving every 1/L average unchanged.  ``b_loading`` is
    read only by ``update_gamma``; ``run``'s result does not depend on it.
    """

    max_iters: int = 200
    prune_tol: float = 1e-3
    prune_mode: str = "relative"
    b_loading: float = 1e-10
    cost_tol: float = 1e-8
    lambda_mode: str = "fixed"
    lambda_value: float = 1e-2
    compress: bool = False

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.prune_tol < 0:
            raise ValueError("prune_tol must be >= 0")
        if self.prune_mode not in ("relative", "absolute"):
            raise ValueError(f"unknown prune_mode {self.prune_mode!r}")
        if self.b_loading < 0:
            raise ValueError("b_loading must be >= 0")
        if self.cost_tol < 0:
            raise ValueError("cost_tol must be >= 0")
        if self.lambda_mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.lambda_mode == "fixed" and not self.lambda_value > 0:
            raise ValueError("fixed lambda_value must be > 0")


@dataclass
class HMsblState:
    """Mutable solver state: block powers, correlations, noise variance."""

    gamma: np.ndarray
    b_mats: np.ndarray
    noise_var: float
    active: np.ndarray
    cost_trace: list = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return self.gamma.size

    @property
    def block_size(self) -> int:
        return self.b_mats.shape[1]


class Posterior:
    """Posterior moments of X given Y: mean columns and per-block
    covariance diagonal blocks.  Inactive blocks are identically zero.

    ``e_step`` and ``run`` build it from Sigma_y^-1 of the prior it
    conditions on.  Such a posterior also carries ``misfit``, the
    ||Y - D mu||_F^2 of its data, without forming D mu, and ``run``'s
    computes ``mu`` and ``sigma_blocks`` only when first read.  A posterior
    given by hand has ``misfit = None``.
    """

    def __init__(self, mu, sigma_blocks):
        self._mu = mu
        self._sigma_blocks = sigma_blocks
        self._source = None
        self.misfit = None

    @classmethod
    def _conditioned(cls, op, data: SnapshotSet, marginal: "_Marginal") -> "Posterior":
        post = cls(None, None)
        post._source = (op, data.y, marginal)
        post.misfit = marginal.noise_var ** 2 * data.n_snapshots * float(np.trace(marginal.rsr).real)
        return post

    @property
    def mu(self) -> np.ndarray:
        if self._mu is None:
            op, y, m = self._source
            z = op.adjoint_blocks(m.rinv @ y)
            self._mu = (m.scaled @ z).reshape(op.n_blocks * op.block_size, -1)
        return self._mu

    @property
    def sigma_blocks(self) -> np.ndarray:
        if self._sigma_blocks is None:
            op, _, m = self._source
            self._sigma_blocks = _hermitize(m.scaled - m.scaled @ op.quad_blocks(m.rinv) @ m.scaled)
        return self._sigma_blocks


@dataclass
class RunDiagnostics:
    cost_trace: list
    iter_seconds: list
    active_counts: list
    n_iters: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "cost_trace": [float(c) for c in self.cost_trace],
            "iter_seconds": [float(t) for t in self.iter_seconds],
            "active_counts": [int(a) for a in self.active_counts],
            "n_iters": int(self.n_iters),
            "converged": bool(self.converged),
        }


# ---------------------------------------------------------------------------
# dictionary backends


class _KronIdentityOperator:
    """Phi kron I_b applied blockwise; nothing of size (n x M b) is formed.

    Every kernel is one GEMM over the block index.  Sigma_y assembly and the
    per-block quadratic forms both contract through the outer-product table

        P[m, x nx + y] = phi[x, m] conj(phi[y, m])        (M x nx^2)

    which, like phi^H, is built once per operator:

        signal_cov:  P^T S  with S[m, (k, l)] = gamma_m B_m[k, l]
        quad_blocks: P R    with R[(y, x), (k, l)] = Rinv[x b + k, y b + l]

    using conj(P[m, x nx + y]) = P[m, y nx + x]; each is framed by a
    permutation of the four (x, y, k, l) axes.
    """

    def __init__(self, phi: np.ndarray, block_size: int):
        self.factor = np.asarray(phi, dtype=complex)
        self.factor_h = self.factor.conj().T.copy()
        self.block_size = int(block_size)
        self.n_factor_rows, self.n_blocks = self.factor.shape
        self.n_rows = self.n_factor_rows * self.block_size
        outer = self.factor.T[:, :, None] * self.factor_h[:, None, :]
        self.outer = outer.reshape(self.n_blocks, -1)

    def signal_cov(self, scaled: np.ndarray) -> np.ndarray:
        # sum_i (phi_i phi_i^H) kron (gamma_i B_i)
        nx, b = self.n_factor_rows, self.block_size
        c4 = (self.outer.T @ scaled.reshape(self.n_blocks, b * b)).reshape(nx, nx, b, b)
        return c4.transpose(0, 2, 1, 3).reshape(self.n_rows, self.n_rows)

    def adjoint_blocks(self, w: np.ndarray) -> np.ndarray:
        w2 = w.reshape(self.n_factor_rows, -1)
        return (self.factor_h @ w2).reshape(self.n_blocks, self.block_size, -1)

    def forward(self, blocks: np.ndarray) -> np.ndarray:
        out = self.factor @ blocks.reshape(self.n_blocks, -1)
        return out.reshape(self.n_rows, -1)

    def quad_blocks(self, rinv: np.ndarray) -> np.ndarray:
        # (phi_m kron I)^H Rinv (phi_m kron I) for every block m
        nx, b = self.n_factor_rows, self.block_size
        r = rinv.reshape(nx, b, nx, b).transpose(2, 0, 1, 3).reshape(nx * nx, b * b)
        return (self.outer @ r).reshape(self.n_blocks, b, b)

    def gram_fro(self) -> float:
        # || (Phi Phi^H) kron I ||_F = || Phi Phi^H ||_F * sqrt(b)
        g = self.factor @ self.factor_h
        return float(np.linalg.norm(g, "fro") * math.sqrt(self.block_size))


class _ColumnOperator:
    """Arbitrary dictionary columns treated as blocks of width one."""

    def __init__(self, matrix: np.ndarray):
        self.factor = np.asarray(matrix, dtype=complex)
        self.factor_conj = self.factor.conj()
        self.n_rows, self.n_blocks = self.factor.shape
        self.block_size = 1

    def signal_cov(self, scaled: np.ndarray) -> np.ndarray:
        w = scaled[:, 0, 0].real
        return (self.factor * w) @ self.factor_conj.T

    def adjoint_blocks(self, w: np.ndarray) -> np.ndarray:
        return (self.factor_conj.T @ w)[:, None, :]

    def forward(self, blocks: np.ndarray) -> np.ndarray:
        return self.factor @ blocks[:, 0, :]

    def quad_blocks(self, rinv: np.ndarray) -> np.ndarray:
        t = rinv @ self.factor
        q = np.einsum("xp,xp->p", self.factor_conj, t)
        return q[:, None, None]

    def gram_fro(self) -> float:
        return float(np.linalg.norm(self.factor @ self.factor_conj.T, "fro"))


def _lambda_penalty(a: np.ndarray, gamma: np.ndarray, lam: float) -> float:
    """(lam / n_a) tr(A Gamma A^H (A Gamma A^H + lam I)^-1) for the factor
    matrix A of either operator (Phi_u, or the flat dictionary)."""
    g = (a * gamma) @ a.conj().T
    n_a = a.shape[0]
    tr = np.trace(np.linalg.solve(g + lam * np.eye(n_a), g)).real
    return lam * tr / n_a


def _operator_for(dictionary, y: SnapshotSet):
    """The operator of ``dictionary`` for snapshots ``y``; an operator that
    ``run`` already built is passed through, so its stages build none."""
    if isinstance(dictionary, (_KronIdentityOperator, _ColumnOperator)):
        return dictionary
    if isinstance(dictionary, DictionaryPair):
        phi_u = dictionary.phi_u
        if phi_u.shape[0] != y.nx:
            raise ValueError(f"phi_u has {phi_u.shape[0]} rows for an nx = {y.nx} array")
        return _KronIdentityOperator(phi_u, y.ny)
    if isinstance(dictionary, KronDictionary):
        if dictionary.matrix.shape[0] != y.size:
            raise ValueError(
                f"dictionary has {dictionary.matrix.shape[0]} rows for {y.size} array elements"
            )
        return _ColumnOperator(dictionary.matrix)
    raise TypeError(f"unsupported dictionary type {type(dictionary).__name__}")


def _hermitize(blocks: np.ndarray) -> np.ndarray:
    return 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# solver operations


def init_state(y: SnapshotSet, dictionary, params: HMsblParams) -> HMsblState:
    """Data-scaled flat start.

    gamma_i = ||Y Y^H / L||_F / ||D D^H||_F for the solver's own effective
    dictionary D, B_i = I / sqrt(b), lambda from ``params`` in fixed mode or
    0.01 tr(S_hat) / n in adaptive mode.
    """
    op = _operator_for(dictionary, y)
    scm = sample_covariance(y)
    data_fro = float(np.linalg.norm(scm, "fro"))
    if data_fro == 0.0:
        raise DegenerateInputError("snapshot matrix carries no energy")
    if op.n_blocks == 0:
        raise DegenerateInputError("dictionary has no columns")
    gamma = np.full(op.n_blocks, data_fro / op.gram_fro())
    b0 = np.eye(op.block_size, dtype=complex) / math.sqrt(op.block_size)
    b_mats = np.broadcast_to(b0, (op.n_blocks, op.block_size, op.block_size)).copy()
    if params.lambda_mode == "fixed":
        lam = float(params.lambda_value)
    else:
        lam = 0.01 * float(np.trace(scm).real) / op.n_rows
    return HMsblState(
        gamma=gamma,
        b_mats=b_mats,
        noise_var=lam,
        active=np.ones(op.n_blocks, dtype=bool),
        cost_trace=[],
    )


def _scaled_prior(state: HMsblState) -> np.ndarray:
    scaled = state.gamma[:, None, None] * state.b_mats
    scaled[~state.active] = 0.0
    return scaled


@dataclass
class _Marginal:
    """Sigma_y of one prior, kept as R = Sigma_y^-1 and R S R."""

    scaled: np.ndarray  # gamma_i B_i, zero on inactive blocks
    noise_var: float
    rinv: np.ndarray
    rsr: np.ndarray
    cost: float  # log det Sigma_y + tr(R S)


def _marginal(op, state: HMsblState, scm: np.ndarray) -> _Marginal:
    """Factor Sigma_y of ``state``'s prior once; everything else is GEMMs."""
    scaled = _scaled_prior(state)
    sy = op.signal_cov(scaled)
    idx = np.arange(op.n_rows)
    sy[idx, idx] += state.noise_var
    try:
        cho = cho_factor(sy, lower=True)
    except np.linalg.LinAlgError as exc:  # lam <= 0, or far below the signal power
        # (snr_db 300 gives lam = 1e-30), leaves Sigma_y numerically indefinite
        raise SolverError(f"marginal covariance not positive definite: {exc}") from exc
    rinv = cho_solve(cho, np.eye(op.n_rows, dtype=complex))
    rs = rinv @ scm
    cost = 2.0 * float(np.sum(np.log(np.diag(cho[0]).real))) + float(np.trace(rs).real)
    if not math.isfinite(cost):
        raise SolverError(f"non-finite marginal-likelihood cost {cost}")
    return _Marginal(scaled=scaled, noise_var=state.noise_var, rinv=rinv, rsr=rs @ rinv, cost=cost)


def _moments(op, m: _Marginal) -> np.ndarray:
    """Sigma_x^i + mu_i mu_i^H / L = Gamma_i - Gamma_i D_i^H (R - R S R) D_i Gamma_i."""
    return _hermitize(m.scaled - m.scaled @ op.quad_blocks(m.rinv - m.rsr) @ m.scaled)


def e_step(y: SnapshotSet, state: HMsblState, dictionary) -> Posterior:
    """Posterior mean and per-block covariance under the current prior.

    Works through Sigma_y = D Sigma_0 D^H + lam I, so cost is independent
    of the number of blocks beyond one pass of blockwise assembly.
    """
    if state.noise_var <= 0:
        raise ValueError("noise variance must be > 0")
    if not state.active.any():
        raise SolverError("no active blocks left")
    op = _operator_for(dictionary, y)
    post = Posterior._conditioned(op, y, _marginal(op, state, sample_covariance(y)))
    post.mu, post.sigma_blocks  # the E-step proper: evaluate both now
    return post


def _moment_blocks(post: Posterior, n_blocks: int, block_size: int, n_snapshots: int) -> np.ndarray:
    mu_b = post.mu.reshape(n_blocks, block_size, -1)
    outer = (mu_b @ mu_b.conj().swapaxes(-1, -2)) / n_snapshots
    return _hermitize(post.sigma_blocks + outer)


def update_gamma(post: Posterior, state: HMsblState, n_snapshots: int, b_loading: float = 1e-10) -> np.ndarray:
    """Block powers gamma_i = tr(B_i^-1 (Sigma_x^i + mu^i mu^iH / L)) / b.

    Consumes the previous iteration's B_i, diagonally loaded by
    ``b_loading`` before inversion.  Inactive blocks stay at zero.
    ``run`` takes this step and ``update_b``'s together in closed form.
    """
    moments = _moment_blocks(post, state.n_blocks, state.block_size, n_snapshots)
    act, b = state.active, state.block_size
    gamma = np.zeros(state.n_blocks)
    if b == 1:
        traces = moments[act, 0, 0].real / (state.b_mats[act, 0, 0].real + b_loading)
    else:
        solved = np.linalg.solve(state.b_mats[act] + b_loading * np.eye(b), moments[act])
        traces = np.einsum("mkk->m", solved).real / b
    gamma[act] = np.maximum(traces, 0.0)
    return gamma


def update_b(post: Posterior, state: HMsblState, n_snapshots: int) -> np.ndarray:
    """Unit-Frobenius correlation update B_i = (moment_i / gamma_i) scaled
    to unit Frobenius norm.

    Uses the gamma values already placed in ``state`` by this iteration's
    gamma update.  Blocks that are inactive or have zero gamma keep their
    previous correlation matrix.  Pushing the removed norm back into gamma
    gives gamma_i B_i = moment_i, which is the step ``run`` takes.
    """
    moments = _moment_blocks(post, state.n_blocks, state.block_size, n_snapshots)
    ok = state.active & (state.gamma > 0)
    pre = moments[ok] / state.gamma[ok, None, None]
    fro = np.sqrt(np.einsum("mab,mab->m", pre, pre.conj()).real)
    if np.any(fro == 0):
        raise SolverError("zero posterior moment on an active block")
    out = state.b_mats.copy()
    out[ok] = pre / fro[:, None, None]
    return out


def update_lambda(y: SnapshotSet, post: Posterior, state: HMsblState, dictionary) -> float:
    """Stabilized noise-variance update.

    lam <- ||Y - D mu||_F^2 / (n L)
           + (lam / n_u) tr(A Gamma A^H (A Gamma A^H + lam I)^-1)

    where A is Phi_u (n_u = nx) for the block solver and the flat
    dictionary (n_u = n) for the baseline.  Floored at
    1e-12 tr(S_hat) / n so the next factorization stays positive definite.
    The misfit comes from ``post.misfit`` when the posterior carries it;
    only a posterior given by hand costs the product D mu.
    """
    op = _operator_for(dictionary, y)
    misfit = post.misfit
    if misfit is None:
        resid = y.y - op.forward(post.mu.reshape(op.n_blocks, op.block_size, -1))
        misfit = float(np.linalg.norm(resid, "fro") ** 2)
    n = op.n_rows
    L = y.n_snapshots
    lam = misfit / (n * L)
    lam += _lambda_penalty(op.factor, np.where(state.active, state.gamma, 0.0), state.noise_var)
    floor = 1e-12 * float(np.linalg.norm(y.y, "fro") ** 2) / (L * n)
    return max(lam, floor)


def ml_cost(y: SnapshotSet, state: HMsblState, dictionary) -> float:
    """Marginal-likelihood cost log det Sigma_y + tr(Sigma_y^-1 S_hat)."""
    op = _operator_for(dictionary, y)
    return _marginal(op, state, sample_covariance(y)).cost


def prune(state: HMsblState, params: HMsblParams) -> np.ndarray:
    """Deactivation mask after thresholding block powers.

    Relative mode drops gamma_i < prune_tol * max_j gamma_j; absolute mode
    compares against prune_tol directly.  Deactivation is permanent: the
    returned mask is a subset of the current one.
    """
    if not state.active.any():
        raise SolverError("no active blocks to prune")
    if params.prune_tol == 0:
        return state.active.copy()
    if params.prune_mode == "relative":
        thr = params.prune_tol * float(state.gamma[state.active].max())
    else:
        thr = params.prune_tol
    mask = state.active & (state.gamma >= thr)
    if not mask.any():
        raise SolverError("pruning removed every block (degenerate fit)")
    return mask


def compress_snapshots(y: SnapshotSet) -> SnapshotSet:
    """Rank-preserving snapshot reduction.

    Returns Ytilde with Ytilde Ytilde^H = Y Y^H and at most min(n, L)
    columns; the statistical snapshot count is carried over unchanged, so
    every downstream 1/L average is identical.  Data with no energy
    collapses to a single zero column.
    """
    n, cols = y.y.shape
    if not y.y.any():
        return SnapshotSet(y=np.zeros((n, 1), dtype=complex), nx=y.nx, ny=y.ny,
                           n_snapshots=y.n_snapshots)
    if cols <= n:
        return y
    s = y.y @ y.y.conj().T
    s = 0.5 * (s + s.conj().T)
    evals, vecs = np.linalg.eigh(s)
    keep = evals > evals[-1] * n * np.finfo(float).eps
    ytilde = vecs[:, keep] * np.sqrt(evals[keep])
    return SnapshotSet(y=ytilde, nx=y.nx, ny=y.ny, n_snapshots=y.n_snapshots)


def run(y: SnapshotSet, dictionary, params: HMsblParams, on_iteration=None):
    """Full EM loop: posterior, power and correlation updates, optional
    noise-variance re-estimation, pruning, until ``max_iters`` or the
    relative cost change falls below ``cost_tol``.

    The M-step sets gamma_i = ||M_i||_F and B_i = M_i / gamma_i for the
    moment M_i, with no per-block inverse: ``update_gamma`` then
    ``update_b`` with the removed Frobenius scale pushed back into gamma.
    That Gamma_i <- M_i is the exact EM maximizer, so the cost trace is
    non-increasing while lambda is fixed and pruning is off.  A block whose
    moment has a non-positive trace leaves the active set.

    Each iteration runs on R = Sigma_y^-1 and R S R alone (see the module
    docstring): one Cholesky factorisation per iteration gives the cost of
    the updated prior and, unless pruning then changed the active set, the
    next iteration's moments and noise misfit.  An unchanged set leaves the
    prior bit-identical, so the reuse is exact.  The operator is built once
    and handed to ``init_state`` and ``update_lambda``.

    ``on_iteration(iteration, state, posterior)`` is invoked after every
    completed iteration (1-based); the posterior is that of the prior the
    iteration started from, and its ``mu`` and ``sigma_blocks`` are computed
    on first access.  Treat the arguments as read-only and copy anything
    retained.  Returns (state, posterior, diagnostics).
    """
    op = _operator_for(dictionary, y)
    state = init_state(y, op, params)
    data = compress_snapshots(y) if params.compress else y
    scm = sample_covariance(data)

    marginal = _marginal(op, state, scm)
    state.cost_trace.append(marginal.cost)
    iter_seconds = []
    active_counts = []
    converged = False
    post = None

    for it in range(1, params.max_iters + 1):
        t0 = time.perf_counter()
        if marginal is None:
            marginal = _marginal(op, state, scm)
        post = Posterior._conditioned(op, data, marginal)
        moments = _moments(op, marginal)
        alive = state.active & (np.einsum("mkk->m", moments).real > 0)
        if not alive.any():
            raise SolverError("all block powers collapsed to zero")
        state.active = alive
        flat = moments.reshape(state.n_blocks, -1).view(float)  # real and imaginary parts
        fro = np.sqrt(np.einsum("mi,mi->m", flat, flat))
        state.b_mats[alive] = moments[alive] / fro[alive, None, None]
        state.gamma = np.where(alive, fro, 0.0)

        if params.lambda_mode == "adaptive":
            state.noise_var = update_lambda(data, post, state, op)

        marginal = _marginal(op, state, scm)
        state.cost_trace.append(marginal.cost)
        kept = prune(state, params)
        if not np.array_equal(kept, state.active):
            marginal = None
        state.active = kept
        state.gamma = np.where(state.active, state.gamma, 0.0)

        iter_seconds.append(time.perf_counter() - t0)
        active_counts.append(int(state.active.sum()))
        if on_iteration is not None:
            on_iteration(it, state, post)

        prev, cur = state.cost_trace[-2], state.cost_trace[-1]
        if abs(cur - prev) / max(1.0, abs(prev)) < params.cost_tol:
            converged = True
            break

    if post is None:
        post = Posterior._conditioned(op, data, marginal)
    diagnostics = RunDiagnostics(
        cost_trace=list(state.cost_trace),
        iter_seconds=iter_seconds,
        active_counts=active_counts,
        n_iters=len(iter_seconds),
        converged=converged,
    )
    return state, post, diagnostics
