"""Block-sparse Bayesian EM solver shared by H-MSBL and the flat baseline.

The model is Y = D X + V with D organized in M column blocks of width b.
Block i of X carries a zero-mean Gaussian prior with covariance
gamma_i * B_i, where gamma_i >= 0 is the block power and B_i is a
unit-Frobenius correlation matrix.  Noise is white with variance lam.

For H-MSBL the dictionary is Phi_u kron I_ny (b = ny) and each B_i absorbs
the v-frequency structure of the sources sharing u-bin i, so no v grid is
ever formed.  The flat baseline is the same solver with b = 1 on the
columns phi_u,i kron phi_v,j of the feasible cells of the (u, v) grid.
Neither backend materializes its dictionary.  The block backend assembles
the marginal covariance blockwise as

    Sigma_y = sum_i gamma_i (phi_i phi_i^H) kron B_i + lam I

Every phi_i is a steering vector, so (phi_i phi_i^H)[x, x'] =
exp(j pi u_i (x - x')) depends on the lag x - x' alone and Sigma_y is
block-Toeplitz, with (x, x') block T[x - x'] + lam delta for

    T[d] = sum_i exp(j pi u_i d) gamma_i B_i   (2nx - 1 lags)

one GEMM of the cached lag table E (M x (2nx - 1)) against the stacked
gamma_i B_i, read out by one gather.  The per-block quadratic forms
D_i^H W D_i = sum_d exp(-j pi u_i d) Wbar[d], for the sums Wbar[d] of the
blocks of W on lag d, are one GEMM through E as well.  The flat backend
adds a lag table over the v grid, since Phi_u kron Phi_v =
(Phi_u kron I_ny)(I_Mu kron Phi_v): its Sigma_y is two-level Toeplitz,
E_u^T W E_v for the Mu x Mv grid of weights W on its cells, and its
quadratic forms are E_u Wbar E_v^T read at its cells; no (n x Mu Mv)
matrix is formed.  The operators take grid points and row counts, not a
dictionary matrix: these kernels hold for steering factors alone.

An EM iteration never forms the posterior.  With R = Sigma_y^-1, the
sample covariance S = Y Y^H / L and Gamma_i = gamma_i B_i, the posterior
mean is mu_i = Gamma_i D_i^H R Y, so the second moment that the gamma and
B updates consume is

    M_i = Sigma_x^i + mu_i mu_i^H / L = Gamma_i - Gamma_i D_i^H (R - R S R) D_i Gamma_i

The M-step is Gamma_i <- M_i, with no per-block inverse, and the loop
carries Gamma_i as its state: the moments are the next prior as they stand.
Of the split gamma_i = ||M_i||_F, B_i = M_i / gamma_i it reads only gamma
(for pruning and the noise update); B_i is formed only when ``run`` hands
the state out.  Blocks of width one (the flat baseline) take elementwise
products for the moments and their powers, and their B is the constant 1,
which is never rewritten.  And, because D mu = Y - lam R Y, the noise
update's data misfit is

    ||Y - D mu||_F^2 = lam^2 ||R Y||_F^2.

One Cholesky factorisation of Sigma_y per iteration (LAPACK ``zpotrf``,
then ``zpotrs`` against the identity), taken after the iteration's
M-step, noise update and pruning, gives log det Sigma_y and R.  S is never
formed: R Y gives R S R = (R Y)(R Y)^H / L, the cost log det Sigma_y +
tr(R S) with tr(R S) = Re vdot(Y, R Y) / L, and the misfit, by GEMMs no
wider than Y, which ``compress`` (the default) cuts to n columns or fewer:
per-iteration cost then depends on neither the snapshot count nor a v grid.
Those statistics of one prior are its ``Posterior``, which ``e_step``,
``ml_cost`` and ``run`` all get from ``_marginal``; it imports LAPACK from
``scipy.linalg`` at the first solve, so importing this module loads no SciPy.

Pruned blocks carry gamma = 0 and add nothing to any of these sums, so
``run`` leaves them out: it works on the operator restricted to the
active blocks, whose tables are slices of the full operator's, taken
again only when the active set shrinks.  Its one state, and the posteriors
it reports, cover every block, zero on inactive ones; ``mu`` and
``sigma_blocks`` of a posterior are computed only when first read.
"""

import copy
import math
import numbers
import time
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

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
    """Knobs for one EM run.  These defaults are also a config's: a
    ``solvers.<algo>`` spec that leaves a field out gets the value here.

    ``lambda_mode`` is "fixed" (use ``lambda_value``) or "adaptive"
    (re-estimate the noise variance each iteration).  ``prune_tol`` is a
    threshold relative to the largest block power; zero disables pruning.
    ``compress`` replaces Y by a rank-preserving square root of Y Y^H when
    snapshots outnumber rows, leaving every 1/L average unchanged.
    The class constant ``b_loading`` is read only by the reference
    ``update_gamma``; ``run``'s result does not depend on it.
    """

    b_loading: ClassVar[float] = 1e-10

    max_iters: int = 500
    prune_tol: float = 1e-3
    cost_tol: float = 0.0
    lambda_mode: str = "fixed"
    lambda_value: float = 1e-2
    compress: bool = True

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        # ``not x >= 0`` also refuses NaN
        if not self.prune_tol >= 0:
            raise ValueError(f"prune_tol must be >= 0, got {self.prune_tol!r}")
        if not self.cost_tol >= 0:
            raise ValueError(f"cost_tol must be >= 0, got {self.cost_tol!r}")
        if self.lambda_mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if not math.isfinite(self.lambda_value):
            raise ValueError(f"lambda_value must be finite, got {self.lambda_value!r}")
        if self.lambda_mode == "fixed" and not self.lambda_value > 0:
            raise ValueError("fixed lambda_value must be > 0")


@dataclass
class HMsblState:
    """Mutable solver state: block powers, correlations, noise variance.
    A block is active while its power is positive; pruning zeroes it."""

    gamma: np.ndarray
    b_mats: np.ndarray
    noise_var: float

    @property
    def active(self) -> np.ndarray:
        return self.gamma > 0

    @property
    def n_blocks(self) -> int:
        return self.gamma.size

    @property
    def block_size(self) -> int:
        return self.b_mats.shape[1]


@dataclass(eq=False)
class Posterior:
    """Posterior of X given Y under one prior, held as the statistics of
    its marginal covariance Sigma_y through the operator ``op`` of the
    prior's active blocks.

    ``_marginal`` builds it from one factorisation of Sigma_y: ``rinv`` is
    R = Sigma_y^-1, ``ry`` is R Y for the columns Y of ``data`` and ``cost``
    is log det Sigma_y + Re vdot(Y, R Y) / L, all without forming mu.  The
    misfit ||Y - D mu||_F^2 = lam^2 ||R Y||_F^2, the mean columns ``mu``
    (for the columns of ``data``) and the per-block covariance diagonal
    blocks ``sigma_blocks`` are computed when first read, the last two over
    every block, zero on inactive ones.
    """

    op: object
    data: SnapshotSet  # the snapshots mu is formed for
    scaled: np.ndarray  # gamma_i B_i of the operator's blocks
    rinv: np.ndarray
    ry: np.ndarray
    cost: float
    lam: float  # the noise variance of the prior

    @cached_property
    def misfit(self) -> float:
        return self.lam ** 2 * float(np.vdot(self.ry, self.ry).real)

    @cached_property
    def mu(self) -> np.ndarray:
        z = self.op.adjoint_blocks(self.ry)
        return self.op.scatter(self.scaled @ z).reshape(-1, self.data.y.shape[1])

    @cached_property
    def sigma_blocks(self) -> np.ndarray:
        return self.op.scatter(_sandwich(self.scaled, self.op.quad_blocks(self.rinv)))


@dataclass
class RunDiagnostics:
    """What one ``run`` did: its costs (the start's first), per-iteration
    seconds and active counts, and whether the cost stop fired."""

    cost_trace: list
    iter_seconds: list
    active_counts: list
    converged: bool

    @property
    def n_iters(self) -> int:
        return len(self.iter_seconds)


# ---------------------------------------------------------------------------
# dictionary backends


class _BlockOperator:
    """What both backends share: restriction to a subset of their blocks.

    ``restrict(index)`` on an unrestricted operator gives the operator of
    blocks ``index`` alone by slicing the per-block arrays named in
    ``_per_block`` (attribute, block axis); nothing is rebuilt.  The
    restricted operator keeps ``index``, and ``scatter`` places per-block
    results back at those positions among all blocks.
    """

    index = None  # None: the operator is unrestricted
    _per_block = ()

    def restrict(self, index: np.ndarray):
        sub = copy.copy(self)
        for name, axis in self._per_block:
            setattr(sub, name, np.take(getattr(self, name), index, axis=axis))
        sub.n_blocks, sub.index, sub.n_all_blocks = index.size, index, self.n_blocks
        return sub

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """``blocks`` (one per block of this operator) over all blocks of the
        unrestricted operator, zero elsewhere."""
        if self.index is None:
            return blocks
        out = np.zeros((self.n_all_blocks,) + blocks.shape[1:], dtype=blocks.dtype)
        out[self.index] = blocks
        return out


def _lag_table(points: np.ndarray, n: int) -> np.ndarray:
    """E[m, d + n - 1] = exp(j pi u_m d) for d = -(n - 1) .. n - 1 (M x (2n - 1)).
    Its last n columns are the steering matrix of ``points``, transposed."""
    return np.exp(1j * np.pi * np.outer(points, np.arange(1 - n, n)))


def _lag_index(n: int) -> np.ndarray:
    """lag[x, x'] = x - x' + n - 1 (n x n): the column of a lag table that
    holds phi[x] conj(phi[x']) for each steering vector phi."""
    return np.subtract.outer(np.arange(n), np.arange(n)) + (n - 1)


def _toeplitz_index(n: int, inner: np.ndarray, width: int) -> np.ndarray:
    """Flat index into a ((2n - 1) x ``width``) lag table t of the block
    Toeplitz matrix whose (x, x') block is t[x - x' + n - 1, inner]: an
    (n b x n b) index for the b x b ``inner``."""
    b = inner.shape[0]
    return (_lag_index(n)[:, None, :, None] * width + inner[None, :, None, :]).reshape(n * b, n * b)


def _diagonal_sum(n: int) -> np.ndarray:
    """S[d, x n + x'] = 1 where x - x' + n - 1 = d ((2n - 1) x n^2, complex so
    that its products stay in BLAS): S r sums the rows of r over each lag."""
    return (_lag_index(n).reshape(1, -1) == np.arange(2 * n - 1)[:, None]).astype(complex)


class _KronIdentityOperator(_BlockOperator):
    """Phi kron I_b applied blockwise for the steering matrix Phi of the grid
    ``points`` (nx x M); nothing of size (n x M b) is formed.

    Every Phi is Vandermonde, so (phi_m phi_m^H)[x, x'] = E[m, x - x' + nx - 1]
    for the lag table E (M x (2nx - 1)), the one per-block table, built once
    per operator; phi^H is its last nx columns, conjugated.  Hence

        signal_cov:  T = E^T G,  Sigma[(x, k), (x', l)] = T[x - x' + nx - 1, (k, l)]
        gram:        t = E^T w,  A diag(w) A^H [x, x'] = t[x - x' + nx - 1]

    for the stacked G[m, (k, l)] = gamma_m B_m[k, l], each read out by one
    gather through a cached Toeplitz index, and

        quad_blocks: Q = P R = E (S R),   R[(x', x), (k, l)] = Rinv[x b + k, x' b + l]

    where P = E[:, lag] (M x nx^2) is E gathered at the lag of each (x', x)
    and S ((2nx - 1) x nx^2) sums R's rows over each lag.  ``quad_blocks``
    takes whichever grouping costs fewer multiply-adds, with the lag form
    charged twice for its extra GEMM and S's zeros: E (S R) when
    M nx^2 >= 2 (2nx - 1)(nx^2 + M), which holds for wide active sets
    (8 x 8 with 200 blocks) and not for narrow ones or small arrays (4 x 4
    with 60).  ``gram``'s A is phi.
    """

    _per_block = (("lags", 0),)

    def __init__(self, points: np.ndarray, n_factor_rows: int, block_size: int):
        self.n_factor_rows, self.block_size = int(n_factor_rows), int(block_size)
        self.lags = _lag_table(np.asarray(points, dtype=float), self.n_factor_rows)
        self.n_blocks = self.lags.shape[0]
        self.n_rows = self.n_factor_rows * self.block_size
        self.lag_index = _lag_index(self.n_factor_rows).ravel()
        self.diagonal_sum = _diagonal_sum(self.n_factor_rows)

    @cached_property
    def cov_index(self) -> np.ndarray:
        b = self.block_size
        return _toeplitz_index(self.n_factor_rows, np.arange(b * b).reshape(b, b), b * b)

    def signal_cov(self, scaled: np.ndarray) -> np.ndarray:
        # sum_i (phi_i phi_i^H) kron (gamma_i B_i)
        b = self.block_size
        t = self.lags.T @ scaled.reshape(self.n_blocks, b * b)
        return t.ravel()[self.cov_index]

    def adjoint_blocks(self, w: np.ndarray) -> np.ndarray:
        nx = self.n_factor_rows
        w2 = w.reshape(nx, -1)
        return (self.lags[:, nx - 1:].conj() @ w2).reshape(self.n_blocks, self.block_size, -1)

    def quad_blocks(self, rinv: np.ndarray) -> np.ndarray:
        # (phi_m kron I)^H Rinv (phi_m kron I) for every block m
        nx, b, m = self.n_factor_rows, self.block_size, self.n_blocks
        r = rinv.reshape(nx, b, nx, b).transpose(2, 0, 1, 3).reshape(nx * nx, b * b)
        if m * nx * nx >= 2 * (2 * nx - 1) * (nx * nx + m):
            q = self.lags @ (self.diagonal_sum @ r)
        else:
            q = self.lags.take(self.lag_index, axis=1) @ r
        return q.reshape(m, b, b)

    def gram(self, weights: np.ndarray) -> np.ndarray:
        """phi diag(weights) phi^H (nx x nx)."""
        nx = self.n_factor_rows
        return (weights @ self.lags)[self.lag_index].reshape(nx, nx)


class _GridOperator(_BlockOperator):
    """The columns phi_u,i kron phi_v,j of the grid cells ``cells`` (flat
    indices i Mv + j) as blocks of width one, for ``u``, the operator of
    Phi_u kron I_ny over the whole u grid, and the v grid ``points_v``.
    Both factors are Vandermonde, so Sigma_y is two-level Toeplitz and every
    kernel runs through the lag tables E_u of ``u`` and E_v (Mv x (2ny - 1)):

        gram:        G = E_u^T W E_v,  Sigma[(x, y), (x', y')] = G[x - x' + nx - 1, y - y' + ny - 1]
        quad_blocks: Q = E_u Rbar E_v^T read at ``cells``

    for the weight grid W (Mu x Mv, zero off ``cells``) and the two-level
    lag sums Rbar[(x' - x), (y' - y)] of Rinv[(x, y), (x', y')], taken by
    the diagonal-sum matrices of both axes; ``adjoint_blocks`` is
    phi_v^H through ``u``'s, by Phi_u kron Phi_v = (Phi_u kron I_ny)(I_Mu kron Phi_v).
    Phi_u kron Phi_v is never formed.  A restriction slices ``cells``
    alone.  ``gram``'s A is the flat dictionary.
    """

    _per_block = (("cells", 0),)

    def __init__(self, u: _KronIdentityOperator, points_v: np.ndarray, n_v_rows: int,
                 cells: np.ndarray):
        self.u = u
        ny = int(n_v_rows)
        self.lags_v = _lag_table(np.asarray(points_v, dtype=float), ny)
        self.diagonal_sum_v = _diagonal_sum(ny)
        self.cov_index = _toeplitz_index(u.n_factor_rows, _lag_index(ny), 2 * ny - 1)
        self.cells = np.asarray(cells)
        self.n_blocks, self.block_size, self.n_rows = self.cells.size, 1, u.n_rows

    def signal_cov(self, scaled: np.ndarray) -> np.ndarray:
        return self.gram(scaled[:, 0, 0].real)

    def adjoint_blocks(self, w: np.ndarray) -> np.ndarray:
        ny = self.u.block_size
        z = self.lags_v[:, ny - 1:].conj() @ self.u.adjoint_blocks(w)  # (Mu, Mv, L)
        return z.reshape(-1, z.shape[-1])[self.cells, None, :]

    def quad_blocks(self, rinv: np.ndarray) -> np.ndarray:
        # phi_v,j^H Q_i phi_v,j for the u blocks Q_i, through the lags of both axes
        nx, ny = self.u.n_factor_rows, self.u.block_size
        r = rinv.reshape(nx, ny, nx, ny).transpose(2, 0, 3, 1).reshape(nx * nx, ny * ny)
        rbar = self.u.diagonal_sum @ r @ self.diagonal_sum_v.T
        q = (self.u.lags @ rbar) @ self.lags_v.T
        return q.reshape(-1)[self.cells, None, None]

    def gram(self, weights: np.ndarray) -> np.ndarray:
        """A diag(weights) A^H for the flat dictionary A (n x n).  The weight
        grid is real, and W E_v a real GEMM against E_v read as interleaved
        real and imaginary parts, half the work of a complex one."""
        w = np.zeros(self.u.n_blocks * self.lags_v.shape[0])
        w[self.cells] = weights
        wv = (w.reshape(self.u.n_blocks, -1) @ self.lags_v.view(float)).view(complex)
        return (self.u.lags.T @ wv).ravel()[self.cov_index]


def _operator_for(dictionary, y: SnapshotSet):
    """The operator of ``dictionary`` for snapshots ``y``; an operator that
    ``run`` already built is passed through, so its stages build none."""
    if isinstance(dictionary, _BlockOperator):
        return dictionary
    if not isinstance(dictionary, (DictionaryPair, KronDictionary)):
        raise TypeError(f"unsupported dictionary type {type(dictionary).__name__}")
    flat = isinstance(dictionary, KronDictionary)
    pair = dictionary.pair if flat else dictionary
    if pair.nx != y.nx:
        raise ValueError(f"phi_u has {pair.nx} rows for an nx = {y.nx} array")
    if flat and pair.ny != y.ny:
        raise ValueError(f"phi_v has {pair.ny} rows for an ny = {y.ny} array")
    u = _KronIdentityOperator(pair.grid_u.points, pair.nx, y.ny)
    return _GridOperator(u, pair.grid_v.points, pair.ny, dictionary.cells) if flat else u


# ---------------------------------------------------------------------------
# solver operations


def init_state(y: SnapshotSet, dictionary, params: HMsblParams) -> HMsblState:
    """Data-scaled flat start.

    gamma_i = ||Y Y^H / L||_F / ||D D^H||_F for the solver's own effective
    dictionary D = A kron I_b, so ||D D^H||_F = ||A A^H||_F sqrt(b) for the
    operator's factor A, whose A A^H is ``gram``; B_i = I / sqrt(b), lambda
    from ``params`` in fixed mode or 0.01 tr(S_hat) / n in adaptive mode.
    """
    op = _operator_for(dictionary, y)
    scm = sample_covariance(y)
    data_fro = float(np.linalg.norm(scm, "fro"))
    if data_fro == 0.0:
        raise DegenerateInputError("snapshot matrix carries no energy")
    if op.n_blocks == 0:
        raise DegenerateInputError("dictionary has no columns")
    b = op.block_size
    a_fro = np.linalg.norm(op.gram(np.ones(op.n_blocks)), "fro")
    gamma = np.full(op.n_blocks, data_fro / (a_fro * math.sqrt(b)))
    b_mats = np.broadcast_to(np.eye(b, dtype=complex) / math.sqrt(b), (op.n_blocks, b, b)).copy()
    if params.lambda_mode == "fixed":
        lam = float(params.lambda_value)
    else:
        lam = 0.01 * float(np.trace(scm).real) / op.n_rows
    return HMsblState(gamma=gamma, b_mats=b_mats, noise_var=lam)


def _scaled_prior(state: HMsblState) -> np.ndarray:
    # inactive blocks carry gamma = 0, so they contribute nothing
    return state.gamma[:, None, None] * state.b_mats


def _active_part(op, state: HMsblState):
    """(operator, at) of the active blocks of ``state``: the operator of those
    blocks alone and where they sit in ``state``; ``op`` and ``slice(None)``,
    which indexes views, while every block is active."""
    index = np.flatnonzero(state.active)
    if index.size == state.n_blocks:
        return op, slice(None)
    return op.restrict(index), index


def _store_b(state: HMsblState, at, moments: np.ndarray, gamma: np.ndarray, where: np.ndarray):
    """B_i = M_i / gamma_i into ``state`` for the blocks ``where`` of the
    loop's blocks, which sit at ``at`` in it.  A unit-Frobenius 1 x 1 B
    is 1, as ``init_state`` sets it and M_i / |M_i| keeps it for a positive
    M_i, so blocks of width one are never written."""
    if moments.shape[-1] == 1:
        return
    b_mats = state.b_mats[at]  # a view while ``at`` is slice(None), else a copy
    np.divide(moments, gamma[:, None, None], out=b_mats, where=where[:, None, None])
    if not isinstance(at, slice):
        state.b_mats[at] = b_mats


def _marginal(op, scaled: np.ndarray, lam: float, data: SnapshotSet) -> Posterior:
    """The posterior of the prior with Gamma_i = ``scaled`` on the blocks of
    ``op`` and noise variance ``lam`` given ``data``: Sigma_y is factored
    once, R Y formed once, everything else is GEMMs.

    LAPACK is called directly: ``zpotrf`` factors Sigma_y and ``zpotrs``
    solves against the identity for R.  SciPy is imported here, at the first
    solve, not with the package: validating a config never loads it.
    """
    from scipy.linalg import lapack

    sy = op.signal_cov(scaled)
    n = op.n_rows
    sy.flat[::n + 1] += lam
    chol, info = lapack.zpotrf(sy, lower=1, clean=0)
    if info == 0:
        rinv, info = lapack.zpotrs(chol, np.eye(n, dtype=complex), lower=1, overwrite_b=1)
    if info != 0:  # lam <= 0, or far below the signal power (snr_db 300 gives
        # lam = 1e-30), leaves Sigma_y numerically indefinite
        raise SolverError("marginal covariance not positive definite: "
                          f"{info}-th leading minor of the array is not positive definite "
                          f"(lam = {lam:.3g}, tr(Sigma_y)/n = {float(np.trace(sy).real) / n:.3g})")
    ry = rinv @ data.y
    fit = float(np.vdot(data.y, ry).real) / data.n_snapshots  # tr(R S)
    cost = 2.0 * float(np.sum(np.log(chol.diagonal().real))) + fit
    if not math.isfinite(cost):
        raise SolverError(f"non-finite marginal-likelihood cost {cost}")
    return Posterior(op=op, data=data, scaled=scaled, rinv=rinv, ry=ry, cost=cost, lam=lam)


def _sandwich(scaled: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """The Hermitian part of Gamma_i - Gamma_i Q_i Gamma_i for the stacked
    blocks Gamma_i = ``scaled`` and Q_i = ``quad``.  Blocks of width one
    take elementwise products, and the Hermitian part of a 1 x 1 block is
    its real part; wider blocks take stacked products."""
    if scaled.shape[-1] == 1:
        out = scaled * quad
        out *= scaled
        np.subtract(scaled, out, out=out)
        out.imag = 0.0
        return out
    out = scaled - scaled @ quad @ scaled
    out += out.conj().swapaxes(-1, -2)
    out *= 0.5
    return out


def _moments(post: Posterior) -> np.ndarray:
    """Sigma_x^i + mu_i mu_i^H / L = Gamma_i - Gamma_i D_i^H (R - R S R) D_i Gamma_i
    for the blocks of ``post.op``."""
    ry = post.ry
    rsr = (ry * (1.0 / post.data.n_snapshots)) @ ry.conj().T  # a complex * is cheaper than /
    return _sandwich(post.scaled, post.op.quad_blocks(post.rinv - rsr))


def e_step(y: SnapshotSet, state: HMsblState, dictionary) -> Posterior:
    """Posterior mean and per-block covariance under the current prior.

    Works through Sigma_y = D Sigma_0 D^H + lam I, so cost is independent
    of the number of blocks beyond one pass of blockwise assembly.
    """
    if state.noise_var <= 0:
        raise ValueError("noise variance must be > 0")
    if not state.active.any():
        raise SolverError("no active blocks left")
    op, at = _active_part(_operator_for(dictionary, y), state)
    post = _marginal(op, _scaled_prior(state)[at], state.noise_var, y)
    post.mu, post.sigma_blocks  # the E-step proper: evaluate both now
    return post


def _moment_blocks(post, n_blocks: int, block_size: int, n_snapshots: int) -> np.ndarray:
    mu_b = post.mu.reshape(n_blocks, block_size, -1)
    moments = post.sigma_blocks + (mu_b @ mu_b.conj().swapaxes(-1, -2)) / n_snapshots
    return 0.5 * (moments + moments.conj().swapaxes(-1, -2))


def update_gamma(post, state: HMsblState, n_snapshots: int, b_loading: float) -> np.ndarray:
    """Block powers gamma_i = tr(B_i^-1 (Sigma_x^i + mu^i mu^iH / L)) / b.

    ``post`` is a ``Posterior`` or any object with its ``mu`` and
    ``sigma_blocks``.  Consumes the previous iteration's B_i, diagonally
    loaded by ``b_loading`` before inversion.  Inactive blocks stay at zero.
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


def update_b(post, state: HMsblState, n_snapshots: int) -> np.ndarray:
    """Unit-Frobenius correlation update B_i = (moment_i / gamma_i) scaled
    to unit Frobenius norm.

    ``post`` is as for ``update_gamma``.  Uses the gamma that this
    iteration's gamma update placed in ``state``; inactive blocks (gamma = 0)
    keep their previous B.  Pushing the removed norm back into gamma gives
    gamma_i B_i = moment_i, which is the step ``run`` takes.
    """
    moments = _moment_blocks(post, state.n_blocks, state.block_size, n_snapshots)
    ok = state.active
    pre = moments[ok] / state.gamma[ok, None, None]
    fro = np.sqrt(np.einsum("mab,mab->m", pre, pre.conj()).real)
    if np.any(fro == 0):
        raise SolverError("zero posterior moment on an active block")
    out = state.b_mats.copy()
    out[ok] = pre / fro[:, None, None]
    return out


def update_lambda(y: SnapshotSet, misfit: float, state: HMsblState, dictionary) -> float:
    """Stabilized noise-variance update.

    lam <- ||Y - D mu||_F^2 / (n L)
           + (lam / n_u) tr(A Gamma A^H (A Gamma A^H + lam I)^-1)

    where A is Phi_u (n_u = nx) for the block solver and the flat
    dictionary (n_u = n) for the baseline; the operator's ``gram`` gives
    A Gamma A^H.  Floored at
    1e-12 tr(S_hat) / n so the next factorization stays positive definite.
    ``misfit`` is ||Y - D mu||_F^2 for the posterior mean mu under the
    current prior: ``Posterior.misfit``, which needs no product D mu.
    """
    op = _operator_for(dictionary, y)
    n = op.n_rows
    L = y.n_snapshots
    lam = misfit / (n * L)
    g, lam0 = op.gram(state.gamma), state.noise_var
    n_a = g.shape[0]
    lam += lam0 * np.trace(np.linalg.solve(g + lam0 * np.eye(n_a), g)).real / n_a
    floor = 1e-12 * float(np.linalg.norm(y.y, "fro") ** 2) / (L * n)
    return max(lam, floor)


def ml_cost(y: SnapshotSet, state: HMsblState, dictionary) -> float:
    """Marginal-likelihood cost log det Sigma_y + tr(Sigma_y^-1 S_hat)."""
    op, at = _active_part(_operator_for(dictionary, y), state)
    return _marginal(op, _scaled_prior(state)[at], state.noise_var, y).cost


def prune(state: HMsblState, params: HMsblParams) -> np.ndarray:
    """Activity mask after thresholding block powers.

    Keeps gamma_i >= prune_tol * max_j gamma_j.  The threshold is positive,
    so the mask is a subset of the active set (gamma_i > 0): a block whose
    power is 0 stays out.
    """
    if not state.active.any():
        raise SolverError("no active blocks to prune")
    if params.prune_tol == 0:
        return state.active
    thr = params.prune_tol * float(state.gamma.max())
    mask = state.gamma >= thr
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

    The M-step Gamma_i <- M_i is the exact EM maximizer (``update_gamma``
    then ``update_b``, with the removed Frobenius scale pushed back into
    gamma), so the cost trace is non-increasing while lambda is fixed and
    pruning is off.  The loop carries Gamma_i itself and writes only
    gamma_i = ||M_i||_F of the split into the state each iteration; a block
    whose moment has a non-positive trace leaves the active set with
    Gamma_i = 0.  B_i = M_i / gamma_i is written only where the state leaves
    the loop: before each ``on_iteration`` call, for the blocks a prune
    drops, and once when the loop ends; a block whose moment dies keeps the
    B of its last moment.  So a run's result does not depend on an observer.

    Each iteration runs on R = Sigma_y^-1 and R Y alone (see the module
    docstring).  It prunes before it factors: one Cholesky factorisation per
    iteration gives the ``Posterior`` of the updated and pruned prior, whose
    cost is the iteration's (so ``cost_trace[t]`` is ``ml_cost`` of the
    state after iteration t) and which is the next iteration's posterior,
    with its moments and noise misfit.  The operator is built once and
    handed to ``init_state`` and ``update_lambda``.

    ``run`` keeps one state over every block.  Sigma_y assembly, the moments
    and the M-step run on the operator restricted to the active blocks,
    which sit at ``at`` in the state.  When a block leaves the active set
    (pruned, or a non-positive moment trace), the same iteration drops the
    old posterior and slice (one is alive at a time) and slices the
    operator's tables and Gamma down to the blocks left before it factors
    Sigma_y.  Until the set first shrinks ``at`` is ``slice(None)``, so a
    run whose active set never shrinks never gathers or scatters.  Pruning
    and the noise update's penalty (``gram`` of the full operator) read the
    whole state, with gamma = 0 on inactive blocks.

    ``on_iteration(iteration, state, posterior)`` is invoked after every
    completed iteration (1-based); ``state`` covers every block, with
    gamma = 0 on inactive ones.  The posterior is that of ``state``, as
    ``e_step`` gives it and the next iteration uses it, with ``cost``
    ``diagnostics.cost_trace[iteration]``; its ``mu`` and ``sigma_blocks``
    are computed on first access, over every block.  Treat the arguments as
    read-only and copy anything retained: ``run`` updates the state's arrays
    in place.  Returns (state, posterior, diagnostics), paired the same way.
    """
    op = _operator_for(dictionary, y)
    state = init_state(y, op, params)
    data = compress_snapshots(y) if params.compress else y
    width = op.block_size

    # the loop runs on ``cop``, the operator restricted to the active blocks,
    # and ``scaled``, their Gamma_i; those blocks sit at ``at`` in ``state``
    cop, at = _active_part(op, state)
    scaled = _scaled_prior(state)[at]
    post = _marginal(cop, scaled, state.noise_var, data)
    cost_trace = [post.cost]
    iter_seconds = []
    active_counts = []
    converged = False

    for it in range(1, params.max_iters + 1):
        t0 = time.perf_counter()
        moments = _moments(post)
        # for width-one blocks ``power`` is a view, so ``fro`` below sees the
        # dead moments zeroed
        power = moments[:, 0, 0].real if width == 1 else np.einsum("mkk->m", moments).real
        alive = power > 0
        if not alive.all():
            if not alive.any():
                raise SolverError("all block powers collapsed to zero")
            if it > 1:  # a dying block keeps the B of its last moment
                _store_b(state, at, post.scaled, state.gamma[at], ~alive)
            moments[~alive] = 0.0
        if width == 1:
            fro = np.abs(power)
        else:
            flat = moments.reshape(cop.n_blocks, -1).view(float)  # real and imaginary parts
            fro = np.sqrt(np.einsum("mi,mi->m", flat, flat))
        scaled, state.gamma[at] = moments, fro

        if params.lambda_mode == "adaptive":
            state.noise_var = update_lambda(data, post.misfit, state, op)

        mask = prune(state, params)  # inactive blocks have gamma = 0: never kept
        kept, covered = mask[at], at  # the moments are of the blocks at ``covered``
        shrank = not kept.all()  # a block died or was pruned
        if shrank:
            state.gamma[~mask] = 0.0
            del post, cop  # one restriction of the operator alive at a time
            cop, at = _active_part(op, state)
            scaled = scaled[kept]
        post = _marginal(cop, scaled, state.noise_var, data)
        cost_trace.append(post.cost)
        prev = cost_trace[-2]
        converged = abs(post.cost - prev) / max(1.0, abs(prev)) < params.cost_tol
        if shrank or converged or on_iteration is not None or it == params.max_iters:
            _store_b(state, covered, moments, fro, alive)

        iter_seconds.append(time.perf_counter() - t0)
        active_counts.append(int(kept.sum()))
        if on_iteration is not None:
            on_iteration(it, state, post)
        if converged:
            break

    diagnostics = RunDiagnostics(cost_trace=cost_trace, iter_seconds=iter_seconds,
                                 active_counts=active_counts, converged=converged)
    return state, post, diagnostics
