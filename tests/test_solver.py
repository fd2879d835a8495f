import dataclasses
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from hmsbl.dictionary import (Grid1D, KronDictionary, dictionary_pair, kron_dictionary,
                              steering_matrix, uniform_grid)
from hmsbl.signal_model import Scene, SnapshotSet, Source, UraConfig, noise_power, sample_covariance, synthesize_snapshots
from hmsbl import solver
from hmsbl.solver import (
    DegenerateInputError,
    HMsblParams,
    HMsblState,
    SolverError,
    compress_snapshots,
    e_step,
    init_state,
    ml_cost,
    prune,
    run,
    update_b,
    update_gamma,
    update_lambda,
)
from oracles import (
    block_diag_prior,
    dense_em,
    dense_flat_cost,
    dense_flat_posterior,
    dense_ml_cost,
    dense_posterior,
    dense_sigma_y,
    flat_dictionary_loop,
    kron_identity_loop,
)


def _random_instance(rng, nx=3, ny=2, mu=5, n_snap=7, k=2):
    grid_u = uniform_grid(mu)
    grid_v = uniform_grid(8)
    pair = dictionary_pair(UraConfig(nx, ny), grid_u, grid_v)
    us = rng.choice(grid_u.points[np.abs(grid_u.points) < 0.8], size=k, replace=False)
    vs = rng.uniform(-0.5, 0.5, size=k)
    scene = Scene(sources=tuple(Source(float(u), float(v)) for u, v in zip(us, vs)),
                  snr_db=15.0, num_snapshots=n_snap, seed=int(rng.integers(1 << 31)))
    y = synthesize_snapshots(scene, UraConfig(nx, ny))
    return y, pair


def _random_state(rng, m, b, lam=0.05):
    gamma = rng.uniform(0.1, 2.0, size=m)
    b_mats = np.empty((m, b, b), dtype=complex)
    for i in range(m):
        a = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        h = a @ a.conj().T + 0.1 * np.eye(b)
        b_mats[i] = h / np.linalg.norm(h, "fro")
    b_mats = 0.5 * (b_mats + b_mats.conj().swapaxes(-1, -2))  # exactly Hermitian
    return HMsblState(gamma=gamma, b_mats=b_mats, noise_var=lam)


# ---------------------------------------------------------------------------
# initialization


def test_init_state_frobenius_ratio():
    # [DERIVED] gamma_0 = ||S_hat||_F / ||D D^H||_F with D = Phi_u o I_ny
    rng = np.random.default_rng(0)
    y, pair = _random_instance(rng)
    params = HMsblParams(lambda_value=0.1)
    state = init_state(y, pair, params)
    d = np.kron(pair.phi_u, np.eye(pair.phi_v.shape[0]))
    want = np.linalg.norm(sample_covariance(y), "fro") / np.linalg.norm(d @ d.conj().T, "fro")
    np.testing.assert_allclose(state.gamma, want, rtol=1e-12)
    assert state.noise_var == 0.1
    np.testing.assert_allclose(np.linalg.norm(state.b_mats, axis=(1, 2)), 1.0, rtol=1e-15)
    assert state.active.all()


def test_init_state_scales_with_data_power():
    # scaling the snapshots by c scales the initial gamma by c^2 exactly
    rng = np.random.default_rng(1)
    y, pair = _random_instance(rng)
    y2 = SnapshotSet(y=2.0 * y.y, nx=y.nx, ny=y.ny, n_snapshots=y.n_snapshots)
    params = HMsblParams(lambda_value=0.1)
    g1 = init_state(y, pair, params).gamma
    g2 = init_state(y2, pair, params).gamma
    np.testing.assert_allclose(g2, 4.0 * g1, rtol=1e-12)


def test_init_state_rejects_zero_data():
    y = SnapshotSet(y=np.zeros((6, 4), dtype=complex), nx=3, ny=2, n_snapshots=4)
    pair = dictionary_pair(UraConfig(3, 2), uniform_grid(5), uniform_grid(5))
    with pytest.raises(DegenerateInputError):
        init_state(y, pair, HMsblParams())


# ---------------------------------------------------------------------------
# E-step against dense Gaussian conditioning


def test_e_step_matches_dense_oracle():
    rng = np.random.default_rng(2)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=5)
    state = _random_state(rng, m=5, b=2)
    post = e_step(y, state, pair)
    mu_o, sig_o = dense_posterior(y.y, pair.phi_u, 2, state.gamma, state.b_mats,
                                  state.noise_var)
    assert np.max(np.abs(post.mu - mu_o)) < 1e-10
    assert np.max(np.abs(post.sigma_blocks - sig_o)) < 1e-10


def test_e_step_flat_matches_dense_oracle():
    rng = np.random.default_rng(3)
    y, pair = _random_instance(rng, nx=2, ny=2)
    kd = kron_dictionary(pair, prune=True)
    m = kd.size
    gamma = rng.uniform(0.05, 1.0, size=m)
    state = HMsblState(gamma=gamma, b_mats=np.ones((m, 1, 1), dtype=complex), noise_var=0.07)
    post = e_step(y, state, kd)
    mu_o, var_o = dense_flat_posterior(y.y, kd.matrix, gamma, 0.07)
    assert np.max(np.abs(post.mu - mu_o)) < 1e-10
    assert np.max(np.abs(post.sigma_blocks[:, 0, 0] - var_o)) < 1e-10


def test_e_step_respects_inactive_blocks():
    rng = np.random.default_rng(4)
    y, pair = _random_instance(rng)
    state = _random_state(rng, m=5, b=2)
    state.gamma[2] = 0.0  # pruned
    post = e_step(y, state, pair)
    mu_o, _ = dense_posterior(y.y, pair.phi_u, 2, state.gamma, state.b_mats, state.noise_var)
    assert np.max(np.abs(post.mu - mu_o)) < 1e-10
    assert np.all(post.mu.reshape(5, 2, -1)[2] == 0)


# ---------------------------------------------------------------------------
# M-step pieces


def test_update_gamma_diagonal_example():
    # [DERIVED] B = I/sqrt(2), R = diag(a, b) -> gamma = sqrt(2) (a + b) / 2
    a, b = 0.7, 0.2
    state = HMsblState(
        gamma=np.array([1.0]),
        b_mats=(np.eye(2, dtype=complex) / np.sqrt(2))[None],
        noise_var=0.1)
    post = SimpleNamespace(mu=np.zeros((2, 4), dtype=complex),
                           sigma_blocks=np.diag([a, b]).astype(complex)[None])
    got = update_gamma(post, state, n_snapshots=4, b_loading=HMsblParams().b_loading)
    assert got[0] == pytest.approx(np.sqrt(2) * (a + b) / 2, rel=1e-8)


def test_update_gamma_fixed_point():
    # moment exactly c B -> gamma = c for any unit-norm positive B
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    bmat = a @ a.conj().T + 0.5 * np.eye(3)
    bmat /= np.linalg.norm(bmat, "fro")
    c = 2.37
    state = HMsblState(gamma=np.array([1.0]), b_mats=bmat[None], noise_var=0.1)
    post = SimpleNamespace(mu=np.zeros((3, 5), dtype=complex), sigma_blocks=(c * bmat)[None])
    got = update_gamma(post, state, n_snapshots=5, b_loading=HMsblParams().b_loading)
    assert got[0] == pytest.approx(c, rel=1e-7)


def test_update_gamma_uses_snapshot_average():
    # R = Sigma + mu mu^H / L: two identical snapshots, Sigma = 0
    m = np.array([1.0 + 1j, 2.0], dtype=complex)
    mu = np.column_stack([m, m])
    state = HMsblState(gamma=np.array([1.0]),
                       b_mats=np.eye(2, dtype=complex)[None] / np.sqrt(2),
                       noise_var=0.1)
    post = SimpleNamespace(mu=mu, sigma_blocks=np.zeros((1, 2, 2), dtype=complex))
    got = update_gamma(post, state, n_snapshots=2, b_loading=HMsblParams().b_loading)
    want = np.sqrt(2) * np.trace(np.outer(m, m.conj())).real / 2
    assert got[0] == pytest.approx(want, rel=1e-8)


def test_update_gamma_block_size_one():
    # b = 1: gamma_i = moment_i / (B_i + loading), no matrix solve; the
    # pruned block 2 stays at zero
    state = HMsblState(gamma=np.array([1.0, 1.0, 0.0]),
                       b_mats=np.array([0.5, 2.0, 1.0])[:, None, None] + 0j, noise_var=0.1)
    post = SimpleNamespace(mu=np.zeros((3, 2), dtype=complex),
                           sigma_blocks=np.array([0.3, 0.8, 0.4])[:, None, None] + 0j)
    got = update_gamma(post, state, n_snapshots=2, b_loading=1e-3)
    np.testing.assert_allclose(got, [0.3 / 0.501, 0.8 / 2.001, 0.0], rtol=1e-14)


def test_update_b_identity_moment():
    # [DERIVED] moment I (2x2), gamma 1 -> B = I / sqrt(2)
    state = HMsblState(gamma=np.array([1.0]),
                       b_mats=np.eye(2, dtype=complex)[None],
                       noise_var=0.1)
    post = SimpleNamespace(mu=np.zeros((2, 3), dtype=complex),
                           sigma_blocks=np.eye(2, dtype=complex)[None])
    got = update_b(post, state, n_snapshots=3)
    np.testing.assert_allclose(got[0], np.eye(2) / np.sqrt(2), atol=1e-14)


def test_update_b_rank_one_moment():
    # single snapshot, zero posterior covariance -> B = m m^H / ||m||^2
    m = np.array([1.0, 1j, -0.5], dtype=complex)
    state = HMsblState(gamma=np.array([0.9]),
                       b_mats=np.eye(3, dtype=complex)[None] / np.sqrt(3),
                       noise_var=0.1)
    post = SimpleNamespace(mu=m[:, None], sigma_blocks=np.zeros((1, 3, 3), dtype=complex))
    got = update_b(post, state, n_snapshots=1)
    want = np.outer(m, m.conj()) / (np.linalg.norm(m) ** 2)
    np.testing.assert_allclose(got[0], want, atol=1e-14)
    assert np.linalg.norm(got[0], "fro") == pytest.approx(1.0, rel=1e-14)


def test_update_b_keeps_inactive_blocks():
    rng = np.random.default_rng(6)
    state = _random_state(rng, m=3, b=2)
    state.gamma[1] = 0.0  # pruned
    old = state.b_mats.copy()
    post = SimpleNamespace(mu=rng.standard_normal((6, 4)) + 0j,
                           sigma_blocks=np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy())
    got = update_b(post, state, n_snapshots=4)
    np.testing.assert_array_equal(got[1], old[1])


# ---------------------------------------------------------------------------
# noise-variance update


def test_update_lambda_matches_dense_formula():
    rng = np.random.default_rng(7)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=5)
    state = _random_state(rng, m=5, b=2, lam=0.3)
    post = e_step(y, state, pair)
    got = update_lambda(y, post.misfit, state, pair)

    n, L = y.size, y.n_snapshots
    d = np.kron(pair.phi_u, np.eye(2))
    resid = np.linalg.norm(y.y - d @ post.mu, "fro") ** 2 / (n * L)
    a = pair.phi_u
    g = (a * state.gamma) @ a.conj().T
    pen = state.noise_var * np.trace(np.linalg.solve(g + state.noise_var * np.eye(3), g)).real / 3
    assert got == pytest.approx(resid + pen, rel=1e-10)


def test_update_lambda_flat_matches_dense_formula():
    # the flat penalty is taken on the whole dictionary A = D (n_a = n),
    # with pruned columns at gamma = 0
    rng = np.random.default_rng(17)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=5)
    kd = kron_dictionary(pair)
    gamma = rng.uniform(0.05, 1.0, size=kd.size)
    gamma[rng.uniform(size=kd.size) < 0.4] = 0.0
    state = HMsblState(gamma=gamma, b_mats=np.ones((kd.size, 1, 1), dtype=complex), noise_var=0.3)
    post = e_step(y, state, kd)
    got = update_lambda(y, post.misfit, state, kd)

    n, L = y.size, y.n_snapshots
    d = kd.matrix
    resid = np.linalg.norm(y.y - d @ post.mu, "fro") ** 2 / (n * L)
    g = (d * gamma) @ d.conj().T
    pen = 0.3 * np.trace(np.linalg.solve(g + 0.3 * np.eye(n), g)).real / n
    assert got == pytest.approx(resid + pen, rel=1e-10)


def test_update_lambda_floor():
    # zero gamma and an exact-fit posterior mean leave only the floor
    rng = np.random.default_rng(8)
    pair = dictionary_pair(UraConfig(2, 2), uniform_grid(3), uniform_grid(3))
    x = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    d = np.kron(pair.phi_u, np.eye(2))
    y = SnapshotSet(y=d @ x, nx=2, ny=2, n_snapshots=4)
    state = HMsblState(gamma=np.zeros(3), b_mats=_random_state(rng, 3, 2).b_mats, noise_var=0.1)
    misfit = float(np.linalg.norm(y.y - d @ x, "fro") ** 2)
    got = update_lambda(y, misfit, state, pair)
    floor = 1e-12 * np.linalg.norm(y.y, "fro") ** 2 / (4 * 4)  # L = 4, n = 4 rows
    assert got == pytest.approx(floor, rel=1e-9)


def test_update_lambda_penalty_saturates():
    # gamma -> inf drives the penalty factor to tr(I)/nx, i.e. lam itself
    rng = np.random.default_rng(9)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=5)
    state = _random_state(rng, m=5, b=2, lam=0.25)
    state.gamma = np.full(5, 1e14)
    misfit = float(np.linalg.norm(y.y, "fro") ** 2)  # mu = 0
    got = update_lambda(y, misfit, state, pair)
    resid = misfit / (y.size * y.n_snapshots)
    assert got == pytest.approx(resid + 0.25, rel=1e-6)


# ---------------------------------------------------------------------------
# cost


def test_ml_cost_identity_case():
    # [DERIVED] gamma = 0, lam = 1 -> Sigma_y = I -> cost = tr(S_hat)
    rng = np.random.default_rng(10)
    y, pair = _random_instance(rng)
    state = HMsblState(gamma=np.zeros(5),
                       b_mats=np.broadcast_to(np.eye(2, dtype=complex) / np.sqrt(2), (5, 2, 2)).copy(),
                       noise_var=1.0)
    got = ml_cost(y, state, pair)
    assert got == pytest.approx(np.trace(sample_covariance(y)).real, rel=1e-12)


def test_ml_cost_matches_dense_oracle():
    rng = np.random.default_rng(11)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=5)
    state = _random_state(rng, m=5, b=2, lam=0.2)
    got = ml_cost(y, state, pair)
    want = dense_ml_cost(sample_covariance(y), pair.phi_u, 2, state.gamma,
                         state.b_mats, 0.2)
    assert got == pytest.approx(want, rel=1e-10)


def test_ml_cost_flat_matches_dense_oracle():
    rng = np.random.default_rng(12)
    y, pair = _random_instance(rng, nx=2, ny=2)
    kd = kron_dictionary(pair)
    gamma = rng.uniform(0.01, 0.5, size=kd.size)
    state = HMsblState(gamma=gamma, b_mats=np.ones((kd.size, 1, 1), dtype=complex), noise_var=0.15)
    got = ml_cost(y, state, kd)
    want = dense_flat_cost(sample_covariance(y), kd.matrix, gamma, 0.15)
    assert got == pytest.approx(want, rel=1e-10)


def test_sigma_y_assembly_is_hermitian():
    rng = np.random.default_rng(13)
    y, pair = _random_instance(rng)
    state = _random_state(rng, m=5, b=2)
    op = solver._operator_for(pair, y)
    sy = op.signal_cov(solver._scaled_prior(state))
    assert np.array_equal(sy, sy.conj().T)  # exact, not approximate
    want = dense_sigma_y(pair.phi_u, 2, state.gamma, state.b_mats, 0.0)
    assert np.max(np.abs(sy - want)) < 1e-12


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _steering_factor(rng, n, m):
    # the grid points of a random strictly increasing grid of m points and
    # its steering matrix (n x m): the solver's operators take only these
    points = np.sort(rng.uniform(-1, 1, size=m))
    return points, steering_matrix(Grid1D(points), n)


def _steering_operator(rng, nx, ny, m, kind):
    """(operator, dense dictionary, block width, gram's A) over a random u
    grid of m points: Phi_u o I_ny for "kron", and for "column" the flat
    operator over every cell of that grid and a random v grid of ny points,
    whose M ny blocks of width one are the columns of Phi_u o Phi_v."""
    points, phi = _steering_factor(rng, nx, m)
    u = solver._KronIdentityOperator(points, nx, ny)
    if kind == "kron":
        return u, kron_identity_loop(phi, ny), ny, phi
    points_v, _ = _steering_factor(rng, ny, ny)
    d = flat_dictionary_loop([(a, c) for a in points for c in points_v], nx, ny)
    return solver._GridOperator(u, points_v, ny, np.arange(m * ny)), d, 1, d


@pytest.mark.parametrize("nx, ny, m", [(3, 2, 5), (2, 5, 7), (4, 3, 11), (1, 4, 6),
                                       (5, 1, 9), (1, 1, 4)])
@pytest.mark.parametrize("kind", ["kron", "column"])
def test_operator_kernels_match_dense_products(nx, ny, m, kind):
    # each kernel against the dense (Phi o I_ny) built by the index formula
    # for the steering matrix Phi of a random grid; the flat operator runs
    # on Phi o Phi_v, built by the steering formula, for a random v grid of
    # ny points, as M ny blocks of width one
    rng = np.random.default_rng(100 * nx + 10 * ny + m)
    op, d, b, _ = _steering_operator(rng, nx, ny, m, kind)
    n_blocks, n_snap = d.shape[1] // b, 3

    state = _random_state(rng, n_blocks, b)
    keep = rng.uniform(size=n_blocks) < 0.6  # partially pruned
    keep[0], keep[-1] = True, False
    state.gamma[~keep] = 0.0
    scaled = solver._scaled_prior(state)
    want = d @ block_diag_prior(np.ones(n_blocks), scaled) @ d.conj().T
    assert np.max(np.abs(op.signal_cov(scaled) - want)) < 1e-12

    rmat = _cplx(rng, nx * ny, nx * ny)  # not Hermitian: every index order counts
    full = d.conj().T @ rmat @ d
    want = np.array([full[i * b:(i + 1) * b, i * b:(i + 1) * b] for i in range(n_blocks)])
    assert np.max(np.abs(op.quad_blocks(rmat) - want)) < 1e-12

    w = _cplx(rng, nx * ny, n_snap)
    want = (d.conj().T @ w).reshape(n_blocks, b, n_snap)
    assert np.max(np.abs(op.adjoint_blocks(w) - want)) < 1e-12



@pytest.mark.parametrize("nx, ny, m", [(1, 3, 8), (4, 1, 9), (2, 5, 7), (6, 2, 56), (6, 2, 57),
                                       (5, 3, 80)])
@pytest.mark.parametrize("kind", ["kron", "column"])
@pytest.mark.parametrize("one_block", [False, True])
def test_lag_kernels_match_dense_products(nx, ny, m, kind, one_block):
    # the lag kernels at their edges, each against the dense dictionary:
    # a single lag (nx = 1), one v row (ny = 1), unequal axes, a restriction
    # to one block, and both groupings of the block operator's quad_blocks,
    # P R below its flop rule (56 blocks at nx = 6, and every restriction to
    # one block) and E (S R) on or above it (57 at nx = 6, 80 at nx = 5)
    lags = m * nx * nx >= 2 * (2 * nx - 1) * (nx * nx + m)
    assert lags == (m in (57, 80))
    rng = np.random.default_rng(10 * m + nx + 7 * ny + one_block)
    op, d, b, a = _steering_operator(rng, nx, ny, m, kind)
    index = rng.integers(op.n_blocks, size=1) if one_block else np.arange(op.n_blocks)
    if one_block:
        op = op.restrict(index)
    sub = d[:, (index[:, None] * b + np.arange(b)).ravel()]  # the columns of those blocks
    n = nx * ny

    scaled = solver._scaled_prior(_random_state(rng, index.size, b))
    want = sub @ block_diag_prior(np.ones(index.size), scaled) @ sub.conj().T
    assert _rel_err(op.signal_cov(scaled), want) < 1e-12

    w = rng.uniform(0.1, 2.0, size=index.size)
    want = (a[:, index] * w) @ a[:, index].conj().T
    assert _rel_err(op.gram(w), want) < 1e-12

    rmat = _cplx(rng, n, n)  # not Hermitian: every index order counts
    full = sub.conj().T @ rmat @ sub
    want = np.array([full[i * b:(i + 1) * b, i * b:(i + 1) * b] for i in range(index.size)])
    assert _rel_err(op.quad_blocks(rmat), want) < 1e-12

    y = _cplx(rng, n, 3)
    want = (sub.conj().T @ y).reshape(index.size, b, 3)
    assert _rel_err(op.adjoint_blocks(y), want) < 1e-12


@pytest.mark.parametrize("nx, ny, m", [(3, 2, 5), (2, 5, 7), (1, 4, 6), (5, 1, 9), (1, 1, 4)])
@pytest.mark.parametrize("kind", ["kron", "column"])
@pytest.mark.parametrize("compress", [False, True])
def test_em_statistics_match_dense_oracle(nx, ny, m, kind, compress):
    # the moments, cost and noise update run() takes from R = Sigma_y^-1 and
    # R Y, against dense Gaussian conditioning on the uncompressed data
    rng = np.random.default_rng(1000 * nx + 100 * ny + m + 7 * compress)
    op, d, b, a = _steering_operator(rng, nx, ny, m, kind)
    n = nx * ny
    wide = _cplx(rng, n, 3 * n + 2)  # more snapshots than rows: compression acts
    n_blocks = d.shape[1] // b
    state = _random_state(rng, n_blocks, b, lam=0.3)
    keep = rng.uniform(size=n_blocks) < 0.6  # partially pruned
    keep[0], keep[-1] = True, False
    state.gamma[~keep] = 0.0
    gamma = state.gamma
    # fewer snapshots than rows, as on large-array (L = 50 < 64): R Y is
    # thinner than S (a single row has no fewer than one)
    thin = _cplx(rng, n, max(n - 1, 1))

    # run() works on the active blocks alone and scatters back to all of them
    cop, at = solver._active_part(op, state)
    assert cop.n_blocks == state.active.sum()
    np.testing.assert_array_equal(at, np.flatnonzero(state.active))
    for snapshots in (wide, thin):
        n_snap = snapshots.shape[1]
        y = SnapshotSet(y=snapshots, nx=nx, ny=ny, n_snapshots=n_snap)
        data = compress_snapshots(y) if compress else y
        assert (data.y.shape[1] < n_snap) == (compress and n_snap > n)
        post = solver._marginal(cop, solver._scaled_prior(state)[at], state.noise_var, data)
        if kind == "kron":
            mu_o, sig_o = dense_posterior(y.y, a, ny, gamma, state.b_mats, 0.3)
            cost_o = dense_ml_cost(sample_covariance(y), a, ny, gamma, state.b_mats, 0.3)
        else:
            mu_o, var_o = dense_flat_posterior(y.y, d, gamma, 0.3)
            sig_o = var_o[:, None, None]
            cost_o = dense_flat_cost(sample_covariance(y), d, gamma, 0.3)
        mu_b = mu_o.reshape(n_blocks, b, n_snap)
        moments_o = sig_o + mu_b @ mu_b.conj().swapaxes(-1, -2) / n_snap
        assert np.max(np.abs(cop.scatter(solver._moments(post)) - moments_o)) < 1e-10
        assert post.cost == pytest.approx(cost_o, rel=1e-10)

        misfit_o = np.linalg.norm(y.y - d @ mu_o, "fro") ** 2
        assert post.misfit == pytest.approx(misfit_o, rel=1e-10)
        assert np.max(np.abs(post.sigma_blocks - sig_o)) < 1e-10
        if data is y:  # mu of the compressed data is not that of the data
            assert np.max(np.abs(post.mu - mu_o)) < 1e-10
        g = (a * gamma) @ a.conj().T
        pen = 0.3 * np.trace(np.linalg.solve(g + 0.3 * np.eye(a.shape[0]), g)).real / a.shape[0]
        got = update_lambda(data, post.misfit, state, op)  # as run() calls it
        assert got == pytest.approx(misfit_o / (n * n_snap) + pen, rel=1e-10)


@pytest.mark.parametrize("nx, ny, m", [(3, 2, 5), (2, 5, 7), (5, 1, 9), (1, 4, 6), (1, 1, 4)])
@pytest.mark.parametrize("kind", ["kron", "column"])
def test_marginal_matches_dense_inverse(nx, ny, m, kind):
    # R, R Y and the cost from the LAPACK factorisation against a dense
    # inverse and log-determinant; nx = ny = 1 factors a 1 x 1 Sigma_y
    rng = np.random.default_rng(500 + 100 * nx + 10 * ny + m)
    op, d, b, _ = _steering_operator(rng, nx, ny, m, kind)
    n_blocks, n = d.shape[1] // b, nx * ny
    state = _random_state(rng, n_blocks, b, lam=0.2)
    keep = rng.uniform(size=n_blocks) < 0.6
    keep[0] = True
    state.gamma[~keep] = 0.0
    y = _cplx(rng, n, 4)
    scm = y @ y.conj().T / 4

    marginal = solver._marginal(op, solver._scaled_prior(state), state.noise_var,
                                SnapshotSet(y=y, nx=nx, ny=ny, n_snapshots=4))
    sy = d @ block_diag_prior(state.gamma, state.b_mats) @ d.conj().T + 0.2 * np.eye(n)
    r = np.linalg.inv(sy)
    sign, logdet = np.linalg.slogdet(sy)
    assert sign.real > 0
    assert np.max(np.abs(marginal.rinv - r)) <= 1e-10 * np.max(np.abs(r))
    assert np.max(np.abs(marginal.ry - r @ y)) <= 1e-10 * np.max(np.abs(r @ y))
    assert marginal.cost == pytest.approx(logdet + np.trace(r @ scm).real, rel=1e-10)


def _grid_case(case):
    """(y, kron dictionary) of one grid shape: unequal axes on the full
    grid, criterion 1's one-point v grid (ny = 1), and disk-pruned cells."""
    rng = np.random.default_rng(["unequal", "one-point v", "disk"].index(case) + 60)
    if case == "unequal":
        nx, ny, grid_u, grid_v, prune = 3, 2, uniform_grid(5), uniform_grid(7), False
    elif case == "one-point v":
        nx, ny, grid_u, grid_v, prune = 4, 1, uniform_grid(12), Grid1D(np.array([0.0])), True
    else:
        nx, ny, grid_u, grid_v, prune = 2, 3, uniform_grid(9), uniform_grid(9), True
    kd = kron_dictionary(dictionary_pair(UraConfig(nx, ny), grid_u, grid_v), prune=prune)
    y = SnapshotSet(y=_cplx(rng, nx * ny, 4), nx=nx, ny=ny, n_snapshots=4)
    return rng, y, kd


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("case", ["unequal", "one-point v", "disk"])
def test_grid_operator_kernels_match_the_flat_dictionary(case, restricted):
    # every kernel of the flat operator, whole or restricted to a random
    # subset of its cells, against the materialised dictionary, which in
    # turn equals the steering formula column by column
    rng, y, kd = _grid_case(case)
    if case == "disk":
        assert kd.size < kd.pair.grid_u.size * kd.pair.grid_v.size
    d = kd.matrix
    assert _rel_err(d, flat_dictionary_loop(kd.column_labels, y.nx, y.ny)) < 1e-12
    op = solver._operator_for(kd, y)
    index = np.arange(kd.size)
    if restricted:
        index = np.flatnonzero(rng.uniform(size=kd.size) < 0.5)
        op = op.restrict(index)
        assert op.n_blocks == index.size and op.cells.size == index.size
    sub = d[:, index]
    n = y.size

    w = rng.uniform(0.1, 2.0, size=index.size)
    want = (sub * w) @ sub.conj().T
    assert _rel_err(op.signal_cov(w.astype(complex)[:, None, None]), want) < 1e-12
    assert _rel_err(op.gram(w), want) < 1e-12

    rmat = _cplx(rng, n, n)  # not Hermitian: every index order counts
    want = np.einsum("xc,xy,yc->c", sub.conj(), rmat, sub)
    assert _rel_err(op.quad_blocks(rmat)[:, 0, 0], want) < 1e-12

    want = sub.conj().T @ y.y
    assert _rel_err(op.adjoint_blocks(y.y)[:, 0, :], want) < 1e-12

    # scatter places the subset's blocks back among all cells, zero elsewhere
    placed = op.scatter(w[:, None, None])
    assert placed.shape == (kd.size, 1, 1)
    full = np.zeros(kd.size)
    full[index] = w
    np.testing.assert_array_equal(placed[:, 0, 0], full)

    # and the posterior through the (restricted) operator is the dense one
    # with the cells outside the subset at gamma = 0
    post = solver._marginal(op, w.astype(complex)[:, None, None], 0.2, y)
    mu_o, var_o = dense_flat_posterior(y.y, d, full, 0.2)
    assert _rel_err(post.mu, mu_o) < 1e-10
    assert _rel_err(post.sigma_blocks[:, 0, 0], var_o) < 1e-10
    assert post.cost == pytest.approx(dense_flat_cost(sample_covariance(y), d, full, 0.2),
                                      rel=1e-10)


@pytest.mark.parametrize("flat", [False, True])
def test_run_refuses_a_dictionary_of_another_geometry(flat):
    # a 4 x 4 pair against snapshots of other arrays; the block solver reads
    # no v grid, so only the flat path checks phi_v
    pair = dictionary_pair(UraConfig(4, 4), uniform_grid(6), uniform_grid(6))
    dictionary = kron_dictionary(pair) if flat else pair
    rng = np.random.default_rng(19)
    params = HMsblParams(max_iters=3)
    wide = SnapshotSet(y=_cplx(rng, 16, 5), nx=2, ny=8, n_snapshots=5)
    with pytest.raises(ValueError, match=r"phi_u has 4 rows for an nx = 2 array"):
        run(wide, dictionary, params)
    short = SnapshotSet(y=_cplx(rng, 8, 5), nx=4, ny=2, n_snapshots=5)
    if flat:
        with pytest.raises(ValueError, match=r"phi_v has 4 rows for an ny = 2 array"):
            run(short, dictionary, params)
    else:
        assert run(short, dictionary, params)[2].n_iters == 3


def test_flat_run_never_forms_the_dictionary():
    # run() on a kron dictionary reads its pair and cells only; the matrix
    # is derived on first read, and nothing read it
    rng = np.random.default_rng(18)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=8)
    kd = kron_dictionary(pair)
    run(y, kd, HMsblParams(max_iters=5, prune_tol=0.1, lambda_mode="adaptive"))
    assert "matrix" not in vars(kd)
    assert kd.matrix.shape == (6, kd.size)  # and it is there when asked for


def test_grid_operator_tables_are_small_at_16x16():
    # 16 x 16 with Mu = Mv = 200: the flat operator and the u operator it
    # wraps hold one lag table and one diagonal-sum matrix per axis, the
    # two-level Toeplitz index and the cell index, not the 121 MiB
    # dictionary; the kernels run first, so tables built on first use count
    pair = dictionary_pair(UraConfig(16, 16), uniform_grid(200), uniform_grid(200))
    kd = kron_dictionary(pair)
    y = SnapshotSet(y=np.zeros((256, 1), dtype=complex), nx=16, ny=16, n_snapshots=1)
    op = solver._operator_for(kd, y)
    assert isinstance(op.u, solver._KronIdentityOperator)
    post = solver._marginal(op, np.ones((kd.size, 1, 1), dtype=complex), 1.0, y)
    post.mu, post.sigma_blocks, op.gram(np.ones(kd.size))
    held = sum(v.nbytes for o in (op, op.u) for v in vars(o).values()
               if isinstance(v, np.ndarray))
    mib = 1 << 20
    assert held < 2 * mib
    assert kd.size * 256 * np.dtype(complex).itemsize > 120 * mib
    assert "matrix" not in vars(kd)


@pytest.mark.parametrize("case", ["negative lam", "lam 1e-30", "nan power", "inf power"])
def test_marginal_raises_on_an_indefinite_or_non_finite_sigma_y(case):
    # a rank-deficient signal part (1 block of size 2 on 6 rows: a steering
    # factor's Sigma_y then has four null directions, and its Cholesky
    # factorisation met a non-positive pivot at lam = 1e-30 for each of 200
    # seeds tried, two blocks for 169) leaves Sigma_y indefinite when lam is
    # negative or numerically so at lam = 1e-30
    rng = np.random.default_rng(34)
    op = solver._KronIdentityOperator(_steering_factor(rng, 3, 1)[0], 3, 2)
    state = _random_state(rng, 1, 2, lam=-0.5 if case == "negative lam" else 1e-30)
    if case == "nan power":
        state.gamma[0], state.noise_var = np.nan, 0.1
    if case == "inf power":
        state.gamma[0], state.noise_var = np.inf, 0.1
    y = _cplx(rng, 6, 8)
    data = SnapshotSet(y=y, nx=3, ny=2, n_snapshots=8)
    # inf * 0j warns in numpy's own arithmetic before LAPACK sees Sigma_y
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="not positive definite|non-finite") as err:
        solver._marginal(op, solver._scaled_prior(state), state.noise_var, data)
    if case == "lam 1e-30":
        # the message names the noise variance against the scale of Sigma_y
        sy = op.signal_cov(solver._scaled_prior(state))  # + 1e-30 I changes no digit
        scale = float(np.trace(sy).real) / 6
        assert f"lam = 1e-30, tr(Sigma_y)/n = {scale:.3g})" in str(err.value)


@pytest.mark.parametrize("flat", [False, True])
def test_adaptive_run_builds_one_operator(monkeypatch, flat):
    # run() builds its operator once and hands it to init_state and
    # update_lambda, which then build none of their own; the flat operator
    # builds its one u operator with it
    rng = np.random.default_rng(26)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6, n_snap=9)
    dictionary = kron_dictionary(pair, prune=True) if flat else pair
    built = []
    for cls in (solver._KronIdentityOperator, solver._GridOperator):
        def counting_init(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting_init)
    restricted = []
    restrict = solver._BlockOperator.restrict
    monkeypatch.setattr(solver._BlockOperator, "restrict",
                        lambda self, index: restricted.append(index.size) or restrict(self, index))
    params = HMsblParams(max_iters=8, prune_tol=0.1, lambda_mode="adaptive", cost_tol=0.0)
    _, _, diag = run(y, dictionary, params)
    assert diag.n_iters == 8
    assert built == (["_KronIdentityOperator", "_GridOperator"] if flat
                     else ["_KronIdentityOperator"])
    # and restricts it to the blocks left once per change of the active set,
    # the last iteration's included
    counts = [init_state(y, dictionary, params).n_blocks] + diag.active_counts
    changed = [b for a, b in zip(counts, counts[1:]) if b != a]
    assert changed and restricted == changed


@pytest.mark.parametrize("flat", [False, True])
def test_run_kernels_see_only_the_active_blocks(monkeypatch, flat):
    # iteration t forms its moments (quad_blocks) on the blocks active when
    # it starts and assembles Sigma_y (signal_cov) on the blocks it leaves
    # active; the only other kernel call is the assembly before the loop on
    # every block.  The posteriors run() hands out still cover every block.
    # The kernels counted are those of the operator run() holds, not of the
    # u operator inside the flat one
    rng = np.random.default_rng(33)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6, n_snap=9)
    dictionary = kron_dictionary(pair, prune=True) if flat else pair
    calls = []
    cls = solver._GridOperator if flat else solver._KronIdentityOperator
    for name in ("signal_cov", "quad_blocks"):
        def counting(self, arg, _kernel=getattr(cls, name), _name=name):
            calls.append((_name, self.n_blocks))
            return _kernel(self, arg)
        monkeypatch.setattr(cls, name, counting)
    n_all = init_state(y, dictionary, HMsblParams()).n_blocks
    shapes = []

    def mark(it, state, post):
        calls.append(("iteration", it))
        shapes.append((state.gamma.size, state.b_mats.shape[0], state.active.size))

    params = HMsblParams(max_iters=30, prune_tol=0.1, lambda_mode="adaptive", cost_tol=0.0)
    state, post, diag = run(y, dictionary, params, on_iteration=mark)
    before = [n_all] + diag.active_counts
    assert min(diag.active_counts) < n_all  # pruning shrank the set
    want = [("signal_cov", n_all)]
    for t in range(1, params.max_iters + 1):
        want += [("quad_blocks", before[t - 1]), ("signal_cov", before[t]), ("iteration", t)]
    assert calls == want
    assert shapes == [(n_all, n_all, n_all)] * params.max_iters
    assert post.mu.shape[0] == n_all * state.block_size
    assert post.sigma_blocks.shape[0] == n_all
    assert not post.sigma_blocks[~state.active].any()
    assert not post.mu[np.repeat(~state.active, state.block_size)].any()

    # with pruning off the operator is never restricted
    monkeypatch.setattr(solver._BlockOperator, "restrict",
                        lambda self, index: pytest.fail("restricted without a mask change"))
    _, _, diag = run(y, dictionary, HMsblParams(max_iters=30, prune_tol=0.0, cost_tol=0.0))
    assert diag.active_counts == [n_all] * 30


def test_run_posterior_is_formed_on_first_access(monkeypatch):
    # the loop never forms mu; the posterior run() returns forms it once,
    # when it is first read, and keeps it
    rng = np.random.default_rng(27)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6, n_snap=9)
    calls = []
    adjoint = solver._KronIdentityOperator.adjoint_blocks
    monkeypatch.setattr(solver._KronIdentityOperator, "adjoint_blocks",
                        lambda self, w: calls.append(1) or adjoint(self, w))
    _, post, diag = run(y, pair, HMsblParams(max_iters=6, lambda_mode="adaptive", cost_tol=0.0))
    assert diag.n_iters == 6 and calls == []
    assert post.mu is post.mu
    assert calls == [1]


# ---------------------------------------------------------------------------
# pruning


def test_state_activity_is_read_off_gamma():
    # a block is active while its power is positive; there is no second,
    # settable record of it
    state = HMsblState(gamma=np.array([2.0, 0.0, 1e-300]),
                       b_mats=np.ones((3, 1, 1), dtype=complex), noise_var=0.1)
    np.testing.assert_array_equal(state.active, [True, False, True])
    state.gamma[0] = 0.0
    np.testing.assert_array_equal(state.active, [False, False, True])
    with pytest.raises(AttributeError):
        state.active = np.ones(3, dtype=bool)
    with pytest.raises(TypeError):
        HMsblState(gamma=state.gamma, b_mats=state.b_mats, noise_var=0.1,
                   active=np.ones(3, dtype=bool))


def test_prune_relative_threshold():
    state = HMsblState(gamma=np.array([1.0, 1e-2, 1e-5, 0.0]),
                       b_mats=np.ones((4, 1, 1), dtype=complex), noise_var=0.1)
    got = prune(state, HMsblParams(prune_tol=1e-3))
    np.testing.assert_array_equal(got, [True, True, False, False])
    state.gamma *= 1e6  # the threshold scales with the largest power
    np.testing.assert_array_equal(prune(state, HMsblParams(prune_tol=1e-3)), got)


def test_prune_zero_tol_disables():
    state = HMsblState(gamma=np.array([1.0, 1e-9]), b_mats=np.ones((2, 1, 1), dtype=complex),
                       noise_var=0.1)
    got = prune(state, HMsblParams(prune_tol=0.0))
    np.testing.assert_array_equal(got, [True, True])
    state.gamma[1] = 0.0
    got = prune(state, HMsblParams(prune_tol=0.0))
    np.testing.assert_array_equal(got, [True, False])


def test_prune_is_permanent():
    # a pruned block (gamma = 0) stays out at any tolerance: the mask is a
    # subset of the active set
    state = HMsblState(gamma=np.array([0.0, 1.0]), b_mats=np.ones((2, 1, 1), dtype=complex),
                       noise_var=0.1)
    for tol in (0.0, 1e-3, 1.0):
        got = prune(state, HMsblParams(prune_tol=tol))
        np.testing.assert_array_equal(got, [False, True])


def test_prune_all_would_die():
    # a tolerance above 1 is above even the largest power
    state = HMsblState(gamma=np.array([1.0, 0.5]), b_mats=np.ones((2, 1, 1), dtype=complex),
                       noise_var=0.1)
    with pytest.raises(SolverError, match="pruning removed every block"):
        prune(state, HMsblParams(prune_tol=2.0))


# ---------------------------------------------------------------------------
# snapshot compression


def test_compress_preserves_outer_product():
    rng = np.random.default_rng(14)
    y = SnapshotSet(y=rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40)),
                    nx=3, ny=2, n_snapshots=40)
    z = compress_snapshots(y)
    assert z.y.shape[1] <= 6
    assert z.n_snapshots == 40  # statistical count unchanged
    np.testing.assert_allclose(z.y @ z.y.conj().T, y.y @ y.y.conj().T,
                               atol=1e-10 * np.linalg.norm(y.y) ** 2)


def test_compress_short_input_untouched():
    rng = np.random.default_rng(15)
    y = SnapshotSet(y=rng.standard_normal((6, 5)) + 0j, nx=3, ny=2, n_snapshots=5)
    assert compress_snapshots(y) is y


def test_compress_zero_data():
    y = SnapshotSet(y=np.zeros((4, 9), dtype=complex), nx=2, ny=2, n_snapshots=9)
    z = compress_snapshots(y)
    assert z.y.shape == (4, 1)
    assert not z.y.any()
    assert z.n_snapshots == 9


def test_compress_rank_deficient():
    rng = np.random.default_rng(16)
    base = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    coef = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
    y = SnapshotSet(y=base @ coef, nx=3, ny=2, n_snapshots=30)
    z = compress_snapshots(y)
    assert z.y.shape[1] == 2  # numerical rank respected
    np.testing.assert_allclose(z.y @ z.y.conj().T, y.y @ y.y.conj().T,
                               atol=1e-10 * np.linalg.norm(y.y) ** 2)


# ---------------------------------------------------------------------------
# full loop


def test_run_zero_iterations():
    rng = np.random.default_rng(17)
    y, pair = _random_instance(rng)
    state, post, diag = run(y, pair, HMsblParams(max_iters=0, lambda_value=0.1))
    assert diag.n_iters == 0
    assert len(diag.cost_trace) == 1
    assert post.mu.shape[0] == state.n_blocks * state.block_size
    assert not diag.converged


def test_run_cost_monotone():
    rng = np.random.default_rng(18)
    for trial in range(3):
        y, pair = _random_instance(rng, nx=4, ny=3, mu=8, n_snap=12)
        params = HMsblParams(max_iters=60, prune_tol=0.0, cost_tol=0.0,
                             lambda_value=noise_power(15.0))
        _, _, diag = run(y, pair, params)
        c = np.array(diag.cost_trace)
        steps = np.diff(c)
        tol = 1e-8 * np.maximum(1.0, np.abs(c[:-1]))
        assert np.all(steps <= tol), f"trial {trial}: max increase {steps.max()}"


@pytest.mark.parametrize("nx, ny", [(3, 2), (2, 4), (4, 1), (3, 3)])
@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("prune_tol", [0.0, 2e-2])
@pytest.mark.parametrize("lambda_mode", ["fixed", "adaptive"])
@pytest.mark.parametrize("compress, wide", [(False, False), (True, False),
                                            (False, True), (True, True)])
def test_run_follows_the_dense_literal_em(nx, ny, flat, prune_tol, lambda_mode, compress,
                                          wide):
    # run() against the paper's loop on the dictionary written out as a
    # matrix, iteration by iteration: the cost, every Gamma_i = gamma_i B_i
    # (zero on pruned blocks) and lambda; ``wide`` takes more snapshots than
    # rows, where compression acts
    rng = np.random.default_rng(70 + 10 * nx + ny + 100 * wide)
    n_snap = 2 * nx * ny + 3 if wide else 3
    y, pair = _random_instance(rng, nx=nx, ny=ny, mu=7, n_snap=n_snap)
    if flat:
        dictionary = kron_dictionary(pair, prune=True)
        dmat, b = flat_dictionary_loop(dictionary.column_labels, nx, ny), 1
    else:
        dictionary, dmat, b = pair, kron_identity_loop(pair.phi_u, ny), ny
    params = HMsblParams(max_iters=30, prune_tol=prune_tol, cost_tol=0.0,
                         lambda_mode=lambda_mode, lambda_value=0.03, compress=compress)
    seen = []

    def observe(it, state, post):
        seen.append((state.gamma[:, None, None] * state.b_mats, state.noise_var))

    state, post, diag = run(y, dictionary, params, on_iteration=observe)
    costs, priors, lams = dense_em(y, dmat, b, params)
    assert diag.n_iters == 30 and len(seen) == 30
    for got, want in zip(diag.cost_trace, costs):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    for (prior, lam), want_prior, want_lam in zip(seen, priors[1:], lams[1:]):
        assert np.max(np.abs(prior - want_prior)) <= 1e-9 * np.max(np.abs(want_prior))
        np.testing.assert_array_equal(prior == 0, want_prior == 0)  # the same blocks pruned
        assert lam == pytest.approx(want_lam, rel=1e-9)
    np.testing.assert_array_equal(state.gamma[:, None, None] * state.b_mats, seen[-1][0])


def test_run_gamma_b_product_equals_moment():
    # after each iteration gamma_i B_i must equal the posterior moment block
    # of the state before it, which the observer got with that state
    rng = np.random.default_rng(19)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6)
    seen, last = [], []

    def grab(it, state, post):
        scaled = state.gamma[:, None, None] * state.b_mats
        if last:
            err = np.max(np.abs(scaled[state.active] - last.pop()[state.active]))
            seen.append(err)
        last.append(solver._moment_blocks(post, state.n_blocks, state.block_size,
                                          y.n_snapshots))

    run(y, pair, HMsblParams(max_iters=6, prune_tol=0.0, lambda_value=0.05),
        on_iteration=grab)
    assert len(seen) == 5
    assert max(seen) < 1e-10


def _recording_moments(monkeypatch, edit=None):
    # wrap the moments run() consumes, optionally editing them first; they
    # are those of the active blocks, recorded over all blocks
    seen = []
    moments = solver._moments

    def wrapped(post):
        m = moments(post)
        if edit is not None:
            m = edit(m.copy())
        seen.append(post.op.scatter(m).copy())
        return m

    monkeypatch.setattr(solver, "_moments", wrapped)
    return seen


@pytest.mark.parametrize("nx, ny, flat", [(3, 2, False), (2, 4, False), (4, 1, False),
                                          (3, 2, True)])
def test_run_m_step_is_gamma_then_b_then_pushback(monkeypatch, nx, ny, flat):
    # one iteration's (gamma, B) equals the public update_gamma -> update_b
    # composition with the Frobenius scale pushed back into gamma, also once
    # pruning has left a partial active set
    rng = np.random.default_rng(29 + 10 * nx + ny)
    y, pair = _random_instance(rng, nx=nx, ny=ny, mu=16, n_snap=20, k=2)
    dictionary = kron_dictionary(pair, prune=True) if flat else pair
    params = HMsblParams(max_iters=30, prune_tol=2e-2, lambda_mode="adaptive", cost_tol=0.0)
    moments = _recording_moments(monkeypatch)
    states = [init_state(y, dictionary, params)]

    def grab(it, state, post):
        states.append(HMsblState(gamma=state.gamma.copy(), b_mats=state.b_mats.copy(),
                                 noise_var=state.noise_var))

    run(y, dictionary, params, on_iteration=grab)
    assert len(moments) == params.max_iters
    assert not all(s.active.all() for s in states[:-1])  # some start partially pruned
    for prev, m, nxt in zip(states, moments, states[1:]):
        post = SimpleNamespace(mu=np.zeros((m.shape[0] * m.shape[1], 1), dtype=complex), sigma_blocks=m)
        g = update_gamma(post, prev, 1, params.b_loading)
        mid = HMsblState(gamma=g, b_mats=prev.b_mats, noise_var=prev.noise_var)
        b_mats = update_b(post, mid, 1)
        ok = mid.active
        pushed = np.zeros_like(g)
        pushed[ok] = g[ok] * np.linalg.norm(m[ok] / g[ok, None, None], axis=(1, 2))
        assert not (nxt.active & ~ok).any()
        want = np.where(nxt.active, pushed, 0.0)
        assert np.max(np.abs(nxt.gamma - want)) <= 1e-12 * np.max(want)
        assert np.max(np.abs(nxt.b_mats - b_mats)) <= 1e-12


@pytest.mark.parametrize("flat", [False, True])
def test_benchmark_probe_calls_match_the_run(flat):
    # the calls the traced benchmark makes from run()'s on_iteration hook
    # (perfbench/spans.py, _probe), on the compressed snapshots of a
    # compressed, adaptive-lambda run that prunes: the reference
    # update_gamma -> update_b on the posterior of one state, with
    # update_b's Frobenius scale pushed back into gamma, reproduces the
    # Gamma_i = gamma_i B_i of the state the next iteration reached
    rng = np.random.default_rng(41)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=16, n_snap=20, k=2)
    dictionary = kron_dictionary(pair, prune=True) if flat else pair
    params = HMsblParams(max_iters=30, prune_tol=2e-2, lambda_mode="adaptive",
                         cost_tol=0.0, compress=True)
    data = compress_snapshots(y)
    assert data.y.shape[1] < data.n_snapshots
    partial, errors, costs, predicted = [], [], [], []

    def probe(it, state, post):
        fresh = e_step(data, state, dictionary)
        cost = ml_cost(data, state, dictionary)
        g = update_gamma(post, state, data.n_snapshots, params.b_loading)
        b_mats = update_b(post, state, data.n_snapshots)
        assert cost == fresh.cost and np.isfinite(cost)
        costs.append(cost)

        act = state.active
        if predicted:  # the previous state's posterior predicted this one
            got, b_prev, ok = predicted.pop()
            assert not (act & ~ok).any()
            want = state.gamma[act, None, None] * state.b_mats[act]
            errors.append(np.max(np.abs(got[act] - want)) / np.max(np.abs(want)))
            errors.append(np.max(np.abs(b_prev[act] - state.b_mats[act])))
            partial.append(not act.all())
        mid = HMsblState(gamma=g, b_mats=state.b_mats, noise_var=state.noise_var)
        b_mid = update_b(post, mid, data.n_snapshots)
        moments = solver._moment_blocks(post, state.n_blocks, state.block_size, data.n_snapshots)
        ok = mid.active
        assert not (ok & ~act).any()
        got = np.zeros_like(b_mid)
        pushed = g[ok] * np.linalg.norm(moments[ok] / g[ok, None, None], axis=(1, 2))
        got[ok] = pushed[:, None, None] * b_mid[ok]
        predicted.append((got, b_mats, ok))

    _, _, diag = run(y, dictionary, params, on_iteration=probe)
    assert len(errors) == 2 * (params.max_iters - 1)
    assert any(partial) and not all(partial)
    assert max(errors) <= 1e-12
    # ml_cost on the state each iteration left, pruned or not, is the cost
    # run() recorded for it
    for t in range(params.max_iters):
        assert costs[t] == pytest.approx(diag.cost_trace[t + 1], rel=1e-12)


def test_run_drops_a_block_whose_moment_is_zero(monkeypatch):
    rng = np.random.default_rng(30)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6)

    def zero_block_2(m):
        m[2] = 0.0
        return m

    _recording_moments(monkeypatch, zero_block_2)
    params = HMsblParams(max_iters=1, prune_tol=0.0, lambda_value=0.05)
    state, _, diag = run(y, pair, params)
    assert diag.n_iters == 1 and np.isfinite(diag.cost_trace).all()
    np.testing.assert_array_equal(state.active, [True, True, False, True, True, True])
    assert state.gamma[2] == 0.0 and np.all(state.gamma[state.active] > 0)
    # the dead block keeps the B it had
    np.testing.assert_array_equal(state.b_mats[2], init_state(y, pair, params).b_mats[2])

    monkeypatch.undo()
    _recording_moments(monkeypatch, np.zeros_like)
    with pytest.raises(SolverError, match="all block powers collapsed to zero"):
        run(y, pair, HMsblParams(max_iters=1, prune_tol=0.0, lambda_value=0.05))


@pytest.mark.parametrize("observed", [False, True])
def test_a_block_that_dies_keeps_the_b_of_its_last_moment(monkeypatch, observed):
    # block 2's moment is zeroed at iteration 3: it leaves the active set
    # with the B of its iteration-2 moment, with or without an observer
    rng = np.random.default_rng(31)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6)
    calls = []

    def zero_block_2_at_3(m):
        calls.append(1)
        if len(calls) == 3:
            m[2] = 0.0
        return m

    moments = _recording_moments(monkeypatch, zero_block_2_at_3)
    params = HMsblParams(max_iters=5, prune_tol=0.0, lambda_value=0.05)
    observer = (lambda it, state, post: None) if observed else None
    state, _, diag = run(y, pair, params, on_iteration=observer)
    assert diag.active_counts == [6, 6, 5, 5, 5] and not state.active[2]
    want = moments[1][2] / np.linalg.norm(moments[1][2])
    assert np.max(np.abs(state.b_mats[2] - want)) <= 1e-15


@pytest.mark.parametrize("observed", [False, True])
def test_a_block_that_dies_in_a_restricted_run_keeps_the_b_of_its_last_moment(monkeypatch, observed):
    # block 2 dies at iteration 3, so from iteration 4 the loop runs on the
    # restricted operator; block 4 then dies there at iteration 5.  Each
    # keeps the B of the moment before its death, with or without an observer
    rng = np.random.default_rng(31)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6)
    calls = []

    def zero_blocks_2_and_4(m):
        calls.append(1)
        if len(calls) == 3:
            m[2] = 0.0
        if len(calls) == 5:
            m[3] = 0.0  # block 4 is the fourth of the five blocks left
        return m

    moments = _recording_moments(monkeypatch, zero_blocks_2_and_4)
    params = HMsblParams(max_iters=7, prune_tol=0.0, lambda_value=0.05)
    observer = (lambda it, state, post: None) if observed else None
    state, _, diag = run(y, pair, params, on_iteration=observer)
    assert diag.active_counts == [6, 6, 5, 5, 4, 4, 4]
    np.testing.assert_array_equal(state.active, [True, True, False, True, False, True])
    for block, last in ((2, moments[1][2]), (4, moments[3][4])):
        assert np.max(np.abs(state.b_mats[block] - last / np.linalg.norm(last))) <= 1e-15


def _pruning_adaptive_case(flat, seed=41):
    rng = np.random.default_rng(seed)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=16, n_snap=20, k=2)
    return y, kron_dictionary(pair, prune=True) if flat else pair


def _stacked_sandwich(scaled, quad):
    # the Hermitian part of Gamma - Gamma Q Gamma by stacked products
    out = scaled - scaled @ quad @ scaled
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("case", ["disk", "disk, restricted", "kron, ny = 1"])
def test_width_one_moments_equal_the_stacked_form(case):
    # blocks of width one take elementwise products; they must give exactly
    # the stacked form's moments and posterior covariances, also where a
    # moment's trace is zero or negative and where Gamma is not real
    if case == "kron, ny = 1":
        rng = np.random.default_rng(67)
        pair = dictionary_pair(UraConfig(4, 1), uniform_grid(12), Grid1D(np.array([0.0])))
        y = SnapshotSet(y=_cplx(rng, 4, 6), nx=4, ny=1, n_snapshots=6)
        op = solver._operator_for(pair, y)
    else:
        rng, y, kd = _grid_case("disk")
        op = solver._operator_for(kd, y)
        if case == "disk, restricted":
            op = op.restrict(np.flatnonzero(rng.uniform(size=kd.size) < 0.5))
    assert op.block_size == 1
    m = op.n_blocks
    gamma = rng.uniform(0.1, 2.0, size=m).astype(complex)[:, None, None]
    post = solver._marginal(op, gamma, 0.2, y)
    rsr = (post.ry * (1.0 / y.n_snapshots)) @ post.ry.conj().T  # as _moments forms it
    q_moment = op.quad_blocks(post.rinv - rsr)
    q_sigma = op.quad_blocks(post.rinv)

    scaled = gamma.copy()
    scaled[0] = 0.0  # a zero moment
    scaled[1] = -1.0  # a negative one
    scaled[2] = 4.0 / q_moment[2].real  # Gamma Q Gamma = 4 Gamma: negative
    scaled[3] = 0.5 + 0.3j  # not real
    edited = solver.Posterior(op=op, data=y, scaled=scaled, rinv=post.rinv, ry=post.ry,
                              cost=post.cost, lam=post.lam)
    for posterior in (post, edited):
        got = solver._moments(posterior)
        want = _stacked_sandwich(posterior.scaled, q_moment)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype and got.shape == (m, 1, 1)
    assert got[0, 0, 0] == 0 and (got[1:3, 0, 0].real < 0).all()
    for posterior in (post, edited):
        np.testing.assert_array_equal(posterior.sigma_blocks,
                                      op.scatter(_stacked_sandwich(posterior.scaled, q_sigma)))


def test_a_flat_run_hands_out_unit_b_throughout(monkeypatch):
    # a unit-Frobenius 1 x 1 B is 1: every state a flat run shows its
    # observer, and the one it returns, carries B = 1 + 0j on every block,
    # while pruning shrinks the set and a block dies of a zero moment and
    # another of a negative one, each with gamma = 0 from that iteration on
    y, kd = _pruning_adaptive_case(True)
    calls = []

    def kill_two_at_3(m):
        calls.append(1)
        if len(calls) == 3:
            order = np.argsort(m[:, 0, 0].real)
            m[order[-1]] = -m[order[-1]]  # the largest moment turns negative
            m[order[-2]] = 0.0
        return m

    moments = _recording_moments(monkeypatch, kill_two_at_3)
    params = HMsblParams(max_iters=40, prune_tol=2e-2, lambda_mode="adaptive", cost_tol=0.0)
    gammas, b_seen = [], []

    def grab(it, state, post):
        gammas.append(state.gamma.copy())
        b_seen.append(state.b_mats.copy())

    state, _, diag = run(y, kd, params, on_iteration=grab)
    counts = [kd.size] + diag.active_counts
    assert sum(b < a for a, b in zip(counts, counts[1:])) >= 2  # pruned, not only killed
    dead = np.flatnonzero(moments[2][:, 0, 0].real < 0)
    zero = np.flatnonzero((moments[2][:, 0, 0] == 0) & (moments[1][:, 0, 0] != 0))
    assert dead.size == 1 and zero.size >= 1
    for g in gammas[2:] + [state.gamma]:
        assert g[dead] == 0 and not g[zero].any()
    for b_mats in b_seen + [state.b_mats]:
        assert b_mats.shape == (kd.size, 1, 1)
        np.testing.assert_array_equal(b_mats, np.ones((kd.size, 1, 1), dtype=complex))
        assert not np.signbit(b_mats.imag).any()


@pytest.mark.parametrize("flat", [False, True])
def test_run_result_does_not_depend_on_an_observer(flat):
    # B is formed where run() hands the state out; that only presents the
    # state, so a run with a no-op observer, which gets B every iteration,
    # returns bit for bit what a run without one returns
    y, dictionary = _pruning_adaptive_case(flat)
    params = HMsblParams(max_iters=40, prune_tol=2e-2, lambda_mode="adaptive", cost_tol=0.0)
    bare = run(y, dictionary, params)
    observed = run(y, dictionary, params, on_iteration=lambda it, state, post: None)
    n_all = init_state(y, dictionary, params).n_blocks
    assert min(bare[2].active_counts) < n_all  # pruning shrank the set
    for got, want in ((observed[0], bare[0]), (observed[2], bare[2])):
        for name in ("gamma", "b_mats", "active", "noise_var", "cost_trace",
                     "active_counts", "n_iters", "converged"):
            if hasattr(want, name):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


@pytest.mark.parametrize("flat", [False, True])
def test_run_factors_sigma_y_once_per_iteration(monkeypatch, flat):
    # once before the loop and once per iteration, also in the iterations
    # that shrink the active set
    y, dictionary = _pruning_adaptive_case(flat)
    calls = []
    marginal = solver._marginal
    monkeypatch.setattr(solver, "_marginal", lambda *args: calls.append(1) or marginal(*args))
    params = HMsblParams(max_iters=40, prune_tol=2e-2, lambda_mode="adaptive", cost_tol=0.0)
    _, _, diag = run(y, dictionary, params)
    counts = [init_state(y, dictionary, params).n_blocks] + diag.active_counts
    assert sum(b < a for a, b in zip(counts, counts[1:])) >= 2  # it shrank, more than once
    assert len(calls) == diag.n_iters + 1


@pytest.mark.parametrize("flat", [False, True])
def test_run_returns_the_posterior_of_the_state_it_returns(flat):
    # stopped at an iteration that shrinks the active set, run() returns the
    # posterior of the pruned state, whose cost is the last one recorded
    y, dictionary = _pruning_adaptive_case(flat)
    params = HMsblParams(max_iters=40, prune_tol=2e-2, lambda_mode="adaptive", cost_tol=0.0)
    _, _, diag = run(y, dictionary, params)
    counts = [init_state(y, dictionary, params).n_blocks] + diag.active_counts
    last = max(t for t in range(1, len(counts)) if counts[t] < counts[t - 1])
    params.max_iters = last
    state, post, diag = run(y, dictionary, params)
    assert diag.active_counts[-1] < diag.active_counts[-2] == counts[last - 1]
    assert post.cost == diag.cost_trace[-1]
    assert post.cost == pytest.approx(ml_cost(compress_snapshots(y), state, dictionary), rel=1e-12)
    assert state.active.sum() == diag.active_counts[-1]
    assert post.sigma_blocks.shape[0] == state.n_blocks
    assert not post.sigma_blocks[~state.active].any()


@pytest.mark.parametrize("flat", [False, True])
def test_run_holds_one_restriction_of_the_operator_at_a_time(monkeypatch, flat):
    # when the active set shrinks, the old posterior and restriction are
    # dropped before the operator is sliced again
    y, dictionary = _pruning_adaptive_case(flat)
    restrict, taken = solver._BlockOperator.restrict, []

    def tracked(self, index):
        assert all(ref() is None for ref in taken), "an earlier restriction is alive"
        sub = restrict(self, index)
        taken.append(weakref.ref(sub))
        return sub

    monkeypatch.setattr(solver._BlockOperator, "restrict", tracked)
    params = HMsblParams(max_iters=40, prune_tol=2e-2, lambda_mode="adaptive", cost_tol=0.0)
    run(y, dictionary, params, on_iteration=lambda it, state, post: None)
    assert len(taken) >= 2


@pytest.mark.parametrize("field, value", [
    ("prune_tol", float("nan")), ("cost_tol", float("nan")),
    ("lambda_value", float("inf")), ("lambda_value", float("nan")),
    ("max_iters", 2.5), ("max_iters", "3"), ("max_iters", -1),
])
def test_params_refuse_a_value_a_run_cannot_use(field, value):
    # each would otherwise fail mid-run (a NaN prune_tol prunes every block,
    # an infinite lambda gives a non-finite cost, 2.5 iterations a TypeError)
    with pytest.raises(ValueError, match=field):
        HMsblParams(**{field: value})
    with pytest.raises(ValueError, match=field):
        HMsblParams(lambda_mode="adaptive", **{field: value})


# (exception, message, call on an instance's snapshots, pair and start state)
_GUARDS = {
    "unknown lambda_mode": (ValueError, "unknown lambda_mode 'bogus'",
                            lambda y, pair, state: HMsblParams(lambda_mode="bogus")),
    "fixed lambda_value 0": (ValueError, "fixed lambda_value must be > 0",
                             lambda y, pair, state: HMsblParams(lambda_value=0.0)),
    "fixed lambda_value < 0": (ValueError, "fixed lambda_value must be > 0",
                               lambda y, pair, state: HMsblParams(lambda_value=-1.0)),
    "matrix dictionary": (TypeError, "unsupported dictionary type ndarray",
                          lambda y, pair, state: init_state(y, pair.phi_u, HMsblParams())),
    "no columns": (DegenerateInputError, "dictionary has no columns",
                   lambda y, pair, state: init_state(y, KronDictionary(pair, np.zeros(0, dtype=int)),
                                                     HMsblParams())),
    "e_step, noise 0": (ValueError, "noise variance must be > 0",
                        lambda y, pair, state: e_step(y, dataclasses.replace(state, noise_var=0.0), pair)),
    "e_step, none active": (SolverError, "no active blocks left",
                            lambda y, pair, state: e_step(y, _none_active(state), pair)),
    "update_b, zero moment": (SolverError, "zero posterior moment on an active block",
                              lambda y, pair, state: update_b(
                                  SimpleNamespace(mu=np.zeros((10, 7), dtype=complex),
                                                  sigma_blocks=np.zeros((5, 2, 2), dtype=complex)),
                                  state, 7)),
    "prune, none active": (SolverError, "no active blocks to prune",
                           lambda y, pair, state: prune(_none_active(state), HMsblParams())),
}


def _none_active(state):
    return dataclasses.replace(state, gamma=np.zeros_like(state.gamma))


@pytest.mark.parametrize("case", list(_GUARDS))
def test_guards_refuse_an_input_they_cannot_use(case):
    # each guard's own message, on an instance where it is the first to trip
    rng = np.random.default_rng(45)
    y, pair = _random_instance(rng)  # nx = 3, ny = 2, Mu = 5, L = 7
    state = init_state(y, pair, HMsblParams())
    exc, message, call = _GUARDS[case]
    with pytest.raises(exc, match=re.escape(message)):
        call(y, pair, state)


@pytest.mark.parametrize("flat", [False, True])
def test_run_stopped_by_cost_tol_hands_out_its_last_moment(monkeypatch, flat):
    # the state a cost_tol stop returns carries gamma_i B_i = M_i of the
    # iteration it stopped at, on every block still active
    y, dictionary = _pruning_adaptive_case(flat)
    moments = _recording_moments(monkeypatch)
    params = HMsblParams(max_iters=400, prune_tol=2e-2, lambda_mode="adaptive", cost_tol=1e-4)
    state, _, diag = run(y, dictionary, params)
    assert diag.converged and diag.n_iters < params.max_iters
    assert state.active.sum() < state.n_blocks
    act = state.active
    got = state.gamma[act, None, None] * state.b_mats[act]
    want = moments[-1][act]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_run_callback_iteration_numbers():
    rng = np.random.default_rng(20)
    y, pair = _random_instance(rng)
    its = []
    run(y, pair, HMsblParams(max_iters=4, lambda_value=0.1, cost_tol=0.0),
        on_iteration=lambda it, state, post: its.append(it))
    assert its == [1, 2, 3, 4]


def test_run_convergence_stops_early():
    pair = dictionary_pair(UraConfig(3, 2), uniform_grid(5), uniform_grid(8))
    scene = Scene(sources=(Source(0.2, 0.1),), snr_db=20, num_snapshots=30, seed=9)
    y = synthesize_snapshots(scene, UraConfig(3, 2))
    _, _, diag = run(y, pair, HMsblParams(max_iters=500, cost_tol=1e-6,
                                          lambda_value=noise_power(20.0)))
    assert diag.converged
    assert diag.n_iters < 500
    assert len(diag.cost_trace) == diag.n_iters + 1


def test_run_block_size_one_matches_flat():
    # with ny = 1 the block solver and the flat path are the same algorithm
    rng = np.random.default_rng(22)
    nx, mu = 4, 7
    grid_u = uniform_grid(mu)
    trivial_v = Grid1D(np.array([0.0]))
    pair = dictionary_pair(UraConfig(nx, 1), grid_u, trivial_v)
    kd = kron_dictionary(pair, prune=True)
    assert kd.size == mu
    scene = Scene(sources=(Source(-0.5, 0.0), Source(1 / 3, 0.0)),
                  snr_db=12.0, num_snapshots=9, seed=5)
    y = synthesize_snapshots(scene, UraConfig(nx, 1))
    params = HMsblParams(max_iters=10, prune_tol=0.0, cost_tol=0.0, lambda_value=0.05)

    gam_block, gam_flat = [], []
    run(y, pair, params, on_iteration=lambda it, s, p: gam_block.append(s.gamma.copy()))
    run(y, kd, params, on_iteration=lambda it, s, p: gam_flat.append(s.gamma.copy()))
    for gb, gf in zip(gam_block, gam_flat):
        np.testing.assert_allclose(gb, gf, rtol=1e-9, atol=0)


def test_run_adaptive_lambda_moves():
    rng = np.random.default_rng(23)
    y, pair = _random_instance(rng, nx=4, ny=3, mu=8, n_snap=20)
    state, _, diag = run(y, pair, HMsblParams(max_iters=40, lambda_mode="adaptive",
                                              cost_tol=0.0))
    assert state.noise_var > 0
    assert np.isfinite(diag.cost_trace).all()


def test_run_reuses_factor_exactly():
    # run() hands the factor of each iteration's cost to the next posterior;
    # every posterior an observer gets must equal a fresh E-step on the state
    # handed out with it, which the iteration left, and carry the cost the
    # trace records for that iteration; run() returns the last one
    rng = np.random.default_rng(25)
    y, pair = _random_instance(rng, nx=4, ny=3, mu=16, n_snap=20, k=2)
    params = HMsblParams(max_iters=40, compress=False, prune_tol=1e-2,
                         lambda_mode="adaptive", cost_tol=0.0)
    states = [init_state(y, pair, params)]
    posts, last = [], []

    def grab(it, state, post):
        states.append(HMsblState(gamma=state.gamma.copy(), b_mats=state.b_mats.copy(),
                                 noise_var=state.noise_var))
        posts.append(SimpleNamespace(mu=post.mu.copy(), sigma_blocks=post.sigma_blocks.copy(),
                                     cost=post.cost))
        last[:] = [post]

    _, returned, diag = run(y, pair, params, on_iteration=grab)
    assert len(posts) == params.max_iters
    assert returned is last[0]
    counts = [int(s.active.sum()) for s in states]
    pruned = [b < a for a, b in zip(counts, counts[1:])]
    assert any(pruned) and not all(pruned)
    for it, (state, post) in enumerate(zip(states[1:], posts), start=1):
        assert post.cost == diag.cost_trace[it]
        fresh = e_step(y, state, pair)
        assert np.max(np.abs(post.mu - fresh.mu)) < 1e-10
        assert np.max(np.abs(post.sigma_blocks - fresh.sigma_blocks)) < 1e-10


def test_run_compress_equivalence_cost_trace():
    rng = np.random.default_rng(24)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6, n_snap=200)
    pa = HMsblParams(max_iters=25, compress=False, prune_tol=0.0, lambda_value=0.05,
                     cost_tol=0.0)
    pb = HMsblParams(max_iters=25, compress=True, prune_tol=0.0, lambda_value=0.05,
                     cost_tol=0.0)
    _, _, da = run(y, pair, pa)
    _, _, db = run(y, pair, pb)
    ca, cb = np.array(da.cost_trace), np.array(db.cost_trace)
    np.testing.assert_allclose(ca, cb, rtol=1e-8)
