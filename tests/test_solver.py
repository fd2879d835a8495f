import numpy as np
import pytest

from hmsbl.dictionary import Grid1D, dictionary_pair, kron_dictionary, uniform_grid
from hmsbl.signal_model import Scene, SnapshotSet, Source, UraConfig, noise_power, sample_covariance, synthesize_snapshots
from hmsbl import solver
from hmsbl.solver import (
    DegenerateInputError,
    HMsblParams,
    HMsblState,
    Posterior,
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
    dense_flat_cost,
    dense_flat_posterior,
    dense_ml_cost,
    dense_posterior,
    dense_sigma_y,
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
    return HMsblState(gamma=gamma, b_mats=b_mats, noise_var=lam,
                      active=np.ones(m, dtype=bool), cost_trace=[])


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
    state = HMsblState(gamma=gamma, b_mats=np.ones((m, 1, 1), dtype=complex),
                       noise_var=0.07, active=np.ones(m, dtype=bool), cost_trace=[])
    post = e_step(y, state, kd)
    mu_o, var_o = dense_flat_posterior(y.y, kd.matrix, gamma, 0.07)
    assert np.max(np.abs(post.mu - mu_o)) < 1e-10
    assert np.max(np.abs(post.sigma_blocks[:, 0, 0] - var_o)) < 1e-10


def test_e_step_respects_inactive_blocks():
    rng = np.random.default_rng(4)
    y, pair = _random_instance(rng)
    state = _random_state(rng, m=5, b=2)
    state.active[2] = False
    post = e_step(y, state, pair)
    gz = state.gamma.copy()
    gz[2] = 0.0
    mu_o, _ = dense_posterior(y.y, pair.phi_u, 2, gz, state.b_mats, state.noise_var)
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
        noise_var=0.1, active=np.array([True]), cost_trace=[])
    post = Posterior(mu=np.zeros((2, 4), dtype=complex),
                     sigma_blocks=np.diag([a, b]).astype(complex)[None])
    got = update_gamma(post, state, n_snapshots=4)
    assert got[0] == pytest.approx(np.sqrt(2) * (a + b) / 2, rel=1e-8)


def test_update_gamma_fixed_point():
    # moment exactly c B -> gamma = c for any unit-norm positive B
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    bmat = a @ a.conj().T + 0.5 * np.eye(3)
    bmat /= np.linalg.norm(bmat, "fro")
    c = 2.37
    state = HMsblState(gamma=np.array([1.0]), b_mats=bmat[None], noise_var=0.1,
                       active=np.array([True]), cost_trace=[])
    post = Posterior(mu=np.zeros((3, 5), dtype=complex), sigma_blocks=(c * bmat)[None])
    got = update_gamma(post, state, n_snapshots=5)
    assert got[0] == pytest.approx(c, rel=1e-7)


def test_update_gamma_uses_snapshot_average():
    # R = Sigma + mu mu^H / L: two identical snapshots, Sigma = 0
    m = np.array([1.0 + 1j, 2.0], dtype=complex)
    mu = np.column_stack([m, m])
    state = HMsblState(gamma=np.array([1.0]),
                       b_mats=np.eye(2, dtype=complex)[None] / np.sqrt(2),
                       noise_var=0.1, active=np.array([True]), cost_trace=[])
    post = Posterior(mu=mu, sigma_blocks=np.zeros((1, 2, 2), dtype=complex))
    got = update_gamma(post, state, n_snapshots=2)
    want = np.sqrt(2) * np.trace(np.outer(m, m.conj())).real / 2
    assert got[0] == pytest.approx(want, rel=1e-8)


def test_update_gamma_block_size_one():
    # b = 1: gamma_i = moment_i / (B_i + loading), no matrix solve
    state = HMsblState(gamma=np.ones(3), b_mats=np.array([0.5, 2.0, 1.0])[:, None, None] + 0j,
                       noise_var=0.1, active=np.array([True, True, False]), cost_trace=[])
    post = Posterior(mu=np.zeros((3, 2), dtype=complex),
                     sigma_blocks=np.array([0.3, 0.8, 0.4])[:, None, None] + 0j)
    got = update_gamma(post, state, n_snapshots=2, b_loading=1e-3)
    np.testing.assert_allclose(got, [0.3 / 0.501, 0.8 / 2.001, 0.0], rtol=1e-14)


def test_update_b_identity_moment():
    # [DERIVED] moment I (2x2), gamma 1 -> B = I / sqrt(2)
    state = HMsblState(gamma=np.array([1.0]),
                       b_mats=np.eye(2, dtype=complex)[None],
                       noise_var=0.1, active=np.array([True]), cost_trace=[])
    post = Posterior(mu=np.zeros((2, 3), dtype=complex),
                     sigma_blocks=np.eye(2, dtype=complex)[None])
    got = update_b(post, state, n_snapshots=3)
    np.testing.assert_allclose(got[0], np.eye(2) / np.sqrt(2), atol=1e-14)


def test_update_b_rank_one_moment():
    # single snapshot, zero posterior covariance -> B = m m^H / ||m||^2
    m = np.array([1.0, 1j, -0.5], dtype=complex)
    state = HMsblState(gamma=np.array([0.9]),
                       b_mats=np.eye(3, dtype=complex)[None] / np.sqrt(3),
                       noise_var=0.1, active=np.array([True]), cost_trace=[])
    post = Posterior(mu=m[:, None], sigma_blocks=np.zeros((1, 3, 3), dtype=complex))
    got = update_b(post, state, n_snapshots=1)
    want = np.outer(m, m.conj()) / (np.linalg.norm(m) ** 2)
    np.testing.assert_allclose(got[0], want, atol=1e-14)
    assert np.linalg.norm(got[0], "fro") == pytest.approx(1.0, rel=1e-14)


def test_update_b_keeps_inactive_blocks():
    rng = np.random.default_rng(6)
    state = _random_state(rng, m=3, b=2)
    state.active[1] = False
    old = state.b_mats.copy()
    post = Posterior(mu=rng.standard_normal((6, 4)) + 0j,
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
    got = update_lambda(y, post, state, pair)

    n, L = y.size, y.n_snapshots
    d = np.kron(pair.phi_u, np.eye(2))
    resid = np.linalg.norm(y.y - d @ post.mu, "fro") ** 2 / (n * L)
    a = pair.phi_u
    g = (a * state.gamma) @ a.conj().T
    pen = state.noise_var * np.trace(np.linalg.solve(g + state.noise_var * np.eye(3), g)).real / 3
    assert got == pytest.approx(resid + pen, rel=1e-10)


def test_update_lambda_floor():
    # zero gamma and an exact-fit posterior mean leave only the floor
    rng = np.random.default_rng(8)
    pair = dictionary_pair(UraConfig(2, 2), uniform_grid(3), uniform_grid(3))
    x = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    d = np.kron(pair.phi_u, np.eye(2))
    y = SnapshotSet(y=d @ x, nx=2, ny=2, n_snapshots=4)
    state = HMsblState(gamma=np.zeros(3), b_mats=_random_state(rng, 3, 2).b_mats,
                       noise_var=0.1, active=np.ones(3, dtype=bool), cost_trace=[])
    post = Posterior(mu=x, sigma_blocks=np.zeros((3, 2, 2), dtype=complex))
    got = update_lambda(y, post, state, pair)
    floor = 1e-12 * np.linalg.norm(y.y, "fro") ** 2 / (4 * 4)  # L = 4, n = 4 rows
    assert got == pytest.approx(floor, rel=1e-9)


def test_update_lambda_penalty_saturates():
    # gamma -> inf drives the penalty factor to tr(I)/nx, i.e. lam itself
    rng = np.random.default_rng(9)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=5)
    state = _random_state(rng, m=5, b=2, lam=0.25)
    state.gamma = np.full(5, 1e14)
    post = Posterior(mu=np.zeros((10, y.n_snapshots), dtype=complex),
                     sigma_blocks=np.zeros((5, 2, 2), dtype=complex))
    got = update_lambda(y, post, state, pair)
    resid = np.linalg.norm(y.y, "fro") ** 2 / (y.size * y.n_snapshots)
    assert got == pytest.approx(resid + 0.25, rel=1e-6)


# ---------------------------------------------------------------------------
# cost


def test_ml_cost_identity_case():
    # [DERIVED] gamma = 0, lam = 1 -> Sigma_y = I -> cost = tr(S_hat)
    rng = np.random.default_rng(10)
    y, pair = _random_instance(rng)
    state = HMsblState(gamma=np.zeros(5),
                       b_mats=np.broadcast_to(np.eye(2, dtype=complex) / np.sqrt(2), (5, 2, 2)).copy(),
                       noise_var=1.0, active=np.ones(5, dtype=bool), cost_trace=[])
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
    state = HMsblState(gamma=gamma, b_mats=np.ones((kd.size, 1, 1), dtype=complex),
                       noise_var=0.15, active=np.ones(kd.size, dtype=bool), cost_trace=[])
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


@pytest.mark.parametrize("nx, ny, m", [(3, 2, 5), (2, 5, 7), (4, 3, 11), (1, 4, 6),
                                       (5, 1, 9), (1, 1, 4)])
@pytest.mark.parametrize("kind", ["kron", "column"])
def test_operator_kernels_match_dense_products(nx, ny, m, kind):
    # each kernel against the dense (Phi o I_ny) built by the index formula;
    # the flat operator runs on that dense matrix as M ny blocks of width one
    rng = np.random.default_rng(100 * nx + 10 * ny + m)
    phi = _cplx(rng, nx, m)
    d = kron_identity_loop(phi, ny)
    if kind == "kron":
        op, b = solver._KronIdentityOperator(phi, ny), ny
    else:
        op, b = solver._ColumnOperator(d), 1
    n_blocks, n_snap = d.shape[1] // b, 3

    state = _random_state(rng, n_blocks, b)
    state.active = rng.uniform(size=n_blocks) < 0.6  # partially pruned
    state.active[0] = True
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

    blocks = _cplx(rng, n_blocks, b, n_snap)
    blocks[~state.active] = 0.0
    want = d @ blocks.reshape(n_blocks * b, n_snap)
    assert np.max(np.abs(op.forward(blocks) - want)) < 1e-12


@pytest.mark.parametrize("nx, ny, m", [(3, 2, 5), (2, 5, 7), (1, 4, 6), (5, 1, 9), (1, 1, 4)])
@pytest.mark.parametrize("kind", ["kron", "column"])
@pytest.mark.parametrize("compress", [False, True])
def test_em_statistics_match_dense_oracle(nx, ny, m, kind, compress):
    # the moments, cost and noise update run() takes from R = Sigma_y^-1 and
    # R S R, against dense Gaussian conditioning on the uncompressed data
    rng = np.random.default_rng(1000 * nx + 100 * ny + m + 7 * compress)
    phi = _cplx(rng, nx, m)
    d = kron_identity_loop(phi, ny)
    n, n_snap = nx * ny, 3 * nx * ny + 2  # more snapshots than rows: compression acts
    y = SnapshotSet(y=_cplx(rng, n, n_snap), nx=nx, ny=ny, n_snapshots=n_snap)
    if kind == "kron":
        op, b, a = solver._KronIdentityOperator(phi, ny), ny, phi
    else:
        op, b, a = solver._ColumnOperator(d), 1, d
    n_blocks = d.shape[1] // b
    state = _random_state(rng, n_blocks, b, lam=0.3)
    state.active = rng.uniform(size=n_blocks) < 0.6  # partially pruned
    state.active[0] = True
    gamma = np.where(state.active, state.gamma, 0.0)
    data = compress_snapshots(y) if compress else y
    assert (data.y.shape[1] < n_snap) == compress

    marginal = solver._marginal(op, state, sample_covariance(data))
    if kind == "kron":
        mu_o, sig_o = dense_posterior(y.y, phi, ny, gamma, state.b_mats, 0.3)
        cost_o = dense_ml_cost(sample_covariance(y), phi, ny, gamma, state.b_mats, 0.3)
    else:
        mu_o, var_o = dense_flat_posterior(y.y, d, gamma, 0.3)
        sig_o = var_o[:, None, None]
        cost_o = dense_flat_cost(sample_covariance(y), d, gamma, 0.3)
    mu_b = mu_o.reshape(n_blocks, b, n_snap)
    moments_o = sig_o + mu_b @ mu_b.conj().swapaxes(-1, -2) / n_snap
    assert np.max(np.abs(solver._moments(op, marginal) - moments_o)) < 1e-10
    assert marginal.cost == pytest.approx(cost_o, rel=1e-10)

    post = solver.Posterior._conditioned(op, data, marginal)
    misfit_o = np.linalg.norm(y.y - d @ mu_o, "fro") ** 2
    assert post.misfit == pytest.approx(misfit_o, rel=1e-10)
    g = (a * gamma) @ a.conj().T
    pen = 0.3 * np.trace(np.linalg.solve(g + 0.3 * np.eye(a.shape[0]), g)).real / a.shape[0]
    got = update_lambda(data, post, state, op)
    assert got == pytest.approx(misfit_o / (n * n_snap) + pen, rel=1e-10)


@pytest.mark.parametrize("flat", [False, True])
def test_adaptive_run_builds_one_operator(monkeypatch, flat):
    # run() builds its operator once and hands it to init_state and
    # update_lambda, which then build none of their own
    rng = np.random.default_rng(26)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6, n_snap=9)
    dictionary = kron_dictionary(pair, prune=True) if flat else pair
    built = []
    for cls in (solver._KronIdentityOperator, solver._ColumnOperator):
        def counting_init(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting_init)
    params = HMsblParams(max_iters=5, lambda_mode="adaptive", cost_tol=0.0)
    _, _, diag = run(y, dictionary, params)
    assert diag.n_iters == 5
    assert built == ["_ColumnOperator" if flat else "_KronIdentityOperator"]


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


def test_prune_relative_and_absolute():
    state = HMsblState(gamma=np.array([1.0, 1e-2, 1e-5, 0.0]),
                       b_mats=np.ones((4, 1, 1), dtype=complex),
                       noise_var=0.1, active=np.ones(4, dtype=bool), cost_trace=[])
    got = prune(state, HMsblParams(prune_tol=1e-3, prune_mode="relative"))
    np.testing.assert_array_equal(got, [True, True, False, False])
    got = prune(state, HMsblParams(prune_tol=5e-2, prune_mode="absolute"))
    np.testing.assert_array_equal(got, [True, False, False, False])


def test_prune_zero_tol_disables():
    state = HMsblState(gamma=np.array([1.0, 0.0]), b_mats=np.ones((2, 1, 1), dtype=complex),
                       noise_var=0.1, active=np.array([True, False]), cost_trace=[])
    got = prune(state, HMsblParams(prune_tol=0.0))
    np.testing.assert_array_equal(got, [True, False])


def test_prune_is_permanent():
    # a deactivated block stays out even if its stale gamma is large
    state = HMsblState(gamma=np.array([5.0, 1.0]), b_mats=np.ones((2, 1, 1), dtype=complex),
                       noise_var=0.1, active=np.array([False, True]), cost_trace=[])
    got = prune(state, HMsblParams(prune_tol=1e-3))
    np.testing.assert_array_equal(got, [False, True])


def test_prune_all_would_die():
    state = HMsblState(gamma=np.array([0.0, 0.0]), b_mats=np.ones((2, 1, 1), dtype=complex),
                       noise_var=0.1, active=np.ones(2, dtype=bool), cost_trace=[])
    with pytest.raises(SolverError):
        prune(state, HMsblParams(prune_tol=1e-3, prune_mode="absolute"))


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


def test_run_gamma_b_product_equals_moment():
    # after each iteration gamma_i B_i must equal the posterior moment block
    rng = np.random.default_rng(19)
    y, pair = _random_instance(rng, nx=3, ny=2, mu=6)
    seen = []

    def grab(it, state, post):
        moments = solver._moment_blocks(post, state.n_blocks, state.block_size,
                                        y.n_snapshots)
        scaled = state.gamma[:, None, None] * state.b_mats
        err = np.max(np.abs(scaled[state.active] - moments[state.active]))
        seen.append(err)

    run(y, pair, HMsblParams(max_iters=5, prune_tol=0.0, lambda_value=0.05),
        on_iteration=grab)
    assert len(seen) == 5
    assert max(seen) < 1e-10


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
    # run() hands the factor of each iteration's cost to the next posterior
    # unless pruning changed the active set; either way every posterior must
    # equal a fresh E-step on the state the previous iteration left
    rng = np.random.default_rng(25)
    y, pair = _random_instance(rng, nx=4, ny=3, mu=16, n_snap=20, k=2)
    params = HMsblParams(max_iters=40, compress=False, prune_tol=1e-2,
                         lambda_mode="adaptive", cost_tol=0.0)
    states = [init_state(y, pair, params)]
    posts = []

    def grab(it, state, post):
        states.append(HMsblState(gamma=state.gamma.copy(), b_mats=state.b_mats.copy(),
                                 noise_var=state.noise_var, active=state.active.copy()))
        posts.append(Posterior(mu=post.mu.copy(), sigma_blocks=post.sigma_blocks.copy()))

    run(y, pair, params, on_iteration=grab)
    assert len(posts) == params.max_iters
    counts = [int(s.active.sum()) for s in states]
    pruned = [b < a for a, b in zip(counts, counts[1:])]
    assert any(pruned) and not all(pruned)
    for prev, post in zip(states, posts):
        fresh = e_step(y, prev, pair)
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
