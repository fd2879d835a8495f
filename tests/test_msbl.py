import numpy as np
import pytest

from hmsbl.dictionary import (DictionaryPair, Grid1D, KronDictionary, dictionary_pair,
                              kron_dictionary, steering_matrix, uniform_grid)
from hmsbl.pairing import msbl_estimates
from hmsbl.signal_model import Scene, SnapshotSet, Source, UraConfig, synthesize_snapshots
from hmsbl.solver import HMsblParams, HMsblState, run
from oracles import msbl_gamma_star_scalar


def test_single_column_fixed_point_matches_scalar_ml():
    # [DERIVED] with one column the ML weight has the closed form
    # max(0, d^H S d / ||d||^4 - lam / ||d||^2); EM must converge to it
    rng = np.random.default_rng(0)
    grid_u = Grid1D(rng.uniform(-1, 1, size=1))
    d = steering_matrix(grid_u, 4)[:, 0]
    x = rng.standard_normal((1, 200)) + 1j * rng.standard_normal((1, 200))
    lam = 0.3
    noise = (rng.standard_normal((4, 200)) + 1j * rng.standard_normal((4, 200))) * np.sqrt(lam / 2)
    ymat = d[:, None] @ x + noise
    y = SnapshotSet(y=ymat, nx=4, ny=1, n_snapshots=200)
    one = DictionaryPair(grid_u=grid_u, grid_v=Grid1D(np.array([0.0])), nx=4, ny=1)
    kd = KronDictionary(pair=one, cells=np.array([0]))  # the column d kron 1

    scm = ymat @ ymat.conj().T / 200
    q = (d.conj() @ scm @ d).real
    nd2 = np.linalg.norm(d) ** 2
    closed = max(0.0, q / nd2 ** 2 - lam / nd2)

    params = HMsblParams(max_iters=2000, prune_tol=0.0, cost_tol=0.0, lambda_value=lam)
    state, _, _ = run(y, kd, params)
    assert state.gamma[0] == pytest.approx(closed, rel=1e-6)

    # and the closed form is itself the grid-search minimizer
    brute = msbl_gamma_star_scalar(d, scm, lam, lo=closed / 50, hi=closed * 50, n=20001)
    assert brute == pytest.approx(closed, rel=1e-3)


def test_msbl_recovers_on_grid_sources():
    cfg = UraConfig(4, 4)
    gu, gv = uniform_grid(21), uniform_grid(21)
    truth = [(gu.points[5], gv.points[15]), (gu.points[14], gv.points[4])]
    scene = Scene(sources=tuple(Source(u, v) for u, v in truth),
                  snr_db=20, num_snapshots=60, seed=2)
    y = synthesize_snapshots(scene, cfg)
    kd = kron_dictionary(dictionary_pair(cfg, gu, gv))
    state, post, diag = run(y, kd, HMsblParams(max_iters=150, lambda_value=0.01, compress=False))
    got = msbl_estimates(state, kd.column_labels, 2)
    assert got.shape == (2, 2)
    assert sorted(map(tuple, got.tolist())) == sorted(truth)
    assert post.mu.shape[1] == y.n_snapshots


def _flat_state(gamma):
    return HMsblState(gamma=np.array(gamma), b_mats=np.ones((len(gamma), 1, 1), dtype=complex),
                      noise_var=0.1)


_LABELS = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])


def test_msbl_estimates_tie_breaks_to_lower_index():
    state = _flat_state([1.0, 2.0, 2.0])
    np.testing.assert_array_equal(msbl_estimates(state, _LABELS, 2), [[0.1, 0.0], [0.2, 0.0]])


def test_msbl_estimates_skips_inactive():
    state = _flat_state([0.0, 1.0, 0.5])  # column 0 pruned
    np.testing.assert_array_equal(msbl_estimates(state, _LABELS, 2), [[0.1, 0.0], [0.2, 0.0]])
    with pytest.raises(ValueError):
        msbl_estimates(state, _LABELS, 3)  # only two active points
    with pytest.raises(ValueError):
        msbl_estimates(state, _LABELS, 0)


def test_msbl_estimates_equal_a_full_stable_sort():
    # the partial selection must pick what a stable argsort of every active
    # power picks, also with many ties at the k-th value and pruned columns
    rng = np.random.default_rng(31)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        gamma = rng.integers(1, 5, size=n).astype(float)  # few distinct values: ties
        if trial % 2:
            gamma += rng.uniform(size=n) * (rng.uniform(size=n) < 0.5)
        pruned = rng.uniform(size=n) >= 0.7
        if pruned.all():
            pruned[int(rng.integers(n))] = False
        gamma[pruned] = 0.0
        labels = np.column_stack([np.arange(n), -np.arange(n)]).astype(float)
        idx = np.flatnonzero(~pruned)
        for k in range(1, idx.size + 1):
            want = idx[np.argsort(-gamma[idx], kind="stable")][:k]
            got = msbl_estimates(_flat_state(gamma), labels, k)
            np.testing.assert_array_equal(got, labels[want])


def test_msbl_cost_monotone():
    cfg = UraConfig(3, 3)
    scene = Scene(sources=(Source(0.3, -0.2),), snr_db=15, num_snapshots=20, seed=7)
    y = synthesize_snapshots(scene, cfg)
    kd = kron_dictionary(dictionary_pair(cfg, uniform_grid(12), uniform_grid(12)))
    _, _, diag = run(y, kd, HMsblParams(max_iters=80, prune_tol=0.0, cost_tol=0.0,
                                        lambda_value=10 ** -1.5))
    c = np.array(diag.cost_trace)
    assert np.all(np.diff(c) <= 1e-8 * np.maximum(1.0, np.abs(c[:-1])))


def test_msbl_runs_on_trivial_v_grid():
    # a one-point v grid reduces the 2-D problem to plain 1-D recovery
    cfg = UraConfig(5, 1)
    gu = uniform_grid(11)
    pair = dictionary_pair(cfg, gu, Grid1D(np.array([0.0])))
    kd = kron_dictionary(pair)
    truth = (gu.points[2], 0.0)
    scene = Scene(sources=(Source(*truth),), snr_db=25, num_snapshots=40, seed=4)
    y = synthesize_snapshots(scene, cfg)
    state, _, _ = run(y, kd, HMsblParams(max_iters=100, lambda_value=10 ** -2.5))
    np.testing.assert_array_equal(msbl_estimates(state, kd.column_labels, 1), [truth])
