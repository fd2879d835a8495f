import numpy as np
import pytest

from hmsbl.dictionary import (
    Grid1D,
    DictionaryPair,
    KronDictionary,
    dictionary_pair,
    effective_dictionary,
    kron_dictionary,
    kron_factorization_check,
    steering,
    steering_matrix,
    uniform_grid,
)
from hmsbl.signal_model import UraConfig
from oracles import kron_identity_loop, steering_loop


def test_uniform_grid():
    g = uniform_grid(5)
    np.testing.assert_allclose(g.points, [-1, -0.5, 0, 0.5, 1])
    assert g.size == 5
    assert g.points[0] == -1.0 and g.points[-1] == 1.0  # endpoints inclusive
    with pytest.raises(ValueError):
        uniform_grid(1)


def test_grid1d_validation():
    Grid1D(np.array([0.0]))  # single point fine when built directly
    with pytest.raises(ValueError):
        Grid1D(np.array([0.0, 0.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        Grid1D(np.array([-1.5, 0.0]))


def test_steering_matches_loop():
    for freq in (-1.0, -0.3, 0.0, 0.77, 1.0):
        got = steering(freq, 6)
        np.testing.assert_allclose(got, steering_loop(freq, 6), atol=1e-15)
    assert steering(0.5, 4)[0] == 1.0  # first element always 1


def test_steering_matrix_columns():
    g = uniform_grid(7)
    mat = steering_matrix(g, 5)
    assert mat.shape == (5, 7)
    for j, f in enumerate(g.points):
        np.testing.assert_allclose(mat[:, j], steering_loop(f, 5), atol=1e-15)


def test_effective_dictionary_index_formula():
    # [DERIVED] D[p*ny+q, m*ny+r] = Phi_u[p, m] * (q == r)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    got = effective_dictionary(phi, 2)
    want = kron_identity_loop(phi, 2)
    assert got.shape == (6, 8)
    np.testing.assert_array_equal(got, want)


def test_kron_dictionary_ordering_and_labels():
    cfg = UraConfig(3, 2)
    gu, gv = uniform_grid(4), uniform_grid(3)
    pair = dictionary_pair(cfg, gu, gv)
    kd = kron_dictionary(pair, prune=False)
    assert kd.size == 12
    # u-major, v fastest: column j = iu * mv + iv
    for iu in range(4):
        for iv in range(3):
            col = kd.matrix[:, iu * 3 + iv]
            want = np.kron(steering_loop(gu.points[iu], 3), steering_loop(gv.points[iv], 2))
            np.testing.assert_allclose(col, want, atol=1e-14)
            assert kd.column_labels[iu * 3 + iv, 0] == gu.points[iu]
            assert kd.column_labels[iu * 3 + iv, 1] == gv.points[iv]


def test_kron_dictionary_feasibility_pruning():
    # [DERIVED] on {-1, 0, 1}^2 only 5 points satisfy u^2 + v^2 <= 1
    cfg = UraConfig(2, 2)
    g = uniform_grid(3)
    kd = kron_dictionary(dictionary_pair(cfg, g, g), prune=True)
    assert kd.size == 5
    got = {tuple(row) for row in kd.column_labels}
    assert got == {(-1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)}
    full = kron_dictionary(dictionary_pair(cfg, g, g), prune=False)
    assert full.size == 9


def test_kron_dictionary_pruning_is_symmetric():
    # on an 11-point grid (0.6000000000000001, +-0.8) lies on the unit
    # circle up to rounding, as (-0.6, +-0.8) does: both are kept
    g = uniform_grid(11)
    kd = kron_dictionary(dictionary_pair(UraConfig(2, 2), g, g), prune=True)
    assert kd.size == 81
    for axis in (0, 1):
        per_point = np.bincount(np.searchsorted(g.points, kd.column_labels[:, axis]), minlength=11)
        np.testing.assert_array_equal(per_point, per_point[::-1])


def test_kron_dictionary_can_prune_everything():
    g = Grid1D(np.array([1.0]))
    pair = dictionary_pair(UraConfig(2, 2), g, g)
    kd = kron_dictionary(pair, prune=True)  # (1,1) is infeasible
    assert kd.size == 0
    assert kd.matrix.shape == (4, 0)


def test_factorization_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        nx, mu = rng.integers(2, 6), rng.integers(2, 7)
        ny, mv = rng.integers(2, 6), rng.integers(2, 7)
        pu = rng.standard_normal((nx, mu)) + 1j * rng.standard_normal((nx, mu))
        pv = rng.standard_normal((ny, mv)) + 1j * rng.standard_normal((ny, mv))
        assert kron_factorization_check(pu, pv) < 1e-12


def test_dictionary_pair_validation():
    cfg = UraConfig(3, 2)
    pair = dictionary_pair(cfg, uniform_grid(5), uniform_grid(4))
    assert pair.phi_u.shape == (3, 5)
    assert pair.phi_v.shape == (2, 4)
    for cells in ([0, 20], [-1, 3], [3, 3], [4, 2], [[0, 1]], [0.0, 1.0]):  # 5 x 4 = 20 cells
        with pytest.raises(ValueError):
            KronDictionary(pair=pair, cells=np.array(cells))


def test_dictionary_pair_derives_its_steering_factors():
    # a pair is its grids and row counts; phi_u and phi_v are the steering
    # matrices of its grids, formed on first read and kept
    pair = dictionary_pair(UraConfig(3, 2), uniform_grid(5), uniform_grid(4))
    assert "phi_u" not in vars(pair) and "phi_v" not in vars(pair)
    np.testing.assert_array_equal(pair.phi_u, steering_matrix(pair.grid_u, 3))
    np.testing.assert_array_equal(pair.phi_v, steering_matrix(pair.grid_v, 2))
    assert pair.phi_u is pair.phi_u
    for nx in (0, -1, 2.5):
        with pytest.raises(ValueError, match="nx must be an integer >= 1"):
            DictionaryPair(grid_u=uniform_grid(5), grid_v=uniform_grid(4), nx=nx, ny=2)
