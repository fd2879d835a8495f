import math

import numpy as np
import pytest

from hmsbl.signal_model import (
    Scene,
    SnapshotSet,
    Source,
    UraConfig,
    angles_to_uv,
    in_unit_disk,
    noise_power,
    sample_covariance,
    synthesize_snapshots,
)
from oracles import cov_loop, snapshot_loop


def test_angles_to_uv_known_values():
    # [DERIVED] u = cos(phi) sin(theta), v = sin(phi) sin(theta)
    u, v = angles_to_uv(90.0, 0.0)
    assert u == pytest.approx(1.0)
    assert v == pytest.approx(0.0, abs=1e-15)
    u, v = angles_to_uv(30.0, 90.0)
    assert u == pytest.approx(0.0, abs=1e-15)
    assert v == pytest.approx(0.5)
    u, v = angles_to_uv(45.0, 180.0)
    assert u == pytest.approx(-np.sqrt(0.5))
    assert v == pytest.approx(0.0, abs=1e-12)
    # always feasible
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, v = angles_to_uv(rng.uniform(0, 90), rng.uniform(0, 360))
        assert u * u + v * v <= 1.0 + 1e-12


def test_angles_to_uv_rejects_out_of_range():
    with pytest.raises(ValueError):
        angles_to_uv(-1.0, 0.0)
    with pytest.raises(ValueError):
        angles_to_uv(91.0, 0.0)
    with pytest.raises(ValueError):
        angles_to_uv(10.0, 360.0)


def test_noise_power():
    assert noise_power(0.0) == pytest.approx(1.0)  # [TRIVIAL]
    assert noise_power(10.0) == pytest.approx(0.1)
    assert noise_power(-10.0) == pytest.approx(10.0)
    assert noise_power(20.0) == pytest.approx(0.01)
    assert noise_power(math.inf) == 0.0  # noiseless, as Scene documents


def test_source_feasibility():
    Source(0.6, 0.8)  # on the boundary is allowed
    with pytest.raises(ValueError):
        Source(0.8, 0.7)
    with pytest.raises(ValueError):
        Source(1.2, 0.0)


def test_in_unit_disk_is_elementwise_with_rounding_slack():
    u = np.array([0.6000000000000001, 0.6, 0.8, 1.0, 0.0])
    v = np.array([0.8, 0.8, 0.7, 1e-5, -1.0])
    assert u[0] ** 2 + v[0] ** 2 > 1.0  # a rounding error above the circle
    np.testing.assert_array_equal(in_unit_disk(u, v), [True, True, False, False, True])
    for a, b, ok in zip(u, v, in_unit_disk(u, v)):
        if ok:
            Source(float(a), float(b))
        else:
            with pytest.raises(ValueError):
                Source(float(a), float(b))


def test_scene_validation():
    Scene(sources=(), seed=3)  # pure-noise scene is allowed
    with pytest.raises((TypeError, ValueError)):
        Scene(sources=((0.1, 0.2),))  # must be Source instances
    with pytest.raises(ValueError):
        Scene(sources=(Source(0, 0),), num_snapshots=0)


def test_noise_free_matches_loop_oracle():
    # [DERIVED] triple-loop synthesis, same symbols injected
    nx, ny = 3, 4
    sources = [(0.3, -0.5), (-0.2, 0.6), (0.7, 0.1)]
    rng = np.random.default_rng(5)
    symbols = (rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))) / np.sqrt(2)
    scene = Scene(sources=tuple(Source(u, v) for u, v in sources),
                  snr_db=np.inf, num_snapshots=6, seed=0)
    got = synthesize_snapshots(scene, UraConfig(nx, ny), symbols=symbols)
    want = snapshot_loop(sources, symbols, nx, ny)
    assert got.y.shape == (nx * ny, 6)
    np.testing.assert_allclose(got.y, want, atol=1e-13)


def test_vectorization_order_single_source():
    # one source at (u, 0): rows within a y-block are constant, so the y index
    # must be the fast one in the flattening
    scene = Scene(sources=(Source(0.4, 0.0),), snr_db=np.inf, num_snapshots=1, seed=0)
    s = synthesize_snapshots(scene, UraConfig(2, 3),
                             symbols=np.ones((1, 1), dtype=complex))
    y = s.y[:, 0]
    np.testing.assert_allclose(y[0:3], y[0], atol=1e-15)
    assert abs(y[3] - np.exp(1j * np.pi * 0.4)) < 1e-14


def test_kronecker_consistency():
    # vectorized snapshots equal (Phi_u o Phi_v) acting on per-source symbols
    nx, ny = 4, 3
    sources = [(0.25, -0.45), (-0.6, 0.3)]
    rng = np.random.default_rng(11)
    symbols = (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))) / np.sqrt(2)
    scene = Scene(sources=tuple(Source(u, v) for u, v in sources),
                  snr_db=np.inf, num_snapshots=5, seed=0)
    got = synthesize_snapshots(scene, UraConfig(nx, ny), symbols=symbols)
    a_u = np.column_stack([np.exp(1j * np.pi * np.arange(nx) * u) for u, _ in sources])
    a_v = np.column_stack([np.exp(1j * np.pi * np.arange(ny) * v) for _, v in sources])
    # column-wise Khatri-Rao: a_u[:, k] o a_v[:, k]
    a = np.stack([np.kron(a_u[:, k], a_v[:, k]) for k in range(2)], axis=1)
    np.testing.assert_allclose(got.y, a @ symbols, atol=1e-13)


def test_determinism_and_substreams():
    scene = Scene(sources=(Source(0.2, 0.3),), snr_db=10, num_snapshots=8, seed=42)
    cfg = UraConfig(3, 3)
    a = synthesize_snapshots(scene, cfg)
    b = synthesize_snapshots(scene, cfg)
    np.testing.assert_array_equal(a.y, b.y)  # bit-identical
    c = synthesize_snapshots(Scene(sources=scene.sources, snr_db=10,
                                   num_snapshots=8, seed=43), cfg)
    assert np.any(a.y != c.y)


def test_noise_statistics():
    # pure-noise scene: per-element variance must be 10^(-snr/10)
    scene = Scene(sources=(), snr_db=7.0, num_snapshots=10000, seed=1)
    s = synthesize_snapshots(scene, UraConfig(2, 2))
    var = np.mean(np.abs(s.y) ** 2)
    assert var == pytest.approx(noise_power(7.0), rel=0.05)
    # circularity: real and imaginary parts each carry half
    assert np.mean(s.y.real ** 2) == pytest.approx(noise_power(7.0) / 2, rel=0.05)
    assert abs(np.mean(s.y ** 2)) < 0.01 * noise_power(7.0)


def test_sample_covariance_matches_loop():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    s = SnapshotSet(y=y, nx=2, ny=3, n_snapshots=9)
    got = sample_covariance(s)
    want = cov_loop(y, 9)
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.max(np.abs(got - got.conj().T)) == 0.0  # exactly Hermitian


def test_snapshotset_validation():
    y = np.zeros((6, 4), dtype=complex)
    s = SnapshotSet(y=y, nx=2, ny=3, n_snapshots=4)
    assert s.size == 6
    with pytest.raises(ValueError):
        SnapshotSet(y=y, nx=2, ny=2, n_snapshots=4)
