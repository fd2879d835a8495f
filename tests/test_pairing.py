import numpy as np
import pytest

from hmsbl.dictionary import Grid1D, steering, uniform_grid
from hmsbl.pairing import pair_estimates, root_music_v, select_peaks
from hmsbl.solver import HMsblState
from oracles import root_music_np_roots, select_peaks_loop, vandermonde_projector_roots


def _corr(vs, ny, weights=None):
    """Hermitian block built from steering vectors, unit Frobenius norm."""
    weights = weights or [1.0] * len(vs)
    b = np.zeros((ny, ny), dtype=complex)
    for w, v in zip(weights, vs):
        a = steering(v, ny)
        b += w * np.outer(a, a.conj())
    b = 0.5 * (b + b.conj().T)
    return b / np.linalg.norm(b, "fro")


# ---------------------------------------------------------------------------
# peak selection


def test_select_peaks_interior():
    got = select_peaks(np.array([0.0, 1.0, 0.0, 2.0, 0.0]), uniform_grid(5), 2)
    assert got.indices == (3, 1)  # strongest first
    assert not got.fallback


def test_select_peaks_endpoints_one_sided():
    got = select_peaks(np.array([3.0, 1.0, 0.0, 0.5, 2.0]), uniform_grid(5), 2)
    assert got.indices == (0, 4)


def test_select_peaks_fallback_on_plateau():
    got = select_peaks(np.array([1.0, 1.0, 1.0, 1.0]), uniform_grid(4), 2)
    assert got.fallback
    assert got.indices == (0, 1)  # ties toward lower index


def test_select_peaks_fallback_when_scarce():
    got = select_peaks(np.array([0.0, 1.0, 0.0, 2.0, 0.0]), uniform_grid(5), 3)
    assert got.fallback
    assert got.indices == (3, 1, 0)


def test_select_peaks_validation():
    g = uniform_grid(4)
    with pytest.raises(ValueError):
        select_peaks(np.zeros(3), g, 1)  # size mismatch
    with pytest.raises(ValueError):
        select_peaks(np.zeros(4), g, 0)
    with pytest.raises(ValueError):
        select_peaks(np.zeros(4), g, 5)


def test_select_peaks_matches_loop_reference():
    # random spectra with zeros, plateaus, ties and endpoint peaks: values
    # drawn from a few levels so equal neighbours and equal maxima are common
    rng = np.random.default_rng(61)
    fallbacks = 0
    for _ in range(3000):
        n = int(rng.integers(1, 14))
        g = rng.choice([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0], size=n)
        if rng.uniform() < 0.3:
            g = g + rng.uniform(size=n)  # distinct values too
        k = int(rng.integers(1, n + 1))
        got = select_peaks(g, Grid1D(np.linspace(-1.0, 1.0, n)), k)
        want_indices, want_fallback = select_peaks_loop(g, k)
        assert (got.indices, got.fallback) == (want_indices, want_fallback), (g, k)
        assert all(type(i) is int for i in got.indices)
        fallbacks += got.fallback
    assert 0 < fallbacks < 3000


# ---------------------------------------------------------------------------
# polynomial rooting


def test_root_music_single_component():
    for v0 in (-0.73, -0.2, 0.0, 0.41, 0.99):
        est = root_music_v(_corr([v0], 4), 1)
        assert est.values.shape == (1,)
        assert abs(est.values[0] - v0) < 1e-8
        assert not est.low_confidence


def test_root_music_two_components():
    est = root_music_v(_corr([-0.5, 0.3], 4), 2)
    np.testing.assert_allclose(est.values, [-0.5, 0.3], atol=1e-7)
    assert not est.low_confidence


def test_root_music_matches_spectrum_scan_oracle():
    # [DERIVED] minima of the noise-projector quadratic form on a fine grid
    b = _corr([-0.35, 0.15, 0.6], 6, weights=[1.0, 0.7, 1.3])
    est = root_music_v(b, 3)
    want = vandermonde_projector_roots(b, 3)
    np.testing.assert_allclose(est.values, want, atol=2e-5)


def test_root_music_scale_invariant():
    b = _corr([0.25, -0.4], 5)
    a = root_music_v(b, 2)
    c = root_music_v(7.3 * b, 2)
    np.testing.assert_allclose(a.values, c.values, atol=1e-12)
    assert a.eigen_gap == pytest.approx(c.eigen_gap, rel=1e-9)


def test_root_music_flags_degenerate_identity():
    est = root_music_v(np.eye(4, dtype=complex), 1)
    assert est.low_confidence  # no eigen gap at all


def test_root_music_flags_small_gap():
    # one strong and one weak component, ask for only the strong one:
    # the 1st-to-2nd eigenvalue gap is tiny relative to the leading one
    b = _corr([0.5, -0.5], 4, weights=[1.0, 0.999])
    est = root_music_v(b, 1)
    assert est.eigen_gap < 0.01
    assert est.low_confidence


def test_root_music_validation():
    b = _corr([0.1], 4)
    with pytest.raises(ValueError):
        root_music_v(b, 0)
    with pytest.raises(ValueError):
        root_music_v(b, 4)  # needs a nonempty noise subspace
    with pytest.raises(ValueError):
        root_music_v(np.ones((3, 4)), 1)
    nh = b.copy()
    nh[0, 1] += 0.1
    with pytest.raises(ValueError):
        root_music_v(nh, 1)


def test_root_music_values_sorted_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(25):
        vs = np.sort(rng.uniform(-0.95, 0.95, size=3))
        if np.min(np.diff(vs)) < 0.1:
            continue
        est = root_music_v(_corr(list(vs), 6), 3)
        assert np.all(np.diff(est.values) >= 0)
        assert np.all(np.abs(est.values) <= 1.0)
        np.testing.assert_allclose(est.values, vs, atol=1e-6)


def _assert_same_rooting(b, k):
    est = root_music_v(b, k)
    values, gap, low_confidence = root_music_np_roots(b, k)
    np.testing.assert_allclose(est.values, values, rtol=0, atol=1e-10)
    assert abs(est.eigen_gap - gap) <= 1e-14
    assert est.low_confidence == low_confidence


def test_root_music_matches_np_roots_path():
    # random PSD blocks have simple roots, so the LAPACK path and the
    # np.linalg / np.roots path agree to rounding; a block that is exactly
    # rank k plus loading has double roots on the unit circle, conditioned
    # at sqrt(eps), where any change of summation order moves them ~1e-8
    rng = np.random.default_rng(7)
    for ny in (2, 3, 4, 6, 8, 16):
        for k in range(1, ny):
            for loading in np.logspace(-8, 0, 9):
                for _ in range(6):
                    x = rng.normal(size=(ny, ny)) + 1j * rng.normal(size=(ny, ny))
                    _assert_same_rooting(x @ x.conj().T / ny + loading * np.eye(ny), k)


def test_root_music_degenerate_blocks_match_np_roots_path():
    # identity and zero blocks have no signal subspace; a diagonal block's
    # noise projector is diagonal, so its polynomial is a monomial whose
    # roots are all stripped trailing zeros; a rank-1 block at ny = 2
    # sometimes (about 1 v in 100) has both roots on or outside the circle,
    # which takes the nearest-leftover branch and flags the result
    for ny in (2, 3, 4, 6, 8, 16):
        for k in range(1, ny):
            for b in (np.eye(ny, dtype=complex), np.zeros((ny, ny), dtype=complex)):
                _assert_same_rooting(b, k)
                assert root_music_v(b, k).low_confidence
            diagonal = np.diag(np.arange(ny, 0, -1)).astype(complex)
            _assert_same_rooting(diagonal, k)
    flagged = 0
    for v in np.random.default_rng(0).uniform(-1, 1, size=200):
        a = steering(v, 2)
        _assert_same_rooting(np.outer(a, a.conj()), 1)
        flagged += root_music_v(np.outer(a, a.conj()), 1).low_confidence
    assert flagged > 0


def test_root_music_rank_one_blocks_agree_to_double_root_conditioning():
    # a noise-free rank-1 block puts a double root on the unit circle, and
    # rounding splits it by about sqrt(eps): each path lands within 1e-8 of
    # v, so the two agree only to a few 1e-8
    for ny in (3, 4, 6, 8, 16):
        for v in np.linspace(-0.95, 0.95, 20):
            a = steering(v, ny)
            b = np.outer(a, a.conj())
            est = root_music_v(b, 1)
            values, gap, low_confidence = root_music_np_roots(b, 1)
            assert abs(est.values[0] - v) < 2e-8
            assert abs(values[0] - v) < 2e-8
            assert abs(est.eigen_gap - gap) <= 1e-14
            assert est.low_confidence == low_confidence


def test_root_music_lapack_failure_raises_linalg_error(monkeypatch):
    from scipy.linalg import lapack

    def failing(a, lower=0):
        n = a.shape[0]
        return np.zeros(n), np.zeros((n, n), dtype=complex), 1

    monkeypatch.setattr(lapack, "zheevd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="zheevd"):
        root_music_v(_corr([0.2], 4), 1)
    assert issubclass(np.linalg.LinAlgError, ValueError)  # so a trial records it


# ---------------------------------------------------------------------------
# pairing


def _state_with_blocks(blocks, gamma, ny):
    m = len(blocks)
    return HMsblState(gamma=np.asarray(gamma, dtype=float),
                      b_mats=np.array(blocks),
                      noise_var=0.1)


def test_pair_estimates_two_blocks():
    ny = 4
    grid = uniform_grid(5)
    blocks = [np.eye(ny, dtype=complex) / 2 for _ in range(5)]
    blocks[1] = _corr([0.4], ny)
    blocks[3] = _corr([-0.6, 0.2], ny)
    state = _state_with_blocks(blocks, [0.0, 3.0, 0.0, 2.0, 0.0], ny)
    pairs, provenance = pair_estimates(state, grid, [(1, 1), (3, 2)])
    want = np.array([[grid.points[1], 0.4],
                     [grid.points[3], -0.6],
                     [grid.points[3], 0.2]])
    assert pairs.shape == (3, 2) and pairs.dtype == float
    np.testing.assert_allclose(pairs, want, atol=1e-7)
    assert [list(p) for p in provenance] == [["block", "eigen_gap", "low_confidence"]] * 2
    assert [p["block"] for p in provenance] == [1, 3]
    assert not provenance[0]["low_confidence"]


def test_pair_estimates_rejects_bad_allocation():
    ny = 4
    grid = uniform_grid(5)
    blocks = [_corr([0.1], ny) for _ in range(5)]
    state = _state_with_blocks(blocks, [1.0, 0.0, 1.0, 1.0, 1.0], ny)
    for allocation, message in [
        ([(1, 1)], "block 1 is inactive"),
        ([(0, 4)], "cannot root 4 components"),  # count = ny
        ([(7, 1)], "block 7 out of range"),
        ([(0, 1), (0, 1)], "distinct"),
        ([(0, 0)], "cannot root 0 components"),
        ([], "at least one block"),
    ]:
        with pytest.raises(ValueError, match=message):
            pair_estimates(state, grid, allocation)


def test_pair_estimates_validates_before_rooting(monkeypatch):
    # a bad entry anywhere in the allocation fails before any block is rooted
    ny = 4
    blocks = [_corr([0.1], ny) for _ in range(5)]
    state = _state_with_blocks(blocks, [1.0, 0.0, 1.0, 1.0, 1.0], ny)
    rooted = []
    monkeypatch.setattr("hmsbl.pairing.root_music_v", lambda b, k: rooted.append(k))
    with pytest.raises(ValueError, match="block 1 is inactive"):
        pair_estimates(state, uniform_grid(5), [(0, 1), (2, 1), (1, 1)])
    assert rooted == []
