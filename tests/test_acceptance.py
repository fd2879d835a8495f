"""Acceptance checks.

Each test prints one verdict line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  Every criterion carries a wall-clock budget that is asserted,
not just observed.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hmsbl.dictionary import (
    Grid1D,
    dictionary_pair,
    kron_dictionary,
    kron_factorization_check,
    steering,
    uniform_grid,
)
from hmsbl.experiments import load_config, run_bench, run_experiment
from hmsbl.metrics import match_and_rmse
from hmsbl.pairing import root_music_v
from hmsbl.signal_model import (
    Scene,
    SnapshotSet,
    Source,
    UraConfig,
    noise_power,
    sample_covariance,
    synthesize_snapshots,
)
from hmsbl.solver import HMsblParams, HMsblState, e_step, init_state, run
from oracles import dense_posterior

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            raise AssertionError(f"wall time {elapsed:.1f}s exceeds {budget_s}s budget")
    except BaseException as exc:
        print(f"[criterion {num:2d}] FAIL  {name}  ({time.perf_counter() - t0:.1f}s)  {exc}")
        raise
    print(f"[criterion {num:2d}] PASS  {name}  ({time.perf_counter() - t0:.1f}s)")


def _random_scene(rng, k, n_snap, snr_db=15.0):
    pts = []
    while len(pts) < k:
        u, v = rng.uniform(-0.7, 0.7, size=2)
        if u * u + v * v <= 1.0 and all(abs(u - p[0]) > 0.2 for p in pts):
            pts.append((u, v))
    return Scene(sources=tuple(Source(u, v) for u, v in pts), snr_db=snr_db,
                 num_snapshots=n_snap, seed=int(rng.integers(1 << 31)))


def _hermitian_psd(rng, b):
    a = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    h = a @ a.conj().T + 0.2 * np.eye(b)
    h = 0.5 * (h + h.conj().T)
    return h / np.linalg.norm(h, "fro")


def _circ_dist(a, b):
    d = abs(a - b)
    return min(d, 2.0 - d)


# ---------------------------------------------------------------------------


def test_criterion_01_block_size_one_reduction():
    """ny = 1 collapses the block solver onto the flat EM baseline."""
    with criterion(1, "single-row blocks reduce to the flat solver", 10):
        rng = np.random.default_rng(1001)
        trivial_v = Grid1D(np.array([0.0]))
        for inst in range(20):
            nx = (2, 4)[inst % 2]
            grid_u = uniform_grid(12)
            pair = dictionary_pair(UraConfig(nx, 1), grid_u, trivial_v)
            kd = kron_dictionary(pair, prune=True)
            k = int(rng.integers(1, 3))
            us = rng.choice(grid_u.points, size=k, replace=False)
            scene = Scene(sources=tuple(Source(float(u), 0.0) for u in us),
                          snr_db=12.0, num_snapshots=10,
                          seed=int(rng.integers(1 << 31)))
            y = synthesize_snapshots(scene, UraConfig(nx, 1))
            params = HMsblParams(max_iters=50, prune_tol=0.0, cost_tol=0.0,
                                 lambda_value=0.05, compress=False)
            gb, gf = [], []
            run(y, pair, params, on_iteration=lambda i, s, p: gb.append(s.gamma.copy()))
            run(y, kd, params, on_iteration=lambda i, s, p: gf.append(s.gamma.copy()))
            assert len(gb) == len(gf) == 50
            for t, (a, b) in enumerate(zip(gb, gf)):
                np.testing.assert_allclose(
                    a, b, rtol=1e-9, atol=0.0,
                    err_msg=f"instance {inst}, iteration {t + 1}")


def test_criterion_02_posterior_matches_dense_conditioning():
    """Blockwise E-step equals textbook Gaussian conditioning."""
    with criterion(2, "posterior matches dense Gaussian conditioning", 5):
        rng = np.random.default_rng(1002)
        for inst in range(50):
            ny = int(rng.integers(2, 4))
            mu = int(rng.integers(2, 12 // ny + 1))
            nx = int(rng.integers(2, 4))
            m_rows = nx * ny
            L = int(rng.integers(4, 9))
            pair = dictionary_pair(UraConfig(nx, ny), uniform_grid(max(mu, 2)),
                                   uniform_grid(4))
            gamma = rng.uniform(0.05, 2.0, size=pair.grid_u.size)
            b_mats = np.array([_hermitian_psd(rng, ny) for _ in range(gamma.size)])
            lam = float(rng.uniform(0.05, 0.5))
            state = HMsblState(gamma=gamma, b_mats=b_mats, noise_var=lam)
            ymat = rng.standard_normal((m_rows, L)) + 1j * rng.standard_normal((m_rows, L))
            y = SnapshotSet(y=ymat, nx=nx, ny=ny, n_snapshots=L)
            post = e_step(y, state, pair)
            mu_o, sig_o = dense_posterior(ymat, pair.phi_u, ny, gamma, b_mats, lam)
            err_mu = np.max(np.abs(post.mu - mu_o))
            err_sig = np.max(np.abs(post.sigma_blocks - sig_o))
            assert max(err_mu, err_sig) < 1e-10, f"instance {inst}: {err_mu}, {err_sig}"


def test_criterion_03_em_cost_monotone():
    """Fixed-noise EM never increases the marginal-likelihood cost."""
    with criterion(3, "EM cost non-increasing for both solvers", 60):
        rng = np.random.default_rng(1003)
        ura = UraConfig(4, 3)
        pair = dictionary_pair(ura, uniform_grid(40), uniform_grid(40))
        small = dictionary_pair(ura, uniform_grid(20), uniform_grid(20))
        kd = kron_dictionary(small, prune=True)
        for inst in range(10):
            scene = _random_scene(rng, k=int(rng.integers(1, 4)), n_snap=50)
            y = synthesize_snapshots(scene, ura)
            lam = noise_power(scene.snr_db)
            params = HMsblParams(max_iters=200, prune_tol=0.0, cost_tol=0.0,
                                 lambda_value=lam, compress=True)
            for label, (fn, d) in {"block": (run, pair), "flat": (run, kd)}.items():
                _, _, diag = fn(y, d, params)
                c = np.array(diag.cost_trace)
                assert len(c) == 201
                steps = np.diff(c)
                tol = 1e-8 * np.maximum(1.0, np.abs(c[:-1]))
                worst = np.max(steps - tol)
                assert np.all(steps <= tol), \
                    f"instance {inst} ({label}): cost rose by {worst:.3e}"


def test_criterion_04_snapshot_compression_equivalence():
    """Compressed snapshots yield the same cost trajectory."""
    with criterion(4, "snapshot compression leaves the trajectory unchanged", 30):
        rng = np.random.default_rng(1004)
        ura = UraConfig(4, 4)
        pair = dictionary_pair(ura, uniform_grid(30), uniform_grid(30))
        for L in (100, 500):
            scene = _random_scene(rng, k=2, n_snap=L, snr_db=15.0)
            y = synthesize_snapshots(scene, ura)
            base = dict(max_iters=25, prune_tol=0.0, cost_tol=0.0,
                        lambda_value=noise_power(15.0))
            _, _, da = run(y, pair, HMsblParams(compress=False, **base))
            _, _, db = run(y, pair, HMsblParams(compress=True, **base))
            ca, cb = np.array(da.cost_trace), np.array(db.cost_trace)
            rel = np.max(np.abs(ca - cb) / np.maximum(1.0, np.abs(ca)))
            assert rel < 1e-8, f"L={L}: cost traces diverge by {rel:.3e}"


def test_criterion_05_per_iteration_time_flat_in_mv():
    """Block solver cost per iteration ignores the v-grid size."""
    with criterion(5, "per-iteration time flat in Mv (baseline grows)", 600):
        config = load_config(CONFIG_DIR / "exp1.json")
        assert config.mv_sweep == [25, 50, 100, 200, 400]
        rows, assessment = run_bench(config)
        assert assessment["hmsbl_variation"] < 0.25, \
            f"block-solver spread {assessment['hmsbl_variation']:.1%}"
        assert assessment["msbl_strictly_increasing"], \
            "flat baseline per-iteration time is not strictly increasing"
        per_iter = {(r["mv"], r["algorithm"]): r["per_iteration_seconds"] for r in rows}
        assert per_iter[(400, "msbl")] > 2 * per_iter[(25, "msbl")]


def test_criterion_06_shared_u_identifiability():
    """Ten sources on two shared u columns are recovered per trial."""
    with criterion(6, "shared-u scene: all 10 sources within 0.05 in >= 9/10 trials", 300):
        config = load_config(CONFIG_DIR / "exp2.json")
        assert config.k_sources() == 10
        record = run_experiment(config)
        good = 0
        for t in record.trials:
            entry = t["algorithms"]["hmsbl"]
            if "error" not in entry and entry["max_source_err"] < 0.05:
                good += 1
        assert good >= 9, f"only {good}/10 trials recovered every source"


def test_criterion_07_accuracy_per_budget():
    """Block solver is at least as accurate at every iteration budget."""
    with criterion(7, "mean RMSE <= flat baseline at budgets 50/100/200", 600):
        config = load_config(CONFIG_DIR / "exp3.json")
        assert config.budgets == [50, 100, 200]
        record = run_experiment(config)
        for b in config.budgets:
            agg = record.aggregate["budgets"][str(b)]
            assert np.isfinite(agg["hmsbl"]) and np.isfinite(agg["msbl"])
            assert agg["hmsbl"] <= agg["msbl"], \
                f"budget {b}: block {agg['hmsbl']:.4f} > flat {agg['msbl']:.4f}"


def test_criterion_08_rooting_exact_on_noise_free_blocks():
    """Polynomial rooting recovers v exactly from exact correlation blocks."""
    with criterion(8, "rooting exact to 1e-6 on noise-free blocks", 5):
        rng = np.random.default_rng(1008)
        for inst in range(100):
            ny = (4, 6)[inst % 2]
            k = int(rng.integers(1, ny))
            while True:
                vs = np.sort(rng.uniform(-1.0, 1.0, size=k))
                if k == 1 or min(_circ_dist(a, b) for a in vs for b in vs if a != b) >= 0.05:
                    break
            w = rng.uniform(0.5, 2.0, size=k)
            b = np.zeros((ny, ny), dtype=complex)
            for wi, vi in zip(w, vs):
                a = steering(vi, ny)
                b += wi * np.outer(a, a.conj())
            b = 0.5 * (b + b.conj().T)
            est = root_music_v(b / np.linalg.norm(b, "fro"), k)
            assert est.values.size == k
            worst = max(min(_circ_dist(v, e) for e in est.values) for v in vs)
            assert worst < 1e-6, f"instance {inst} (ny={ny}, k={k}): error {worst:.2e}"


def test_criterion_09_kron_mixed_product():
    """(A o B)(C o D) = AC o BD, including the two dictionary factors."""
    with criterion(9, "Kronecker mixed-product identity below 1e-12", 1):
        rng = np.random.default_rng(1009)
        for _ in range(100):
            p, q, r, s, t2 = rng.integers(2, 6, size=5)
            a = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            bmat = rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s))
            c = rng.standard_normal((q, t2)) + 1j * rng.standard_normal((q, t2))
            d = rng.standard_normal((s, t2)) + 1j * rng.standard_normal((s, t2))
            lhs = np.kron(a, bmat) @ np.kron(c, d)
            rhs = np.kron(a @ c, bmat @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
        # and the steering-dictionary instance of it used by the solver
        for _ in range(100):
            nx, ny = rng.integers(2, 6, size=2)
            pu = np.exp(1j * np.pi * np.outer(np.arange(nx), rng.uniform(-1, 1, 5)))
            pv = np.exp(1j * np.pi * np.outer(np.arange(ny), rng.uniform(-1, 1, 4)))
            assert kron_factorization_check(pu, pv) < 1e-12


def test_criterion_10_initial_power_scaling():
    """Initial block power is the dense Frobenius ratio."""
    with criterion(10, "initial gamma equals the dense Frobenius ratio", 1):
        rng = np.random.default_rng(1010)
        for inst in range(20):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(1, 4))
            mu_pts = int(rng.integers(3, 9))
            ura = UraConfig(nx, ny)
            pair = dictionary_pair(ura, uniform_grid(mu_pts), uniform_grid(4))
            scene = _random_scene(rng, k=1, n_snap=int(rng.integers(3, 12)))
            y = synthesize_snapshots(scene, ura)
            state = init_state(y, pair, HMsblParams(lambda_value=0.1))
            d = np.kron(pair.phi_u, np.eye(ny))
            want = (np.linalg.norm(sample_covariance(y), "fro")
                    / np.linalg.norm(d @ d.conj().T, "fro"))
            np.testing.assert_allclose(state.gamma, want, rtol=1e-12,
                                       err_msg=f"instance {inst}")
            # flat path: same rule with its own dictionary
            kd = kron_dictionary(pair, prune=True)
            fstate = init_state(y, kd, HMsblParams(lambda_value=0.1))
            fwant = (np.linalg.norm(sample_covariance(y), "fro")
                     / np.linalg.norm(kd.matrix @ kd.matrix.conj().T, "fro"))
            np.testing.assert_allclose(fstate.gamma, fwant, rtol=1e-12)
