"""One scene, end to end: block-sparse learning plus polynomial rooting.

The solver grids u only.  Each u-grid block learns a power gamma_i and a
correlation matrix B_i; active blocks (gamma_i > 0: pruning sets a
block's power to 0) flag the u components, and rooting each B_i recovers
the v components gridlessly, i.e. with accuracy not limited by any v-grid
spacing.
"""

import numpy as np

from hmsbl import (
    HMsblParams,
    Scene,
    Source,
    UraConfig,
    dictionary_pair,
    match_and_rmse,
    noise_power,
    pair_estimates,
    run,
    select_peaks,
    synthesize_snapshots,
    uniform_grid,
)

ura = UraConfig(nx=6, ny=6)
truth = [(-0.55, 0.23), (0.12, -0.61), (0.48, 0.44)]
scene = Scene(sources=tuple(Source(u, v) for u, v in truth),
              snr_db=15.0, num_snapshots=60, seed=21)
y = synthesize_snapshots(scene, ura)

grid_u = uniform_grid(80)
pair = dictionary_pair(ura, grid_u, uniform_grid(80))
params = HMsblParams(
    max_iters=300,
    lambda_mode="fixed",
    lambda_value=noise_power(scene.snr_db),  # oracle noise floor
    prune_tol=1e-3,
    compress=True,
)

state, post, diag = run(y, pair, params)
print(f"solver: {diag.n_iters} iterations, converged={diag.converged}, "
      f"{int(state.active.sum())}/{grid_u.size} blocks active")
print(f"cost: {diag.cost_trace[0]:.2f} -> {diag.cost_trace[-1]:.2f}")

# u components from the block power spectrum (zero on pruned blocks), one
# v per selected block here
sel = select_peaks(state.gamma, grid_u, k_peaks=len(truth))
print(f"\npeak blocks: {sel.indices} (fallback={sel.fallback})")
pairs, provenance = pair_estimates(state, grid_u, [(i, 1) for i in sel.indices])

report = match_and_rmse(pairs, truth)
print(f"\n{'true u':>9} {'true v':>9} | {'est u':>9} {'est v':>9} {'err':>9}")
for i, s in enumerate(scene.sources):
    e = pairs[report.assignment[i]]
    err = np.sqrt(report.per_source_sq_err[i])
    print(f"{s.u:9.4f} {s.v:9.4f} | {e[0]:9.4f} {e[1]:9.4f} {err:9.2e}")
print(f"\nrmse {report.rmse:.2e}; u error is grid-limited "
      f"(spacing {grid_u.points[1] - grid_u.points[0]:.4f}), v error is not")
for p in provenance:
    print(f"block {p['block']}: eigen gap {p['eigen_gap']:.3f}, "
          f"low confidence={p['low_confidence']}")
