"""Why grid one coordinate instead of two: iteration cost and convergence.

Part 1 sweeps the v-grid size. The flat solver's per-iteration time grows
with Mu * Mv columns; the block solver never forms a v grid, so its cost
is flat in Mv.  Part 2 tracks recovery error against EM iterations on one
scene: block power concentrates within tens of iterations, while the flat
dictionary needs hundreds to separate its many columns.
"""

import numpy as np

from hmsbl import (
    HMsblParams,
    Scene,
    Source,
    UraConfig,
    dictionary_pair,
    kron_dictionary,
    match_and_rmse,
    msbl_estimates,
    noise_power,
    run,
    select_peaks,
    pair_estimates,
    synthesize_snapshots,
    uniform_grid,
)

ura = UraConfig(4, 4)
truth = [(-0.4, 0.52), (0.3, -0.1)]
scene = Scene(sources=tuple(Source(u, v) for u, v in truth),
              snr_db=20.0, num_snapshots=50, seed=3)
y = synthesize_snapshots(scene, ura)
lam = noise_power(20.0)
grid_u = uniform_grid(80)

print("part 1: per-iteration wall time vs v-grid size")
print(f"{'Mv':>5} {'block ms/iter':>14} {'flat ms/iter':>13} {'flat columns':>13}")
bench = HMsblParams(max_iters=40, prune_tol=0.0, cost_tol=0.0,
                    lambda_value=lam, compress=True)
for mv in (25, 50, 100, 200):
    pair = dictionary_pair(ura, grid_u, uniform_grid(mv))
    kd = kron_dictionary(pair, prune=True)
    # the solvers time their own iterations; the median leaves out set-up
    _, _, block = run(y, pair, bench)
    _, _, flat = run(y, kd, bench)
    print(f"{mv:>5} {np.median(block.iter_seconds) * 1e3:>14.2f} "
          f"{np.median(flat.iter_seconds) * 1e3:>13.2f} {kd.size:>13}")

print("\npart 2: recovery error vs iteration budget (same scene, Mv=100)")
pair = dictionary_pair(ura, grid_u, uniform_grid(100))
kd = kron_dictionary(pair, prune=True)
horizon = 1200
k = len(truth)

block_curve = []
def watch_block(it, state, post):
    sel = select_peaks(state.gamma, grid_u, k)  # pruned blocks have gamma = 0
    try:
        pairs, _ = pair_estimates(state, grid_u, [(i, 1) for i in sel.indices])
        block_curve.append(match_and_rmse(pairs, truth).rmse)
    except ValueError:
        block_curve.append(np.nan)

flat_curve = []
def watch_flat(it, state, post):
    flat_curve.append(match_and_rmse(msbl_estimates(state, kd.column_labels, k), truth).rmse)

long = HMsblParams(max_iters=horizon, prune_tol=1e-3, cost_tol=0.0,
                   lambda_value=lam, compress=True)
run(y, pair, long, on_iteration=watch_block)
run(y, kd, long, on_iteration=watch_flat)

print(f"{'iters':>6} {'block rmse':>12} {'flat rmse':>12}")
for budget in (10, 25, 50, 100, 200, 400, 800, 1200):
    b = block_curve[min(budget, len(block_curve)) - 1]
    f = flat_curve[min(budget, len(flat_curve)) - 1]
    print(f"{budget:>6} {b:>12.2e} {f:>12.2e}")
print("\nthe flat curve drops late and stops at its grid resolution;")
print("the block curve settles early and the v estimate is gridless.")
