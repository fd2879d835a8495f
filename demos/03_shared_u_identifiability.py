"""Many sources stacked on few u columns.

Ten sources share just two u values (five v components each), so the
per-block structure has to do real work: each of the two active blocks
must learn a rank-5 correlation matrix and give up five v roots.  A flat
2-D grid treats all ten points independently and pays for the full grid.
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

ura = UraConfig(nx=3, ny=6)  # short in x, long in y: blocks carry 6 rows
grid_u = uniform_grid(100)
grid_v = uniform_grid(100)

u_cols = [grid_u.points[30], grid_u.points[65]]
v_rows = [grid_v.points[i] for i in (10, 30, 50, 70, 90)]
sources = tuple(Source(u, v) for u in u_cols for v in v_rows)
assert all(s.u ** 2 + s.v ** 2 <= 1 for s in sources)
scene = Scene(sources=sources, snr_db=20.0, num_snapshots=100, seed=5)
print(f"{scene.k} sources on {len(u_cols)} shared u columns "
      f"({len(v_rows)} v components per column)")

y = synthesize_snapshots(scene, ura)
pair = dictionary_pair(ura, grid_u, grid_v)
params = HMsblParams(max_iters=500, lambda_value=noise_power(20.0),
                     prune_tol=1e-3, compress=True)
state, _, diag = run(y, pair, params)

sel = select_peaks(state.gamma, grid_u, k_peaks=2)  # pruned blocks have gamma = 0
print(f"\nactive blocks after pruning: {int(state.active.sum())}")
print(f"selected u blocks: {[float(round(grid_u.points[i], 4)) for i in sel.indices]} "
      f"(truth: {[float(round(u, 4)) for u in u_cols]})")

# five v roots per block: count must leave a noise subspace, 5 <= ny - 1
pairs, _ = pair_estimates(state, grid_u, [(i, 5) for i in sel.indices])
report = match_and_rmse(pairs, [(s.u, s.v) for s in sources])
worst = np.sqrt(max(report.per_source_sq_err))
print(f"\nall 10 sources matched: rmse {report.rmse:.2e}, "
      f"worst single-source error {worst:.2e}")

by_block = {}
for u, v in pairs.tolist():
    by_block.setdefault(round(u, 4), []).append(float(round(v, 4)))
for u, vs in sorted(by_block.items()):
    print(f"  u={u:+.4f}: v = {sorted(vs)}")
print(f"  truth v per column: {[float(round(v, 4)) for v in sorted(v_rows)]}")

print("\nnote the array has only 3 x 6 = 18 sensors for 10 sources; the")
print("shared-column structure is what makes the problem identifiable.")
