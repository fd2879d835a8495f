"""Tour of the signal model and the two dictionary shapes.

A uniform rectangular array samples a sum of 2-D complex exponentials.
Sensor (p, q) sees sum_k s_k exp(j pi (p u_k + q v_k)), and snapshots are
vectorized with the y index running fastest.  This script builds a scene,
checks the Kronecker structure of the steering vectors by hand, and
contrasts the full 2-D grid dictionary with the reduced one-coordinate
form the block solver uses.
"""

import numpy as np

from hmsbl import (
    Scene,
    Source,
    UraConfig,
    angles_to_uv,
    dictionary_pair,
    effective_dictionary,
    kron_dictionary,
    noise_power,
    synthesize_snapshots,
    uniform_grid,
)

ura = UraConfig(nx=4, ny=4)
print(f"array: {ura.nx} x {ura.ny} sensors, {ura.size} outputs per snapshot")

# direction cosines from physical angles
u, v = angles_to_uv(theta_deg=40.0, phi_deg=110.0)
print(f"(theta=40, phi=110) deg -> (u, v) = ({u:+.4f}, {v:+.4f}), "
      f"u^2 + v^2 = {u*u + v*v:.4f} <= 1")

scene = Scene(
    sources=(Source(u, v), Source(0.5, -0.3)),
    snr_db=20.0,
    num_snapshots=8,
    seed=7,
)
snaps = synthesize_snapshots(scene, ura)
print(f"\nscene: K={scene.k} sources, L={scene.num_snapshots} snapshots, "
      f"noise power {noise_power(scene.snr_db):.3g}")
print("snapshot matrix:", snaps.y.shape)

# the vectorized steering vector is a Kronecker product a_u o a_v
k0 = scene.sources[0]
a_u = np.exp(1j * np.pi * np.arange(ura.nx) * k0.u)
a_v = np.exp(1j * np.pi * np.arange(ura.ny) * k0.v)
a_full = np.kron(a_u, a_v)
row = 2 * ura.ny + 3  # sensor (p=2, q=3)
print(f"\nsteering entry at sensor (2,3): {a_full[row]:.4f} "
      f"= exp(j pi (2u + 3v)) = {np.exp(1j*np.pi*(2*k0.u + 3*k0.v)):.4f}")

# two grids, two dictionary shapes
grid_u = uniform_grid(40)
grid_v = uniform_grid(40)
pair = dictionary_pair(ura, grid_u, grid_v)
flat = kron_dictionary(pair, prune=True)
print(f"\nu grid {grid_u.size} points, v grid {grid_v.size} points")
print(f"full 2-D dictionary: {flat.matrix.shape} "
      f"({grid_u.size * grid_v.size - flat.size} infeasible u/v pairs pruned)")
print("  (formed here only to show its shape: the flat solver applies it through")
print(f"   the {grid_u.size} x {ura.nx ** 2} and {grid_v.size} x {ura.ny ** 2} outer tables of Phi_u and Phi_v)")

d_eff = effective_dictionary(pair.phi_u, ura.ny)
print(f"reduced dictionary Phi_u o I: {d_eff.shape} "
      f"- {grid_u.size} blocks of {ura.ny} latent rows, no v grid at all")
print("\nthe block solver works entirely through the reduced form; the v")
print("coordinate lives in each block's learned correlation matrix instead.")
