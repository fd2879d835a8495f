"""Synthetic snapshot generation for uniform rectangular arrays.

A URA with ``nx`` sensors along one axis and ``ny`` along the other, at
half-wavelength spacing, observes K narrowband far-field sources.  Source k
sits at direction cosines (u_k, v_k) with u = cos(phi) sin(theta) and
v = sin(phi) sin(theta), so every physical direction satisfies
u^2 + v^2 <= 1.  Sensor (p, q) of snapshot l measures

    sum_k s_{k,l} * exp(j * pi * (p * u_k + q * v_k)) + noise

with unit-power symbols s_{k,l} and circular complex Gaussian noise.
Snapshots are vectorized with the y index varying fastest, i.e. the (p, q)
sample lands in row p * ny + q.  Under that ordering a noiseless snapshot is
(Phi_u kron Phi_v) vec(S^T) for the two 1-D steering dictionaries.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UraConfig",
    "Source",
    "Scene",
    "SnapshotSet",
    "angles_to_uv",
    "noise_power",
    "synthesize_snapshots",
    "sample_covariance",
]

# slack for direction cosines computed in floating point (angles, grid points)
_DISK_TOL = 1e-12


def in_unit_disk(u, v):
    """u^2 + v^2 <= 1 up to ``_DISK_TOL``, elementwise: the one form of the rule."""
    return np.square(u) + np.square(v) <= 1.0 + _DISK_TOL


@dataclass(frozen=True)
class UraConfig:
    """Uniform rectangular array geometry: ``nx`` by ``ny`` sensors."""

    nx: int
    ny: int

    def __post_init__(self):
        if int(self.nx) != self.nx or int(self.ny) != self.ny:
            raise ValueError("array dimensions must be integers")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"array dimensions must be >= 1, got ({self.nx}, {self.ny})")

    @property
    def size(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class Source:
    """A far-field source at direction cosines (u, v), u^2 + v^2 <= 1."""

    u: float
    v: float

    def __post_init__(self):
        if not (-1.0 <= self.u <= 1.0) or not (-1.0 <= self.v <= 1.0):
            raise ValueError(f"direction cosines must lie in [-1, 1], got ({self.u}, {self.v})")
        if not in_unit_disk(self.u, self.v):
            raise ValueError(f"infeasible direction: u^2 + v^2 = {self.u**2 + self.v**2} exceeds 1")


@dataclass(frozen=True)
class Scene:
    """Sources plus observation parameters for one synthetic data set.

    ``snr_db`` is per-source SNR against the per-element noise variance
    10**(-snr_db / 10); symbols have unit power.  ``math.inf`` gives
    noiseless data.  ``seed`` fixes the symbol and noise draws exactly.
    An empty source tuple is allowed and yields pure noise.
    """

    sources: tuple = field(default_factory=tuple)
    snr_db: float = 20.0
    num_snapshots: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        for s in self.sources:
            if not isinstance(s, Source):
                raise TypeError("scene sources must be Source instances")
        if self.num_snapshots < 1:
            raise ValueError("num_snapshots must be >= 1")
        if int(self.seed) != self.seed:
            raise ValueError("seed must be an integer")

    @property
    def k(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class SnapshotSet:
    """Vectorized snapshots, one column per snapshot.

    ``y`` has nx * ny rows ordered with the y index fastest.  ``n_snapshots``
    is the statistical snapshot count L used in all 1/L averages; it can
    differ from the column count after rank-preserving compression.
    """

    y: np.ndarray
    nx: int
    ny: int
    n_snapshots: int

    def __post_init__(self):
        y = np.asarray(self.y, dtype=complex)
        object.__setattr__(self, "y", y)
        if y.ndim != 2:
            raise ValueError("snapshot matrix must be 2-D")
        if y.shape[0] != self.nx * self.ny:
            raise ValueError(
                f"snapshot rows {y.shape[0]} do not match nx * ny = {self.nx * self.ny}"
            )
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be >= 1")

    @property
    def size(self) -> int:
        return self.nx * self.ny


def angles_to_uv(theta_deg: float, phi_deg: float) -> tuple:
    """Convert elevation/azimuth in degrees to direction cosines (u, v).

    Parameters
    ----------
    theta_deg : elevation in [0, 90].
    phi_deg : azimuth in [0, 360).

    Returns
    -------
    (u, v) with u = cos(phi) sin(theta), v = sin(phi) sin(theta).
    """
    if not (0.0 <= theta_deg <= 90.0):
        raise ValueError(f"elevation must lie in [0, 90] degrees, got {theta_deg}")
    if not (0.0 <= phi_deg < 360.0):
        raise ValueError(f"azimuth must lie in [0, 360) degrees, got {phi_deg}")
    theta = math.radians(theta_deg)
    phi = math.radians(phi_deg)
    return (math.cos(phi) * math.sin(theta), math.sin(phi) * math.sin(theta))


def noise_power(snr_db: float) -> float:
    """Per-element noise variance for unit-power symbols: 10**(-snr_db/10)."""
    return 10.0 ** (-snr_db / 10.0)


def synthesize_snapshots(scene: Scene, config: UraConfig, symbols=None) -> SnapshotSet:
    """Draw L snapshots of the scene on the given array.

    Symbols and noise come from independent substreams of ``scene.seed``,
    so repeated calls are bit-identical.  Pass ``symbols`` with shape
    (K, L) to override the unit-power circular Gaussian symbol draw.
    """
    k = scene.k
    L = scene.num_snapshots
    ss = np.random.SeedSequence(scene.seed)
    sym_ss, noise_ss = ss.spawn(2)

    if symbols is None:
        rng = np.random.default_rng(sym_ss)
        symbols = (rng.standard_normal((k, L)) + 1j * rng.standard_normal((k, L))) / math.sqrt(2)
    else:
        symbols = np.asarray(symbols, dtype=complex)
        if symbols.shape != (k, L):
            raise ValueError(f"symbols must have shape ({k}, {L}), got {symbols.shape}")

    u = np.array([s.u for s in scene.sources])
    v = np.array([s.v for s in scene.sources])
    px = np.arange(config.nx)
    qy = np.arange(config.ny)
    # (nx, ny, K) phase grid, flattened row-major so the y index is fastest
    phase = px[:, None, None] * u[None, None, :] + qy[None, :, None] * v[None, None, :]
    a = np.exp(1j * np.pi * phase).reshape(config.size, k)

    sigma2 = noise_power(scene.snr_db)
    rng_n = np.random.default_rng(noise_ss)
    noise = rng_n.standard_normal((config.size, L)) + 1j * rng_n.standard_normal((config.size, L))
    y = a @ symbols + math.sqrt(sigma2 / 2.0) * noise
    return SnapshotSet(y=y, nx=config.nx, ny=config.ny, n_snapshots=L)


def sample_covariance(snapshots: SnapshotSet) -> np.ndarray:
    """Sample covariance (1/L) Y Y^H, symmetrized to kill rounding skew."""
    y = snapshots.y
    s = y @ y.conj().T / snapshots.n_snapshots
    return 0.5 * (s + s.conj().T)
