"""Narrowband scene models, snapshot blocks and sample covariances.

A :class:`Scene` is one desired point source, zero or more uncorrelated
interferers, and spatially white sensor noise.  The analytic covariance is

    R = sd2 * d d^H  +  sum_k sk2 * g_k g_k^H  +  sv2 * I

with d and g_k steering vectors of the scene's directions.  A
:class:`SnapshotBlock` holds complex-envelope snapshots (demodulated
captures), and :func:`sample_covariance` estimates R from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, Direction, steering_matrix


@dataclass(frozen=True)
class PointSource:
    direction: Direction
    power: float

    def __post_init__(self):
        if not self.power >= 0:
            raise ValueError(f"power must be >= 0, got {self.power!r}")


@dataclass(frozen=True)
class Scene:
    desired: PointSource
    interferers: tuple = ()
    noise_power: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        if not self.noise_power >= 0:
            raise ValueError(f"noise_power must be >= 0, got {self.noise_power!r}")


@dataclass(frozen=True, eq=False)
class SnapshotBlock:
    """N complex-envelope snapshots across L channels, shape (L, N)."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[1] < 1 or samples.shape[0] < 1:
            raise ValueError("samples must be a non-empty (L, N) matrix")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be > 0")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n_snapshots(self) -> int:
        return self.samples.shape[1]


def covariance_analytic(geometry: ArrayGeometry, scene: Scene, frequency_hz: float,
                        c_mps: float) -> np.ndarray:
    """Exact second-order covariance of the scene at one frequency."""
    directions = [scene.desired.direction] + [s.direction for s in scene.interferers]
    D = steering_matrix(geometry, [d.azimuth_deg for d in directions],
                        [d.elevation_deg for d in directions], frequency_hz, c_mps)
    d = D[:, 0]
    R = scene.desired.power * np.outer(d, d.conj())
    for k, src in enumerate(scene.interferers, start=1):
        g = D[:, k]
        R = R + src.power * np.outer(g, g.conj())
    R = R + scene.noise_power * np.eye(geometry.n_elements)
    return R


def sample_covariance(block: SnapshotBlock) -> np.ndarray:
    """R_hat = Y Y^H / N, symmetrized so it is exactly Hermitian."""
    Y = block.samples
    R = (Y @ Y.conj().T) / block.n_snapshots
    return (R + R.conj().T) / 2.0

