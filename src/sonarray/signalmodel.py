"""Narrowband scene models, snapshot blocks and sample covariances.

A scene is one or more uncorrelated point sources (:class:`PointSource`)
and spatially white sensor noise.  Its analytic covariance is

    R = sum_k s_k2 * a_k a_k^H  +  sv2 * I

with a_k the steering vector of source k's direction.  A
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


@dataclass(frozen=True, eq=False)
class SnapshotBlock:
    """N complex-envelope snapshots across L channels, shape (L, N)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[1] < 1 or samples.shape[0] < 1:
            raise ValueError("samples must be a non-empty (L, N) matrix")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n_snapshots(self) -> int:
        return self.samples.shape[1]


def covariance_analytic(geometry: ArrayGeometry, sources, noise_power: float,
                        frequency_hz: float, c_mps: float) -> np.ndarray:
    """Exact second-order covariance of uncorrelated ``sources`` (at least
    one PointSource) in white noise of power ``noise_power``, at one
    frequency."""
    if not sources:
        raise ValueError("a scene needs at least one source")
    if not noise_power >= 0:
        raise ValueError(f"noise_power must be >= 0, got {noise_power!r}")
    D = steering_matrix(geometry, [s.direction.azimuth_deg for s in sources],
                        [s.direction.elevation_deg for s in sources], frequency_hz, c_mps)
    a = D[:, 0]
    R = sources[0].power * np.outer(a, a.conj())
    for k, src in enumerate(sources[1:], start=1):
        a = D[:, k]
        R = R + src.power * np.outer(a, a.conj())
    return R + noise_power * np.eye(geometry.n_elements)


def sample_covariance(block: SnapshotBlock) -> np.ndarray:
    """R_hat = Y Y^H / N, symmetrized so it is exactly Hermitian."""
    Y = block.samples
    R = (Y @ Y.conj().T) / block.n_snapshots
    return (R + R.conj().T) / 2.0

