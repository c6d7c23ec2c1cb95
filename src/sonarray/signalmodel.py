"""Narrowband scene models, snapshot blocks and sample covariances.

A :class:`Scene` is one desired point source, zero or more uncorrelated
interferers, and spatially white sensor noise.  The analytic covariance is

    R = sd2 * d d^H  +  sum_k sk2 * g_k g_k^H  +  sv2 * I

with d and g_k steering vectors of the scene's directions.  A
:class:`SnapshotBlock` holds complex-envelope snapshots (demodulated
captures), and :func:`sample_covariance` estimates R from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (SPEED_OF_SOUND_MPS, ArrayGeometry, Direction,
                       steering_matrix)

_SCENE_KEYS = ("noise_power", "frequency_hz", "c_mps")
_SOURCE_KEYS = ("azimuth_deg", "elevation_deg", "power")


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
                        c_mps: float = SPEED_OF_SOUND_MPS) -> np.ndarray:
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


# -- scene description files -------------------------------------------------
#
# Flat key-value text (see parse_key_values).  The desired
# source uses keys desired.azimuth_deg / desired.elevation_deg /
# desired.power; every "interferer.azimuth_deg" line begins a new
# interferer block.  Top-level keys: noise_power, frequency_hz, c_mps.


def parse_key_values(lines, source: str):
    """Stripped (key, value) of each "key = value" line of a config or
    scene file, split on the first "="; "#" starts a comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}", "expected 'key = value'")
        yield tuple(part.strip() for part in line.split("=", 1))


def parse_scene_text(text: str, source: str = "<scene>") -> tuple:
    """Parse scene text; returns (Scene, frequency_hz, c_mps)."""
    top = {}
    desired = {}
    interferers = []
    current = None
    for key, value in parse_key_values(text.splitlines(), source):
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(key, f"not a number: {value!r}") from None
        if not math.isfinite(number):
            raise ConfigError(key, f"must be finite, got {value!r}")
        group, _, sub = key.partition(".")
        if group == "desired" and sub in _SOURCE_KEYS:
            desired[sub] = number
        elif group == "interferer" and sub in _SOURCE_KEYS:
            if sub == "azimuth_deg" or current is None:
                current = {}
                interferers.append(current)
            current[sub] = number
        elif key in _SCENE_KEYS:
            top[key] = number
        else:
            raise ConfigError(key, "unknown scene key")
    for req in _SOURCE_KEYS:
        if req not in desired:
            raise ConfigError(f"desired.{req}", "missing from scene description")
    sources = []
    for i, block in enumerate(interferers):
        for req in _SOURCE_KEYS:
            if req not in block:
                raise ConfigError(f"interferer.{req}", f"missing in interferer block {i + 1}")
        sources.append(_point_source(block, "interferer.", f" (interferer block {i + 1})"))
    desired_source = _point_source(desired, "desired.")
    try:
        scene = Scene(desired=desired_source, interferers=tuple(sources),
                      noise_power=top.get("noise_power", 0.0))
    except ValueError as exc:
        raise ConfigError.from_field("", exc) from None
    if "frequency_hz" not in top:
        raise ConfigError("frequency_hz", "missing from scene description")
    top.setdefault("c_mps", SPEED_OF_SOUND_MPS)
    for key in ("frequency_hz", "c_mps"):
        if not top[key] > 0:
            raise ConfigError(key, f"must be > 0, got {top[key]!r}")
    return scene, top["frequency_hz"], top["c_mps"]


def _point_source(values: dict, prefix: str, where: str = "") -> PointSource:
    try:
        return PointSource(Direction(values["azimuth_deg"], values["elevation_deg"]),
                           values["power"])
    except ValueError as exc:
        raise ConfigError.from_field(prefix, exc, where) from None


def load_scene_file(path) -> tuple:
    with open(path) as fh:
        return parse_scene_text(fh.read(), source=str(path))

