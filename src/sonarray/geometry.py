"""Sensor layout and far-field narrowband steering matrices.

Conventions used throughout the package:

* Directions are (azimuth, elevation) pairs in degrees, both restricted to
  [-90, 90] (front hemisphere).  The look unit vector is
  ``u = (cos(el)*sin(az), sin(el), cos(el)*cos(az))``, so boresight
  (0, 0) is the array normal +z.
* Element positions p are relative to the emitter at the origin.
  Steering phases are ``+j * 2*pi*f * (p . u) / c`` (phase advance toward
  the source).  Capture emulation shares the same sign.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_SOUND_MPS = 343.0  # dry air at 20 C; overridable everywhere it appears

DEFAULT_ELEMENT_COUNT = 16
DEFAULT_DIAMETER_M = 0.030

# Steering columns per block in steering_matrix and in the beamformers'
# quadratic form: their temporaries stay one block, 2 MB of complex
# entries at L = 16, whatever the grid.  glibc keeps up to twice the
# largest mmapped block a process has freed at the top of its heap and
# gives back the rest, so a smaller block costs page faults: at 4096
# columns a perfbench psf_sweep op faulted some 420 pages in again, at
# 8192 none (2-vCPU x86-64 host).
_COLUMN_BLOCK = 8192


@dataclass(frozen=True)
class Direction:
    """A look direction in degrees, limited to the front hemisphere."""

    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self):
        for name, value in (("azimuth_deg", self.azimuth_deg),
                            ("elevation_deg", self.elevation_deg)):
            if not (-90.0 <= float(value) <= 90.0) or not math.isfinite(float(value)):
                raise ValueError(f"{name} must lie in [-90, 90], got {value!r}")


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Element positions in meters, relative to the emitter at the origin."""

    elements: np.ndarray       # (L, 3)

    def __post_init__(self):
        elements = np.array(self.elements, dtype=float)
        if elements.ndim != 2 or elements.shape[1] != 3 or elements.shape[0] < 1:
            raise ValueError("elements must be an (L, 3) array with L >= 1")
        for i, position in enumerate(elements):
            if not np.isfinite(position).all():
                raise ValueError(f"element {i} position must be finite, got {position.tolist()}")
        if elements.shape[0] > 1:
            deltas = elements[:, None, :] - elements[None, :, :]
            dist = np.linalg.norm(deltas, axis=-1)
            dist[np.diag_indices(len(elements))] = np.inf
            if dist.min() <= 1e-6:
                raise ValueError("element positions must be pairwise distinct (> 1e-6 m)")
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def build_uniform_circular_array(n_elements: int, diameter_m: float) -> ArrayGeometry:
    """Place ``n_elements`` uniformly on a circle in the z = 0 plane.

    Element 0 sits on the +x axis; element l at angle 2*pi*l/n, around
    the emitter at the origin.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    if not diameter_m > 0:
        raise ValueError("diameter_m must be > 0")
    radius = diameter_m / 2.0
    angles = 2.0 * np.pi * np.arange(n_elements) / n_elements
    elements = np.column_stack((radius * np.cos(angles),
                                radius * np.sin(angles),
                                np.zeros(n_elements)))
    return ArrayGeometry(elements=elements)


def default_circular_array() -> ArrayGeometry:
    """The stock 16-element, 30 mm aperture (the CLI's default geometry)."""
    return build_uniform_circular_array(DEFAULT_ELEMENT_COUNT, DEFAULT_DIAMETER_M)


def unit_vectors(azimuth_deg, elevation_deg) -> np.ndarray:
    """Vectorized az/el-to-Cartesian conversion; returns shape (..., 3)."""
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    el = np.deg2rad(np.asarray(elevation_deg, dtype=float))
    az, el = np.broadcast_arrays(az, el)
    return np.stack((np.cos(el) * np.sin(az),
                     np.sin(el),
                     np.cos(el) * np.cos(az)), axis=-1)


def direction_unit_vector(d: Direction) -> np.ndarray:
    """Unit look vector for a Direction; boresight (0, 0) maps to +z."""
    return unit_vectors(d.azimuth_deg, d.elevation_deg)


def steering_matrix(geometry: ArrayGeometry, azimuth_deg, elevation_deg,
                    frequency_hz: float, c_mps: float) -> np.ndarray:
    """Steering vectors for many directions at once.

    ``azimuth_deg`` and ``elevation_deg`` are broadcast against each other
    and flattened; the result has shape (L, M) with one column per
    direction, entries exp(+j*2*pi*f*(p.u)/c).  The columns are filled
    _COLUMN_BLOCK at a time, the exponential taken in place, so the peak
    memory is the result, the flattened directions and one block's
    temporaries; each entry has the bits of ``np.exp(1j * phase)`` over
    all columns at once.
    """
    if not frequency_hz > 0:
        raise ValueError("frequency_hz must be > 0")
    if not c_mps > 0:
        raise ValueError("c_mps must be > 0")
    az, el = np.broadcast_arrays(np.asarray(azimuth_deg, dtype=float),
                                 np.asarray(elevation_deg, dtype=float))
    az, el = az.ravel(), el.ravel()
    wavenumber = 2.0 * np.pi * frequency_hz / c_mps
    D = np.empty((geometry.n_elements, az.size), dtype=complex)
    for start in range(0, az.size, _COLUMN_BLOCK):
        cols = slice(start, start + _COLUMN_BLOCK)
        phase = wavenumber * (geometry.elements @ unit_vectors(az[cols], el[cols]).T)
        np.multiply(phase, 1j, out=D[:, cols])
        np.exp(D[:, cols], out=D[:, cols])
    return D


def load_geometry_csv(path) -> ArrayGeometry:
    """Read a geometry CSV: header ``x_m,y_m,z_m,index``, one row per element.

    The header row is required.  The index column must hold 0..L-1, each
    once, for L rows; element i is the row with index i.  Row errors name
    ``path:line``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty geometry CSV") from None
        expected = ["x_m", "y_m", "z_m", "index"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}")
        rows = {}  # index -> (line, position)
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != 4:
                raise ValueError(f"{where}: expected 4 values, got {len(row)}")
            try:
                position = [float(v) for v in row[:3]]
                index = int(row[3])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if index in rows:
                raise ValueError(f"{where}: index {index} repeats line {rows[index][0]}")
            rows[index] = (reader.line_num, position)
    if not rows:
        raise ValueError(f"{path}: no element rows")
    for index, (line, _) in rows.items():
        if not 0 <= index < len(rows):
            raise ValueError(f"{path}:{line}: index {index} outside 0..{len(rows) - 1} "
                             f"for {len(rows)} rows")
    elements = np.array([rows[i][1] for i in range(len(rows))])
    return ArrayGeometry(elements=elements)


def geometry_fingerprint(geometry: ArrayGeometry) -> str:
    """Stable SHA-256 over the element layout."""
    layout = np.ascontiguousarray(geometry.elements, dtype="<f8").tobytes()
    return hashlib.sha256(layout).hexdigest()
