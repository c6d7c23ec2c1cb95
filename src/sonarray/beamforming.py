"""Bartlett and MVDR beamformers, grid scans, PSFs, and lobe metrics.

Both beamformers are normalized to unit response at the look direction,
so their outputs are directly comparable power estimates:

* Bartlett: w = d / L, output w^H R w.
* MVDR: w = R^-1 d / (d^H R^-1 d), output 1 / (d^H R^-1 d).

MVDR solves use a Cholesky factorization of R plus optional diagonal
loading expressed as a fraction of the average eigenvalue trace(R)/L:
use 0 for analytic covariances and about 1e-3 for sample covariances
estimated from few snapshots.  Grid scans share one factorization across
all nodes and are evaluated with vectorized solves, so results are
independent of evaluation order.

The scan steering matrix depends only on the geometry's content (its
``geometry_fingerprint``), the grid, the frequency and c, not on R, so
``power_map`` caches the most recent one, read-only, and reuses it while
those four stay the same: a ping-rate scan or a Bartlett/MVDR pair over
one grid builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.ndimage

from .errors import NoPeakError, SingularMatrixError
from .geometry import (SPEED_OF_SOUND_MPS, ArrayGeometry, Direction,
                       geometry_fingerprint, steering_matrix)
from .signalmodel import PointSource, Scene, covariance_analytic

BEAMFORMERS = ("bartlett", "mvdr")
DB_FLOOR = -80.0  # export floor for dB maps


@dataclass(frozen=True)
class GridSpec:
    """Uniform azimuth/elevation grid, degrees, endpoints included."""

    az_start_deg: float = -90.0
    az_stop_deg: float = 90.0
    az_step_deg: float = 1.0
    el_start_deg: float = -90.0
    el_stop_deg: float = 90.0
    el_step_deg: float = 1.0

    def __post_init__(self):
        for name in ("az", "el"):
            start = getattr(self, f"{name}_start_deg")
            stop = getattr(self, f"{name}_stop_deg")
            step = getattr(self, f"{name}_step_deg")
            if not step > 0:
                raise ValueError(f"grid.{name}_step must be > 0")
            if stop < start:
                raise ValueError(f"grid.{name}_stop must be >= grid.{name}_start")

    def axes(self) -> tuple:
        def axis(start, stop, step):
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            return start + step * np.arange(n)
        return (axis(self.az_start_deg, self.az_stop_deg, self.az_step_deg),
                axis(self.el_start_deg, self.el_stop_deg, self.el_step_deg))


@dataclass(frozen=True, eq=False)
class PowerMap:
    """Scan output: power[i, j] is elevation i by azimuth j, linear scale."""

    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        az = np.asarray(self.azimuth_deg, dtype=float)
        el = np.asarray(self.elevation_deg, dtype=float)
        p = np.asarray(self.power, dtype=float)
        if az.ndim != 1 or el.ndim != 1:
            raise ValueError("grid axes must be 1-D")
        if np.any(np.diff(az) <= 0) or (el.size > 1 and np.any(np.diff(el) <= 0)):
            raise ValueError("grid axes must be strictly increasing")
        if p.shape != (el.size, az.size):
            raise ValueError("power must have shape (n_el, n_az)")
        if p.min() < 0:
            raise ValueError("power values must be >= 0")
        object.__setattr__(self, "azimuth_deg", az)
        object.__setattr__(self, "elevation_deg", el)
        object.__setattr__(self, "power", p)

    def to_db(self) -> np.ndarray:
        """Map relative to its peak, floored at DB_FLOOR; peak maps to 0 dB."""
        peak = self.power.max()
        if peak <= 0:
            return np.full_like(self.power, DB_FLOOR)
        ratio = np.maximum(self.power / peak, 10.0 ** (DB_FLOOR / 10.0))
        return 10.0 * np.log10(ratio)


@dataclass(frozen=True)
class PsfMetrics:
    peak_direction: Direction
    mainlobe_width_az_deg: float
    mainlobe_width_el_deg: float
    peak_sidelobe_db: float


def _loaded(R: np.ndarray, loading: float) -> np.ndarray:
    if loading < 0:
        raise ValueError("loading must be >= 0")
    if loading == 0:
        return R
    return R + loading * (np.trace(R).real / R.shape[0]) * np.eye(R.shape[0])


def _factorize(R_loaded: np.ndarray):
    try:
        return scipy.linalg.cho_factor(R_loaded)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise SingularMatrixError(
            "covariance (plus loading) is not positive definite; "
            "increase the diagonal loading fraction") from exc


def _mvdr_solve(R: np.ndarray, D: np.ndarray, loading: float) -> tuple:
    """X = R_loaded^-1 D and the per-column d^H R_loaded^-1 d, checked > 0."""
    cho = _factorize(_loaded(R, loading))
    X = scipy.linalg.cho_solve(cho, D, check_finite=False)
    denom = np.einsum("lm,lm->m", D.conj(), X).real
    if not np.all(np.isfinite(denom)) or denom.min() <= 0:
        raise SingularMatrixError("d^H R^-1 d is not positive; increase loading")
    return X, denom


def mvdr_weights(R: np.ndarray, d: np.ndarray, loading: float = 0.0) -> np.ndarray:
    """Minimum-variance weights with unit gain toward the steering vector d."""
    X, denom = _mvdr_solve(np.asarray(R, dtype=complex), np.asarray(d)[:, None], loading)
    return X[:, 0] / denom[0]


def grid_powers(R: np.ndarray, D: np.ndarray, beamformer: str = "bartlett",
                loading: float = 0.0) -> np.ndarray:
    """Per-column beamformer power for a steering matrix D of shape (L, M)."""
    R = np.asarray(R, dtype=complex)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("covariance must be square")
    if D.ndim != 2 or D.shape[0] != R.shape[0]:
        raise ValueError(f"steering matrix {D.shape} does not match covariance {R.shape}")
    if beamformer == "bartlett":
        L = D.shape[0]
        vals = np.einsum("lm,lm->m", D.conj(), R @ D).real / (L * L)
    elif beamformer == "mvdr":
        vals = 1.0 / _mvdr_solve(R, D, loading)[1]
    else:
        raise ValueError(f"unknown beamformer {beamformer!r}")
    return np.maximum(vals, 0.0)


# One entry: (geometry fingerprint, grid, frequency, c) -> read-only (L, M)
# steering matrix.  A ping-rate scan repeats the same key, and one entry
# bounds the memory at a single matrix.
_scan_steering_cache: dict = {}


def _scan_steering(geometry: ArrayGeometry, grid: GridSpec, frequency_hz: float,
                   c_mps: float) -> np.ndarray:
    """Steering matrix over the grid nodes, elevation-major, cached."""
    key = (geometry_fingerprint(geometry), grid, float(frequency_hz), float(c_mps))
    D = _scan_steering_cache.get(key)
    if D is None:
        az, el = grid.axes()
        AZ, EL = np.meshgrid(az, el)
        D = steering_matrix(geometry, AZ.ravel(), EL.ravel(), frequency_hz, c_mps)
        D.flags.writeable = False
        _scan_steering_cache.clear()
        _scan_steering_cache[key] = D
    return D


def power_map(geometry: ArrayGeometry, R: np.ndarray, grid: GridSpec,
              frequency_hz: float, c_mps: float = SPEED_OF_SOUND_MPS, *,
              beamformer: str = "bartlett", loading: float = 0.0) -> PowerMap:
    """Scan the chosen beamformer's output power over the grid."""
    az, el = grid.axes()
    vals = grid_powers(R, _scan_steering(geometry, grid, frequency_hz, c_mps),
                       beamformer, loading)
    return PowerMap(azimuth_deg=az, elevation_deg=el, power=vals.reshape(el.size, az.size))


def psf(geometry: ArrayGeometry, source: Direction, source_power: float,
        noise_power: float, grid: GridSpec, frequency_hz: float,
        c_mps: float = SPEED_OF_SOUND_MPS, *, beamformer: str = "bartlett",
        loading: float = 0.0) -> tuple:
    """Single-point-source response map plus its lobe metrics."""
    if not source_power > 0:
        raise ValueError("source_power must be > 0")
    scene = Scene(desired=PointSource(source, source_power), interferers=(),
                  noise_power=noise_power)
    R = covariance_analytic(geometry, scene, frequency_hz, c_mps)
    pmap = power_map(geometry, R, grid, frequency_hz, c_mps,
                     beamformer=beamformer, loading=loading)
    return pmap, psf_metrics(pmap)


def _axis_width(axis: np.ndarray, line: np.ndarray, peak_idx: int, threshold: float) -> float:
    """-3 dB width along one grid line via linear interpolation.

    If the lobe never drops below threshold before the grid edge, the
    crossing clamps to the edge.
    """
    def cross(direction):
        i = peak_idx
        while 0 <= i + direction < line.size:
            j = i + direction
            if line[j] < threshold:
                frac = (threshold - line[i]) / (line[j] - line[i])
                return axis[i] + frac * (axis[j] - axis[i])
            i = j
        return axis[0] if direction < 0 else axis[-1]

    return float(cross(+1) - cross(-1))


def psf_metrics(pmap: PowerMap) -> PsfMetrics:
    """Peak location, -3 dB main-lobe widths, and peak sidelobe level.

    The main lobe is the 4-connected region above half the peak power
    that contains the peak; the sidelobe level is the largest power
    outside it, in dB relative to the peak.
    """
    P = pmap.power
    peak = P.max()
    if peak <= 0:
        raise NoPeakError("power map is identically zero")
    peak_cells = np.argwhere(P == peak)
    if len(peak_cells) != 1:
        raise NoPeakError(f"power map has {len(peak_cells)} equal maxima")
    i, j = (int(v) for v in peak_cells[0])
    threshold = 0.5 * peak

    width_az = _axis_width(pmap.azimuth_deg, P[i, :], j, threshold)
    width_el = _axis_width(pmap.elevation_deg, P[:, j], i, threshold)

    labels, _ = scipy.ndimage.label(P >= threshold)
    outside = P[labels != labels[i, j]]
    if outside.size == 0 or outside.max() <= 0:
        sidelobe_db = -math.inf
    else:
        sidelobe_db = 10.0 * math.log10(outside.max() / peak)

    return PsfMetrics(
        peak_direction=Direction(float(pmap.azimuth_deg[j]), float(pmap.elevation_deg[i])),
        mainlobe_width_az_deg=width_az,
        mainlobe_width_el_deg=width_el,
        peak_sidelobe_db=min(sidelobe_db, 0.0),
    )


def doa_peaks(pmap: PowerMap, max_peaks: int = 1, min_separation_deg: float = 0.0) -> list:
    """Local maxima in descending power with greedy neighbor suppression.

    A cell qualifies when strictly greater than all 8 neighbors, so
    plateaus (including constant maps) yield nothing.  Ties order by
    (lower azimuth, lower elevation); suppression uses Euclidean distance
    in (azimuth, elevation) degrees.
    """
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    P = pmap.power
    H, W = P.shape
    padded = np.full((H + 2, W + 2), -np.inf)
    padded[1:-1, 1:-1] = P
    neighbor_max = np.full_like(P, -np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor_max = np.maximum(neighbor_max,
                                      padded[1 + di:H + 1 + di, 1 + dj:W + 1 + dj])
    cells = np.argwhere(P > neighbor_max)
    candidates = sorted(
        ((float(P[i, j]), float(pmap.azimuth_deg[j]), float(pmap.elevation_deg[i]))
         for i, j in cells),
        key=lambda t: (-t[0], t[1], t[2]))
    picked = []
    for p, az, el in candidates:
        if len(picked) >= max_peaks:
            break
        if any(math.hypot(az - a, el - e) < min_separation_deg for _, a, e in picked):
            continue
        picked.append((p, az, el))
    return [(Direction(az, el), float(p)) for p, az, el in picked]


# -- exports -----------------------------------------------------------------


def save_power_map_csv(pmap: PowerMap, path) -> None:
    """Rows of azimuth_deg, elevation_deg, power_linear, power_db."""
    db = pmap.to_db()
    with open(path, "w", newline="") as fh:
        fh.write("azimuth_deg,elevation_deg,power_linear,power_db\n")
        for i, el in enumerate(pmap.elevation_deg):
            for j, az in enumerate(pmap.azimuth_deg):
                fh.write(f"{az:.10g},{el:.10g},{pmap.power[i, j]:.10g},{db[i, j]:.4f}\n")


def save_power_map_pgm(pmap: PowerMap, path, metadata: dict | None = None) -> None:
    """8-bit binary PGM, dB-mapped (-80..0 dB to 0..255), top row = highest
    elevation.  A ``<path>.meta.txt`` sidecar records the grid and any
    extra metadata passed in."""
    db = pmap.to_db()
    pixels = np.round((db - DB_FLOOR) / (-DB_FLOOR) * 255.0)
    pixels = np.clip(pixels, 0, 255).astype(np.uint8)[::-1, :]
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    sidecar = {
        "azimuth_start_deg": f"{pmap.azimuth_deg[0]:.10g}",
        "azimuth_stop_deg": f"{pmap.azimuth_deg[-1]:.10g}",
        "azimuth_points": str(pmap.azimuth_deg.size),
        "elevation_start_deg": f"{pmap.elevation_deg[0]:.10g}",
        "elevation_stop_deg": f"{pmap.elevation_deg[-1]:.10g}",
        "elevation_points": str(pmap.elevation_deg.size),
        "db_floor": f"{DB_FLOOR:.10g}",
        "orientation": "top row = highest elevation",
    }
    if metadata:
        sidecar.update({k: str(v) for k, v in metadata.items()})
    with open(f"{path}.meta.txt", "w") as fh:
        for key, value in sidecar.items():
            fh.write(f"{key} = {value}\n")
