"""Bartlett and MVDR beamformers, grid scans, PSFs, and lobe metrics.

Both beamformers are normalized to unit response at the look direction,
so their outputs are directly comparable power estimates:

* Bartlett: w = d / L, output w^H R w.
* MVDR: w = R^-1 d / (d^H R^-1 d), output 1 / (d^H R^-1 d).

MVDR uses a Cholesky factorization of R plus optional diagonal loading
expressed as a fraction of the average eigenvalue trace(R)/L: use 0 for
analytic covariances and about 1e-3 for sample covariances estimated
from few snapshots.

A grid scan evaluates Re(d^H A d) for every steering column d, with
A = R / L^2 for Bartlett and A = R_loaded^-1 (from the Cholesky factor)
for MVDR: one (L, L) @ (L, M) product, then a sum over a float view of
D and A D, so every column gets the same arithmetic whatever the
evaluation order.

The scan steering matrix depends only on the geometry's content (its
``geometry_fingerprint``), the grid, the frequency and c, not on R, so
``power_map`` caches the most recent one, read-only, and reuses it
while those four stay the same: a ping-rate scan or a Bartlett/MVDR pair
over one grid builds it once.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import NoPeakError, SingularMatrixError
from .geometry import (ArrayGeometry, Direction, geometry_fingerprint,
                       steering_matrix)
from .signalmodel import PointSource, covariance_analytic

BEAMFORMERS = ("bartlett", "mvdr")
DB_FLOOR = -80.0  # export floor for dB maps


@dataclass(frozen=True)
class GridSpec:
    """Uniform azimuth/elevation grid, degrees, endpoints included; starts and
    stops lie in [-90, 90], the front hemisphere ``Direction`` spans.  Each
    ValueError names the field at fault first."""

    az_start_deg: float
    az_stop_deg: float
    az_step_deg: float
    el_start_deg: float
    el_stop_deg: float
    el_step_deg: float

    def __post_init__(self):
        for name in ("az", "el"):
            start, stop, step = (getattr(self, f"{name}_{part}_deg")
                                 for part in ("start", "stop", "step"))
            for part, value in (("start", start), ("stop", stop), ("step", step)):
                if not math.isfinite(value):
                    raise ValueError(f"{name}_{part}_deg must be finite, got {value!r}")
                if part != "step" and not -90.0 <= value <= 90.0:
                    raise ValueError(f"{name}_{part}_deg must lie in [-90, 90], got {value!r}")
            if not step > 0:
                raise ValueError(f"{name}_step_deg must be > 0")
            if stop < start:
                raise ValueError(f"{name}_stop_deg must be >= the start, {start!r}")

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
        az = np.array(self.azimuth_deg, dtype=float)
        el = np.array(self.elevation_deg, dtype=float)
        p = np.array(self.power, dtype=float)
        if az.ndim != 1 or el.ndim != 1:
            raise ValueError("grid axes must be 1-D")
        if np.any(np.diff(az) <= 0) or (el.size > 1 and np.any(np.diff(el) <= 0)):
            raise ValueError("grid axes must be strictly increasing")
        if p.shape != (el.size, az.size):
            raise ValueError("power must have shape (n_el, n_az)")
        if not np.isfinite(p).all() or p.min() < 0:
            raise ValueError("power values must be finite and >= 0")
        for name, value in (("azimuth_deg", az), ("elevation_deg", el), ("power", p)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def to_db(self) -> np.ndarray:
        """Map relative to its peak, floored at DB_FLOOR; peak maps to 0 dB.
        Computed on the first call; later calls return the same read-only
        array."""
        db = self.__dict__.get("_db")
        if db is None:
            peak = self.power.max()
            if peak <= 0:
                db = np.full_like(self.power, DB_FLOOR)
            else:
                db = 10.0 * np.log10(np.maximum(self.power / peak, 10.0 ** (DB_FLOOR / 10.0)))
            db.flags.writeable = False
            object.__setattr__(self, "_db", db)
        return db


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


def grid_powers(R: np.ndarray, D: np.ndarray, beamformer: str = "bartlett",
                loading: float = 0.0) -> np.ndarray:
    """Per-column beamformer power for a steering matrix D of shape (L, M)."""
    R = np.asarray(R, dtype=complex)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("covariance must be square")
    if D.ndim != 2 or D.shape[0] != R.shape[0]:
        raise ValueError(f"steering matrix {D.shape} does not match covariance {R.shape}")
    L = D.shape[0]
    if beamformer == "bartlett":
        vals = _quadratic_form(R / (L * L), D)
    elif beamformer == "mvdr":
        try:
            inv_factor = np.linalg.inv(np.linalg.cholesky(_loaded(R, loading)))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                "covariance (plus loading) is not positive definite; "
                "increase the diagonal loading fraction") from exc
        # R = C C^H for the lower factor C, so R^-1 = C^-H C^-1
        denom = _quadratic_form(inv_factor.conj().T @ inv_factor, D)
        if not np.all(np.isfinite(denom)) or denom.min() <= 0:
            raise SingularMatrixError("d^H R^-1 d is not positive; increase loading")
        vals = 1.0 / denom
    else:
        raise ValueError(f"unknown beamformer {beamformer!r}")
    return np.maximum(vals, 0.0)


def _quadratic_form(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Re(d^H A d) for every column d of D.

    Viewed as floats, the rows of D and A D interleave real and imaginary
    parts, so summing their products down each float column gives
    Re(d)*Re(Ad) and Im(d)*Im(Ad) in alternate entries, whose pairwise
    sums are Re(d^H A d).
    """
    D = np.ascontiguousarray(D, dtype=complex)
    s = np.einsum("lj,lj->j", D.view(float), (A @ D).view(float))
    return s[0::2] + s[1::2]


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
              frequency_hz: float, c_mps: float, *,
              beamformer: str = "bartlett", loading: float = 0.0) -> PowerMap:
    """Scan the chosen beamformer's output power over the grid."""
    az, el = grid.axes()
    vals = grid_powers(R, _scan_steering(geometry, grid, frequency_hz, c_mps),
                       beamformer, loading)
    return PowerMap(azimuth_deg=az, elevation_deg=el, power=vals.reshape(el.size, az.size))


def psf(geometry: ArrayGeometry, source: Direction, source_power: float,
        noise_power: float, grid: GridSpec, frequency_hz: float,
        c_mps: float, *, beamformer: str = "bartlett",
        loading: float = 0.0) -> tuple:
    """Single-point-source response map plus its lobe metrics."""
    if not source_power > 0:
        raise ValueError("source_power must be > 0")
    R = covariance_analytic(geometry, [PointSource(source, source_power)], noise_power,
                            frequency_hz, c_mps)
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


def _local_maxima(pmap: PowerMap) -> tuple:
    """Local maxima as (power, azimuth, elevation) arrays in descending
    power, ties by lower azimuth, then lower elevation.

    A cell qualifies when strictly above all its in-grid 8 neighbours, so
    plateaus yield nothing.  An el = +-90 row is one direction whose cells
    differ only by rounding: its highest cell stands for it, and qualifies
    when strictly above every cell of the next row.  For an array in the
    z = 0 plane the response is symmetric about az = +-90, so a maximum on
    that edge is a real lobe; on a grid cut short of +-90, an edge maximum
    may be the flank of a lobe outside the grid.
    """
    P = pmap.power
    padded = np.pad(P, 1, constant_values=-np.inf)
    # row3: the max of each cell and the two beside it; a cell's 8
    # neighbours are row3 above and below it and the two cells beside it
    row3 = np.maximum(np.maximum(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    neighbor_max = np.maximum(np.maximum(row3[:-2], row3[2:]),
                              np.maximum(padded[1:-1, :-2], padded[1:-1, 2:]))
    is_max = P > neighbor_max
    for i in np.flatnonzero(np.abs(pmap.elevation_deg) == 90.0):
        j = P[i].argmax()
        is_max[i] = False
        is_max[i, j] = P[i, j] > np.vstack((P[i - 1:i], P[i + 1:i + 2])).max(initial=-np.inf)
    i, j = np.divmod(np.flatnonzero(is_max), P.shape[1])
    power, az, el = P[i, j], pmap.azimuth_deg[j], pmap.elevation_deg[i]
    order = np.lexsort((el, az, -power))
    return power[order], az[order], el[order]


def psf_metrics(pmap: PowerMap) -> PsfMetrics:
    """Peak location, -3 dB main-lobe widths, and peak sidelobe level.

    The sidelobe level is the highest local maximum other than the peak,
    in dB relative to the peak, or -inf when there is none.  A local
    maximum is a cell strictly above all its in-grid 8 neighbours; an
    el = +-90 row counts as one direction, and cells on the az = +-90
    edges count as lobes (see ``_local_maxima``).
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
    sidelobes = _local_maxima(pmap)[0]
    sidelobes = sidelobes[sidelobes < peak]
    return PsfMetrics(
        peak_direction=Direction(float(pmap.azimuth_deg[j]), float(pmap.elevation_deg[i])),
        mainlobe_width_az_deg=_axis_width(pmap.azimuth_deg, P[i, :], j, threshold),
        mainlobe_width_el_deg=_axis_width(pmap.elevation_deg, P[:, j], i, threshold),
        peak_sidelobe_db=10.0 * math.log10(sidelobes[0] / peak) if sidelobes.size else -math.inf,
    )


def doa_peaks(pmap: PowerMap, max_peaks: int = 1, min_separation_deg: float = 0.0) -> list:
    """Local maxima (see ``_local_maxima``) in descending power, with greedy
    suppression by Euclidean distance in (azimuth, elevation) degrees."""
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    picked = []
    for p, az, el in zip(*(a.tolist() for a in _local_maxima(pmap))):
        if len(picked) >= max_peaks:
            break
        if all(math.hypot(az - a, el - e) >= min_separation_deg for _, a, e in picked):
            picked.append((p, az, el))
    return [(Direction(az, el), p) for p, az, el in picked]


# -- exports -----------------------------------------------------------------


_CSV_BLOCK_CELLS = 16384  # grid nodes per write in save_power_map_csv; bounds its temporaries
_WORD = np.dtype("<u8")  # up to 8 ASCII bytes of a field, the first in the low byte


def save_power_map_csv(pmap: PowerMap, path) -> None:
    """Rows of azimuth_deg, elevation_deg, power_linear, power_db.

    Elevation-major, azimuth fastest; az, el and linear power as ``%.10g``,
    dB as ``%.4f``, and a LF after every row, the last one included.  The
    bytes are Python's own: ``_ascii_fields`` builds each field in numpy
    from the correctly rounded decimal digits, which it can prove for
    almost every value, and hands the rest to ``%``.

    ``%.10g`` of x > 0 with decimal exponent e (10^e <= x < 10^(e+1)) is
    the integer nearest m = x * 10^(9-e), laid out by e.  For |9-e| <= 22
    the power of ten is an exact double, so m is one IEEE multiply or
    divide and lies within ulp(1e10)/2 < 1e-6 of the exact product; unless
    that product is within 2e-6 of a half-integer, rint(m) is the correct
    rounding.  ``%.4f`` of v is rint(|v| * 1e4) the same way, with an error
    below ulp(1e6)/2 < 1.2e-10 against a 1e-9 margin while it stays under
    1e6.  Python ``%`` formats the rest: zero, subnormals, |9-e| > 22,
    fractions within the margin of .5 (ties included), x that round up to
    10^(e+1) (their exponent moves) and |v| >= 99.99995.  The rows go out
    in blocks of at most about _CSV_BLOCK_CELLS nodes, each built as one
    uint8 array of NUL-padded fields and written with the NULs dropped.
    An existing file is overwritten in place (see ``_overwriting``).
    """
    n_az = pmap.azimuth_deg.size
    az, el = (_ascii_fields(axis, "%.10g") for axis in (pmap.azimuth_deg, pmap.elevation_deg))
    az[:, -1] = el[:, -1] = ord(",")
    # each row starts with the LF that ends the row before it
    az = np.column_stack([np.full(n_az, ord("\n"), np.uint8), az[:, az.any(axis=0)]])
    el = el[:, el.any(axis=0)]
    db = pmap.to_db()
    n_el = pmap.elevation_deg.size
    step = math.ceil(n_el / math.ceil(n_el * n_az / _CSV_BLOCK_CELLS))  # rows per block
    with _overwriting(path) as fh:
        fh.write(b"azimuth_deg,elevation_deg,power_linear,power_db")
        for i in range(0, n_el, step):
            rows = slice(i, i + step)
            shape = pmap.power[rows].shape
            power = _ascii_fields(pmap.power[rows], "%.10g")
            power[:, -1] = ord(",")
            lines = np.concatenate([np.broadcast_to(az, shape + az.shape[1:]),
                                    np.broadcast_to(el[rows, None], shape + el.shape[1:]),
                                    power.reshape(shape + (-1,)),
                                    _ascii_fields(db[rows], "%.4f").reshape(shape + (-1,))],
                                   axis=2)
            fh.write(lines.tobytes().translate(None, b"\0"))
        fh.write(b"\n")


def _ascii_fields(values, fmt: str) -> np.ndarray:
    """``fmt % v`` for each finite v, ``fmt`` being "%.10g" or "%.4f".

    Row i of the (n, width) uint8 result, with its NUL bytes dropped, is
    the ASCII of ``fmt % values[i]``; for "%.10g" the last byte of every
    row is NUL, free for a separator.  save_power_map_csv states which
    values take the numpy path.
    """
    if fmt not in _FIELD_WORDS:
        raise ValueError(f"unsupported format {fmt!r}")
    v = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # on values % formats
        words, fast = _FIELD_WORDS[fmt](np.abs(v), np.signbit(v), _format_tables())
    slow = np.flatnonzero(~fast)
    text = [(fmt % x).encode("ascii") for x in v[slow].tolist()]
    width = max([len(b) for b in text], default=0)  # at most 17 for "%.10g"
    if width > 8 * words.shape[1]:
        words = np.pad(words, ((0, 0), (0, -(-width // 8) - words.shape[1])))
    out = words.view(np.uint8)
    out[slow] = 0
    for i, b in zip(slow.tolist(), text):
        out[i, :len(b)] = np.frombuffer(b, np.uint8)
    return out


def _g10_words(a: np.ndarray, neg: np.ndarray, t) -> tuple:
    """``%.10g`` of sign ``neg`` and magnitude ``a`` as four words per value
    (sign and "0.000" prefix, digits 1-5, digits 6-10, exponent; byte 7 of
    the last is free), and the mask of the values formatted exactly."""
    fast = (a >= 1e-13) & (a < 1e32)  # |9 - e| <= 22; no zero, subnormal, inf or NaN
    i = np.floor(np.log10(np.where(fast, a, 1.0))).astype(np.intp).clip(-13, 31) + 13
    m = a * t.up[i] / t.down[i]  # one of the two is 1.0
    r = np.rint(m)
    # m >= 1e9 guards e against log10 rounding up; a round-up to the next
    # power of ten, which moves e, takes the % path
    fast &= (m >= 1e9) & (r < 1e10) & (np.abs(m - r) < 0.5 - 2e-6)
    hi, lo = np.divmod(np.where(fast, r, 1e9).astype(np.intp), 100_000)
    key = 10 * i + np.where(lo == 0, t.zeros[hi] + 5, t.zeros[lo])  # trailing zero digits
    words = np.empty((a.size, 4), _WORD)
    words[:, 0] = t.prefixes[2 * i + neg]
    words[:, 3] = t.suffixes[i]
    for col, part, (low, high, point) in ((1, hi, t.layout[0]), (2, lo, t.layout[1])):
        digits = t.digits[part]
        words[:, col] = (digits & low[key]) | point[key] \
            | ((digits & high[key]) << _WORD.type(8))
    return words, fast


def _f4_words(a: np.ndarray, neg: np.ndarray, t) -> tuple:
    """``%.4f`` of sign ``neg`` and magnitude ``a`` as one word per value,
    and the mask of the values formatted exactly."""
    m = a * 1e4
    r = np.rint(m)
    fast = (r < 1e6) & (np.abs(m - r) < 0.5 - 1e-9)
    whole, frac = np.divmod(np.where(fast, r, 0.0).astype(np.intp), 10_000)
    return (t.units[whole + 100 * neg] | t.decimals[frac])[:, None], fast


_FIELD_WORDS = {"%.10g": _g10_words, "%.4f": _f4_words}


def _word(text: str) -> int:
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


@lru_cache(maxsize=None)
def _format_tables() -> SimpleNamespace:
    """Lookup tables of _ascii_fields, built once in a few milliseconds.

    For ``%.10g``, with e the decimal exponent and i = e + 13 (e from -13
    to 31): digits[n], the five digits of n < 100000 as a word;
    zeros[n], its trailing zero digits; up[i] = 10^(9-e) for e <= 9 and
    down[i] = 10^(e-9) for e > 9, exact doubles, the other 1.0;
    prefixes[2i + negative], the sign then "0." and -e-1 zeros when
    -4 <= e < 0; suffixes[i], "e+XX" when e is outside [-4, 9].
    layout[k][:, 10i + z], for digit word k and z trailing zero digits,
    holds the (low, high, point) masks that drop trailing fraction zeros
    and put the point before high: word = (digits & low) | point |
    ((digits & high) << 8).  For ``%.4f``: units[100 * negative + w], "-w."
    in bytes 0-3; decimals[f], the four digits of f in bytes 4-7.
    """
    # axis k of the (10,) * 5 grid is the k-th of five digits
    place = [np.arange(10).reshape([-1 if j == k else 1 for j in range(5)]) for k in range(5)]
    digits = np.zeros((10,) * 5 + (8,), np.uint8)
    zeros = np.zeros((10,) * 5, np.uint8)
    for k in range(5):
        digits[..., k] = 48 + place[k]
        zeros = (place[k] == 0) * (zeros + 1)  # trailing zeros: reset by a nonzero digit
    digits = digits.reshape(-1, 8).view(_WORD).ravel()
    exponents = range(-13, 32)
    layout = []
    for e in exponents:
        n_int = e + 1 if 0 <= e <= 9 else int(e > 9 or e < -4)  # digits before the point
        for z in range(10):
            n_out = max(10 - z, n_int)
            masks = []
            for first in (0, 5):
                keep = (1 << 8 * min(max(n_out - first, 0), 5)) - 1
                at = 8 * min(max(n_int - first, 0), 5)
                low = keep & ((1 << at) - 1)
                point = 46 << at if n_out > n_int and first < n_int <= first + 5 else 0
                masks += [low, keep - low, point]
            layout.append(masks)
    layout = np.array(layout, _WORD).T.reshape(2, 3, -1)
    tables = SimpleNamespace(
        digits=digits, zeros=zeros.ravel(), layout=layout,
        up=10.0 ** np.maximum(9 - np.arange(-13, 32), 0),
        down=10.0 ** np.maximum(np.arange(-13, 32) - 9, 0),
        prefixes=np.array([_word("-" * neg + ("0." + "0" * (-e - 1) if -4 <= e < 0 else ""))
                           for e in exponents for neg in (0, 1)], _WORD),
        suffixes=np.array([_word("" if -4 <= e <= 9 else "e%+03d" % e) for e in exponents],
                          _WORD),
        units=np.array([_word("-" * neg + f"{w}.") for neg in (0, 1) for w in range(100)],
                       _WORD),
        decimals=(digits[:10_000] >> _WORD.type(8)) << _WORD.type(32))
    for table in vars(tables).values():
        table.flags.writeable = False  # shared by every call
    return tables


@contextmanager
def _overwriting(path):
    """A binary file that replaces the bytes at ``path`` once it is closed.

    The file is opened without truncation, written from its start and cut
    to the written length on a clean exit.  Truncating to zero on open
    makes a file system such as ext4 flush the file when it is closed,
    and truncating a file whose previous version is still being written
    back waits for that disk I/O; a map rewritten every few tens of
    milliseconds pays both on most writes.  A write that fails part way
    leaves the rest of the previous version after the new bytes.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        yield fh
        fh.truncate()


def save_power_map_pgm(pmap: PowerMap, path, metadata: dict | None = None) -> None:
    """8-bit binary PGM, dB-mapped (-80..0 dB to 0..255), top row = highest
    elevation.  A ``<path>.meta.txt`` sidecar records the grid and any
    extra metadata passed in.  Existing files are overwritten in place
    (see ``_overwriting``)."""
    db = pmap.to_db()
    pixels = np.round((db - DB_FLOOR) / (-DB_FLOOR) * 255.0)
    pixels = np.clip(pixels, 0, 255).astype(np.uint8)[::-1, :]
    height, width = pixels.shape
    with _overwriting(path) as fh:
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
    with _overwriting(f"{path}.meta.txt") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in sidecar.items()).encode())
