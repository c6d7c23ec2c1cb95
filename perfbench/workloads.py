"""The stock-sensor workloads: localize and psf_sweep (gated by
BENCHMARK.json) and acquire (the write side, for paired runs).

Each workload is a closed loop: one client, one process, one op at a
time.  It calls the package's public functions in the order the CLI
uses them and receives only inputs generated from the workload seed.
Every call into a package layer is wrapped in a span named
``<module>.<function>``; counts are taken at the same boundaries.

A workload object offers:

* ``setup_passes`` and ``setup(p, tr)``: input generation and warm-up,
  done in equal passes so the runner can report the median pass time;
* ``prepare(i)``: untimed input for op ``i`` (a target, a byte window);
* ``op(i, item, tr)``: the timed op;
* ``check(i, item, result)``: output checks, returning fault strings;
* ``summary()``: digests and accuracy figures for the run record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "sonarray" / "__init__.py").is_file():
    raise ImportError(f"no sonarray package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from sonarray import (acquisition, beamforming, cli, framing,  # noqa: E402
                      signalmodel, waveform)
from sonarray.errors import UnreliableEstimateError  # noqa: E402
from sonarray.geometry import Direction, direction_unit_vector  # noqa: E402

from spans import NullTracer  # noqa: E402

if not Path(acquisition.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"sonarray imported from {acquisition.__file__}, not {SRC}")

WINDOW_S = 0.05               # signal seconds of one ping window; one op each
FRAMES_PER_WINDOW = 16        # 13 906 PDM bits per channel per frame
CHUNK_BYTES = 65536           # cmd_decode's read size
# Worst case at 0.6 m: echo 1/(0.6 * 0.585) = 2.85 plus ~5 sigma of the
# 0.1-sigma noise stays below 3.45, so 0.25 keeps every channel under 0.87
# full scale, inside the sigma-delta loop's stable range.
FRONT_END_GAIN = 0.25
LOCALIZE_LOADING = 1e-3       # sample covariances from ~834 snapshots
AZ_LIMIT_DEG = 70.0
EL_LIMIT_DEG = 30.0
RANGE_M = (0.6, 2.0)          # 3 ms chirp blind zone ends at c*T/2 = 0.51 m
LOCALIZE_WINDOWS = 8          # distinct targets, one per set-up pass
DIGEST_OPS = 8                # ops covered by the bit-identity digest
# Declared output tolerances.  DOA: the boresight Bartlett -3 dB main-lobe
# width of the stock array (11.8 deg); a larger error means the peak left
# the target's main lobe.  The known MVDR bias off boresight (up to ~9 deg)
# stays inside and shows in doa_rms_error_deg instead.  Range: the CIC
# group delay (1.9 PCM samples, 1.2 mm) plus peak quantization fits well
# inside 5 mm, eight PCM sample periods of two-way path.
DOA_TOLERANCE_DEG = 12.0
RANGE_TOLERANCE_MM = 5.0
JUNK_PROBABILITY = 0.25
JUNK_MAX_BYTES = 256


class OpFault(Exception):
    """An op produced no usable output; the message is the cause."""


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    setup_passes = 3

    def summary(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class Stock:
    """The stock sensor, resolved through the CLI's default configuration."""

    def __init__(self):
        cfg = cli.Config({})
        self.geometry = cfg.geometry()
        self.grid = cfg.grid()
        self.chirp = waveform.generate_chirp(cfg.chirp_spec(), cfg.chirp_window())
        self.frequency_hz = cfg.get_float("frequency_hz", positive=True)
        self.c_mps = cfg.get_float("c_mps", positive=True)
        self.noise_db = cfg.get_float("simulate.noise_db")
        self.ping_hz = cfg.get_float("simulate.rate_hz", positive=True)
        self.pdm_rate_hz = cfg.get_float("decode.rate_hz", positive=True)
        self.factor = cfg.get_int("decode.factor", minimum=2)
        self.psf_power = cfg.get_float("psf.power", positive=True)
        self.psf_noise = cfg.get_float("psf.noise_power")
        self.psf_loading = cfg.get_float("beamformer.loading")
        self.psf_beamformers = tuple(b.strip() for b in cfg.get("psf.beamformers").split(",")
                                     if b.strip())


def angle_between_deg(a: Direction, b: Direction) -> float:
    cos = float(direction_unit_vector(a) @ direction_unit_vector(b))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def true_range_m(stock: Stock, target: acquisition.ReflectorTarget) -> float:
    """Half the channel-0 two-way echo path."""
    delays, _ = acquisition.echo_geometry(stock.geometry, target, stock.c_mps)
    return float(delays[0]) * stock.c_mps / 2.0


def draw_target(rng) -> tuple:
    target = acquisition.ReflectorTarget(
        Direction(float(rng.uniform(-AZ_LIMIT_DEG, AZ_LIMIT_DEG)),
                  float(rng.uniform(-EL_LIMIT_DEG, EL_LIMIT_DEG))),
        float(rng.uniform(*RANGE_M)))
    return target, int(rng.integers(0, 2 ** 31))


def acquire_window(stock: Stock, target, noise_seed: int, tr) -> list:
    """Scene to per-frame payloads: synthesis, front-end gain, sigma-delta."""
    with tr.span("acquisition.synthesize_capture"):
        capture = acquisition.synthesize_capture(
            stock.geometry, target, stock.chirp, stock.noise_db, stock.c_mps,
            rng_seed=noise_seed, window_s=WINDOW_S)
    rows = []
    for ch, trace in enumerate(capture.channels):
        scaled = waveform.PcmTrace(samples=FRONT_END_GAIN * trace.samples,
                                   sample_rate_hz=trace.sample_rate_hz)
        with tr.span("acquisition.pdm_modulate"):
            stream = acquisition.pdm_modulate(scaled, stock.pdm_rate_hz,
                                              rng_seed=noise_seed + ch, channel=ch)
        tr.count("acquisition.pdm_modulate.samples", stream.n_bits)
        rows.append(stream.bits())
    bits = np.vstack(rows)
    spc, rest = divmod(bits.shape[1], FRAMES_PER_WINDOW)
    if rest:
        raise ValueError(f"{bits.shape[1]} bits per channel do not split into "
                         f"{FRAMES_PER_WINDOW} frames")
    return [np.packbits(bits[:, f * spc:(f + 1) * spc]).tobytes()
            for f in range(FRAMES_PER_WINDOW)]


def encode_window(stock: Stock, payloads: list, window: int, tr) -> tuple:
    """Frames for ping ``window``, sequence-numbered and PDM-clock stamped."""
    spc = 8 * len(payloads[0]) // stock.geometry.n_elements
    ping_ticks = int(round(stock.pdm_rate_hz / stock.ping_hz))
    frames, chunks = [], []
    for f, payload in enumerate(payloads):
        frame = framing.Frame(
            sequence=(window * FRAMES_PER_WINDOW + f) % (1 << 32),
            timestamp_ticks=window * ping_ticks + f * spc,
            samples_per_channel=spc, payload=payload,
            channel_count=stock.geometry.n_elements)
        with tr.span("framing.encode_frame"):
            chunks.append(framing.encode_frame(frame))
        tr.count("framing.encode_frame.frames")
        frames.append(frame)
    return frames, chunks


def parse_back_faults(frames: list, blob: bytes) -> list:
    """The encoded stream must parse back to exactly the frames written."""
    events, stats = framing.parse_stream(blob)
    faults = []
    if events != frames:
        faults.append(f"stream parses to {len(events)} events, not the "
                      f"{len(frames)} frames written")
    if stats != framing.StreamStats(frames_ok=len(frames)):
        faults.append(f"parse stats {stats} for {len(frames)} frames written")
    return faults


class Acquire(Workload):
    """Write side: one ping window, scene to framed bytes.

    Not listed in BENCHMARK.json: its pure-Python sigma-delta loop makes
    run-to-run spread on a shared host exceed any allowed bound.  Use it
    for paired parent/change runs of the write side; the same path is
    gated through localize's set-up.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def setup(self, p: int, tr) -> None:
        self.stock = Stock()
        target, noise_seed = draw_target(np.random.default_rng([self.seed, 101, p]))
        encode_window(self.stock, acquire_window(self.stock, target, noise_seed, tr), 0, tr)

    def prepare(self, i: int):
        return draw_target(self.rng)

    def op(self, i: int, item, tr):
        target, noise_seed = item
        payloads = acquire_window(self.stock, target, noise_seed, tr)
        return encode_window(self.stock, payloads, i, tr)

    def check(self, i: int, item, result) -> list:
        frames, chunks = result
        blob = b"".join(chunks)
        if i < DIGEST_OPS:
            self.digest.update(blob)
            self.digest_ops += 1
        return parse_back_faults(frames, blob)

    def summary(self) -> dict:
        return {"frame_stream_sha256": self.digest.hexdigest(),
                "digest_ops": self.digest_ops}


def latin_hypercube(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One draw in each of n equal strata, strata shuffled."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def decode_window(stock: Stock, parser, blob: bytes, tr) -> tuple:
    """Bytes of one ping window to range, DOA, packed channel bits and the
    parser counters this window moved."""
    before = dataclasses.replace(parser.stats)
    frames = []
    for offset in range(0, len(blob), CHUNK_BYTES):
        chunk = blob[offset:offset + CHUNK_BYTES]
        with tr.span("framing.StreamParser.feed"):
            events = parser.feed(chunk)
        frames.extend(e for e in events if isinstance(e, framing.Frame))
    tr.count("framing.StreamParser.feed.bytes", len(blob))
    delta = framing.StreamStats(**{
        field.name: getattr(parser.stats, field.name) - getattr(before, field.name)
        for field in dataclasses.fields(before)})
    for field in dataclasses.fields(delta):
        tr.count(f"framing.{field.name}", getattr(delta, field.name))
    if len(frames) != FRAMES_PER_WINDOW:
        raise OpFault(f"window delivered {len(frames)} of {FRAMES_PER_WINDOW} frames "
                      f"({delta})")

    parts = []
    for frame in frames:
        with tr.span("framing.Frame.channel_bits"):
            parts.append(frame.channel_bits())
    bits = np.concatenate(parts, axis=1)
    packed = [np.packbits(row).tobytes() for row in bits]
    pcm = []
    for ch, data in enumerate(packed):
        stream = acquisition.PdmStream(data=data, n_bits=bits.shape[1],
                                       rate_hz=stock.pdm_rate_hz, channel=ch)
        with tr.span("acquisition.pdm_decimate"):
            pcm.append(acquisition.pdm_decimate(stream, stock.factor))
        tr.count("acquisition.pdm_decimate.samples", stream.n_bits)

    with tr.span("waveform.matched_filter"):
        mf = waveform.matched_filter(pcm[0], stock.chirp)
    try:
        with tr.span("waveform.estimate_range"):
            estimate = waveform.estimate_range(mf, 0, stock.c_mps,
                                               template_length=len(stock.chirp))
    except UnreliableEstimateError:
        tr.count("waveform.estimate_range.failures")
        raise
    start = int(round(estimate.delay_s * mf.sample_rate_hz))
    capture = acquisition.MultichannelCapture(channels=tuple(pcm), emission_marker=0)
    with tr.span("acquisition.demodulate_capture"):
        block = acquisition.demodulate_capture(
            capture, stock.frequency_hz, gate=(start, start + len(stock.chirp)))
    with tr.span("signalmodel.sample_covariance"):
        R = signalmodel.sample_covariance(block)
    tr.count("signalmodel.sample_covariance.snapshots", block.n_snapshots)
    with tr.span("beamforming.power_map"):
        pmap = beamforming.power_map(stock.geometry, R, stock.grid, stock.frequency_hz,
                                     stock.c_mps, beamformer="mvdr",
                                     loading=LOCALIZE_LOADING)
    tr.count("beamforming.power_map.nodes", pmap.power.size)
    with tr.span("beamforming.doa_peaks"):
        peaks = beamforming.doa_peaks(pmap, max_peaks=1)
    if not peaks:
        tr.count("beamforming.doa_peaks.empty")
        raise OpFault("power map has no DOA peak")
    return estimate.range_m, peaks[0][0], packed, delta


def framing_faults(delta: framing.StreamStats, frames_sent: int, junk_bytes: int,
                   junk_blocks: int) -> list:
    """Parser counters for one window against what the source sent."""
    faults = []
    if delta.frames_ok != frames_sent:
        faults.append(f"frames_ok {delta.frames_ok} != {frames_sent} frames sent")
    if delta.frames_lost:
        faults.append(f"frames_lost {delta.frames_lost} != 0")
    if delta.bytes_discarded != junk_bytes:
        faults.append(f"bytes_discarded {delta.bytes_discarded} != {junk_bytes} junk "
                      f"bytes injected")
    if delta.resyncs != junk_blocks:
        faults.append(f"resyncs {delta.resyncs} != {junk_blocks} junk blocks injected")
    return faults


def rms(values) -> float | None:
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else None


class Localize(Workload):
    """Read side: one ping window, framed bytes to range and DOA.

    Set-up runs the acquire path on LOCALIZE_WINDOWS distinct targets, one
    per pass, Latin-hypercube spread over the field of view so the
    off-boresight bias shows; each window's frames must parse back exactly.
    The stream then cycles through them: each window is framed again with
    the next sequence numbers and timestamps, with seeded junk (no 0xA5
    byte, so no false magic) between some frames.
    """

    setup_passes = LOCALIZE_WINDOWS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 4])
        n = LOCALIZE_WINDOWS
        az = latin_hypercube(rng, n, -AZ_LIMIT_DEG, AZ_LIMIT_DEG)
        el = latin_hypercube(rng, n, -EL_LIMIT_DEG, EL_LIMIT_DEG)
        ranges = latin_hypercube(rng, n, *RANGE_M)
        self.targets = [acquisition.ReflectorTarget(Direction(float(a), float(e)), float(r))
                        for a, e, r in zip(az, el, ranges)]
        self.noise_seeds = [int(s) for s in rng.integers(0, 2 ** 31, n)]
        self.junk_rng = np.random.default_rng([seed, 2])
        self.windows = []   # per-frame payloads of each distinct window
        self.truth = []     # (true range m, true direction) of each window
        self.parser = framing.StreamParser()
        self.frame_digest = hashlib.sha256()
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.errors = {}    # window -> (range error mm, DOA error deg), first decode

    def setup(self, p: int, tr) -> None:
        """Window p through the acquire path, checked, plus one warm-up decode."""
        self.stock = Stock()
        target = self.targets[p]
        payloads = acquire_window(self.stock, target, self.noise_seeds[p], tr)
        frames, chunks = encode_window(self.stock, payloads, p, tr)
        blob = b"".join(chunks)
        self.frame_digest.update(blob)
        faults = parse_back_faults(frames, blob)
        if faults:
            raise RuntimeError(f"set-up window {p}: {'; '.join(faults)}")
        decode_window(self.stock, framing.StreamParser(), blob, NullTracer())
        self.windows.append(payloads)
        self.truth.append((true_range_m(self.stock, target), target.direction))

    def prepare(self, i: int) -> tuple:
        """(bytes of window i, junk bytes, junk blocks) as the sensor sends them."""
        _, chunks = encode_window(self.stock, self.windows[i % len(self.windows)], i,
                                  NullTracer())
        parts, junk, blocks = [], 0, 0
        for chunk in chunks:
            if self.junk_rng.uniform() < JUNK_PROBABILITY:
                n = int(self.junk_rng.integers(1, JUNK_MAX_BYTES + 1))
                values = self.junk_rng.integers(0, 255, n)
                parts.append((values + (values >= 0xA5)).astype(np.uint8).tobytes())
                junk += n
                blocks += 1
            parts.append(chunk)
        return b"".join(parts), junk, blocks

    def op(self, i: int, item, tr):
        return decode_window(self.stock, self.parser, item[0], tr)

    def check(self, i: int, item, result) -> list:
        _, junk, junk_blocks = item
        range_m, direction, packed, delta = result
        k = i % len(self.windows)
        if i < DIGEST_OPS:
            for data in packed:
                self.digest.update(data)
            self.digest_ops += 1
        faults = framing_faults(delta, FRAMES_PER_WINDOW, junk, junk_blocks)
        true_range, true_direction = self.truth[k]
        range_err_mm = 1e3 * (range_m - true_range)
        doa_err_deg = angle_between_deg(direction, true_direction)
        self.errors.setdefault(k, (range_err_mm, doa_err_deg))
        if abs(range_err_mm) > RANGE_TOLERANCE_MM:
            faults.append(f"range {range_m:.4f} m is {range_err_mm:+.2f} mm from the "
                          f"true {true_range:.4f} m (tolerance {RANGE_TOLERANCE_MM} mm)")
        if doa_err_deg > DOA_TOLERANCE_DEG:
            faults.append(f"DOA ({direction.azimuth_deg:g}, {direction.elevation_deg:g}) is "
                          f"{doa_err_deg:.2f} deg from the true "
                          f"({true_direction.azimuth_deg:.2f}, "
                          f"{true_direction.elevation_deg:.2f}) "
                          f"(tolerance {DOA_TOLERANCE_DEG} deg)")
        return faults

    def summary(self) -> dict:
        errors = [self.errors[k] for k in sorted(self.errors)]
        return {
            "frame_stream_sha256": self.frame_digest.hexdigest(),
            "pdm_bits_sha256": self.digest.hexdigest(),
            "digest_ops": self.digest_ops,
            "doa_rms_error_deg": rms([e for _, e in errors]),
            "range_rms_error_mm": rms([r for r, _ in errors]),
            "accuracy_windows": len(errors),
            "window_errors": [{"range_error_mm": r, "doa_error_deg": e} for r, e in errors],
            "targets": [{"azimuth_deg": t.direction.azimuth_deg,
                         "elevation_deg": t.direction.elevation_deg,
                         "range_m": t.range_m} for t in self.targets],
            "tolerances": {"doa_deg": DOA_TOLERANCE_DEG, "range_mm": RANGE_TOLERANCE_MM},
        }


class PsfSweep(Workload):
    """Analytic point-source maps on the stock grid, exported as cmd_psf does.

    One op is one source with both stock beamformers, as in cmd_psf's inner
    loop; alternating single maps would make the op latency bimodal.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 3])
        workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="psf-", dir=workdir))

    def setup(self, p: int, tr) -> None:
        self.stock = Stock()
        self.op(-1, self._draw(np.random.default_rng([self.seed, 103, p])), tr)

    @staticmethod
    def _draw(rng) -> Direction:
        return Direction(float(rng.integers(-AZ_LIMIT_DEG, AZ_LIMIT_DEG + 1)),
                         float(rng.integers(-EL_LIMIT_DEG, EL_LIMIT_DEG + 1)))

    def prepare(self, i: int) -> Direction:
        return self._draw(self.rng)

    def op(self, i: int, source: Direction, tr) -> list:
        """Both stock beamformers' maps for one source; CSV + PGM each."""
        out = []
        for bf in self.stock.psf_beamformers:
            with tr.span("beamforming.psf"):
                pmap, metrics = beamforming.psf(
                    self.stock.geometry, source, self.stock.psf_power,
                    self.stock.psf_noise, self.stock.grid, self.stock.frequency_hz,
                    self.stock.c_mps, beamformer=bf, loading=self.stock.psf_loading)
            csv_path = self.tmp / f"psf_{bf}.csv"
            with tr.span("beamforming.save_power_map_csv"):
                beamforming.save_power_map_csv(pmap, csv_path)
            tr.count("beamforming.save_power_map_csv.bytes", csv_path.stat().st_size)
            with tr.span("beamforming.save_power_map_pgm"):
                beamforming.save_power_map_pgm(pmap, self.tmp / f"psf_{bf}.pgm", metadata={
                    "beamformer": bf,
                    "source_azimuth_deg": f"{source.azimuth_deg:g}",
                    "source_elevation_deg": f"{source.elevation_deg:g}",
                    "frequency_hz": f"{self.stock.frequency_hz:g}",
                })
            out.append((bf, metrics.peak_direction, csv_path))
        return out

    def check(self, i: int, source: Direction, result) -> list:
        az, el = self.stock.grid.axes()
        rows_expected = az.size * el.size + 1
        faults = []
        for bf, peak, csv_path in result:
            if peak != source:
                faults.append(f"{bf} peak ({peak.azimuth_deg:g}, {peak.elevation_deg:g}) "
                              f"is not on the source node ({source.azimuth_deg:g}, "
                              f"{source.elevation_deg:g})")
            with open(csv_path, "rb") as fh:
                rows = fh.read().count(b"\n")
            if rows != rows_expected:
                faults.append(f"{bf} CSV has {rows} lines, expected {rows_expected}")
        return faults

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"acquire": Acquire, "localize": Localize, "psf_sweep": PsfSweep}
