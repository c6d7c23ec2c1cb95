"""Linear chirp generation, matched filtering, and range estimation.

A sweep is sampled at the rate its ChirpSpec names; the sensor chain
samples its probe at the PCM rate, the PDM clock over the decimation
factor.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnreliableEstimateError

PCM_MAGIC = b"PCM1"
_PCM_HEADER = struct.Struct("<4sIdQ")
_PCM_PAD = 32 - _PCM_HEADER.size

WINDOWS = ("none", "hann")
_CSV_BLOCK_ROWS = 4096  # rows per write in save_trace_csv; bounds the strings held


@dataclass(frozen=True)
class ChirpSpec:
    """Linear sweep parameters; the sweep lasts at least one sample period."""

    f_start_hz: float
    f_end_hz: float
    duration_s: float
    sample_rate_hz: float

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be > 0")
        if not 1 <= self.duration_s * self.sample_rate_hz < math.inf:  # generate_chirp's floor
            raise ValueError(f"duration_s must be at least one sample period, "
                             f"{1 / self.sample_rate_hz:.6g} s, and a finite sample count, "
                             f"got {self.duration_s!r}")
        nyquist = self.sample_rate_hz / 2.0
        for name, f in (("f_start_hz", self.f_start_hz), ("f_end_hz", self.f_end_hz)):
            if not 0 < f < nyquist:
                raise ValueError(f"{name} must lie in (0, fs/2) = (0, {nyquist!r}), got {f!r}")


@dataclass(frozen=True, eq=False)
class PcmTrace:
    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("samples must be 1-D")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be > 0")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class RangeEstimate:
    delay_s: float
    range_m: float
    peak_value: float
    peak_to_noise_db: float

    def __post_init__(self):
        if self.range_m < 0:
            raise ValueError("range_m must be >= 0")


@lru_cache(maxsize=64)
def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, an FFT length pocketfft takes fast."""
    best = 1 << (n - 1).bit_length()  # the next power of 2
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:  # odd = 3^b 5^c, times the least power of 2 reaching n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


def chirp_samples_at(spec: ChirpSpec, times_s: np.ndarray, window: str = "none") -> np.ndarray:
    """Evaluate the sweep at arbitrary times; zero outside [0, duration).

    The quadratic phase 2*pi*(f0*t + (f1-f0)/(2T)*t^2) sweeps the
    instantaneous frequency linearly from f_start to f_end.  The hann
    window is the continuous 0.5 - 0.5*cos(2*pi*t/T) taper, so sampled
    and fractionally delayed evaluations agree exactly.
    """
    if window not in WINDOWS:
        raise ValueError(f"window must be one of {WINDOWS}")
    t = np.asarray(times_s, dtype=float)
    rate = (spec.f_end_hz - spec.f_start_hz) / (2.0 * spec.duration_s)
    phase = 2.0 * np.pi * (spec.f_start_hz * t + rate * t * t)
    out = np.sin(phase)
    if window == "hann":
        out = out * (0.5 - 0.5 * np.cos(2.0 * np.pi * t / spec.duration_s))
    mask = (t >= 0.0) & (t < spec.duration_s)
    return np.where(mask, out, 0.0)


def generate_chirp(spec: ChirpSpec, window: str = "none") -> PcmTrace:
    """Sampled sweep of floor(duration * fs) samples."""
    n = int(math.floor(spec.duration_s * spec.sample_rate_hz))
    t = np.arange(n) / spec.sample_rate_hz
    return PcmTrace(samples=chirp_samples_at(spec, t, window),
                    sample_rate_hz=spec.sample_rate_hz)


def matched_filter(received: PcmTrace, template: PcmTrace) -> PcmTrace:
    """Cross-correlate the received trace with the template.

    Output index k is the lag in samples: k = 0 aligns the template start
    with the trace start.  Length equals the received trace.
    """
    if template.samples.size == 0:
        raise ValueError("template must be non-empty")
    if not math.isclose(received.sample_rate_hz, template.sample_rate_hz,
                        rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("received and template sample rates differ")
    n, m = received.samples.size, template.samples.size
    nfft = _fast_len(n + m - 1)
    spectrum = np.fft.rfft(received.samples, nfft) * np.fft.rfft(template.samples[::-1], nfft)
    out = np.fft.irfft(spectrum, nfft)[m - 1:m - 1 + n]
    return PcmTrace(samples=out, sample_rate_hz=received.sample_rate_hz)


def estimate_range(mf_output: PcmTrace, emission_start_index: int, c_mps: float, *,
                   template_length: int) -> RangeEstimate:
    """Locate the strongest correlation peak and convert it to range.

    The echo's lobe is the peak of the correlation's envelope, the
    magnitude of its analytic signal over one template length either side
    of the raw argmax, so noise lifting a neighbouring carrier fringe
    above the true one does not move the estimate by a carrier period.
    The peak is the crest of the raw correlation (echoes are synthesized
    with positive polarity) climbed to from the envelope's peak.  The
    noise floor is the median magnitude outside +-2 template lengths of
    the peak; a peak, raw or climbed, within one template length of
    either trace edge, or earlier than the emission start, is rejected as
    unreliable.
    """
    samples = mf_output.samples
    if samples.size == 0:
        raise ValueError("matched-filter output must be non-empty")
    if template_length < 1:
        raise ValueError("template_length must be >= 1")
    guard = template_length

    def checked(index: int) -> int:
        if index < guard or index >= samples.size - guard:
            raise UnreliableEstimateError(
                f"correlation peak at {index} is within {guard} samples of a trace edge")
        if index < emission_start_index:
            raise UnreliableEstimateError("correlation peak precedes the emission start")
        return index

    start = checked(int(np.argmax(samples))) - guard
    lobe = samples[start:start + 2 * guard + 1]
    # the analytic signal: the one-sided spectrum, positive frequencies
    # doubled, zero-padded to a fast FFT length (2m + 1 is 1669, a prime,
    # for the stock probe; the FFT takes 1728 points)
    nfft = _fast_len(lobe.size)
    spectrum = np.fft.rfft(lobe, nfft)
    spectrum[1:(nfft + 1) // 2] *= 2.0
    analytic = np.fft.ifft(spectrum, nfft)
    peak_idx = start + int(np.argmax(np.abs(analytic[:lobe.size])))
    while peak_idx + 1 < samples.size and samples[peak_idx + 1] > samples[peak_idx]:
        peak_idx += 1
    while peak_idx > 0 and samples[peak_idx - 1] > samples[peak_idx]:
        peak_idx -= 1
    peak_idx = checked(peak_idx)
    delay_s = (peak_idx - emission_start_index) / mf_output.sample_rate_hz
    lo = max(peak_idx - 2 * template_length, 0)
    hi = min(peak_idx + 2 * template_length + 1, samples.size)
    noise_region = np.abs(np.concatenate((samples[:lo], samples[hi:])))
    peak_value = float(samples[peak_idx])
    floor = float(np.median(noise_region)) if noise_region.size else 0.0
    if floor > 0:
        peak_to_noise_db = 20.0 * math.log10(abs(peak_value) / floor)
    else:
        peak_to_noise_db = math.inf
    return RangeEstimate(delay_s=delay_s, range_m=c_mps * delay_s / 2.0,
                         peak_value=peak_value, peak_to_noise_db=peak_to_noise_db)


# -- PCM trace files ---------------------------------------------------------


def save_pcm(trace: PcmTrace, path) -> None:
    """32-byte header (magic, version, rate, length) + float32 LE samples."""
    header = _PCM_HEADER.pack(PCM_MAGIC, 1, trace.sample_rate_hz, trace.samples.size)
    with open(path, "wb") as fh:
        fh.write(header + b"\x00" * _PCM_PAD)
        fh.write(trace.samples.astype("<f4").tobytes())


def save_trace_csv(trace: PcmTrace, path) -> None:
    """time_s, amplitude rows for plotting: ``.9f`` seconds, ``.8g``
    amplitude, a LF after every row.  Each block of rows is one ``%`` over
    its interleaved (time, amplitude) cells and one write."""
    rate = trace.sample_rate_hz
    with open(path, "w", newline="") as fh:
        fh.write("time_s,amplitude\n")
        for start in range(0, len(trace), _CSV_BLOCK_ROWS):
            block = trace.samples[start:start + _CSV_BLOCK_ROWS]
            cells = np.empty(2 * block.size)
            cells[0::2] = np.arange(start, start + block.size) / rate
            cells[1::2] = block
            fh.write(("%.9f,%.8g\n" * block.size) % tuple(cells.tolist()))
