"""Emulated sensor front-end.

Covers the path from acoustics to bits and back.  The window length, the
PDM clock and the decimation factor are arguments; the stock sensor's
values (a 4.45 MHz clock, x16) live in the CLI's config table.

* :func:`synthesize_capture` renders a reflector echo at every array
  element (fractional delays applied in the frequency domain, two-way
  spreading loss, transmit leakage, seeded white noise).
* :func:`pdm_modulate` converts PCM to a 1-bit stream with a 2nd-order
  sigma-delta modulator clocked at the target rate (the hot loop lives in
  ``sonarray._kernels`` with a compiled backend when available).
* :func:`pdm_decimate` recovers PCM with a 4-stage CIC decimator (exact
  integer arithmetic, evaluated in polyphase form) plus a
  droop-compensating FIR: 95 taps designed by frequency sampling of the
  inverse-CIC response, Kaiser window with beta 8.
* :func:`demodulate_capture` produces complex-envelope snapshots by
  quadrature demodulation at the probe's center frequency, which is how
  captures feed the beamforming path; its low-pass is a 129-tap
  Hamming-windowed sinc.

Both filters are numpy designs, and every convolution is an ``np.fft``
product at the smallest 2^a 3^b 5^c length that holds it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .geometry import ArrayGeometry, Direction, direction_unit_vector
from .signalmodel import SnapshotBlock
from .waveform import PcmTrace, _fast_len

LEAKAGE_GAIN_DB = -20.0  # transmit bleed-through relative to the template peak

# Integrator clip levels for the sigma-delta loop.  Measured on the pure
# loop with pdm_modulate's x16 hold and +-1e-3 dither over 100 000 PDM
# samples of a 40 kHz sine: |i1| peaks at 2.96 even at full scale (FS), so
# its clip never engages on in-range input; |i2| peaks at 4.1 at 0.5 FS and
# 6.5 at 0.7 FS with no clips, but the i2 clip engages 4 times at 0.8 FS,
# 799 times (0.8% of samples) at 0.87 FS and 10 520 times (10.5%) at FS.
SDM_CLIP1 = 4.0
SDM_CLIP2 = 8.0
SDM_DITHER_AMPLITUDE = 1e-3

# Quadrature demodulation low-pass: passes the probe's +-4 kHz sweep
# around the carrier.
DEMOD_CUTOFF_HZ = 10_000.0
DEMOD_NUMTAPS = 129

PDM_MAGIC = b"PDM1"
_PDM_HEADER = struct.Struct("<4sHdHQ")  # magic, version, rate, channel, bit count


@dataclass(frozen=True)
class ReflectorTarget:
    direction: Direction
    range_m: float
    strength: float = 1.0

    def __post_init__(self):
        if not self.range_m > 0:
            raise ValueError("range_m must be > 0")
        if not 0 < self.strength <= 1:
            raise ValueError("strength must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class PdmStream:
    """Packed 1-bit density stream; bits are MSB-first within each byte."""

    data: bytes
    n_bits: int
    rate_hz: float
    channel: int = 0

    def __post_init__(self):
        if not self.rate_hz > 0:
            raise ValueError("rate_hz must be > 0")
        if self.n_bits < 0 or len(self.data) != (self.n_bits + 7) // 8:
            raise ValueError("data length does not match n_bits")

    def bits(self) -> np.ndarray:
        """Unpacked 0/1 bit array of length n_bits."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8))[:self.n_bits]


@dataclass(frozen=True, eq=False)
class MultichannelCapture:
    channels: tuple
    emission_marker: int

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("capture needs at least one channel")
        n = len(channels[0])
        rate = channels[0].sample_rate_hz
        for tr in channels:
            if len(tr) != n or tr.sample_rate_hz != rate:
                raise ValueError("all channels must share length and rate")
        if not 0 <= self.emission_marker < n:
            raise ValueError("emission_marker must fall inside the trace")
        object.__setattr__(self, "channels", channels)

    @property
    def sample_rate_hz(self) -> float:
        return self.channels[0].sample_rate_hz

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])


def echo_geometry(geometry: ArrayGeometry, target: ReflectorTarget, c_mps: float):
    """Per-element two-way delays (s) and spreading amplitudes.

    Transmit happens at the emitter, the origin; element l hears the echo
    at (|r| + |r - p_l|)/c with amplitude strength/(|r| * |r - p_l|).
    """
    r = target.range_m * direction_unit_vector(target.direction)
    d_tx = np.linalg.norm(r)
    d_rx = np.linalg.norm(r - geometry.elements, axis=1)
    delays = (d_tx + d_rx) / c_mps
    amplitudes = target.strength / (d_tx * d_rx)
    return delays, amplitudes


def synthesize_capture(geometry: ArrayGeometry, target: ReflectorTarget,
                       chirp: PcmTrace, noise_db: float,
                       c_mps: float, rng_seed: int = 0, *,
                       window_s: float) -> MultichannelCapture:
    """One ping window as heard by every element.

    Emission starts at sample 0, the capture's emission marker.  The echo
    is placed at its exact fractional delay via a frequency-domain phase
    ramp; transmit leakage is copied at the emission marker with a fixed
    -20 dB gain; channel l draws its noise from seed ``rng_seed + l``.
    ``noise_db`` is the transmit-peak-to-noise-sigma ratio in dB.
    """
    fs = chirp.sample_rate_hz
    n = int(math.floor(window_s * fs))
    if n < 1:
        raise ValueError("window shorter than one sample")
    delays, amplitudes = echo_geometry(geometry, target, c_mps)
    if delays.max() + chirp.duration_s > window_s:
        raise ValueError(
            f"echo (delay {delays.max():.6f} s + sweep {chirp.duration_s:.6f} s) "
            f"falls outside the {window_s:.6f} s window")

    template = np.zeros(n)
    template[:len(chirp)] = chirp.samples
    spectrum = np.fft.rfft(template)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    peak = np.max(np.abs(chirp.samples)) if len(chirp) else 1.0
    sigma = peak * 10.0 ** (-noise_db / 20.0)
    leak = 10.0 ** (LEAKAGE_GAIN_DB / 20.0)

    traces = []
    for l, (tau, amp) in enumerate(zip(delays, amplitudes)):
        shifted = np.fft.irfft(spectrum * np.exp(-2j * np.pi * freqs * tau), n)
        x = amp * shifted
        x[:len(chirp)] += leak * chirp.samples
        x += sigma * np.random.default_rng(rng_seed + l).standard_normal(n)
        traces.append(PcmTrace(samples=x, sample_rate_hz=fs))
    return MultichannelCapture(channels=tuple(traces), emission_marker=0)


def pdm_modulate(trace: PcmTrace, target_rate_hz: float,
                 rng_seed: int = 0, *, channel: int = 0) -> PdmStream:
    """Zero-order-hold upsample then 2nd-order sigma-delta to one bit.

    The mean ones-density over a window tracks (x + 1) / 2.  A small
    seeded dither at the quantizer input breaks idle tones; the same seed
    always yields the same bit stream.
    """
    x = trace.samples
    if x.size == 0:
        raise ValueError("trace must be non-empty")
    if np.max(np.abs(x)) > 1.0:
        raise ValueError("samples must lie within [-1, 1] full scale")
    ratio = target_rate_hz / trace.sample_rate_hz
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ValueError(
            f"target rate {target_rate_hz} is not an integer multiple of {trace.sample_rate_hz}")
    up = np.repeat(x, factor)
    dither = np.random.default_rng(rng_seed).uniform(
        -SDM_DITHER_AMPLITUDE, SDM_DITHER_AMPLITUDE, up.size)
    bits = np.empty(up.size, dtype=np.uint8)
    _kernels.sigma_delta_bits(up, dither, SDM_CLIP1, SDM_CLIP2, bits)
    return PdmStream(data=np.packbits(bits).tobytes(), n_bits=bits.size,
                     rate_hz=float(target_rate_hz), channel=channel)


def _cic_magnitude(freq_hz, rate_in_hz: float, factor: int, order: int = 4) -> np.ndarray:
    """Normalized |H| of an order-N CIC decimator at the input rate."""
    f = np.asarray(freq_hz, dtype=float)
    x = np.pi * f / rate_in_hz
    num = np.sin(factor * x)
    den = factor * np.sin(x)
    ratio = np.ones_like(f)
    nz = x != 0
    ratio[nz] = num[nz] / den[nz]
    return np.abs(ratio) ** order


@lru_cache(maxsize=8)
def _compensator_taps(rate_out_hz: float, factor: int) -> np.ndarray:
    """Droop-compensating low-pass at the output rate.

    Passband (flat after inverse-CIC pre-emphasis) up to 50 kHz or 35% of
    the output rate, whichever is lower; stopband from 45% of the output
    rate with >= 60 dB attenuation.  The 95 taps are the inverse FFT of
    that response, interpolated onto 129 points from 0 to Nyquist, times a
    Kaiser window (beta 8); they are normalized to exact unit DC gain.
    """
    nyquist = rate_out_hz / 2.0
    pass_hz = min(50_000.0, 0.35 * rate_out_hz)
    stop_hz = 0.45 * rate_out_hz
    trans_hz = min(pass_hz + 0.6 * (stop_hz - pass_hz), stop_hz)
    grid = np.linspace(0.0, pass_hz, 33)
    gains = 1.0 / _cic_magnitude(grid, rate_out_hz * factor, factor)
    freq = np.concatenate((grid, [trans_hz, stop_hz, nyquist]))
    gain = np.concatenate((gains, [0.0, 0.0, 0.0]))
    # frequency sampling: the response on 129 points from 0 to Nyquist,
    # delayed by the 47-sample centre of 95 taps, back to the time domain
    x = np.linspace(0.0, nyquist, 129)
    response = np.interp(x, freq, gain) * np.exp(-47j * np.pi * x / nyquist)
    taps = np.fft.irfft(response)[:95] * np.kaiser(95, 8.0)
    taps = taps / taps.sum()
    taps.flags.writeable = False  # cached; guard against callers mutating it
    return taps


@lru_cache(maxsize=8)
def _compensator_spectrum(rate_out_hz: float, factor: int, nfft: int) -> np.ndarray:
    """Real FFT of the compensator taps zero-padded to nfft points."""
    spectrum = np.fft.rfft(_compensator_taps(rate_out_hz, factor), nfft)
    spectrum.flags.writeable = False  # cached; guard against callers mutating it
    return spectrum


@lru_cache(maxsize=8)
def _cic_phase_tables(factor: int) -> np.ndarray:
    """Order-4 CIC polyphase sums as per-byte lookup tables.

    The integer impulse response h (4*factor-3 taps) splits into 4
    phases: phase j holds h[j*factor + factor-1-i] for i = 0..factor-1,
    so block m of the input dotted with phase j is block m's share of
    output m + j.  With each block packed MSB-first into ceil(factor/8)
    bytes, table[k, v, j] is the dot product of phase j with byte k of a
    block when that byte has value v, its bits mapped to +-1: twice the
    0/1 dot product less that of the all-ones byte 255.
    """
    h = np.ones(1, dtype=np.int64)
    for _ in range(4):
        h = np.convolve(h, np.ones(factor, dtype=np.int64))
    h = np.concatenate((h, np.zeros(4 * factor - h.size, dtype=np.int64)))
    n_bytes = -(-factor // 8)
    phases = np.zeros((8 * n_bytes, 4), dtype=np.int64)
    phases[:factor] = h.reshape(4, factor)[:, ::-1].T
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    table = np.einsum("vt,ktj->kvj", byte_bits.astype(np.int64),
                      phases.reshape(n_bytes, 8, 4))
    table = (2 * table - table[:, 255:]).astype(float)
    table.flags.writeable = False  # cached; guard against callers mutating it
    return table


def pdm_decimate(stream: PdmStream, factor: int) -> PcmTrace:
    """4-stage CIC decimation plus FIR droop compensation.

    Bits map to +-1; the CIC gain factor**4 is divided out, so a constant
    full-scale stream settles at +-1.0.  The CIC runs in polyphase form:
    the stream is cut into blocks of ``factor`` bits and output m sums
    blocks m-3..m against the 4 phases of the integer impulse response,
    read from per-byte tables.  Every partial sum is an integer no larger
    than factor**4, so the float64 arithmetic is exact and the output
    equals the textbook integrator/comb cascade sampled at bits factor-1,
    2*factor-1, ...; trailing bits short of a whole block are dropped.
    The FIR multiplies by the taps' spectrum, cached per (output rate,
    factor, FFT length).  It equals ``scipy.signal.fftconvolve(mode="same")``,
    the tests' oracle, bit for bit: verified with numpy 2.4.6, whose
    ``np.fft`` is the pocketfft that ``scipy.fft`` runs.
    """
    if factor < 2:
        raise ValueError("factor must be >= 2")
    if stream.n_bits < factor:
        raise ValueError("stream shorter than one decimation step")
    n_out = stream.n_bits // factor
    table = _cic_phase_tables(factor)
    n_bytes = table.shape[0]
    aligned = np.zeros((n_out, 8 * n_bytes), dtype=np.uint8)  # blocks start on a byte
    aligned[:, :factor] = stream.bits()[:n_out * factor].reshape(n_out, factor)
    blocks = np.packbits(aligned).reshape(n_out, n_bytes)
    # partial[m, j]: block m, as +-1 bits, dotted with phase j byte by byte
    partial = table[0].take(blocks[:, 0], axis=0)
    for k in range(1, n_bytes):
        partial += table[k].take(blocks[:, k], axis=0)
    cic = partial[:, 0].copy()
    for j in range(1, 4):
        cic[j:] += partial[:-j, j]
    vals = cic / float(factor) ** 4
    rate_out = stream.rate_hz / factor
    taps = _compensator_taps(rate_out, factor)
    centre = (taps.size - 1) // 2
    if n_out == 1:
        # fftconvolve takes no FFT when an input has length 1
        out = vals * taps[centre]
    else:
        nfft = _fast_len(n_out + taps.size - 1)
        spectrum = np.fft.rfft(vals, nfft) * _compensator_spectrum(rate_out, factor, nfft)
        out = np.fft.irfft(spectrum, nfft)[centre:centre + n_out]
    return PcmTrace(samples=out, sample_rate_hz=rate_out)


def demodulate_capture(capture: MultichannelCapture, carrier_hz: float, *,
                       gate: tuple) -> SnapshotBlock:
    """Quadrature demodulation to complex-envelope snapshots.

    Each channel is mixed with exp(-j*2*pi*carrier*t) and low-pass
    filtered (a Hamming-windowed sinc with a DEMOD_CUTOFF_HZ cutoff, which
    must lie below Nyquist, and unit DC gain, delay-compensated); ``gate``,
    a (start, stop) pair, selects the snapshot sample range, e.g. the echo
    region.  Only the gate plus the filter's half-length on either side is
    mixed and filtered; samples beyond the trace count as zero, so the
    result is the full-trace filter output sliced to the gate.
    """
    fs = capture.sample_rate_hz
    if not 0 < carrier_hz < fs / 2:
        raise ValueError("carrier_hz must lie below Nyquist")
    if not DEMOD_CUTOFF_HZ < fs / 2:
        raise ValueError(f"the {DEMOD_CUTOFF_HZ:g} Hz low-pass cutoff must lie below "
                         f"Nyquist, {fs / 2:g} Hz")
    n = capture.n_samples
    start, stop = gate
    if not 0 <= start < stop <= n:
        raise ValueError("gate must satisfy 0 <= start < stop <= n_samples")
    half = DEMOD_NUMTAPS // 2
    lo, hi = max(start - half, 0), min(stop + half, n)
    x = np.vstack([tr.samples[lo:hi] for tr in capture.channels])
    mixed = x * np.exp(-2j * np.pi * carrier_hz * (np.arange(lo, hi) / fs))
    mixed = np.pad(mixed, ((0, 0), (lo - (start - half), stop + half - hi)))
    taps = np.sinc(DEMOD_CUTOFF_HZ / (fs / 2) * (np.arange(DEMOD_NUMTAPS) - half))
    taps *= np.hamming(DEMOD_NUMTAPS)
    taps /= taps.sum()
    nfft = _fast_len(mixed.shape[1] + DEMOD_NUMTAPS - 1)
    full = np.fft.ifft(np.fft.fft(mixed, nfft, axis=1) * np.fft.fft(taps, nfft), axis=1)
    z = 2.0 * full[:, DEMOD_NUMTAPS - 1:mixed.shape[1]]  # the filter's valid outputs
    return SnapshotBlock(samples=z)


# -- file formats ------------------------------------------------------------


def save_pdm(stream: PdmStream, path) -> None:
    """24-byte header (magic, version, rate, channel, bit count) + packed bits."""
    header = _PDM_HEADER.pack(PDM_MAGIC, 1, stream.rate_hz, stream.channel, stream.n_bits)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(stream.data)
