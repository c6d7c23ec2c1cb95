"""The sensor chain, scene to frames and frames to a fix.

The write side is what the sensor does each ping: :func:`acquire_window`
renders ping p's window at every element, sigma-delta modulates it with
the ping's own seeds, and frames it through :func:`frame_window`, which
numbers the frames and stamps them with the PDM clock.  The read side is
what the host does: :func:`pings` walks a stream's frames ping by ping,
placing each in its ping by its timestamp, so a lost frame cannot shift
later pings, and :func:`localize_window` places each frame in its window
by the same stamp, checks that the frames tile the window, and turns them
into a range and a direction.  Only the write side knows how a window is
cut into frames.  :func:`channel_streams` joins frames into per-channel
PDM streams in the order given.

The module constants are the chain's fixed decisions, not config keys.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import acquisition, beamforming, framing, signalmodel, waveform
from .errors import NoPeakError, SonarrayError
from .geometry import ArrayGeometry, direction_unit_vector

WINDOW_S = 0.05           # signal seconds recorded per ping
FRAMES_PER_WINDOW = 16    # 13 906 PDM bits per channel per frame at the stock rates
# Over 0.6-2 m at the stock 20 dB the largest input is at 0.6 m: an echo
# peak of 1/(0.6 * 0.585) = 2.85 plus noise, at most 3.32 over 60 drawn
# windows, which 0.25 scales to 0.83 full scale (FS).  That is not clear
# of the sigma-delta i2 clip: on a sustained 40 kHz sine it engages 4
# times per 100 000 PDM samples at 0.8 FS and 799 times at 0.87 FS, and
# never at 0.7 FS, which would need a gain of 0.21.  The echo holds its
# peak for only part of the sweep; 0.25 keeps the payloads bit-identical
# to those the benchmark was recorded with.
FRONT_END_GAIN = 0.25


@dataclass(frozen=True, eq=False)
class Sensor:
    """What both ends of the chain agree on: the array, the probe's sweep and
    window function (sampled at the PCM rate pdm_rate_hz / factor), the PDM
    clock and decimation factor, and the ping rate.

    A ping window must end before the next ping; the PCM rate must exceed
    twice the demodulation low-pass cutoff, DEMOD_CUTOFF_HZ, and be the
    sweep's ``sample_rate_hz``; the sweep's floor(duration * fs) samples,
    the count ``generate_chirp`` makes, must be fewer than a window's; a
    window's ``window_bits`` PDM bits per channel must split into whole
    frames; and a frame must carry every element's bits in whole bytes, at
    most MAX_CHANNELS channels and MAX_PAYLOAD bytes.  Only then is the
    probe, ``chirp``, sampled.  Each ValueError names the field at fault
    first."""

    geometry: ArrayGeometry
    spec: waveform.ChirpSpec
    chirp_window: str
    c_mps: float
    pdm_rate_hz: float
    factor: int
    ping_hz: float
    chirp: waveform.PcmTrace = field(init=False)
    window_bits: int = field(init=False)

    def __post_init__(self):
        if self.ping_hz > 1.0 / WINDOW_S:
            raise ValueError(f"ping_hz must be <= {1.0 / WINDOW_S:g} so each {WINDOW_S:g} s "
                             f"ping window ends before the next ping, got {self.ping_hz:g}")
        pcm_rate = self.pdm_rate_hz / self.factor
        if not pcm_rate > 2 * acquisition.DEMOD_CUTOFF_HZ:
            raise ValueError(f"factor {self.factor} gives a {pcm_rate:g} Hz PCM rate, not above "
                             f"twice the {acquisition.DEMOD_CUTOFF_HZ:g} Hz cutoff of the "
                             f"demodulation low-pass")
        if self.spec.sample_rate_hz != pcm_rate:
            raise ValueError(f"factor {self.factor} gives a {pcm_rate:g} Hz PCM rate, not the "
                             f"{self.spec.sample_rate_hz:g} Hz the sweep is sampled at")
        window = int(WINDOW_S * self.spec.sample_rate_hz)
        probe = math.floor(self.spec.duration_s * self.spec.sample_rate_hz)
        if probe >= window:
            raise ValueError(f"duration_s gives a {probe}-sample probe, not "
                             f"shorter than the {window}-sample {WINDOW_S:g} s ping window")
        bits = window * self.factor
        if bits % FRAMES_PER_WINDOW:
            raise ValueError(f"factor {self.factor} gives {bits} PDM bits per channel per "
                             f"{WINDOW_S:g} s window, not {FRAMES_PER_WINDOW} whole frames")
        elements, spc = self.geometry.n_elements, bits // FRAMES_PER_WINDOW
        if elements > framing.MAX_CHANNELS:
            raise ValueError(f"geometry has {elements} elements, more than the "
                             f"{framing.MAX_CHANNELS} channels a frame carries")
        if elements * spc % 8:
            raise ValueError(f"geometry has {elements} elements, so a frame's {elements} x "
                             f"{spc} PDM bits are not whole bytes")
        if elements * spc // 8 > framing.MAX_PAYLOAD:
            raise ValueError(f"pdm_rate_hz {self.pdm_rate_hz:g} gives frames of "
                             f"{elements * spc // 8} bytes, more than the "
                             f"{framing.MAX_PAYLOAD} a frame carries")
        object.__setattr__(self, "window_bits", bits)
        object.__setattr__(self, "chirp", waveform.generate_chirp(self.spec, self.chirp_window))

    @property
    def frequency_hz(self) -> float:
        """The carrier the echo is demodulated and steered at: the sweep's centre."""
        return (self.spec.f_start_hz + self.spec.f_end_hz) / 2

    @property
    def ping_ticks(self) -> int:
        """PDM clock ticks from one ping to the next."""
        return int(round(self.pdm_rate_hz / self.ping_hz))


def acquire_window(sensor: Sensor, target: acquisition.ReflectorTarget,
                   noise_db: float, seed: int, ping: int) -> tuple:
    """Ping ``ping`` of the stream of seed ``seed``, scene to frames.

    Returns the synthesized capture (before the front-end gain) and the
    ping's FRAMES_PER_WINDOW frames (:func:`frame_window`).  Channel l of
    ping p draws its noise and its dither from seed ``seed + p * max(64,
    L) + l`` for L elements, so no two (ping, channel) pairs of a stream
    share a seed, and the stock 16 elements draw ``seed + 64 p + l``.
    Each channel is scaled by FRONT_END_GAIN before sigma-delta
    modulation; payload f holds bits [f*n, (f+1)*n) of every channel,
    channel-major.
    """
    base = seed + ping * max(64, sensor.geometry.n_elements)
    capture = acquisition.synthesize_capture(
        sensor.geometry, target, sensor.chirp, noise_db, sensor.c_mps,
        rng_seed=base, window_s=WINDOW_S)
    bits = np.vstack([
        acquisition.pdm_modulate(
            waveform.PcmTrace(samples=FRONT_END_GAIN * trace.samples,
                              sample_rate_hz=trace.sample_rate_hz),
            sensor.pdm_rate_hz, rng_seed=base + ch, channel=ch).bits()
        for ch, trace in enumerate(capture.channels)])
    payloads = [np.packbits(block).tobytes()
                for block in np.split(bits, FRAMES_PER_WINDOW, axis=1)]
    return capture, frame_window(sensor, payloads, ping)


def frame_window(sensor: Sensor, payloads: list, ping: int) -> list:
    """The frames of ping ``ping``: sequence numbers count frames from
    ping 0, and frame f is stamped ``ping * ping_ticks + f * n`` for n
    bits per channel per frame."""
    channels = sensor.geometry.n_elements
    spc = sensor.window_bits // FRAMES_PER_WINDOW
    return [framing.Frame(sequence=(ping * FRAMES_PER_WINDOW + f) % framing.SEQ_MOD,
                          timestamp_ticks=ping * sensor.ping_ticks + f * spc,
                          samples_per_channel=spc, payload=payload,
                          channel_count=channels)
            for f, payload in enumerate(payloads)]


def pings(sensor: Sensor, frames) -> Iterator:
    """(ping, frames) for every ping from the first frame's to the last
    frame's, in order, as a stream's frames arrive, and each refused frame
    itself, when it arrives.

    A frame belongs to ping ``timestamp_ticks // ping_ticks``.  A ping is
    yielded once a frame of a later ping, or the end of ``frames``, closes
    it, with its frames in arrival order; a ping that no frame reached
    comes with ``[]``.  As every ping holds a frame, numbered on from the
    last (:func:`frame_window`), a frame k pings ahead is refused unless its
    sequence number is k to 2^31 - 1 past the current ping's highest, mod
    2^32; the walk stays on its ping.  A frame of an earlier ping than the
    last one read raises SonarrayError ("a frame of ping N follows ping
    M"), after ping M has been yielded.
    """
    ping, window, highest = None, [], 0
    for frame in frames:
        at = frame.timestamp_ticks // sensor.ping_ticks
        ahead = (frame.sequence - highest) % framing.SEQ_MOD
        if ping is not None and at > ping and not at - ping <= ahead < framing.SEQ_WINDOW:
            yield frame
            continue
        if at != ping:
            if ping is not None:
                yield ping, window
                if at < ping:
                    raise SonarrayError(f"a frame of ping {at} follows ping {ping}")
                for missing in range(ping + 1, at):
                    yield missing, []
            ping, window = at, []
        if not window or 0 < ahead < framing.SEQ_WINDOW:
            highest = frame.sequence
        window.append(frame)
    if ping is not None:
        yield ping, window


def channel_streams(frames: list, rate_hz: float) -> list:
    """Per-channel PDM streams of frames joined in the order given.

    Raises SonarrayError when a frame's channel count differs from the
    first frame's.
    """
    if not frames:
        return []
    channels = frames[0].channel_count
    for frame in frames:
        if frame.channel_count != channels:
            raise SonarrayError(f"frame {frame.sequence} has {frame.channel_count} "
                                f"channels, earlier frames {channels}")
    bits = np.concatenate([frame.channel_bits() for frame in frames], axis=1)
    return [acquisition.PdmStream(data=np.packbits(row).tobytes(), n_bits=bits.shape[1],
                                  rate_hz=rate_hz, channel=ch)
            for ch, row in enumerate(bits)]


def localize_window(sensor: Sensor, grid: beamforming.GridSpec, frames: list) -> tuple:
    """(RangeEstimate, Direction) of the echo in one ping window's frames.

    A frame whose channel count is not the array's raises ValueError.  The
    frames are then placed by their stamps, whatever order they came in:
    each must start at PDM bit ``timestamp_ticks % ping_ticks`` of the
    window, the count of bits placed before it, and together they must end
    at ``window_bits``.  A missing, duplicated or misplaced frame, or a
    window that ends short or long, raises SonarrayError naming the bit.
    The frames are joined in stamp order and every channel is decimated.
    Channel 0 is matched-filtered against the probe for its delay, with the
    emission at the window's first sample.  The echo gate [delay, delay +
    probe length) of all channels is demodulated at ``frequency_hz``; the
    direction is the highest peak of the Bartlett map of its sample
    covariance on ``grid``.  The range is the emitter's: element 0 at p0
    from the emitter hears the echo from direction u over a path shorter by
    p0.u, so half of that is added to channel 0's c * delay / 2;
    ``delay_s`` stays channel 0's.  Raises UnreliableEstimateError when the
    delay cannot be trusted and NoPeakError when the map has no peak.
    """
    elements = sensor.geometry.n_elements
    for frame in frames:
        if frame.channel_count != elements:
            raise ValueError(f"ping {frame.timestamp_ticks // sensor.ping_ticks} has "
                             f"{frame.channel_count} channels, the array {elements}")
    frames = sorted(frames, key=lambda frame: frame.timestamp_ticks)
    bits = 0  # PDM bits per channel placed so far
    for frame in frames:
        at = frame.timestamp_ticks % sensor.ping_ticks
        if at != bits:
            raise SonarrayError(f"frame at PDM bit {at} of the window, expected {bits}")
        bits += frame.samples_per_channel
    if bits != sensor.window_bits:
        raise SonarrayError(f"{bits} PDM bits per channel, the window {sensor.window_bits}")
    pcm = [acquisition.pdm_decimate(stream, sensor.factor)
           for stream in channel_streams(frames, sensor.pdm_rate_hz)]
    mf = waveform.matched_filter(pcm[0], sensor.chirp)
    estimate = waveform.estimate_range(mf, 0, sensor.c_mps,
                                       template_length=len(sensor.chirp))
    start = int(round(estimate.delay_s * mf.sample_rate_hz))
    capture = acquisition.MultichannelCapture(channels=tuple(pcm), emission_marker=0)
    block = acquisition.demodulate_capture(capture, sensor.frequency_hz,
                                           gate=(start, start + len(sensor.chirp)))
    pmap = beamforming.power_map(sensor.geometry, signalmodel.sample_covariance(block),
                                 grid, sensor.frequency_hz, sensor.c_mps,
                                 beamformer="bartlett")
    peaks = beamforming.doa_peaks(pmap, max_peaks=1)
    if not peaks:
        raise NoPeakError("power map has no DOA peak")
    direction = peaks[0][0]
    p0 = sensor.geometry.elements[0]
    range_m = estimate.range_m + float(p0 @ direction_unit_vector(direction)) / 2.0
    return replace(estimate, range_m=range_m), direction
