"""The sensor chain, scene to frames and frames to a fix.

The write side is what the sensor does each ping: :func:`acquire_window`
renders one ping window at every element and sigma-delta modulates it
into frame payloads, and :func:`frame_window` numbers the frames and
stamps them with the PDM clock.  The read side is what the host does:
:func:`channel_streams` joins frames into per-channel PDM streams, and
:func:`localize_window` turns one ping window's streams into a range and
a direction.  :func:`ping_of` places a frame in its ping by its
timestamp, so a lost frame cannot shift later pings.

The module constants are the chain's fixed decisions, not config keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import acquisition, beamforming, framing, signalmodel, waveform
from .errors import NoPeakError, SonarrayError
from .geometry import ArrayGeometry

WINDOW_S = 0.05           # signal seconds recorded per ping
FRAMES_PER_WINDOW = 16    # 13 906 PDM bits per channel per frame at the stock rates
CHUNK_BYTES = 65536       # read size of a frame stream
# Over 0.6-2 m at the stock 20 dB the largest input is at 0.6 m: an echo
# peak of 1/(0.6 * 0.585) = 2.85 plus noise, at most 3.32 over 60 drawn
# windows, which 0.25 scales to 0.83 full scale (FS).  That is not clear
# of the sigma-delta i2 clip: on a sustained 40 kHz sine it engages 4
# times per 100 000 PDM samples at 0.8 FS and 799 times at 0.87 FS, and
# never at 0.7 FS, which would need a gain of 0.21.  The echo holds its
# peak for only part of the sweep; 0.25 keeps the payloads bit-identical
# to those the benchmark was recorded with.
FRONT_END_GAIN = 0.25
MVDR_LOADING = 1e-3       # sample covariances from ~834 snapshots


@dataclass(frozen=True, eq=False)
class Sensor:
    """What both ends of the chain agree on: the array, the probe, the
    PDM clock and decimation factor, the ping rate and the scan grid."""

    geometry: ArrayGeometry
    chirp: waveform.PcmTrace
    grid: beamforming.GridSpec
    frequency_hz: float
    c_mps: float
    pdm_rate_hz: float
    factor: int
    ping_hz: float

    @property
    def ping_ticks(self) -> int:
        """PDM clock ticks from one ping to the next."""
        return int(round(self.pdm_rate_hz / self.ping_hz))


def acquire_window(sensor: Sensor, target: acquisition.ReflectorTarget,
                   noise_db: float, noise_seed: int) -> tuple:
    """One ping window, scene to frame payloads.

    Returns the synthesized capture (before the front-end gain) and the
    FRAMES_PER_WINDOW payloads.  Channel l draws its noise and its dither
    from seed ``noise_seed + l`` and is scaled by FRONT_END_GAIN before
    sigma-delta modulation; payload f holds bits [f*n, (f+1)*n) of every
    channel, channel-major.
    """
    capture = acquisition.synthesize_capture(
        sensor.geometry, target, sensor.chirp, noise_db, sensor.c_mps,
        rng_seed=noise_seed, window_s=WINDOW_S)
    bits = np.vstack([
        acquisition.pdm_modulate(
            waveform.PcmTrace(samples=FRONT_END_GAIN * trace.samples,
                              sample_rate_hz=trace.sample_rate_hz),
            sensor.pdm_rate_hz, rng_seed=noise_seed + ch, channel=ch).bits()
        for ch, trace in enumerate(capture.channels)])
    spc, rest = divmod(bits.shape[1], FRAMES_PER_WINDOW)
    if rest:
        raise ValueError(f"{bits.shape[1]} bits per channel do not split into "
                         f"{FRAMES_PER_WINDOW} frames")
    payloads = [np.packbits(bits[:, f * spc:(f + 1) * spc]).tobytes()
                for f in range(FRAMES_PER_WINDOW)]
    return capture, payloads


def frame_window(sensor: Sensor, payloads: list, ping: int) -> list:
    """The frames of ping ``ping``: sequence numbers count frames from
    ping 0, and frame f is stamped ``ping * ping_ticks + f * n`` for n
    bits per channel per frame."""
    channels = sensor.geometry.n_elements
    spc = 8 * len(payloads[0]) // channels
    return [framing.Frame(sequence=(ping * FRAMES_PER_WINDOW + f) % (1 << 32),
                          timestamp_ticks=ping * sensor.ping_ticks + f * spc,
                          samples_per_channel=spc, payload=payload,
                          channel_count=channels)
            for f, payload in enumerate(payloads)]


def ping_of(sensor: Sensor, frame: framing.Frame) -> int:
    """The ping a frame belongs to, from its PDM-clock timestamp."""
    return frame.timestamp_ticks // sensor.ping_ticks


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


def localize_window(sensor: Sensor, streams: list) -> tuple:
    """(RangeEstimate, Direction) of the echo in one ping window.

    Every channel is decimated.  Channel 0 is matched-filtered against the
    probe for the range, with the emission at the window's first sample.
    The echo gate [delay, delay + probe length) of all channels is
    demodulated at ``frequency_hz``; the direction is the highest peak of
    the MVDR map (loading MVDR_LOADING) of its sample covariance.  Raises
    UnreliableEstimateError when the range cannot be trusted and
    NoPeakError when the map has no peak.
    """
    pcm = [acquisition.pdm_decimate(stream, sensor.factor) for stream in streams]
    mf = waveform.matched_filter(pcm[0], sensor.chirp)
    estimate = waveform.estimate_range(mf, 0, sensor.c_mps,
                                       template_length=len(sensor.chirp))
    start = int(round(estimate.delay_s * mf.sample_rate_hz))
    capture = acquisition.MultichannelCapture(channels=tuple(pcm), emission_marker=0)
    block = acquisition.demodulate_capture(capture, sensor.frequency_hz,
                                           gate=(start, start + len(sensor.chirp)))
    pmap = beamforming.power_map(sensor.geometry, signalmodel.sample_covariance(block),
                                 sensor.grid, sensor.frequency_hz, sensor.c_mps,
                                 beamformer="mvdr", loading=MVDR_LOADING)
    peaks = beamforming.doa_peaks(pmap, max_peaks=1)
    if not peaks:
        raise NoPeakError("power map has no DOA peak")
    return estimate, peaks[0][0]
