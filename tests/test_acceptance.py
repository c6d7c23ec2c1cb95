"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from sonarray.acquisition import (ReflectorTarget, _compensator_taps,
                                  demodulate_capture, echo_geometry,
                                  pdm_decimate, pdm_modulate,
                                  synthesize_capture)
from sonarray.beamforming import doa_peaks, grid_powers, power_map, psf
from sonarray.framing import Frame, StreamParser, encode_frame, parse_stream
from sonarray.geometry import Direction, steering_matrix
from sonarray.signalmodel import PointSource, covariance_analytic, sample_covariance
from sonarray.waveform import PcmTrace, estimate_range, matched_filter

PLACEMENTS = [(0.0, 0.0), (30.0, 0.0), (-45.0, -15.0)]


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


@pytest.fixture(scope="module")
def placement_scans(stock):
    """Shared scans for criteria 1 and 3 on the stock grid (-90..90 in 1
    degree steps, both axes): per placement, R plus both maps."""
    s = stock.sensor
    scans = []
    start = time.perf_counter()
    for az, el in PLACEMENTS:
        source = Direction(az, el)
        R = covariance_analytic(s.geometry, [PointSource(source, 1.0)], 0.01,
                                s.frequency_hz, s.c_mps)
        maps = {}
        metrics = {}
        for bf in ("bartlett", "mvdr"):
            maps[bf], metrics[bf] = psf(s.geometry, source, 1.0, 0.01, stock.grid,
                                        s.frequency_hz, s.c_mps, beamformer=bf, loading=0.0)
        scans.append({"source": source, "R": R, "maps": maps, "metrics": metrics})
    elapsed = time.perf_counter() - start
    return scans, elapsed


def test_criterion_1_psf_reproduction(placement_scans):
    scans, elapsed = placement_scans
    with criterion(1, "PSF argmax, width and sidelobe ordering"):
        for scan in scans:
            source = scan["source"]
            for bf in ("bartlett", "mvdr"):
                m = scan["metrics"][bf]
                assert abs(m.peak_direction.azimuth_deg - source.azimuth_deg) <= 1.0
                assert abs(m.peak_direction.elevation_deg - source.elevation_deg) <= 1.0
            bartlett = scan["metrics"]["bartlett"]
            mvdr = scan["metrics"]["mvdr"]
            assert mvdr.mainlobe_width_az_deg < bartlett.mainlobe_width_az_deg
            assert mvdr.mainlobe_width_el_deg < bartlett.mainlobe_width_el_deg
            assert mvdr.peak_sidelobe_db < bartlett.peak_sidelobe_db
        assert elapsed < 30.0, f"PSF scans took {elapsed:.1f} s"


def test_criterion_2_mvdr_closed_form(stock):
    s = stock.sensor
    with criterion(2, "MVDR closed-form power at the source"):
        # inversion-lemma oracle, scalar arithmetic only
        sd2, sv2 = 1.0, 0.1
        expected = sd2 + sv2 / s.geometry.n_elements
        assert expected == 1.00625
        look = Direction(0.0, 0.0)
        R = covariance_analytic(s.geometry, [PointSource(look, sd2)], sv2,
                                s.frequency_hz, s.c_mps)
        d = steering_matrix(s.geometry, look.azimuth_deg, look.elevation_deg,
                            s.frequency_hz, s.c_mps)
        x = np.linalg.solve(R, d[:, 0])
        got = 1.0 / np.vdot(d[:, 0], x).real
        assert abs(got - expected) <= 1e-9 * expected
        got = grid_powers(R, d, "mvdr", loading=0.0)[0]
        assert abs(got - expected) <= 1e-9 * expected


def test_criterion_3_dominance_and_distortionless(stock, placement_scans):
    s = stock.sensor
    scans, _ = placement_scans
    with criterion(3, "MVDR <= Bartlett and distortionless on every node"):
        az, el = stock.grid.axes()
        AZ, EL = np.meshgrid(az, el)
        D = steering_matrix(s.geometry, AZ.ravel(), EL.ravel(), s.frequency_hz, s.c_mps)
        for scan in scans:
            R = scan["R"]
            mvdr_vals = scan["maps"]["mvdr"].power.ravel()
            bartlett_vals = scan["maps"]["bartlett"].power.ravel()
            assert np.all(mvdr_vals <= bartlett_vals + 1e-12)
            cho = scipy.linalg.cho_factor(R)
            X = scipy.linalg.cho_solve(cho, D)
            delta = np.einsum("lm,lm->m", D.conj(), X)
            W = X / delta
            distortion = np.abs(np.einsum("lm,lm->m", W.conj(), D) - 1.0)
            assert distortion.max() <= 1e-9


def test_criterion_4_range_experiment(stock):
    s = stock.sensor
    with criterion(4, "1 m reflector, 30 pings at 10 Hz"):
        start = time.perf_counter()
        template = s.chirp
        target = ReflectorTarget(Direction(0.0, 0.0), 1.0, 1.0)
        expected_lag = 5.831e-3 * template.sample_rate_hz
        for ping in range(30):
            capture = synthesize_capture(s.geometry, target, template, 20.0, s.c_mps,
                                         rng_seed=64 * ping, window_s=0.1)
            mf = matched_filter(capture.channels[0], template)
            est = estimate_range(mf, capture.emission_marker, s.c_mps,
                                 template_length=len(template))
            assert abs(est.range_m - 1.000) <= 0.002, f"ping {ping}: {est.range_m}"
            peak_lag = int(np.argmax(mf.samples)) - capture.emission_marker
            assert abs(peak_lag - expected_lag) <= 1.0, f"ping {ping}: lag {peak_lag}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"range experiment took {elapsed:.1f} s"


def test_criterion_5_acquisition_round_trip(stock):
    s = stock.sensor
    fs = s.chirp.sample_rate_hz
    with criterion(5, "PDM modulate/decimate round trip"):
        n = int(0.05 * fs)
        t = np.arange(n) / fs
        x = 0.5 * np.sin(2 * np.pi * 40_000.0 * t)
        stream = pdm_modulate(PcmTrace(x, fs), s.pdm_rate_hz, rng_seed=3)
        out = pdm_decimate(stream, s.factor)
        # CIC (4 output samples) plus compensator FIR transients
        settle = 4 + len(_compensator_taps(fs, s.factor))
        y = out.samples[settle:-settle]
        ref = x[settle:-settle]

        lags = scipy.signal.correlation_lags(y.size, ref.size)
        lag = int(lags[np.argmax(scipy.signal.correlate(y, ref))])
        if lag >= 0:
            a, b = ref[:ref.size - lag], y[lag:]
        else:
            a, b = ref[-lag:], y[:y.size + lag]
        m = min(a.size, b.size)
        a, b = a[:m], b[:m]
        corr = np.dot(a, b) / math.sqrt(np.dot(a, a) * np.dot(b, b))
        assert corr >= 0.99, f"correlation {corr:.4f}"

        # leakage-free SNR: project out the 40 kHz component, band-limit
        # the residual to 30-50 kHz, compare powers
        tt = t[settle:-settle]
        basis = np.column_stack([np.cos(2 * np.pi * 40_000.0 * tt),
                                 np.sin(2 * np.pi * 40_000.0 * tt)])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        residual = y - basis @ coef
        signal_power = (coef[0] ** 2 + coef[1] ** 2) / 2.0
        sos = scipy.signal.butter(8, [30_000.0, 50_000.0], btype="band",
                                  fs=fs, output="sos")
        band_noise = scipy.signal.sosfiltfilt(sos, residual)[settle:-settle]
        snr_db = 10 * math.log10(signal_power / np.mean(band_noise ** 2))
        assert snr_db >= 60.0, f"in-band SNR {snr_db:.1f} dB"
        print(f"[acceptance]   round trip: corr={corr:.5f}, SNR={snr_db:.1f} dB")


def _random_frame(rng):
    cc = int(rng.integers(1, 17))
    spc = 8 * int(rng.integers(1, 33))
    payload = rng.integers(0, 256, cc * spc // 8, dtype=np.uint8).tobytes()
    return Frame(sequence=int(rng.integers(0, 2 ** 32)),
                 timestamp_ticks=int(rng.integers(0, 2 ** 63)),
                 samples_per_channel=spc, payload=payload, channel_count=cc)


def test_criterion_6_framing_properties():
    with criterion(6, "framing identity, chunking, recovery, CRC"):
        rng = np.random.default_rng(2025)

        # encode/parse identity on 1000 randomized frames
        frames = [_random_frame(rng) for _ in range(1000)]
        blob = b"".join(encode_frame(f) for f in frames)
        events, stats = parse_stream(blob)
        assert events == frames
        assert stats.frames_ok == 1000
        assert stats.bytes_discarded == 0

        # chunking invariance under random partitions
        sample = frames[:40]
        stream = (encode_frame(sample[0]) + b"\x07\x08"
                  + b"".join(encode_frame(f) for f in sample[1:]))
        reference = parse_stream(stream)
        for _ in range(5):
            n_cuts = int(rng.integers(1, 20))
            cuts = sorted(rng.integers(0, len(stream) + 1, n_cuts).tolist())
            parser = StreamParser()
            events = []
            prev = 0
            for cut in cuts + [len(stream)]:
                events.extend(parser.feed(stream[prev:cut]))
                prev = cut
            assert events == reference[0]
            assert parser.stats == reference[1]

        # recovery after injected corruption, exact loss accounting
        clean = [Frame(sequence=s, timestamp_ticks=s, samples_per_channel=64,
                       payload=bytes([0x44]) * 8, channel_count=1)
                 for s in range(10)]
        blobs = [bytearray(encode_frame(f)) for f in clean]
        blobs[4][28] ^= 0x01  # payload bit flip
        got, stats = parse_stream(b"".join(bytes(b) for b in blobs))
        assert [f.sequence for f in got] == [0, 1, 2, 3, 5, 6, 7, 8, 9]
        assert stats.frames_ok == 9
        assert stats.frames_lost == 1
        assert stats.bytes_discarded == len(blobs[4])
        assert stats.crc_mismatch == 1

        # exhaustive single-bit CRC detection on an 8-byte-payload frame
        frame = Frame(sequence=77, timestamp_ticks=123456, samples_per_channel=64,
                      payload=bytes([0x3C]) * 8, channel_count=1)
        encoded = encode_frame(frame)
        for bit in range(len(encoded) * 8):
            flipped = bytearray(encoded)
            flipped[bit // 8] ^= 1 << (bit % 8)
            _, flip_stats = parse_stream(bytes(flipped))
            assert flip_stats.frames_ok == 0, f"bit flip {bit} passed"


def test_criterion_7_throughput(stock):
    channels = stock.sensor.geometry.n_elements
    with criterion(7, "parser throughput vs the aggregate PDM rate"):
        # >= 4 MiB of stock 16-channel frames with 8 KiB payloads, fed in
        # the 64 KiB chunks that decode reads; one timed pass.
        rng = np.random.default_rng(12345)
        stream = bytearray()
        n_frames = 0
        while len(stream) < 4 << 20:
            payload = rng.integers(0, 256, 8192, dtype=np.uint8).tobytes()
            stream += encode_frame(Frame(
                sequence=n_frames, timestamp_ticks=n_frames * 1000,
                samples_per_channel=8 * 8192 // channels, payload=payload,
                channel_count=channels))
            n_frames += 1
        stream = bytes(stream)
        parser = StreamParser()
        start = time.perf_counter()
        for off in range(0, len(stream), 65536):
            parser.feed(stream[off:off + 65536])
        elapsed = time.perf_counter() - start
        assert parser.stats.frames_ok == n_frames
        mbps = len(stream) * 8 / elapsed / 1e6
        print(f"[acceptance]   parser rate: {mbps:.0f} Mb/s "
              f"({len(stream) / elapsed / 1e6:.0f} MB/s, "
              f"{n_frames / elapsed:.0f} frames/s)")
        assert mbps >= channels * stock.sensor.pdm_rate_hz / 1e6


def test_criterion_8_end_to_end(stock):
    s = stock.sensor
    with criterion(8, "capture -> demodulation -> MVDR localization"):
        template = s.chirp
        target = ReflectorTarget(Direction(0.0, 0.0), 1.0, 1.0)
        capture = synthesize_capture(s.geometry, target, template, 20.0, s.c_mps,
                                     rng_seed=11, window_s=0.05)
        delays, _ = echo_geometry(s.geometry, target, s.c_mps)
        gate_start = capture.emission_marker + int(round(delays[0] * capture.sample_rate_hz))
        block = demodulate_capture(capture, s.frequency_hz,
                                   gate=(gate_start, gate_start + len(template)))
        assert block.n_snapshots >= 256
        R = sample_covariance(block)
        pmap = power_map(s.geometry, R, stock.grid, s.frequency_hz, s.c_mps,
                         beamformer="mvdr", loading=1e-3)
        peaks = doa_peaks(pmap, max_peaks=1, min_separation_deg=5.0)
        assert peaks, "no peak found"
        top, _ = peaks[0]
        assert abs(top.azimuth_deg - 0.0) <= 2.0
        assert abs(top.elevation_deg - 0.0) <= 2.0
        print(f"[acceptance]   localized at ({top.azimuth_deg:g}, "
              f"{top.elevation_deg:g}) deg from {block.n_snapshots} snapshots")
