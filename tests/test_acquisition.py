import dataclasses
import math
import struct

import numpy as np
import pytest
import scipy.signal

from sonarray.acquisition import (DEMOD_CUTOFF_HZ, DEMOD_NUMTAPS,
                                  MultichannelCapture, PdmStream,
                                  ReflectorTarget, _cic_magnitude,
                                  _compensator_taps, demodulate_capture,
                                  echo_geometry, pdm_decimate, pdm_modulate,
                                  save_pdm, synthesize_capture)
from sonarray.beamforming import doa_peaks, power_map
from sonarray.geometry import Direction
from sonarray.signalmodel import sample_covariance
from sonarray.waveform import PcmTrace, generate_chirp


def settling_samples(pdm_rate_hz, factor):
    """Decimator outputs to trim before the CIC (4 samples) and the
    compensator FIR are in steady state."""
    return 4 + len(_compensator_taps(pdm_rate_hz / factor, factor))


class TestEchoGeometry:
    def test_boresight_delays_equal_across_ring(self, stock):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        delays, amps = echo_geometry(stock.sensor.geometry, target, stock.sensor.c_mps)
        # ring is symmetric about boresight: identical path lengths
        assert (delays.max() - delays.min()) * stock.spec.sample_rate_hz < 1.0
        expected = (1.0 + math.sqrt(1.0 + 0.015 ** 2)) / 343.0
        assert np.allclose(delays, expected, rtol=1e-12)
        assert np.allclose(amps, 1.0 / math.sqrt(1.0 + 0.015 ** 2), rtol=1e-12)

    def test_two_way_spreading_quarters_with_doubled_range(self, stock):
        near = ReflectorTarget(Direction(20, 10), 1.0)
        far = ReflectorTarget(Direction(20, 10), 2.0)
        _, a_near = echo_geometry(stock.sensor.geometry, near, stock.sensor.c_mps)
        _, a_far = echo_geometry(stock.sensor.geometry, far, stock.sensor.c_mps)
        assert np.all(np.abs(a_far / a_near - 0.25) <= 0.01 * 0.25)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            ReflectorTarget(Direction(0, 0), 0.0)
        with pytest.raises(ValueError):
            ReflectorTarget(Direction(0, 0), 1.0, strength=1.5)


class TestSynthesizeCapture:
    def test_determinism(self, stock):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        a, b = (synthesize_capture(stock.sensor.geometry, target, stock.sensor.chirp, 20.0,
                                   stock.sensor.c_mps, rng_seed=5, window_s=0.02) for _ in range(2))
        for ta, tb in zip(a.channels, b.channels):
            assert np.array_equal(ta.samples, tb.samples)

    def test_channels_share_shape(self, stock):
        target = ReflectorTarget(Direction(25, -10), 1.5)
        cap = synthesize_capture(stock.sensor.geometry, target, stock.sensor.chirp, 30.0,
                                 stock.sensor.c_mps, rng_seed=1, window_s=0.03)
        assert len(cap.channels) == 16
        assert cap.n_samples == int(0.03 * stock.spec.sample_rate_hz)
        assert cap.emission_marker == 0

    def test_zero_strength_leaves_leakage_plus_noise(self, stock):
        # strength has an open lower bound, so approximate zero with tiny
        template = stock.sensor.chirp
        target = ReflectorTarget(Direction(0, 0), 1.0, strength=1e-12)
        cap = synthesize_capture(stock.sensor.geometry, target, template, 80.0,
                                 stock.sensor.c_mps, rng_seed=2, window_s=0.02)
        x = cap.channels[0].samples
        leak = 10.0 ** (-20.0 / 20.0)
        span = len(template)
        assert np.max(np.abs(x[:span] - leak * template.samples)) < 1e-3
        echo_start = int(2.0 / 343.0 * stock.spec.sample_rate_hz)
        assert np.max(np.abs(x[echo_start:echo_start + span])) < 1e-3

    def test_echo_lands_at_expected_delay(self, stock):
        geometry, template = stock.sensor.geometry, stock.sensor.chirp
        target = ReflectorTarget(Direction(0, 0), 1.0)
        cap = synthesize_capture(geometry, target, template, 60.0,
                                 stock.sensor.c_mps, rng_seed=3, window_s=0.02)
        delays, amps = echo_geometry(geometry, target, stock.sensor.c_mps)
        x = cap.channels[0].samples
        start = int(round(delays[0] * stock.spec.sample_rate_hz))
        segment = x[start:start + len(template)]
        # correlate against the template: alignment within a sample
        ref = template.samples * amps[0]
        assert np.dot(segment, ref) / (np.linalg.norm(segment) * np.linalg.norm(ref)) > 0.95

    def test_out_of_window_target_rejected(self, stock):
        target = ReflectorTarget(Direction(0, 0), 3.0)
        with pytest.raises(ValueError, match="window"):
            synthesize_capture(stock.sensor.geometry, target, stock.sensor.chirp, 20.0,
                               stock.sensor.c_mps, window_s=0.01)


class TestPdmModulate:
    def test_midscale_density(self, stock):
        trace = PcmTrace(np.zeros(12_500), stock.spec.sample_rate_hz)
        stream = pdm_modulate(trace, stock.sensor.pdm_rate_hz, rng_seed=0)
        assert stream.n_bits == 200_000
        assert abs(stream.bits().mean() - 0.5) <= 0.01

    def test_full_scale_density(self, stock):
        trace = PcmTrace(np.ones(12_500), stock.spec.sample_rate_hz)
        stream = pdm_modulate(trace, stock.sensor.pdm_rate_hz, rng_seed=0)
        assert stream.bits().mean() >= 0.99

    def test_determinism_and_seed_sensitivity(self, stock):
        fs = stock.spec.sample_rate_hz
        t = np.arange(5000) / fs
        trace = PcmTrace(0.3 * np.sin(2 * np.pi * 40e3 * t), fs)
        a = pdm_modulate(trace, stock.sensor.pdm_rate_hz, rng_seed=9)
        b = pdm_modulate(trace, stock.sensor.pdm_rate_hz, rng_seed=9)
        assert a.data == b.data and a.n_bits == b.n_bits

    def test_overrange_rejected(self, stock):
        with pytest.raises(ValueError, match="full scale"):
            pdm_modulate(PcmTrace(np.array([1.2]), stock.spec.sample_rate_hz),
                         stock.sensor.pdm_rate_hz)

    def test_non_integer_ratio_rejected(self, stock):
        with pytest.raises(ValueError, match="integer multiple"):
            pdm_modulate(PcmTrace(np.zeros(100), 300_000.0),
                         target_rate_hz=stock.sensor.pdm_rate_hz)


class TestPdmDecimate:
    def test_all_ones_settles_to_full_scale(self, stock):
        rate, factor = stock.sensor.pdm_rate_hz, stock.sensor.factor
        stream = PdmStream(data=bytes([0xFF]) * 25_000, n_bits=200_000, rate_hz=rate)
        out = pdm_decimate(stream, factor)
        settle = settling_samples(rate, factor)
        steady = out.samples[settle:-settle]
        assert np.max(np.abs(steady - 1.0)) <= 1e-3
        assert out.sample_rate_hz == stock.spec.sample_rate_hz

    def test_alternating_bits_settle_to_midscale(self, stock):
        rate, factor = stock.sensor.pdm_rate_hz, stock.sensor.factor
        stream = PdmStream(data=bytes([0b10101010]) * 25_000, n_bits=200_000, rate_hz=rate)
        out = pdm_decimate(stream, factor)
        settle = settling_samples(rate, factor)
        assert np.max(np.abs(out.samples[settle:-settle])) <= 1e-3

    def test_short_stream_rejected(self, stock):
        stream = PdmStream(data=bytes([0xFF]), n_bits=8, rate_hz=stock.sensor.pdm_rate_hz)
        with pytest.raises(ValueError):
            pdm_decimate(stream, factor=16)
        with pytest.raises(ValueError):
            pdm_decimate(stream, factor=1)

    def test_cic_matches_arbitrary_precision_oracle(self, stock):
        # the polyphase CIC must equal the textbook integrator/comb cascade
        # in Python ints bit for bit, for any factor and for lengths that
        # leave a partial block
        rate = stock.sensor.pdm_rate_hz
        rng = np.random.default_rng(77)
        bits = rng.integers(0, 2, 20_003).astype(np.uint8)
        integrated = [1 if b else -1 for b in bits]  # Python ints: no overflow
        for _ in range(4):
            acc, out = 0, []
            for v in integrated:
                acc += v
                out.append(acc)
            integrated = out

        def cic_exact(n, factor):
            dec = integrated[factor - 1:n:factor]
            for _ in range(4):
                prev, out = 0, []
                for v in dec:
                    out.append(v - prev)
                    prev = v
                dec = out
            return np.array(dec, dtype=float) / factor ** 4

        for factor in (2, 3, 5, 8, 16, 17, 32):
            for n in (factor, 5 * factor - 1, bits.size):
                stream = PdmStream(data=np.packbits(bits[:n]).tobytes(), n_bits=n,
                                   rate_hz=rate)
                taps = _compensator_taps(rate / factor, factor)
                expected = scipy.signal.fftconvolve(cic_exact(n, factor), taps,
                                                    mode="same")
                got = pdm_decimate(stream, factor).samples
                assert np.array_equal(got, expected), (factor, n)

    @pytest.mark.parametrize("factor", [8, 32])
    def test_other_decimation_factors(self, stock, factor):
        rate = stock.sensor.pdm_rate_hz
        n = 64 * factor * 40
        stream = PdmStream(data=bytes([0xFF]) * (n // 8), n_bits=n, rate_hz=rate)
        out = pdm_decimate(stream, factor=factor)
        settle = settling_samples(rate, factor)
        steady = out.samples[settle:-settle]
        assert np.max(np.abs(steady - 1.0)) <= 1e-3
        assert out.sample_rate_hz == rate / factor

    def test_compensated_filter_meets_design_targets(self, stock):
        fs, factor = stock.spec.sample_rate_hz, stock.sensor.factor
        taps = _compensator_taps(fs, factor)
        w, H = scipy.signal.freqz(taps, worN=16_384, fs=fs)
        combined = np.abs(H) * _cic_magnitude(w, stock.sensor.pdm_rate_hz, factor)
        band = (w >= 36_000.0) & (w <= 44_000.0)
        ripple_db = 20 * np.log10(combined[band])
        assert ripple_db.max() - ripple_db.min() <= 0.5
        stop = w >= 0.45 * fs
        assert 20 * np.log10(np.abs(H[stop]).max()) <= -60.0
        assert abs(taps.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("factor", [8, 16, 32])
    def test_compensator_taps_are_firwin2s(self, stock, factor):
        # the frequency-sampling design against scipy's: 95 taps, Kaiser
        # beta 8, through the inverse-CIC passband, the transition and the
        # stopband points, normalized to unit DC gain
        rate_out = stock.sensor.pdm_rate_hz / factor
        pass_hz, stop_hz = min(50_000.0, 0.35 * rate_out), 0.45 * rate_out
        grid = np.linspace(0.0, pass_hz, 33)
        freq = [*grid, pass_hz + 0.6 * (stop_hz - pass_hz), stop_hz, rate_out / 2]
        gain = [*(1.0 / _cic_magnitude(grid, stock.sensor.pdm_rate_hz, factor)), 0.0, 0.0, 0.0]
        expected = scipy.signal.firwin2(95, freq, gain, fs=rate_out, window=("kaiser", 8.0))
        expected /= expected.sum()
        taps = _compensator_taps(rate_out, factor)
        assert np.max(np.abs(taps - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_round_trip_correlation_and_gain(self, stock):
        fs, rate, factor = stock.spec.sample_rate_hz, stock.sensor.pdm_rate_hz, stock.sensor.factor
        n = int(0.02 * fs)
        t = np.arange(n) / fs
        x = 0.5 * np.sin(2 * np.pi * 40_000.0 * t)
        out = pdm_decimate(pdm_modulate(PcmTrace(x, fs), rate, rng_seed=3), factor)
        settle = settling_samples(rate, factor)
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
        gain_db = 10 * math.log10(np.dot(b, b) / np.dot(a, a))
        assert corr >= 0.99
        assert abs(gain_db) <= 1.0


class TestDemodulation:
    def test_capture_beamforming_localizes_off_axis_target(self, stock):
        # tone probe keeps the narrowband steering model exact off-axis
        geometry = stock.sensor.geometry
        tone = generate_chirp(dataclasses.replace(stock.spec, f_start_hz=40_000.0,
                                                  f_end_hz=40_000.0))
        target = ReflectorTarget(Direction(25.0, 0.0), 1.0)
        cap = synthesize_capture(geometry, target, tone, 10.0, stock.sensor.c_mps, rng_seed=21,
                                 window_s=0.02)
        delays, _ = echo_geometry(geometry, target, stock.sensor.c_mps)
        start = cap.emission_marker + int(round(delays.mean() * cap.sample_rate_hz))
        block = demodulate_capture(cap, 40_000.0, gate=(start, start + len(tone)))
        R = sample_covariance(block)
        pmap = power_map(geometry, R, stock.grid, 40_000.0, stock.sensor.c_mps,
                         beamformer="mvdr", loading=1e-3)
        (top, _), = doa_peaks(pmap, max_peaks=1, min_separation_deg=5.0)
        assert abs(top.azimuth_deg - 25.0) <= 2.0
        assert abs(top.elevation_deg - 0.0) <= 2.0

    def test_boresight_capture_yields_coherent_snapshots(self, stock):
        geometry, template = stock.sensor.geometry, stock.sensor.chirp
        target = ReflectorTarget(Direction(0, 0), 1.0)
        cap = synthesize_capture(geometry, target, template, 40.0,
                                 stock.sensor.c_mps, rng_seed=4, window_s=0.02)
        delays, _ = echo_geometry(geometry, target, stock.sensor.c_mps)
        start = int(round(delays[0] * cap.sample_rate_hz))
        block = demodulate_capture(cap, 40_000.0, gate=(start, start + len(template)))
        assert block.samples.shape[0] == 16
        assert block.n_snapshots == len(template)
        # at boresight every channel sees the same phase: snapshots align
        mid = block.samples[:, block.n_snapshots // 2]
        phases = np.angle(mid / mid[0])
        assert np.max(np.abs(phases)) < 0.2

    def test_gate_matches_full_length_filter(self, stock):
        target = ReflectorTarget(Direction(20, 5), 1.0)
        cap = synthesize_capture(stock.sensor.geometry, target, stock.sensor.chirp, 30.0,
                                 stock.sensor.c_mps, rng_seed=4, window_s=0.02)
        fs = cap.sample_rate_hz
        n = cap.n_samples
        t = np.arange(n) / fs
        osc = np.exp(-2j * np.pi * 40_000.0 * t)
        taps = scipy.signal.firwin(DEMOD_NUMTAPS, DEMOD_CUTOFF_HZ, fs=fs)
        full = np.vstack([2.0 * np.convolve(tr.samples * osc, taps, mode="same")
                          for tr in cap.channels])
        for gate in [(0, 1), (0, 300), (30, 700), (2000, 2834), (n - 300, n),
                     (n - 1, n), (0, n)]:
            got = demodulate_capture(cap, 40_000.0, gate=gate).samples
            start, stop = gate
            ref = full[:, start:stop]
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), gate

    def test_gate_validation(self, stock):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        cap = synthesize_capture(stock.sensor.geometry, target, stock.sensor.chirp, 40.0,
                                 stock.sensor.c_mps, rng_seed=4, window_s=0.02)
        with pytest.raises(ValueError):
            demodulate_capture(cap, 40_000.0, gate=(100, 50))
        with pytest.raises(ValueError):
            demodulate_capture(cap, 200_000.0, gate=(0, 300))
        slow = MultichannelCapture(channels=(PcmTrace(np.zeros(400), 2 * DEMOD_CUTOFF_HZ),),
                                   emission_marker=0)
        with pytest.raises(ValueError, match="low-pass cutoff must lie below Nyquist"):
            demodulate_capture(slow, 4_000.0, gate=(0, 300))


class TestFileFormats:
    def test_pdm_round_trip(self, stock, tmp_path):
        fs = stock.spec.sample_rate_hz
        t = np.arange(2000) / fs
        stream = pdm_modulate(PcmTrace(0.4 * np.sin(2 * np.pi * 41e3 * t), fs),
                              stock.sensor.pdm_rate_hz, rng_seed=6, channel=3)
        path = tmp_path / "ch03.pdm"
        save_pdm(stream, path)
        # documented layout: magic, version u16, rate f64, channel u16,
        # bit count u64, little-endian, then the packed bits
        blob = path.read_bytes()
        assert struct.unpack("<4sHdHQ", blob[:24]) == (b"PDM1", 1, stream.rate_hz, 3,
                                                      stream.n_bits)
        assert blob[24:] == stream.data

    def test_capture_invariants(self, stock):
        fs = stock.spec.sample_rate_hz
        with pytest.raises(ValueError):
            MultichannelCapture(channels=(PcmTrace(np.zeros(8), fs),
                                          PcmTrace(np.zeros(9), fs)),
                                emission_marker=0)
