import math

import numpy as np
import pytest
import scipy.signal

from sonarray.acquisition import (CHANNEL_COUNT, DECIMATION_FACTOR,
                                  DEMOD_CUTOFF_HZ, DEMOD_NUMTAPS, PDM_RATE_HZ,
                                  USB_LINK_BUDGET_BPS, MultichannelCapture,
                                  PdmStream, ReflectorTarget, _cic_magnitude,
                                  _compensator_taps, aggregate_pdm_rate_bps,
                                  decimation_settling_samples,
                                  demodulate_capture, echo_geometry,
                                  load_pdm, pdm_decimate, pdm_modulate,
                                  save_pdm, synthesize_capture)
from sonarray.geometry import Direction, default_circular_array
from sonarray.waveform import ChirpSpec, PcmTrace, generate_chirp

FS = PDM_RATE_HZ / DECIMATION_FACTOR


@pytest.fixture(scope="module")
def geometry():
    return default_circular_array()


@pytest.fixture(scope="module")
def template():
    return generate_chirp(ChirpSpec())


class TestRateBudget:
    def test_aggregate_below_link_budget(self):
        aggregate = aggregate_pdm_rate_bps()
        assert aggregate == CHANNEL_COUNT * PDM_RATE_HZ == 71_200_000
        assert aggregate < USB_LINK_BUDGET_BPS

    def test_pcm_rate_ties_to_decimation(self):
        assert PDM_RATE_HZ / DECIMATION_FACTOR == 278_125


class TestEchoGeometry:
    def test_boresight_delays_equal_across_ring(self, geometry):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        delays, amps = echo_geometry(geometry, target)
        # ring is symmetric about boresight: identical path lengths
        assert (delays.max() - delays.min()) * FS < 1.0
        expected = (1.0 + math.sqrt(1.0 + 0.015 ** 2)) / 343.0
        assert np.allclose(delays, expected, rtol=1e-12)
        assert np.allclose(amps, 1.0 / math.sqrt(1.0 + 0.015 ** 2), rtol=1e-12)

    def test_two_way_spreading_quarters_with_doubled_range(self, geometry):
        near = ReflectorTarget(Direction(20, 10), 1.0)
        far = ReflectorTarget(Direction(20, 10), 2.0)
        _, a_near = echo_geometry(geometry, near)
        _, a_far = echo_geometry(geometry, far)
        assert np.all(np.abs(a_far / a_near - 0.25) <= 0.01 * 0.25)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            ReflectorTarget(Direction(0, 0), 0.0)
        with pytest.raises(ValueError):
            ReflectorTarget(Direction(0, 0), 1.0, strength=1.5)


class TestSynthesizeCapture:
    def test_determinism(self, geometry, template):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        a = synthesize_capture(geometry, target, template, 20.0, rng_seed=5,
                               window_s=0.02)
        b = synthesize_capture(geometry, target, template, 20.0, rng_seed=5,
                               window_s=0.02)
        for ta, tb in zip(a.channels, b.channels):
            assert np.array_equal(ta.samples, tb.samples)

    def test_channels_share_shape(self, geometry, template):
        target = ReflectorTarget(Direction(25, -10), 1.5)
        cap = synthesize_capture(geometry, target, template, 30.0, rng_seed=1,
                                 window_s=0.03)
        assert len(cap.channels) == 16
        assert cap.n_samples == int(0.03 * FS)
        assert cap.emission_marker == 0

    def test_zero_strength_leaves_leakage_plus_noise(self, geometry, template):
        # strength has an open lower bound, so approximate zero with tiny
        target = ReflectorTarget(Direction(0, 0), 1.0, strength=1e-12)
        cap = synthesize_capture(geometry, target, template, 80.0, rng_seed=2,
                                 window_s=0.02)
        x = cap.channels[0].samples
        leak = 10.0 ** (-20.0 / 20.0)
        span = len(template)
        assert np.max(np.abs(x[:span] - leak * template.samples)) < 1e-3
        echo_start = int(2.0 / 343.0 * FS)
        assert np.max(np.abs(x[echo_start:echo_start + span])) < 1e-3

    def test_echo_lands_at_expected_delay(self, geometry, template):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        cap = synthesize_capture(geometry, target, template, 60.0, rng_seed=3,
                                 window_s=0.02)
        delays, amps = echo_geometry(geometry, target)
        x = cap.channels[0].samples
        start = int(round(delays[0] * FS))
        segment = x[start:start + len(template)]
        # correlate against the template: alignment within a sample
        ref = template.samples * amps[0]
        assert np.dot(segment, ref) / (np.linalg.norm(segment) * np.linalg.norm(ref)) > 0.95

    def test_out_of_window_target_rejected(self, geometry, template):
        target = ReflectorTarget(Direction(0, 0), 3.0)
        with pytest.raises(ValueError, match="window"):
            synthesize_capture(geometry, target, template, 20.0, window_s=0.01)


class TestPdmModulate:
    def test_midscale_density(self):
        trace = PcmTrace(np.zeros(12_500), FS)
        stream = pdm_modulate(trace, rng_seed=0)
        assert stream.n_bits == 200_000
        assert abs(stream.bits().mean() - 0.5) <= 0.01

    def test_full_scale_density(self):
        trace = PcmTrace(np.ones(12_500), FS)
        stream = pdm_modulate(trace, rng_seed=0)
        assert stream.bits().mean() >= 0.99

    def test_determinism_and_seed_sensitivity(self):
        t = np.arange(5000) / FS
        trace = PcmTrace(0.3 * np.sin(2 * np.pi * 40e3 * t), FS)
        a = pdm_modulate(trace, rng_seed=9)
        b = pdm_modulate(trace, rng_seed=9)
        assert a.data == b.data and a.n_bits == b.n_bits

    def test_overrange_rejected(self):
        with pytest.raises(ValueError, match="full scale"):
            pdm_modulate(PcmTrace(np.array([1.2]), FS))

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError, match="integer multiple"):
            pdm_modulate(PcmTrace(np.zeros(100), 300_000.0), target_rate_hz=PDM_RATE_HZ)


class TestPdmDecimate:
    def test_all_ones_settles_to_full_scale(self):
        stream = PdmStream(data=bytes([0xFF]) * 25_000, n_bits=200_000,
                           rate_hz=PDM_RATE_HZ)
        out = pdm_decimate(stream)
        settle = decimation_settling_samples()
        steady = out.samples[settle:-settle]
        assert np.max(np.abs(steady - 1.0)) <= 1e-3
        assert out.sample_rate_hz == FS

    def test_alternating_bits_settle_to_midscale(self):
        stream = PdmStream(data=bytes([0b10101010]) * 25_000, n_bits=200_000,
                           rate_hz=PDM_RATE_HZ)
        out = pdm_decimate(stream)
        settle = decimation_settling_samples()
        assert np.max(np.abs(out.samples[settle:-settle])) <= 1e-3

    def test_short_stream_rejected(self):
        stream = PdmStream(data=bytes([0xFF]), n_bits=8, rate_hz=PDM_RATE_HZ)
        with pytest.raises(ValueError):
            pdm_decimate(stream, factor=16)
        with pytest.raises(ValueError):
            pdm_decimate(stream, factor=1)

    def test_cic_matches_arbitrary_precision_oracle(self):
        # the polyphase CIC must equal the textbook integrator/comb cascade
        # in Python ints bit for bit, for any factor and for lengths that
        # leave a partial block
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
                                   rate_hz=PDM_RATE_HZ)
                taps = _compensator_taps(PDM_RATE_HZ / factor, factor)
                expected = scipy.signal.fftconvolve(cic_exact(n, factor), taps,
                                                    mode="same")
                got = pdm_decimate(stream, factor).samples
                assert np.array_equal(got, expected), (factor, n)

    @pytest.mark.parametrize("factor", [8, 32])
    def test_other_decimation_factors(self, factor):
        n = 64 * factor * 40
        stream = PdmStream(data=bytes([0xFF]) * (n // 8), n_bits=n,
                           rate_hz=PDM_RATE_HZ)
        out = pdm_decimate(stream, factor=factor)
        settle = decimation_settling_samples(PDM_RATE_HZ, factor)
        steady = out.samples[settle:-settle]
        assert np.max(np.abs(steady - 1.0)) <= 1e-3
        assert out.sample_rate_hz == PDM_RATE_HZ / factor

    def test_compensated_filter_meets_design_targets(self):
        taps = _compensator_taps(FS, DECIMATION_FACTOR)
        w, H = scipy.signal.freqz(taps, worN=16_384, fs=FS)
        combined = np.abs(H) * _cic_magnitude(w, PDM_RATE_HZ, DECIMATION_FACTOR)
        band = (w >= 36_000.0) & (w <= 44_000.0)
        ripple_db = 20 * np.log10(combined[band])
        assert ripple_db.max() - ripple_db.min() <= 0.5
        stop = w >= 0.45 * FS
        assert 20 * np.log10(np.abs(H[stop]).max()) <= -60.0
        assert abs(taps.sum() - 1.0) < 1e-12

    def test_round_trip_correlation_and_gain(self):
        n = int(0.02 * FS)
        t = np.arange(n) / FS
        x = 0.5 * np.sin(2 * np.pi * 40_000.0 * t)
        out = pdm_decimate(pdm_modulate(PcmTrace(x, FS), rng_seed=3))
        settle = decimation_settling_samples()
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
    def test_capture_beamforming_localizes_off_axis_target(self, geometry):
        # tone probe keeps the narrowband steering model exact off-axis
        from sonarray.beamforming import GridSpec, doa_peaks, power_map
        from sonarray.signalmodel import sample_covariance

        tone = generate_chirp(ChirpSpec(f_start_hz=40_000.0, f_end_hz=40_000.0))
        target = ReflectorTarget(Direction(25.0, 0.0), 1.0)
        cap = synthesize_capture(geometry, target, tone, 10.0, rng_seed=21,
                                 window_s=0.02)
        delays, _ = echo_geometry(geometry, target)
        start = cap.emission_marker + int(round(delays.mean() * FS))
        block = demodulate_capture(cap, 40_000.0, gate=(start, start + len(tone)))
        R = sample_covariance(block)
        pmap = power_map(geometry, R, GridSpec(), 40_000.0,
                         beamformer="mvdr", loading=1e-3)
        (top, _), = doa_peaks(pmap, max_peaks=1, min_separation_deg=5.0)
        assert abs(top.azimuth_deg - 25.0) <= 2.0
        assert abs(top.elevation_deg - 0.0) <= 2.0

    def test_boresight_capture_yields_coherent_snapshots(self, geometry, template):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        cap = synthesize_capture(geometry, target, template, 40.0, rng_seed=4,
                                 window_s=0.02)
        delays, _ = echo_geometry(geometry, target)
        start = int(round(delays[0] * FS))
        block = demodulate_capture(cap, 40_000.0, gate=(start, start + len(template)))
        assert block.n_channels == 16
        assert block.n_snapshots == len(template)
        # at boresight every channel sees the same phase: snapshots align
        mid = block.samples[:, block.n_snapshots // 2]
        phases = np.angle(mid / mid[0])
        assert np.max(np.abs(phases)) < 0.2

    def test_gate_matches_full_length_filter(self, geometry, template):
        target = ReflectorTarget(Direction(20, 5), 1.0)
        cap = synthesize_capture(geometry, target, template, 30.0, rng_seed=4,
                                 window_s=0.02)
        n = cap.n_samples
        t = np.arange(n) / FS
        osc = np.exp(-2j * np.pi * 40_000.0 * t)
        taps = scipy.signal.firwin(DEMOD_NUMTAPS, DEMOD_CUTOFF_HZ, fs=FS)
        full = np.vstack([2.0 * np.convolve(tr.samples * osc, taps, mode="same")
                          for tr in cap.channels])
        for gate in [(0, 1), (0, 300), (30, 700), (2000, 2834), (n - 300, n),
                     (n - 1, n), None]:
            got = demodulate_capture(cap, 40_000.0, gate=gate).samples
            start, stop = (0, n) if gate is None else gate
            ref = full[:, start:stop]
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), gate

    def test_gate_validation(self, geometry, template):
        target = ReflectorTarget(Direction(0, 0), 1.0)
        cap = synthesize_capture(geometry, target, template, 40.0, rng_seed=4,
                                 window_s=0.02)
        with pytest.raises(ValueError):
            demodulate_capture(cap, 40_000.0, gate=(100, 50))
        with pytest.raises(ValueError):
            demodulate_capture(cap, 200_000.0)


class TestFileFormats:
    def test_pdm_round_trip(self, tmp_path):
        t = np.arange(2000) / FS
        stream = pdm_modulate(PcmTrace(0.4 * np.sin(2 * np.pi * 41e3 * t), FS),
                              rng_seed=6, channel=3)
        path = tmp_path / "ch03.pdm"
        save_pdm(stream, path)
        loaded = load_pdm(path)
        assert loaded.data == stream.data
        assert loaded.n_bits == stream.n_bits
        assert loaded.channel == 3
        assert loaded.rate_hz == stream.rate_hz
        assert path.stat().st_size == 24 + len(stream.data)

    def test_capture_invariants(self):
        with pytest.raises(ValueError):
            MultichannelCapture(channels=(PcmTrace(np.zeros(8), FS),
                                          PcmTrace(np.zeros(9), FS)),
                                emission_marker=0)
