import dataclasses
import math
import struct

import numpy as np
import pytest
import scipy.signal

from sonarray.errors import UnreliableEstimateError
from sonarray.waveform import (PcmTrace, chirp_samples_at, estimate_range,
                               generate_chirp, matched_filter, save_pcm,
                               save_trace_csv)


def zero_crossing_frequency(samples, sample_rate, crossings):
    """Mean zero-crossing spacing over a short run maps to frequency."""
    idx = np.where(np.diff(np.signbit(samples)))[0]
    gaps = np.diff(idx[crossings])
    return sample_rate / (2.0 * gaps.mean())


class TestChirpSpec:
    @pytest.mark.parametrize("kwargs", [
        {"f_start_hz": 150_000.0},          # above Nyquist
        {"f_end_hz": 0.0},
        {"duration_s": 0.0},
        {"duration_s": 3.5e-6},             # under one 1/278 125 s sample period
        {"duration_s": math.nan},
        {"duration_s": 1e308},              # a sample count no float holds
        {"sample_rate_hz": -1.0},
    ])
    def test_invalid_specs(self, stock, kwargs):
        with pytest.raises(ValueError):
            dataclasses.replace(stock.spec, **kwargs)

    def test_one_sample_period_gives_one_sample(self, stock):
        spec = dataclasses.replace(stock.spec, duration_s=3.6e-6)
        assert len(generate_chirp(spec)) == 1


class TestGenerateChirp:
    def test_sample_count(self, stock):
        fs = stock.spec.sample_rate_hz
        trace = generate_chirp(stock.spec)
        assert len(trace) == int(math.floor(0.003 * fs))  # 834

    def test_endpoint_frequencies_by_zero_crossings(self, stock):
        fs = stock.spec.sample_rate_hz
        trace = generate_chirp(stock.spec)
        f0 = zero_crossing_frequency(trace.samples, fs, slice(None, 11))
        f1 = zero_crossing_frequency(trace.samples, fs, slice(-11, None))
        assert abs(f0 - 36_000.0) <= 0.02 * 36_000.0
        assert abs(f1 - 44_000.0) <= 0.02 * 44_000.0

    def test_zero_sweep_is_pure_tone(self, stock):
        fs = stock.spec.sample_rate_hz
        spec = dataclasses.replace(stock.spec, f_start_hz=40_000.0, f_end_hz=40_000.0)
        trace = generate_chirp(spec)
        t = np.arange(len(trace)) / fs
        assert np.max(np.abs(trace.samples - np.sin(2 * np.pi * 40_000.0 * t))) < 1e-12

    def test_energy_without_window(self, stock):
        trace = generate_chirp(stock.spec)
        energy = float(np.sum(trace.samples ** 2))
        assert abs(energy - len(trace) / 2) <= 0.01 * len(trace) / 2

    def test_hann_window_tapers_ends(self, stock):
        trace = generate_chirp(stock.spec, window="hann")
        assert abs(trace.samples[0]) < 1e-12
        assert np.max(np.abs(trace.samples)) <= 1.0

    def test_unknown_window(self, stock):
        with pytest.raises(ValueError):
            generate_chirp(stock.spec, window="hamming")

    def test_samples_at_is_zero_outside_sweep(self, stock):
        vals = chirp_samples_at(stock.spec, np.array([-1e-6, 0.0, 0.0031]))
        assert vals[0] == 0.0 and vals[2] == 0.0


class TestMatchedFilter:
    def test_autocorrelation_peaks_at_zero(self, stock):
        trace = generate_chirp(stock.spec)
        out = matched_filter(trace, trace)
        assert int(np.argmax(out.samples)) == 0
        assert len(out) == len(trace)

    def test_delayed_copy_peaks_at_delay(self, stock):
        fs = stock.spec.sample_rate_hz
        template = generate_chirp(stock.spec)
        padded = np.zeros(len(template) + 500)
        padded[100:100 + len(template)] = template.samples
        out = matched_filter(PcmTrace(padded, fs), template)
        assert int(np.argmax(out.samples)) == 100

    def test_noisy_delay_recovered_within_one_sample(self, stock):
        fs = stock.spec.sample_rate_hz
        # pulse compression gain ~ 10*log10(T*B) ~ 13.8 dB rescues -10 dB SNR
        template = generate_chirp(stock.spec)
        rng = np.random.default_rng(2024)
        n = 4000
        clean = np.zeros(n)
        clean[700:700 + len(template)] = template.samples
        noisy = clean + rng.normal(0.0, math.sqrt(5.0), n)  # -10 dB per sample
        out = matched_filter(PcmTrace(noisy, fs), template)
        assert abs(int(np.argmax(out.samples)) - 700) <= 1

    def test_linearity(self, stock):
        fs = stock.spec.sample_rate_hz
        template = generate_chirp(stock.spec)
        n = 4000
        a = np.zeros(n)
        a[200:200 + len(template)] = template.samples
        b = np.zeros(n)
        b[1800:1800 + len(template)] = 0.5 * template.samples
        out_sum = matched_filter(PcmTrace(a + b, fs), template)
        sep = (matched_filter(PcmTrace(a, fs), template).samples
               + matched_filter(PcmTrace(b, fs), template).samples)
        assert np.max(np.abs(out_sum.samples - sep)) <= 1e-9

    def test_hann_template_lowers_far_sidelobes(self, stock):
        fs = stock.spec.sample_rate_hz
        rect = generate_chirp(stock.spec)
        hann = generate_chirp(stock.spec, window="hann")
        n = 6000
        lobe_clear = int(3 * fs / 8_000.0)  # 3 compressed-pulse widths

        def far_sidelobe(template):
            padded = np.zeros(n)
            padded[2500:2500 + len(template)] = template.samples
            out = matched_filter(PcmTrace(padded, fs), template).samples
            peak_idx = int(np.argmax(out))
            mask = np.abs(np.arange(n) - peak_idx) > lobe_clear
            return np.max(np.abs(out[mask])) / out[peak_idx]

        assert far_sidelobe(hann) < far_sidelobe(rect)

    @pytest.mark.parametrize("window", ["none", "hann"])
    def test_matches_the_full_convolution(self, stock, window):
        # the rfft product against scipy's fftconvolve with the reversed
        # template, sliced from lag 0, relative to the largest output
        fs = stock.spec.sample_rate_hz
        template = generate_chirp(stock.spec, window=window)
        m = len(template)
        rng = np.random.default_rng(5)
        for n in (1, m - 1, m, 13_906):
            x = rng.standard_normal(n)
            full = scipy.signal.fftconvolve(x, template.samples[::-1], mode="full")
            got = matched_filter(PcmTrace(x, fs), template).samples
            error = np.max(np.abs(got - full[m - 1:m - 1 + n]))
            assert error <= 1e-12 * np.max(np.abs(full)), n

    def test_rate_mismatch_rejected(self, stock):
        template = generate_chirp(stock.spec)
        other = PcmTrace(np.zeros(100), 96_000.0)
        with pytest.raises(ValueError):
            matched_filter(other, template)

    def test_empty_template_rejected(self, stock):
        fs = stock.spec.sample_rate_hz
        trace = generate_chirp(stock.spec)
        with pytest.raises(ValueError):
            matched_filter(trace, PcmTrace(np.zeros(0), fs))


class TestEstimateRange:
    def synthesize(self, spec, range_m=1.0, n=8000, emission=0, c=343.0):
        fs = spec.sample_rate_hz
        t = np.arange(n) / fs
        delay = 2.0 * range_m / c
        received = chirp_samples_at(spec, t - emission / fs - delay)
        return received, generate_chirp(spec), delay

    def test_one_meter_reflector(self, stock):
        fs = stock.spec.sample_rate_hz
        received, template, delay = self.synthesize(stock.spec, 1.0)
        out = matched_filter(PcmTrace(received, fs), template)
        est = estimate_range(out, 0, stock.sensor.c_mps, template_length=len(template))
        # true two-way delay 2/343 s -> lag 1621.7 at this rate
        assert abs(int(np.argmax(out.samples)) - delay * fs) <= 1.0
        assert abs(est.range_m - 1.0) <= 0.001
        assert est.peak_to_noise_db > 20.0

    def test_zero_delay_from_interior_marker(self, stock):
        fs = stock.spec.sample_rate_hz
        spec = stock.spec
        template = generate_chirp(spec)
        n = 8000
        trace = np.zeros(n)
        trace[2000:2000 + len(template)] = template.samples
        out = matched_filter(PcmTrace(trace, fs), template)
        est = estimate_range(out, 2000, stock.sensor.c_mps, template_length=len(template))
        assert est.delay_s == 0.0
        assert est.range_m == 0.0

    def test_truncated_echo_rejected(self, stock):
        fs = stock.spec.sample_rate_hz
        spec = stock.spec
        template = generate_chirp(spec)
        n = 3000
        trace = np.zeros(n)
        start = n - len(template) // 2  # echo runs off the end
        tail = template.samples[:n - start]
        trace[start:] = tail
        out = matched_filter(PcmTrace(trace, fs), template)
        with pytest.raises(UnreliableEstimateError):
            estimate_range(out, 0, stock.sensor.c_mps, template_length=len(template))

    def test_peak_before_emission_rejected(self, stock):
        fs = stock.spec.sample_rate_hz
        received, template, _ = self.synthesize(stock.spec, 1.0)
        out = matched_filter(PcmTrace(received, fs), template)
        with pytest.raises(UnreliableEstimateError):
            estimate_range(out, 7000, stock.sensor.c_mps, template_length=len(template))

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_round_trip_identity_with_noise(self, stock, snr_db):
        fs = stock.spec.sample_rate_hz
        rng = np.random.default_rng(int(snr_db) + 1)
        received, template, delay = self.synthesize(stock.spec, 0.8)
        sigma = 10.0 ** (-snr_db / 20.0)
        noisy = received + sigma * rng.standard_normal(received.size)
        out = matched_filter(PcmTrace(noisy, fs), template)
        est = estimate_range(out, 0, stock.sensor.c_mps, template_length=len(template))
        tolerance = 343.0 / (2 * fs) + 0.001
        assert abs(est.range_m - 0.8) <= tolerance


class TestPcmFiles:
    def test_round_trip(self, stock, tmp_path):
        trace = generate_chirp(stock.spec)
        path = tmp_path / "probe.pcm"
        save_pcm(trace, path)
        # documented layout: magic, version u32, rate f64, length u64, zero
        # pad to 32 bytes, little-endian, then float32 samples
        blob = path.read_bytes()
        assert struct.unpack("<4sIdQ", blob[:24]) == (b"PCM1", 1, trace.sample_rate_hz,
                                                     len(trace))
        assert blob[24:32] == bytes(8)
        samples = np.frombuffer(blob[32:], dtype="<f4")
        assert np.array_equal(samples, trace.samples.astype(np.float32))
        assert np.max(np.abs(samples - trace.samples)) < 1e-6  # float32 storage

    def test_csv_export(self, tmp_path):
        trace = PcmTrace(np.array([0.0, 0.5, -0.25]), 1000.0)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,amplitude"
        assert len(lines) == 4
        assert lines[1].startswith("0.000000000,")

    def test_csv_bytes_match_per_sample_writer(self, stock, tmp_path):
        def per_sample_csv(trace, path):
            with open(path, "w", newline="") as fh:
                fh.write("time_s,amplitude\n")
                for n, v in enumerate(trace.samples):
                    fh.write(f"{n / trace.sample_rate_hz:.9f},{v:.8g}\n")

        edge = np.array([0.0, -0.0, 1e-300, -5e-324, 1e300, 0.5, -0.25, 1.0 / 3.0])
        noise = np.random.default_rng(5).standard_normal(9_000) * 1e-3  # > one write block
        for trace in (generate_chirp(stock.spec), PcmTrace(edge, 1000),
                      PcmTrace(noise, 278_125.0), PcmTrace(np.array([]), 7.0)):
            save_trace_csv(trace, tmp_path / "fast.csv")
            per_sample_csv(trace, tmp_path / "ref.csv")
            blob = (tmp_path / "fast.csv").read_bytes()
            assert blob == (tmp_path / "ref.csv").read_bytes()
            assert blob.count(b"\n") == len(trace) + 1
