import dataclasses
import hashlib
import io
import struct
import sys

import numpy as np
import pytest

from sonarray import acquisition, cli, pipeline, waveform
from sonarray.beamforming import GridSpec, power_map, psf, save_power_map_csv
from sonarray.cli import DEFAULTS, Config, main
from sonarray.framing import MAGIC, Frame, encode_frame, parse_stream
from sonarray.geometry import Direction, default_circular_array, geometry_fingerprint
from sonarray.signalmodel import PointSource, covariance_analytic
from sonarray.waveform import ChirpSpec


def run(argv):
    return main(argv)


def read_pcm(path):
    """(sample rate, samples) of a .pcm file, checked against the documented
    layout: magic, version u32, rate f64, length u64, zero pad to 32 bytes,
    little-endian, then float32 samples."""
    blob = path.read_bytes()
    magic, version, rate, length = struct.unpack("<4sIdQ", blob[:24])
    assert (magic, version, blob[24:32]) == (b"PCM1", 1, bytes(8))
    assert len(blob) == 32 + 4 * length
    return rate, np.frombuffer(blob[32:], dtype="<f4")


def make_stream(n_frames, spc=128, cc=16, corrupt=None):
    rng = np.random.default_rng(0)
    blobs = []
    for s in range(n_frames):
        payload = rng.integers(0, 256, cc * spc // 8, dtype=np.uint8).tobytes()
        blobs.append(bytearray(encode_frame(Frame(
            sequence=s, timestamp_ticks=s, samples_per_channel=spc,
            payload=payload, channel_count=cc))))
    if corrupt is not None:
        blobs[corrupt][30] ^= 0xFF
    return b"".join(bytes(b) for b in blobs)


class TestPsfCommand:
    def test_default_sources_write_six_pairs(self, tmp_path):
        rc = run(["psf", "--out", str(tmp_path),
                  "--set", "grid.az_step=3", "--set", "grid.el_step=3"])
        assert rc == 0
        assert len(list(tmp_path.glob("psf_*_*.csv"))) == 6
        assert len(list(tmp_path.glob("psf_*_metrics.txt"))) == 6
        assert len(list(tmp_path.glob("psf_*.pgm"))) == 6

    @pytest.mark.parametrize("setting, what", [("psf.sources=", "sources"),
                                               ("psf.beamformers=", "beamformers")])
    def test_empty_source_list_is_noop(self, tmp_path, capsys, setting, what):
        out = tmp_path / "out"
        assert run(["psf", "--out", str(out), "--set", setting]) == 0
        assert capsys.readouterr().err == f"psf: no {what} requested; nothing to do\n"
        assert not out.exists()

    def test_invalid_grid_step_names_field(self, tmp_path, capsys):
        rc = run(["psf", "--out", str(tmp_path), "--set", "grid.az_step=0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "grid.az_step" in captured.err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        for key in ("grid.typo", "bench.duration_s", "simulate.channel",
                    "chirp.sample_rate_hz"):
            rc = run(["psf", "--out", str(tmp_path), "--set", f"{key}=1"])
            assert rc == 2
            assert key in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["bench"])
        assert exc.value.code == 2

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            rc = run(["psf", "--out", str(tmp_path / sub),
                      "--set", "psf.sources=10,5",
                      "--set", "grid.az_step=5", "--set", "grid.el_step=5"])
            assert rc == 0
        for name in ("psf_az10_el5_bartlett.csv", "psf_az10_el5_mvdr.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_stock_run_passes_the_benchmark_psf_check(self, stock, tmp_path):
        # per map, as perfbench's psf_sweep checks: every CSV row ends in LF,
        # and the metrics' peak sits on the source node
        assert run(["psf", "--out", str(tmp_path)]) == 0
        az, el = stock.grid.axes()
        sources = [tuple(float(v) for v in pair.split(","))
                   for pair in DEFAULTS["psf.sources"].split(";")]
        beamformers = DEFAULTS["psf.beamformers"].split(",")
        assert len(list(tmp_path.glob("*.csv"))) == len(sources) * len(beamformers)
        for src_az, src_el in sources:
            for bf in beamformers:
                stem = f"psf_az{src_az:g}_el{src_el:g}_{bf}"
                blob = (tmp_path / f"{stem}.csv").read_bytes()
                assert blob.count(b"\n") == az.size * el.size + 1
                assert blob.endswith(b"\n")
                metrics = dict(line.split(" = ") for line in
                               (tmp_path / f"{stem}_metrics.txt").read_text().splitlines())
                assert float(metrics["peak_azimuth_deg"]) == src_az
                assert float(metrics["peak_elevation_deg"]) == src_el

    def test_set_override(self, tmp_path):
        rc = run(["psf", "--out", str(tmp_path), "--set", "psf.sources=0,0",
                  "--set", "grid.az_step=5", "--set", "grid.el_step=5",
                  "--set", "psf.beamformers=mvdr"])
        assert rc == 0
        assert len(list(tmp_path.glob("*.csv"))) == 1

    @pytest.mark.parametrize("flags", [["--psf.sources=0,0"], ["--seed", "3"]])
    def test_keys_are_set_only_by_set_or_config(self, tmp_path, flags):
        # --set key=value is the one override spelling; argparse refuses
        # any other flag before a handler runs
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["psf", "--out", str(out), *flags])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("sources,items", [
        ("10,5;10,5,4", "items 10.0,5.0,1.0 and 10.0,5.0,4.0"),
        ("10,5;10.0000001,5", "items 10.0,5.0,1.0 and 10.0000001,5.0,1.0"),
    ])
    def test_sources_that_name_the_same_files_exit_2_writing_nothing(
            self, tmp_path, capsys, sources, items):
        # files are named psf_az{az:g}_el{el:g}_<bf>, so these items would
        # overwrite each other's maps
        out = tmp_path / "out"
        assert run(["psf", "--out", str(out), "--set", f"psf.sources={sources}"]) == 2
        assert (capsys.readouterr().err
                == f"psf: psf.sources: {items} both write psf_az10_el5_*\n")
        assert not out.exists()


def analytic_map_csv(path, sources, beamformer, *settings):
    """``power_map`` of ``covariance_analytic`` over (az, el, power)
    sources at a config of the default keys plus ``settings``, written as
    CSV to ``path``; its bytes."""
    cfg = Config(dict(item.split("=", 1) for item in settings))
    frequency, c = cfg.get_float("frequency_hz"), cfg.get_float("c_mps")
    R = covariance_analytic(cfg.geometry(),
                            [PointSource(Direction(az, el), power) for az, el, power in sources],
                            cfg.get_float("psf.noise_power"), frequency, c)
    save_power_map_csv(power_map(cfg.geometry(), R, cfg.grid(), frequency, c,
                                 beamformer=beamformer), path)
    return path.read_bytes()


class TestScanCommand:
    SETTINGS = ("psf.sources=10,0;-40,5,2", "grid.az_step=5", "grid.el_step=5",
                "c_mps=1500", "frequency_hz=30000")

    def test_maps_all_sources_at_the_configured_frequency_and_speed(self, tmp_path):
        out = tmp_path / "out"
        assert run(["scan", "--out", str(out)]
                   + [arg for item in self.SETTINGS for arg in ("--set", item)]) == 0
        for bf in ("bartlett", "mvdr"):
            expected = analytic_map_csv(tmp_path / f"{bf}.csv", [(10, 0, 1.0), (-40, 5, 2.0)],
                                        bf, *self.SETTINGS)
            assert (out / f"scan_{bf}.csv").read_bytes() == expected
            assert (out / f"scan_{bf}.pgm").exists()
            assert (out / f"scan_{bf}.pgm.meta.txt").exists()
        # at a 5 cm wavelength on the 3 cm ring Bartlett merges the two
        # sources into one lobe, and MVDR resolves them
        peaks = [tuple(float(v) for v in line.split(",")[:2])
                 for line in (out / "scan_mvdr_peaks.txt").read_text().splitlines()]
        assert sorted(peaks) == [(-40.0, 5.0), (10.0, 0.0)]
        assert len((out / "scan_bartlett_peaks.txt").read_text().splitlines()) == 1

    def test_config_file_sources_match_set_overrides(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("psf.sources = 10,0;-40,5,2\ngrid.az_step = 5\ngrid.el_step = 5\n")
        assert run(["scan", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert run(["scan", "--out", str(tmp_path / "b"), "--set", "psf.sources=10,0;-40,5,2",
                    "--set", "grid.az_step=5", "--set", "grid.el_step=5"]) == 0
        for name in ("scan_bartlett.csv", "scan_mvdr.csv", "scan_mvdr_peaks.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("key", ["scene.file", "beamformer.kind"])
    def test_scene_file_and_single_beamformer_keys_are_unknown(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        assert run(["scan", "--out", str(out), "--set", f"{key}=mvdr"]) == 2
        assert f"{key}: unknown configuration key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["geometry.elements=8", "geometry.diameter_m=0.02"])
    def test_circle_keys_are_unknown(self, tmp_path, capsys, setting):
        # the array is the stock ring or a geometry.csv file; there is no
        # second way to state a ring
        out = tmp_path / "out"
        assert run(["psf", "--out", str(out), "--set", setting]) == 2
        key = setting.partition("=")[0]
        assert capsys.readouterr().err == f"psf: {key}: unknown configuration key\n"
        assert not out.exists()

    @pytest.mark.parametrize("setting, what", [("psf.sources=", "sources"),
                                               ("psf.beamformers= , ", "beamformers")])
    def test_empty_source_list_is_noop(self, tmp_path, capsys, setting, what):
        out = tmp_path / "out"
        assert run(["scan", "--out", str(out), "--set", setting]) == 0
        assert capsys.readouterr().err == f"scan: no {what} requested; nothing to do\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["psf", "scan"])
    def test_singular_covariance_is_runtime_error_writing_nothing(self, tmp_path, capsys,
                                                                  command):
        out = tmp_path / "out"
        rc = run([command, "--out", str(out), "--set", "psf.sources=0,0",
                  "--set", "psf.noise_power=0", "--set", "beamformer.loading=0",
                  "--set", "grid.az_step=5", "--set", "grid.el_step=5"])
        assert rc == 3
        assert "loading" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["psf", "scan"])
    def test_a_grid_too_fine_to_allocate_exits_3_writing_nothing(self, tmp_path, capsys,
                                                                 command):
        # 1e-12 degree steps ask for about 1.3 PiB, beyond any x86-64
        # address space, so the allocation fails without touching memory
        out = tmp_path / "out"
        assert run([command, "--out", str(out), "--set", "grid.az_step=1e-12"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

    def test_psf_source_power_is_the_items_third_value(self, stock, tmp_path):
        out = tmp_path / "out"
        settings = ("grid.az_step=5", "grid.el_step=5")
        assert run(["psf", "--out", str(out), "--set", "psf.sources=10,5,4"]
                   + [arg for item in settings for arg in ("--set", item)]) == 0
        grid = Config(dict(item.split("=", 1) for item in settings)).grid()
        s = stock.sensor
        for bf in ("bartlett", "mvdr"):
            pmap, _ = psf(s.geometry, Direction(10, 5), 4.0, float(DEFAULTS["psf.noise_power"]),
                          grid, s.frequency_hz, s.c_mps, beamformer=bf)
            save_power_map_csv(pmap, tmp_path / f"{bf}.csv")
            assert ((out / f"psf_az10_el5_{bf}.csv").read_bytes()
                    == (tmp_path / f"{bf}.csv").read_bytes())


class TestGeometryKeys:
    def test_default_is_stock_array(self):
        # the config table is the one statement of the paper's sensor: 16
        # PDM microphones at 4.45 MHz share a 480 Mb/s USB high-speed link,
        # x16 decimation gives 278 125 Hz PCM, and the 36-44 kHz, 3 ms sweep
        # is steered at its 40 kHz centre over a 1 degree hemisphere grid
        cfg = Config({})
        sensor = cfg.sensor()
        assert sensor.geometry.n_elements * sensor.pdm_rate_hz == 71_200_000 < 480_000_000
        assert (sensor.pdm_rate_hz, sensor.factor) == (4_450_000, 16)
        assert sensor.chirp.sample_rate_hz == 278_125  # 4 450 000 / 16 exactly
        assert sensor.frequency_hz == 40_000
        assert cfg.chirp_spec() == ChirpSpec(f_start_hz=36_000.0, f_end_hz=44_000.0,
                                             duration_s=0.003, sample_rate_hz=278_125.0)
        assert cfg.grid() == GridSpec(az_start_deg=-90.0, az_stop_deg=90.0, az_step_deg=1.0,
                                     el_start_deg=-90.0, el_stop_deg=90.0, el_step_deg=1.0)
        # without geometry.csv the array is default_circular_array(), the
        # layout whose geometry_sha256 the benchmark records
        assert (geometry_fingerprint(sensor.geometry)
                == geometry_fingerprint(default_circular_array()))

    @pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf"])
    def test_non_finite_csv_coordinate_exits_2(self, tmp_path, capsys, coordinate):
        path = tmp_path / "layout.csv"
        path.write_text("x_m,y_m,z_m,index\n0.015,0,0,0\n"
                        f"0,{coordinate},0,1\n-0.015,0,0,2\n")
        out = tmp_path / "out"
        rc = run(["psf", "--out", str(out), "--set", f"geometry.csv={path}"])
        assert rc == 2
        assert "geometry.csv: element 1 position must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, line, message", [
        ("0.015,0,0,0\n0,0.015,0\n", 3, "expected 4 values, got 3"),
        ("0.015,0,0,0\n0,abc,0,1\n", 3, "could not convert string to float: 'abc'"),
        ("0.015,0,0,0\n0,0.015,0,1.5\n", 3, "invalid literal for int()"),
        ("0.015,0,0,0\n0,0.015,0,0\n-0.015,0,0,7\n0,-0.015,0,3\n", 3,
         "index 0 repeats line 2"),
        ("0.015,0,0,0\n0,0.015,0,1\n-0.015,0,0,7\n0,-0.015,0,3\n", 4,
         "index 7 outside 0..3 for 4 rows"),
    ])
    def test_bad_csv_row_exits_2_naming_its_line(self, tmp_path, capsys, rows, line, message):
        path = tmp_path / "layout.csv"
        path.write_text("x_m,y_m,z_m,index\n" + rows)
        out = tmp_path / "out"
        rc = run(["psf", "--out", str(out), "--set", f"geometry.csv={path}"])
        assert rc == 2
        assert f"geometry.csv: {path}:{line}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_key_is_unknown(self, tmp_path, capsys):
        rc = run(["psf", "--out", str(tmp_path), "--set", "geometry.preset=circular16"])
        assert rc == 2
        assert "geometry.preset" in capsys.readouterr().err


class TestChirpCommand:
    def test_writes_pcm_and_csv(self, tmp_path):
        rc = run(["chirp", "--out", str(tmp_path)])
        assert rc == 0
        rate, samples = read_pcm(tmp_path / "chirp.pcm")
        assert rate == 278_125.0
        assert len(samples) == 834
        lines = (tmp_path / "chirp.csv").read_text().splitlines()
        assert lines[0] == "time_s,amplitude"
        assert len(lines) == 835


def simulate_and_localize(out, *settings):
    """Run simulate then localize into ``out``; the ranges.csv data lines."""
    sets = [arg for item in settings for arg in ("--set", item)]
    assert run(["simulate", "--out", str(out)] + sets) == 0
    assert run(["localize", str(out / "stream.bin"), "--out", str(out)] + sets) == 0
    return (out / "ranges.csv").read_text().splitlines()[1:]


class TestSimulateCommand:
    # the pure sigma-delta loop costs ~1.5 s per ping, so these runs are
    # one or two pings long

    @pytest.fixture(scope="class")
    def two_pings(self, tmp_path_factory):
        """0.29 s at 10 Hz: two pings, simulated and localized."""
        out = tmp_path_factory.mktemp("two_pings")
        return out, simulate_and_localize(out, "simulate.duration_s=0.29")

    def test_short_run_rows_and_examples(self, two_pings):
        out, rows = two_pings
        assert len(rows) == 2
        assert all(abs(float(row.split(",")[4]) - 1.0) <= 0.002 for row in rows)
        transmit = (out / "transmit.csv").read_text().splitlines()
        received = (out / "received.csv").read_text().splitlines()
        assert (transmit[0], received[0]) == ("time_s,amplitude", "time_s,amplitude")
        assert (len(transmit), len(received)) == (1 + 834, 1 + 13906)  # 3 ms, 50 ms

    def test_ping_count_floors_duration_times_rate(self, two_pings):
        out, rows = two_pings
        events, stats = parse_stream((out / "stream.bin").read_bytes())
        assert stats.frames_ok == len(events) == 2 * 16
        assert sorted({e.timestamp_ticks // 445_000 for e in events}) == [0, 1]
        assert [row.split(",")[:2] for row in rows] == [["0", "0.000000"],
                                                        ["1", "0.100000"]]

    @pytest.mark.parametrize("setting", [
        "simulate.noise_db=inf",  # a noiseless run
        "decode.rate_hz=4450001",  # a PDM clock no multiple of 278 125 Hz
    ])
    def test_one_ping_localizes_at_boresight(self, tmp_path, setting):
        rows = simulate_and_localize(tmp_path, "simulate.duration_s=0.1", setting)
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert abs(float(fields[4]) - 1.0) <= 0.002
        assert (float(fields[7]), float(fields[8])) == (0.0, 0.0)

    def test_pcm_rate_follows_the_decimation_factor(self, two_pings, tmp_path):
        # the probe is resampled at decode.rate_hz / decode.factor, so a
        # stock stream localizes at any factor that splits the window
        out, _ = two_pings
        assert run(["localize", str(out / "stream.bin"), "--out", str(tmp_path),
                    "--set", "decode.factor=8"]) == 0
        rows = [row.split(",") for row in (tmp_path / "ranges.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        assert all(abs(float(row[4]) - 1.0) <= 0.002 for row in rows)
        assert all((float(row[7]), float(row[8])) == (0.0, 0.0) for row in rows)

    def test_carrier_is_the_sweep_centre(self, tmp_path):
        # a 26-34 kHz probe is demodulated and steered at 30 kHz, while
        # frequency_hz stays at 40 kHz
        rows = simulate_and_localize(
            tmp_path, "simulate.duration_s=0.2", "chirp.f_start_hz=26000",
            "chirp.f_end_hz=34000", "simulate.azimuth_deg=30", "simulate.elevation_deg=10")
        assert [row.split(",")[7:] for row in rows] == [["30", "10"]] * 2

    def test_seed_is_set_as_a_key(self, tmp_path):
        # the stream --seed 3 wrote before --set seed=N became the one spelling
        assert run(["simulate", "--out", str(tmp_path), "--set", "seed=3",
                    "--set", "simulate.duration_s=0.1"]) == 0
        assert hashlib.sha256((tmp_path / "stream.bin").read_bytes()).hexdigest() == (
            "4e8a6fb44e1d04218471593df154f8f61656046fdcf928e935b3f4fea0eb6d69")

    def test_a_later_ping_past_full_scale_exits_3_naming_it(self, tmp_path, capsys):
        # at seed 1984 ping 0 passes the check made before any output, and
        # ping 1 (seed 2048) crosses full scale: ping 0's frames stay
        out = tmp_path / "out"
        assert run(["simulate", "--out", str(out), "--set", "seed=1984",
                    "--set", "simulate.noise_db=10", "--set", "simulate.range_m=0.6",
                    "--set", "simulate.duration_s=0.2"]) == 3
        assert capsys.readouterr().err == (
            "simulate: ping 1: samples must lie within [-1, 1] full scale\n")
        events, stats = parse_stream((out / "stream.bin").read_bytes())
        assert stats.frames_ok == len(events) == 16
        assert {e.timestamp_ticks // 445_000 for e in events} == {0}

    def test_zero_duration_writes_header_only(self, tmp_path):
        assert simulate_and_localize(tmp_path, "simulate.duration_s=0") == []
        assert (tmp_path / "stream.bin").read_bytes() == b""
        assert not (tmp_path / "received.csv").exists()


class TestDecodeCommand:
    def test_clean_stream(self, tmp_path, capsys):
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(make_stream(100))
        rc = run(["decode", str(stream_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frames_ok=100" in out
        assert "frames_lost=0" in out
        assert len(list((tmp_path / "out").glob("ch*.pdm"))) == 16

    def test_corrupted_frame_reported(self, tmp_path, capsys):
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(make_stream(100, corrupt=42))
        rc = run(["decode", str(stream_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frames_ok=99" in out
        assert "crc_mismatch=1" in out

    def test_decimate_flag_writes_pcm(self, tmp_path):
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(make_stream(40, spc=128))
        rc = run(["decode", str(stream_path), "--out", str(tmp_path / "out"),
                  "--set", "decode.decimate=true"])
        assert rc == 0
        pcm_files = sorted((tmp_path / "out").glob("ch*.pcm"))
        assert len(pcm_files) == 16
        rate, samples = read_pcm(pcm_files[0])
        assert rate == 4_450_000.0 / 16
        assert len(samples) == 40 * 128 // 16

    def test_pdm_files_hold_each_channels_bits_in_frame_order(self, tmp_path):
        data = make_stream(3, spc=128)  # 16 bytes per channel per frame
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(data)
        assert run(["decode", str(stream_path), "--out", str(tmp_path / "out")]) == 0
        frames, _ = parse_stream(data)
        for ch in range(16):
            blob = (tmp_path / "out" / f"ch{ch:02d}.pdm").read_bytes()
            assert struct.unpack("<4sHdHQ", blob[:24]) == (b"PDM1", 1, 4_450_000.0, ch, 384)
            assert blob[24:] == b"".join(f.payload[16 * ch:16 * (ch + 1)] for f in frames)

    def test_channel_count_change_is_runtime_error(self, tmp_path, capsys):
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(b"".join(
            encode_frame(Frame(sequence=s, timestamp_ticks=128 * s, samples_per_channel=128,
                               payload=bytes(cc * 16), channel_count=cc))
            for s, cc in enumerate((16, 8, 16))))
        rc = run(["decode", str(stream_path), "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "frame 1 has 8 channels, earlier frames 16" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("decimate", ["false", "true"])
    def test_a_stream_of_junk_only_writes_no_channel(self, tmp_path, capsys, decimate):
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(bytes(range(1, 200)))  # no magic anywhere
        out = tmp_path / "out"
        assert run(["decode", str(stream_path), "--out", str(out),
                    "--set", f"decode.decimate={decimate}"]) == 0
        assert capsys.readouterr().out == (
            "frames_ok=0 frames_lost=0 resyncs=1 bytes_discarded=199 bad_magic=1\n")
        assert list(out.glob("ch*")) == []

    @pytest.mark.parametrize("command", ["decode", "localize"])
    @pytest.mark.parametrize("tail, summary", [
        ("cut", "frames_ok=31 frames_lost=0 resyncs=0 bytes_discarded=26840 truncated=1"),
        ("magic", "frames_ok=32 frames_lost=0 resyncs=0 bytes_discarded=3 truncated=1"),
    ], ids=["cut", "magic"])
    def test_the_bytes_a_stream_ends_with_are_counted(self, stock, tmp_path, capsys,
                                                      command, tail, summary):
        # two stock pings of 27 840-byte frames, the last frame cut 1000
        # bytes short, or followed by a magic that never completes
        payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
        blob = b"".join(encode_frame(frame) for ping in range(2)
                        for frame in pipeline.frame_window(stock.sensor, payloads, ping))
        blob = blob[:-1000] if tail == "cut" else blob + MAGIC[:3]
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(blob)
        assert run([command, str(stream_path), "--out", str(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line == summary
        counts = {name: int(count) for name, count in
                  (item.split("=") for item in line.split())}
        assert 27840 * counts["frames_ok"] + counts["bytes_discarded"] == len(blob)

    def test_stream_shorter_than_one_decimation_step_writes_nothing(self, tmp_path, capsys):
        stream_path = tmp_path / "stream.bin"
        stream_path.write_bytes(make_stream(1, spc=8))
        out = tmp_path / "out"
        assert run(["decode", str(stream_path), "--out", str(out),
                    "--set", "decode.decimate=true"]) == 3
        assert ("decode: 8 PDM bits per channel, fewer than one decimation step of 16"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "localize"])
    def test_unreadable_input(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run([command, str(tmp_path / "missing.bin"), "--out", str(out)]) == 2
        assert f"{command}: input: cannot read:" in capsys.readouterr().err
        assert not out.exists()

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        data = make_stream(5)
        monkeypatch.setattr(sys, "stdin",
                            type("S", (), {"buffer": io.BytesIO(data)})())
        rc = run(["decode", "-", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "frames_ok=5" in capsys.readouterr().out


class TestConfigFile:
    def test_config_file_plus_set_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\npsf.sources = 5,5\n"
                       "grid.az_step = 5\ngrid.el_step = 5\n")
        rc = run(["psf", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--set", "psf.beamformers=bartlett"])
        assert rc == 0
        files = list((tmp_path / "o").glob("*.csv"))
        assert len(files) == 1
        assert "bartlett" in files[0].name

    def test_malformed_line_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\npsf.sources 5,5\n")
        out = tmp_path / "o"
        assert run(["psf", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"psf: {cfg}:3: expected 'key = value'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = run(["psf", "--config", str(tmp_path / "none.cfg"),
                  "--out", str(tmp_path)])
        assert rc == 2


class TestBadConfigValues:
    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "simulate.duration_s", "-1"),
        ("simulate", "simulate.duration_s", "inf"),
        ("simulate", "simulate.rate_hz", "inf"),
        ("simulate", "simulate.strength", "2"),
        ("simulate", "simulate.azimuth_deg", "120"),
        ("simulate", "simulate.range_m", "9"),  # echo past the ping window
        ("simulate", "simulate.range_m", "0.45"),  # echo above full scale
        ("simulate", "simulate.noise_db", "-20"),  # noise above full scale
        ("psf", "psf.noise_power", "-1"),
        ("psf", "beamformer.loading", "-1"),
        ("psf", "psf.power", "inf"),
        ("psf", "frequency_hz", "inf"),
        ("psf", "c_mps", "inf"),
        ("psf", "grid.az_stop", "inf"),
        ("psf", "grid.el_start", "nan"),
        ("psf", "grid.az_stop", "1e308"),
        ("psf", "grid.el_start", "-200"),
        *((command, "psf.sources", value) for command in ("psf", "scan")
          for value in ("120,0", "10", "10,0,-1", "10,0,inf")),
        ("scan", "psf.noise_power", "-1"),
        ("scan", "frequency_hz", "inf"),
        ("scan", "c_mps", "inf"),
        ("chirp", "chirp.f_end_hz", "200000"),
        ("chirp", "chirp.f_start_hz", "-1"),
        ("chirp", "chirp.duration_s", "-1"),
        # a probe under one sample period, one of more samples than a float
        # holds, and one no ping window holds
        ("chirp", "chirp.duration_s", "1e-9"),
        ("chirp", "chirp.duration_s", "1e308"),
        ("simulate", "chirp.duration_s", "1e-9"),
        ("localize", "chirp.duration_s", "1e-9"),
        ("simulate", "chirp.duration_s", "0.06"),
        ("localize", "chirp.duration_s", "0.06"),
        ("simulate", "decode.factor", "10"),  # window bits do not split into frames
        pytest.param("chirp", "decode.factor", str(10 ** 309), id="factor-above-any-float"),
        ("decode", "decode.factor", "100000000"),  # a PCM rate below 1 Hz
        ("localize", "grid.az_step", "0"),
        ("psf", "c_mps", "abc"),
        ("simulate", "seed", "1.5"),
        ("simulate", "seed", "-1"),
        ("decode", "decode.decimate", "maybe"),
        ("decode", "decode.factor", "x"),
        ("chirp", "chirp.window", "kaiser"),
        ("psf", "psf.beamformers", "capon"),
    ])
    def test_exits_2_naming_the_key_before_any_output(self, tmp_path, capsys,
                                                       command, key, value):
        # localize and decode read a one-frame stream, which each would
        # otherwise turn into output
        stream = tmp_path / "stream.bin"
        stream.write_bytes(make_stream(1))
        out = tmp_path / "out"
        argv = [command] + ([str(stream)] if command in ("localize", "decode") else [])
        rc = run(argv + ["--out", str(out), "--set", f"{key}={value}"])
        assert rc == 2
        # the key appears, and its last part nowhere else
        err = capsys.readouterr().err
        assert key in err
        assert err.count(key.rpartition(".")[2]) == 1
        assert list(out.glob("*")) == []

    def test_a_set_without_a_value_exits_2_naming_it_once(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["psf", "--out", str(out), "--set", "grid.az_step"]) == 2
        assert capsys.readouterr().err == (
            "psf: --set: expected key=value, got 'grid.az_step'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["psf", "localize"])
    @pytest.mark.parametrize("axis", ["az", "el"])
    def test_a_stop_below_its_start_exits_2_naming_the_stop_key_once(
            self, tmp_path, capsys, command, axis):
        stream = tmp_path / "stream.bin"
        stream.write_bytes(make_stream(1))
        out = tmp_path / "out"
        argv = [command] + ([str(stream)] if command == "localize" else [])
        assert run(argv + ["--out", str(out), "--set", f"grid.{axis}_start=10",
                           "--set", f"grid.{axis}_stop=0"]) == 2
        err = capsys.readouterr().err
        assert err == f"{command}: grid.{axis}_stop: must be >= the start, 10.0\n"
        assert err.count(f"grid.{axis}_stop") == 1 and "_deg" not in err
        assert not out.exists()

    def test_every_field_keys_entry_is_a_field_the_library_checks(self):
        checked = (GridSpec, ChirpSpec, Direction, acquisition.ReflectorTarget, pipeline.Sensor)
        fields = {field.name for cls in checked for field in dataclasses.fields(cls)}
        assert sorted(set(cli.FIELD_KEYS) - fields) == []
        assert sorted(set(cli.FIELD_KEYS.values()) - set(DEFAULTS)) == []

    def test_the_sensor_reads_no_grid_key(self, tmp_path):
        # simulate never scans, so a grid no scan could use refuses no run of it
        Config({"grid.az_step": "0"}).sensor()
        assert run(["simulate", "--out", str(tmp_path), "--set", "simulate.duration_s=0",
                    "--set", "grid.az_step=0"]) == 0

    @pytest.mark.parametrize("command", ["simulate", "localize"])
    def test_a_probe_the_window_cannot_hold_is_refused_before_it_is_sampled(
            self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("generate_chirp was called")

        for module in (cli, waveform):
            monkeypatch.setattr(module, "generate_chirp", refuse)
        stream = tmp_path / "stream.bin"
        stream.write_bytes(make_stream(1))
        argv = [command] + ([str(stream)] if command == "localize" else [])
        assert run(argv + ["--out", str(tmp_path / "out"),
                           "--set", "chirp.duration_s=0.06"]) == 2
        assert "chirp.duration_s: gives a 16687-sample probe" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "localize"])
    def test_a_pcm_rate_the_demodulation_low_pass_would_alias_exits_2(self, tmp_path, capsys,
                                                                      command):
        # 278 128 Hz / 16 is a 17 383 Hz PCM rate, not above twice the 10 kHz
        # cutoff; a 3-4 kHz probe is valid there, so only the low-pass refuses it
        stream = tmp_path / "stream.bin"
        stream.write_bytes(make_stream(1))
        out = tmp_path / "out"
        argv = [command] + ([str(stream)] if command == "localize" else [])
        for setting in ("decode.rate_hz=278128", "chirp.f_start_hz=3000",
                        "chirp.f_end_hz=4000", "simulate.duration_s=0.2"):
            argv += ["--set", setting]
        assert run(argv + ["--out", str(out)]) == 2
        assert (f"{command}: decode.factor: 16 gives a 17383 Hz PCM rate, not above twice "
                f"the 10000 Hz cutoff" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "localize"])
    @pytest.mark.parametrize("elements, rate_hz, key, message", [
        (6, 4_450_000, "geometry.csv", "has 6 elements, so a frame's 6 x 13906 PDM bits "
                                       "are not whole bytes"),
        (256, 4_450_000, "geometry.csv", "has 256 elements, more than the 255 channels"),
        (16, 200_000_000, "decode.rate_hz", "2e+08 gives frames of 1250000 bytes, more "
                                            "than the 1048576"),
    ], ids=["6-elements", "256-elements", "200-MHz"])
    def test_a_window_no_frame_can_carry_is_refused_before_it_is_sampled(
            self, tmp_path, capsys, monkeypatch, command, elements, rate_hz, key, message):
        # a ring whose frames are not whole bytes, one of more channels than
        # the header's byte counts, and a PDM clock whose frames outgrow
        # MAX_PAYLOAD: each exits 2 before the probe is sampled
        def refuse(*args, **kwargs):
            raise AssertionError("generate_chirp was called")

        for module in (cli, waveform):
            monkeypatch.setattr(module, "generate_chirp", refuse)
        angles = 2 * np.pi * np.arange(elements) / elements
        layout = tmp_path / "layout.csv"
        layout.write_text("x_m,y_m,z_m,index\n" + "".join(
            f"{0.015 * np.cos(a):.9g},{0.015 * np.sin(a):.9g},0,{i}\n"
            for i, a in enumerate(angles)))
        stream = tmp_path / "stream.bin"
        stream.write_bytes(make_stream(1))
        out = tmp_path / "out"
        argv = [command] + ([str(stream)] if command == "localize" else [])
        assert run(argv + ["--out", str(out), "--set", f"geometry.csv={layout}",
                           "--set", f"decode.rate_hz={rate_hz}"]) == 2
        assert f"{command}: {key}: {message}" in capsys.readouterr().err
        assert not out.exists()
