import io
import struct
import sys

import numpy as np
import pytest

from sonarray.beamforming import GridSpec
from sonarray.cli import DEFAULTS, Config, main
from sonarray.framing import Frame, encode_frame, parse_stream
from sonarray.geometry import default_circular_array, geometry_fingerprint


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

    def test_empty_source_list_is_noop(self, tmp_path, capsys):
        rc = run(["psf", "--out", str(tmp_path), "--set", "psf.sources="])
        assert rc == 0
        assert list(tmp_path.glob("*.csv")) == []

    def test_invalid_grid_step_names_field(self, tmp_path, capsys):
        rc = run(["psf", "--out", str(tmp_path), "--set", "grid.az_step=0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "grid.az_step" in captured.err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        for key in ("grid.typo", "bench.duration_s", "simulate.channel"):
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

    def test_stock_run_passes_the_benchmark_psf_check(self, tmp_path):
        # per map, as perfbench's psf_sweep checks: every CSV row ends in LF,
        # and the metrics' peak sits on the source node
        assert run(["psf", "--out", str(tmp_path)]) == 0
        az, el = GridSpec().axes()
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

    def test_dotted_flag_override(self, tmp_path):
        rc = run(["psf", "--out", str(tmp_path), "--psf.sources=0,0",
                  "--grid.az_step=5", "--grid.el_step=5",
                  "--psf.beamformers=mvdr"])
        assert rc == 0
        assert len(list(tmp_path.glob("*.csv"))) == 1


class TestScanCommand:
    def test_scene_scan(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "frequency_hz = 40000\nc_mps = 343\nnoise_power = 0.01\n"
            "desired.azimuth_deg = 10\ndesired.elevation_deg = 0\ndesired.power = 1\n"
            "interferer.azimuth_deg = -40\ninterferer.elevation_deg = 5\n"
            "interferer.power = 2\n")
        rc = run(["scan", "--out", str(tmp_path), "--set", f"scene.file={scene}",
                  "--set", "grid.az_step=2", "--set", "grid.el_step=2"])
        assert rc == 0
        assert (tmp_path / "scan.csv").exists()
        assert (tmp_path / "scan.pgm").exists()
        peaks = (tmp_path / "scan_peaks.txt").read_text().splitlines()
        assert len(peaks) >= 2

    def test_missing_scene_file_is_config_error(self, tmp_path, capsys):
        rc = run(["scan", "--out", str(tmp_path)])
        assert rc == 2
        assert "scene.file" in capsys.readouterr().err

    def test_misspelled_scene_key_is_config_error(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "frequency_hz = 40000\nnoise_pwr = 0.5\n"
            "desired.azimuth_deg = 0\ndesired.elevation_deg = 0\n"
            "desired.power = 1\n")
        rc = run(["scan", "--out", str(tmp_path), "--set", f"scene.file={scene}"])
        assert rc == 2
        assert "noise_pwr" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("desired.azimuth_deg", "120"),
        ("desired.elevation_deg", "nan"),
        ("desired.power", "-1"),
        ("interferer.azimuth_deg", "-95"),
        ("interferer.power", "inf"),
        ("noise_power", "-0.5"),
        ("frequency_hz", "inf"),
        ("frequency_hz", "0"),
        ("c_mps", "0"),
        ("c_mps", "-343"),
    ])
    def test_bad_scene_value_exits_2_naming_the_key_once(self, tmp_path, capsys,
                                                          key, value):
        lines = {"frequency_hz": "40000", "c_mps": "343", "noise_power": "0.01",
                 "desired.azimuth_deg": "10", "desired.elevation_deg": "0",
                 "desired.power": "1", "interferer.azimuth_deg": "-40",
                 "interferer.elevation_deg": "5", "interferer.power": "2"}
        lines[key] = value
        scene = tmp_path / "scene.txt"
        scene.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        out = tmp_path / "out"
        rc = run(["scan", "--out", str(out), "--set", f"scene.file={scene}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err
        assert err.count(key.rpartition(".")[2]) == 1
        assert not out.exists()

    def test_singular_covariance_is_runtime_error(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "frequency_hz = 40000\nnoise_power = 0\n"
            "desired.azimuth_deg = 0\ndesired.elevation_deg = 0\n"
            "desired.power = 0\n")
        rc = run(["scan", "--out", str(tmp_path), "--set", f"scene.file={scene}",
                  "--set", "beamformer.loading=0"])
        assert rc == 3
        assert "loading" in capsys.readouterr().err


class TestGeometryKeys:
    def test_circle_keys_take_effect(self):
        g = Config({"geometry.elements": "8", "geometry.diameter_m": "0.02"}).geometry()
        assert g.n_elements == 8
        assert np.allclose(np.linalg.norm(g.elements, axis=1), 0.01)

    def test_default_is_stock_array(self):
        assert (geometry_fingerprint(Config({}).geometry())
                == geometry_fingerprint(default_circular_array()))

    def test_csv_wins_over_circle_keys(self, tmp_path):
        path = tmp_path / "layout.csv"
        path.write_text("x_m,y_m,z_m,index\n0.015,0,0,0\n0,0.015,0,1\n"
                        "-0.015,0,0,2\n0,-0.015,0,3\n")
        g = Config({"geometry.csv": str(path), "geometry.elements": "8"}).geometry()
        assert g.n_elements == 4

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

    def test_infinite_snr_is_a_noiseless_run(self, tmp_path):
        rows = simulate_and_localize(tmp_path, "simulate.duration_s=0.1",
                                     "simulate.noise_db=inf")
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert abs(float(fields[4]) - 1.0) <= 0.002
        assert (float(fields[7]), float(fields[8])) == (0.0, 0.0)

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

    def test_unreadable_input(self, tmp_path, capsys):
        rc = run(["decode", str(tmp_path / "missing.bin"), "--out", str(tmp_path)])
        assert rc == 2

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
        ("psf", "psf.noise_power", "-1"),
        ("psf", "beamformer.loading", "-1"),
        ("psf", "psf.power", "inf"),
        ("psf", "frequency_hz", "inf"),
        ("psf", "c_mps", "inf"),
        ("psf", "grid.az_stop", "inf"),
        ("psf", "grid.el_start", "nan"),
        ("psf", "grid.az_stop", "1e308"),
        ("psf", "grid.el_start", "-200"),
        ("chirp", "chirp.f_end_hz", "200000"),
    ])
    def test_exits_2_naming_the_key_before_any_output(self, tmp_path, capsys,
                                                       command, key, value):
        out = tmp_path / "out"
        rc = run([command, "--out", str(out), "--set", f"{key}={value}"])
        assert rc == 2
        # the key appears, and its last part nowhere else
        err = capsys.readouterr().err
        assert key in err
        assert err.count(key.rpartition(".")[2]) == 1
        assert list(out.glob("*")) == []
