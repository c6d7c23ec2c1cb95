"""The sensor chain in sonarray.pipeline, against the benchmark's own copy
of it and through the simulate -> localize commands."""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402
from sonarray import cli, framing, pipeline  # noqa: E402


@pytest.mark.parametrize("window", [0, 1])
def test_chain_matches_the_benchmark_byte_for_byte(window):
    wl = workloads.Localize(seed=7, workdir=Path("."))
    stock = workloads.Stock()
    sensor = cli.Config({}).sensor()
    target, noise_seed = wl.targets[window], wl.noise_seeds[window]

    expected = workloads.acquire_window(stock, target, noise_seed, NullTracer())
    _, payloads = pipeline.acquire_window(sensor, target, stock.noise_db, noise_seed)
    assert payloads == expected

    bench_frames, chunks = workloads.encode_window(stock, expected, window, NullTracer())
    frames = pipeline.frame_window(sensor, payloads, window)
    assert frames == bench_frames
    assert {pipeline.ping_of(sensor, frame) for frame in frames} == {window}

    range_m, direction, packed, _ = workloads.decode_window(
        stock, framing.StreamParser(), b"".join(chunks), NullTracer())
    streams = pipeline.channel_streams(frames, sensor.pdm_rate_hz)
    assert [stream.data for stream in streams] == packed
    estimate, got = pipeline.localize_window(sensor, streams)
    assert (estimate.range_m, got) == (range_m, direction)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ("ping,emission_time_s,delay_s,delay_from_sweep_end_s,range_m,"
                        "peak_value,peak_to_noise_db,azimuth_deg,elevation_deg")
    return lines[1:]


@pytest.fixture(scope="module")
def boresight(tmp_path_factory):
    """Two pings at the stock 1 m boresight reflector, simulated and localized."""
    out = tmp_path_factory.mktemp("boresight")
    assert cli.main(["simulate", "--out", str(out), "--set", "simulate.duration_s=0.2"]) == 0
    assert cli.main(["localize", str(out / "stream.bin"), "--out", str(out)]) == 0
    return out


def test_boresight_range_and_direction(boresight):
    rows = [line.split(",") for line in read_rows(boresight / "ranges.csv")]
    assert [int(row[0]) for row in rows] == [0, 1]
    for row in rows:
        assert abs(float(row[4]) - 1.0) <= 0.002
        assert (float(row[7]), float(row[8])) == (0.0, 0.0)


def test_a_lost_frame_blanks_only_its_own_ping(boresight, tmp_path, capsys):
    blob = (boresight / "stream.bin").read_bytes()
    events, _ = framing.parse_stream(blob)
    assert len(events) == 2 * pipeline.FRAMES_PER_WINDOW
    damaged = bytearray(framing.encode_frame(events[5]))
    damaged[100] ^= 0x01  # payload bit flip: the CRC rejects frame 5 of ping 0
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(e) for e in events[:5])
                       + bytes(damaged)
                       + b"".join(framing.encode_frame(e) for e in events[6:]))
    capsys.readouterr()
    assert cli.main(["localize", str(stream), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "localize: ping 0: 15 of 16 frames" in captured.err
    assert "frames_lost=1" in captured.out and "crc_mismatch=1" in captured.out
    clean = read_rows(boresight / "ranges.csv")
    rows = read_rows(tmp_path / "ranges.csv")
    assert rows[0].split(",")[:2] == ["0", "0.000000"]
    assert all(math.isnan(float(v)) for v in rows[0].split(",")[2:])
    assert rows[1] == clean[1]


@pytest.mark.parametrize("command", ["simulate", "localize"])
def test_ping_rate_above_the_window_rate_exits_2(tmp_path, capsys, command):
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"")
    out = tmp_path / "out"
    argv = [command] + ([str(stream)] if command == "localize" else [])
    assert cli.main(argv + ["--out", str(out), "--set", "simulate.rate_hz=20.5"]) == 2
    assert "simulate.rate_hz: must be <= 20" in capsys.readouterr().err
    assert not out.exists()


def test_pings_are_placed_by_timestamp(tmp_path, capsys):
    # the first frame of pings 2 and 5 only, numbered 0 and 1: rows 2..5,
    # each NaN with its cause
    sensor = cli.Config({}).sensor()
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    first = {ping: dataclasses.replace(pipeline.frame_window(sensor, payloads, ping)[0],
                                       sequence=n)
             for n, ping in enumerate((2, 5))}
    stream = tmp_path / "stream.bin"
    stream.write_bytes(framing.encode_frame(first[2]) + framing.encode_frame(first[5]))
    assert cli.main(["localize", str(stream), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in read_rows(tmp_path / "ranges.csv")]
    assert [row[:2] for row in rows] == [["2", "0.200000"], ["3", "0.300000"],
                                         ["4", "0.400000"], ["5", "0.500000"]]
    assert all(math.isnan(float(v)) for row in rows for v in row[2:])
    err = capsys.readouterr().err
    for ping, frames in ((2, 1), (3, 0), (4, 0), (5, 1)):
        assert f"localize: ping {ping}: {frames} of 16 frames" in err

    # a frame of an earlier ping after a later one is a data error
    stream.write_bytes(framing.encode_frame(first[5]) + framing.encode_frame(first[2]))
    out = tmp_path / "out"
    assert cli.main(["localize", str(stream), "--out", str(out)]) == 3
    assert "a frame of ping 2 follows ping 5" in capsys.readouterr().err
    assert not out.exists()


def test_a_window_that_is_not_the_array_exits_3(tmp_path, capsys):
    frames = [framing.Frame(sequence=s, timestamp_ticks=128 * s, samples_per_channel=128,
                            payload=bytes(8 * 16), channel_count=8) for s in range(2)]
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(f) for f in frames))
    out = tmp_path / "out"
    assert cli.main(["localize", str(stream), "--out", str(out)]) == 3
    assert "ping 0 has 8 channels, the array 16" in capsys.readouterr().err
    assert not out.exists()

