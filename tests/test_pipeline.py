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
from sonarray import acquisition, cli, framing, pipeline  # noqa: E402
from sonarray.errors import SonarrayError  # noqa: E402
from test_localize_accuracy import DOA_BOUND_DEG, angle_between_deg  # noqa: E402


@pytest.mark.parametrize("window", [0, 1])
def test_chain_matches_the_benchmark_byte_for_byte(window):
    wl = workloads.Localize(seed=7, workdir=Path("."))
    stock = workloads.Stock()
    cfg = cli.Config({})
    sensor = cfg.sensor()
    target, noise_seed = wl.targets[window], wl.noise_seeds[window]

    expected = workloads.acquire_window(stock, target, noise_seed, NullTracer())
    _, frames = pipeline.acquire_window(sensor, target, stock.noise_db, noise_seed, 0)
    payloads = [frame.payload for frame in frames]
    assert payloads == expected

    bench_frames, chunks = workloads.encode_window(stock, expected, window, NullTracer())
    frames = pipeline.frame_window(sensor, payloads, window)
    assert frames == bench_frames
    assert [ping for ping, _ in pipeline.pings(sensor, frames)] == [window]

    range_m, direction, packed, _ = workloads.decode_window(
        stock, framing.StreamParser(), b"".join(chunks), NullTracer())
    streams = pipeline.channel_streams(frames, sensor.pdm_rate_hz)
    assert [stream.data for stream in streams] == packed
    estimate, got = pipeline.localize_window(sensor, cfg.grid(), frames)
    # the benchmark keeps channel 0's range and MVDR; the package ranges on
    # the emitter and scans Bartlett, from the same channel-0 delay
    assert range_m == sensor.c_mps * estimate.delay_s / 2.0
    assert angle_between_deg(got, target.direction) <= DOA_BOUND_DEG


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
    assert ("localize: ping 0: frame at PDM bit 83436 of the window, expected 69530"
            in captured.err)
    assert "frames_lost=1" in captured.out and "crc_mismatch=1" in captured.out
    clean = read_rows(boresight / "ranges.csv")
    rows = read_rows(tmp_path / "ranges.csv")
    assert rows[0].split(",")[:2] == ["0", "0.000000"]
    assert all(math.isnan(float(v)) for v in rows[0].split(",")[2:])
    assert rows[1] == clean[1]


@pytest.mark.parametrize("order, cause, lost", [
    ([0, 2, 1], None, 0),  # frames 1 and 2 swapped
    ([0, 1, 1], "frame at PDM bit 13906 of the window, expected 27812", 1),  # 1 sent for 2
], ids=["swapped", "duplicated"])
def test_frames_are_placed_in_their_window_by_stamp(boresight, tmp_path, capsys,
                                                    order, cause, lost):
    # ping 0's first three frames arrive in ``order``; a window is read by
    # its stamps, so the swap reads as the clean stream and the duplicate
    # that displaces frame 2 blanks ping 0 alone.  Only frame 2 of the
    # duplicate's stream is lost.
    events, _ = framing.parse_stream((boresight / "stream.bin").read_bytes())
    frames = [events[f] for f in order] + events[len(order):]
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(f) for f in frames))
    capsys.readouterr()
    assert cli.main(["localize", str(stream), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert f"frames_lost={lost}" in captured.out
    clean = read_rows(boresight / "ranges.csv")
    rows = read_rows(tmp_path / "ranges.csv")
    if cause is None:
        assert rows == clean
    else:
        assert f"localize: ping 0: {cause}" in captured.err
        assert rows[0].split(",")[:2] == ["0", "0.000000"]
        assert all(math.isnan(float(v)) for v in rows[0].split(",")[2:])
        assert rows[1] == clean[1]


@pytest.mark.parametrize("spc", [0, 8])
def test_a_window_of_other_than_its_bits_blanks_only_its_own_ping(boresight, tmp_path,
                                                                  capsys, spc):
    # ping 0 is 16 whole frames of spc PDM bits per channel each, not the
    # window's 222 496 bits
    frames = [framing.Frame(sequence=f, timestamp_ticks=f * spc, samples_per_channel=spc,
                            payload=bytes(16 * spc // 8), channel_count=16)
              for f in range(pipeline.FRAMES_PER_WINDOW)]
    events, _ = framing.parse_stream((boresight / "stream.bin").read_bytes())
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(f)
                                for f in frames + events[pipeline.FRAMES_PER_WINDOW:]))
    capsys.readouterr()
    assert cli.main(["localize", str(stream), "--out", str(tmp_path)]) == 0
    assert (f"localize: ping 0: {16 * spc} PDM bits per channel, the window 222496"
            in capsys.readouterr().err)
    rows = read_rows(tmp_path / "ranges.csv")
    assert all(math.isnan(float(v)) for v in rows[0].split(",")[2:])
    assert rows[1] == read_rows(boresight / "ranges.csv")[1]


@pytest.mark.parametrize("command", ["simulate", "localize"])
def test_ping_rate_above_the_window_rate_exits_2(tmp_path, capsys, command):
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"")
    out = tmp_path / "out"
    argv = [command] + ([str(stream)] if command == "localize" else [])
    assert cli.main(argv + ["--out", str(out), "--set", "simulate.rate_hz=20.5"]) == 2
    assert "simulate.rate_hz: must be <= 20" in capsys.readouterr().err
    assert not out.exists()


def test_pings_are_placed_by_timestamp(stock, tmp_path, capsys):
    # the first frame of pings 2 and 5 only, numbered 32 and 80 as
    # frame_window numbers them: rows 2..5, each NaN with its cause
    sensor = stock.sensor
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    first = {ping: pipeline.frame_window(sensor, payloads, ping)[0] for ping in (2, 5)}
    stream = tmp_path / "stream.bin"
    stream.write_bytes(framing.encode_frame(first[2]) + framing.encode_frame(first[5]))
    assert cli.main(["localize", str(stream), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in read_rows(tmp_path / "ranges.csv")]
    assert [row[:2] for row in rows] == [["2", "0.200000"], ["3", "0.300000"],
                                         ["4", "0.400000"], ["5", "0.500000"]]
    assert all(math.isnan(float(v)) for row in rows for v in row[2:])
    err = capsys.readouterr().err
    for ping, bits in ((2, 13906), (3, 0), (4, 0), (5, 13906)):
        assert f"localize: ping {ping}: {bits} PDM bits per channel, the window 222496" in err

    # a frame of an earlier ping after a later one is a data error; the
    # rows written before it stay
    stream.write_bytes(framing.encode_frame(first[5]) + framing.encode_frame(first[2]))
    out = tmp_path / "out"
    assert cli.main(["localize", str(stream), "--out", str(out)]) == 3
    assert "a frame of ping 2 follows ping 5" in capsys.readouterr().err
    rows = [line.split(",") for line in read_rows(out / "ranges.csv")]
    assert [row[:2] for row in rows] == [["5", "0.500000"]]
    assert all(math.isnan(float(v)) for v in rows[0][2:])


def test_a_ping_row_is_written_before_the_stream_ends(stock, tmp_path, monkeypatch):
    # stdin delivers ping 0, then ping 1's first frame, which closes ping 0:
    # its row is on disk while the stream is still open
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    frames = (pipeline.frame_window(stock.sensor, payloads, 0)
              + pipeline.frame_window(stock.sensor, payloads, 1)[:1])
    chunks = [b"".join(framing.encode_frame(f) for f in frames[:-1]),
              framing.encode_frame(frames[-1])]
    seen = []

    class Live:
        def read(self, size):
            if chunks:
                return chunks.pop(0)
            seen.append(read_rows(tmp_path / "ranges.csv"))
            return b""

    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": Live()})())
    assert cli.main(["localize", "-", "--out", str(tmp_path)]) == 0
    assert [[row.split(",")[0] for row in rows] for rows in seen] == [["0"]]
    assert [row.split(",")[0] for row in read_rows(tmp_path / "ranges.csv")] == ["0", "1"]


def test_emission_time_is_the_tick_the_frames_carry(tmp_path):
    # at 3 Hz a ping is round(4 450 000 / 3) = 1 483 333 ticks, so ping 300
    # is stamped at 444 999 900 ticks, 99.999978 s, not 300 / 3 = 100 s
    sensor = cli.Config({"simulate.rate_hz": "3"}).sensor()
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(frame)
                                for frame in pipeline.frame_window(sensor, payloads, 300)))
    assert cli.main(["localize", str(stream), "--out", str(tmp_path),
                     "--set", "simulate.rate_hz=3"]) == 0
    rows = [line.split(",") for line in read_rows(tmp_path / "ranges.csv")]
    assert [row[:2] for row in rows] == [["300", "99.999978"]]


def test_a_window_that_is_not_the_array_exits_3(tmp_path, capsys):
    frames = [framing.Frame(sequence=s, timestamp_ticks=128 * s, samples_per_channel=128,
                            payload=bytes(8 * 16), channel_count=8) for s in range(2)]
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(f) for f in frames))
    out = tmp_path / "out"
    assert cli.main(["localize", str(stream), "--out", str(out)]) == 3
    assert "ping 0 has 8 channels, the array 16" in capsys.readouterr().err
    assert read_rows(out / "ranges.csv") == []



def test_pings_walk_every_ping_from_the_first_frames_to_the_last(stock):
    # the first frame of pings 2 and 5: pings 3 and 4 come with no frames,
    # and a ping-2 frame after ping 5 raises once ping 5 has been yielded
    sensor = stock.sensor
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    first = {ping: pipeline.frame_window(sensor, payloads, ping)[0] for ping in (2, 5)}
    assert list(pipeline.pings(sensor, [])) == []
    assert list(pipeline.pings(sensor, [first[2], first[5]])) == [
        (2, [first[2]]), (3, []), (4, []), (5, [first[5]])]
    walk = pipeline.pings(sensor, [first[5], first[2]])
    assert next(walk) == (5, [first[5]])
    with pytest.raises(SonarrayError, match="a frame of ping 2 follows ping 5"):
        next(walk)


def test_a_stamp_its_sequence_number_cannot_reach_is_refused(stock, tmp_path, capsys):
    # frames numbered 0 and 1, stamped at pings 0 and 100 000: one sequence
    # number cannot span 100 000 pings, so the second frame is refused and
    # the walk stays on ping 0, which gives the stream's one row
    sensor = stock.sensor
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    frames = [pipeline.frame_window(sensor, payloads, 0)[0], dataclasses.replace(
        pipeline.frame_window(sensor, payloads, 100_000)[0], sequence=1)]
    assert list(pipeline.pings(sensor, frames)) == [frames[1], (0, frames[:1])]
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(frame) for frame in frames))
    assert cli.main(["localize", str(stream), "--out", str(tmp_path)]) == 0
    assert [row.split(",")[0] for row in read_rows(tmp_path / "ranges.csv")] == ["0"]
    out, err = capsys.readouterr()
    assert "frames_lost=0 resyncs=0 bytes_discarded=0 frames_refused=1\n" in out
    assert ("localize: frame 1 stamped at ping 100000 refused: it skips more pings than "
            "sequence numbers\n") in err


def test_pings_skipped_with_their_frames_are_nan_rows(stock, tmp_path, capsys):
    # pings 0 and 3 in full, numbered 0-15 and 48-63: the numbers between
    # cover the two pings lost, so pings 1 and 2 are NaN rows and nothing
    # is refused; a clean stream's summary names no refusal
    sensor = stock.sensor
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    frames = pipeline.frame_window(sensor, payloads, 0) + pipeline.frame_window(sensor, payloads, 3)
    assert [frame.sequence for frame in frames] == [*range(16), *range(48, 64)]
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"".join(framing.encode_frame(frame) for frame in frames))
    assert cli.main(["localize", str(stream), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in read_rows(tmp_path / "ranges.csv")]
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]
    assert all(math.isnan(float(v)) for row in rows[1:3] for v in row[2:])
    out, err = capsys.readouterr()
    assert "frames_refused" not in out and "refused" not in err


def test_the_ping_walk_counts_sequence_numbers_across_the_wrap(stock):
    # 2^32 - 1 then 0 is one number on, enough for the next ping; a number
    # 2^31 or more past the highest reads as behind it and is refused
    sensor = stock.sensor
    payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW
    last = dataclasses.replace(pipeline.frame_window(sensor, payloads, 0)[-1],
                               sequence=(1 << 32) - 1)
    for sequence, accepted in ((0, True), ((1 << 31) - 2, True), ((1 << 31) - 1, False)):
        after = dataclasses.replace(pipeline.frame_window(sensor, payloads, 1)[0],
                                    sequence=sequence)
        walk = list(pipeline.pings(sensor, [last, after]))
        assert walk == ([(0, [last]), (1, [after])] if accepted else [after, (0, [last])])


def test_no_two_channels_of_a_stream_share_a_seed(stock, tmp_path, monkeypatch):
    # records the noise seeds of synthesize_capture (rng_seed + l for
    # channel l) and the dither seeds of pdm_modulate, stubbed so that no
    # sigma-delta loop runs, over pings 0-2 of seed 5
    noise, dither = [], []
    synthesize = acquisition.synthesize_capture

    def record_synthesis(geometry, *args, rng_seed, **kwargs):
        noise.extend(rng_seed + l for l in range(geometry.n_elements))
        return synthesize(geometry, *args, rng_seed=rng_seed, **kwargs)

    def stub_modulation(trace, rate_hz, rng_seed, *, channel):
        dither.append(rng_seed)
        n_bits = len(trace) * round(rate_hz / trace.sample_rate_hz)
        return acquisition.PdmStream(data=bytes(n_bits // 8), n_bits=n_bits,
                                     rate_hz=rate_hz, channel=channel)

    monkeypatch.setattr(acquisition, "synthesize_capture", record_synthesis)
    monkeypatch.setattr(acquisition, "pdm_modulate", stub_modulation)
    ring = tmp_path / "ring72.csv"
    ring.write_text("x_m,y_m,z_m,index\n" + "".join(
        f"{0.015 * math.cos(math.tau * l / 72)!r},{0.015 * math.sin(math.tau * l / 72)!r},0,{l}\n"
        for l in range(72)))
    target = cli.Config({}).target()

    def seeds(sensor):
        noise.clear()
        dither.clear()
        for ping in range(3):
            pipeline.acquire_window(sensor, target, 20.0, 5, ping)
        return list(noise), list(dither)

    noise72, dither72 = seeds(cli.Config({"geometry.csv": str(ring)}).sensor())
    assert len(set(noise72)) == len(noise72) == 3 * 72
    assert len(set(dither72)) == len(dither72) == 3 * 72
    assert seeds(stock.sensor) == ([5 + 64 * p + l for p in range(3) for l in range(16)],) * 2


def test_a_sweep_sampled_off_the_pcm_rate_is_refused(stock):
    # at half the PCM rate the probe would build a 111 248-bit window that
    # acquire_window and localize_window refuse only later, for other reasons
    sensor = stock.sensor
    fields = {f.name: getattr(sensor, f.name) for f in dataclasses.fields(sensor) if f.init}
    fields["spec"] = dataclasses.replace(sensor.spec, sample_rate_hz=sensor.spec.sample_rate_hz / 2)
    rule = "16 gives a 278125 Hz PCM rate, not the 139062 Hz the sweep is sampled at"
    with pytest.raises(ValueError, match=f"^factor {rule}$"):
        pipeline.Sensor(**fields)
    with pytest.raises(cli.ConfigError, match=f"^decode.factor: {rule}$"):
        cli._build(pipeline.Sensor, **fields)
