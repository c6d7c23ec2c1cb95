import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonarray.framing import (CRC_SIZE, HEADER_SIZE, MAGIC, MAX_PAYLOAD,
                              CorruptionEvent, Frame, StreamParser,
                              encode_frame, parse_stream)


def make_frame(seq=0, spc=8, cc=1, ts=0, fill=0x00):
    payload = bytes([fill]) * (cc * spc // 8)
    return Frame(sequence=seq, timestamp_ticks=ts, samples_per_channel=spc,
                 payload=payload, channel_count=cc)


frames_strategy = st.builds(
    lambda seq, ts, cc, spc_units, data: Frame(
        sequence=seq, timestamp_ticks=ts, channel_count=cc,
        samples_per_channel=spc_units * 8,
        payload=bytes(data * (cc * spc_units) )[:cc * spc_units]),
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.integers(min_value=0, max_value=2**64 - 1),
    cc=st.integers(min_value=1, max_value=24),
    spc_units=st.integers(min_value=1, max_value=16),
    data=st.binary(min_size=1, max_size=4),
)


class TestEncode:
    def test_minimal_frame_layout(self):
        frame = make_frame(seq=7, spc=8, cc=1, ts=99)
        blob = encode_frame(frame)
        # 24-byte header + 1 payload byte + 4-byte CRC
        assert len(blob) == HEADER_SIZE + 1 + CRC_SIZE == 29
        assert blob[:4] == MAGIC
        magic, version, cc, reserved, seq, ts, spc = struct.unpack_from("<4sBBHIQI", blob)
        assert (version, cc, reserved, seq, ts, spc) == (1, 1, 0, 7, 99, 8)
        (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
        assert crc == zlib.crc32(blob[:-4])

    def test_payload_size_must_match(self):
        with pytest.raises(ValueError):
            Frame(sequence=0, timestamp_ticks=0, samples_per_channel=16,
                  payload=b"\x00", channel_count=1)

    def test_oversized_payload_rejected(self):
        spc = (MAX_PAYLOAD + 8) * 8
        with pytest.raises(ValueError):
            Frame(sequence=0, timestamp_ticks=0, samples_per_channel=spc,
                  payload=bytes(spc // 8), channel_count=1)

    def test_channel_bits_layout(self):
        frame = Frame(sequence=0, timestamp_ticks=0, samples_per_channel=8,
                      payload=bytes([0b10000000, 0b00000001]), channel_count=2)
        bits = frame.channel_bits()
        assert bits.shape == (2, 8)
        assert bits[0].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert bits[1].tolist() == [0, 0, 0, 0, 0, 0, 0, 1]


class TestParseIdentity:
    @given(frame=frames_strategy)
    @settings(max_examples=100, deadline=None)
    def test_encode_parse_round_trip(self, frame):
        events, stats = parse_stream(encode_frame(frame))
        assert events == [frame]
        assert stats.frames_ok == 1
        assert stats.frames_lost == 0
        assert stats.bytes_discarded == 0

    def test_sequence_gap_accounting(self):
        stream = b"".join(encode_frame(make_frame(seq=s)) for s in (0, 1, 2))
        _, stats = parse_stream(stream)
        assert stats.frames_lost == 0
        stream = b"".join(encode_frame(make_frame(seq=s)) for s in (10, 15))
        _, stats = parse_stream(stream)
        assert stats.frames_lost == 4

    def test_sequence_wrap(self):
        stream = b"".join(encode_frame(make_frame(seq=s))
                          for s in (2**32 - 1, 0, 1))
        _, stats = parse_stream(stream)
        assert stats.frames_lost == 0

    def test_backwards_jump_not_counted(self):
        stream = b"".join(encode_frame(make_frame(seq=s)) for s in (100, 50))
        _, stats = parse_stream(stream)
        assert stats.frames_ok == 2
        assert stats.frames_lost == 0

    @pytest.mark.parametrize("order, lost", [
        ([0, 2, 1, *range(3, 16)], 0),     # frames 1 and 2 swapped
        ([0, *range(2, 16), 1], 0),        # frame 1 sent last
        ([0, *range(2, 16)], 1),           # frame 1 dropped
        ([0, 1, 1, *range(2, 16)], 0),     # frame 1 duplicated
        ([0, 2, 1, 1, *range(3, 16)], 0),  # frame 1 late, then again
    ], ids=["swapped", "last", "dropped", "duplicated", "late-duplicated"])
    def test_a_late_frame_is_not_a_lost_one(self, order, lost):
        _, stats = parse_stream(b"".join(encode_frame(make_frame(seq=s)) for s in order))
        assert (stats.frames_ok, stats.frames_lost) == (len(order), lost)

    def test_a_late_frame_is_matched_within_the_reorder_span(self):
        # a late frame is taken off frames_lost when it is less than 1024
        # numbers behind the highest seen: frame 1 is, after 1024, and is
        # not, after 1025, so it stays counted
        for top, lost in ((1024, 1022), (1025, 1024)):
            stream = b"".join(encode_frame(make_frame(seq=s)) for s in (0, top, 1))
            _, stats = parse_stream(stream)
            assert stats.frames_lost == lost

    def test_gap_window_boundary(self):
        # gaps are credited only strictly inside the 2**31 window
        inside = b"".join(encode_frame(make_frame(seq=s)) for s in (0, 2 ** 31 - 1))
        _, stats = parse_stream(inside)
        assert stats.frames_lost == 2 ** 31 - 2
        at_edge = b"".join(encode_frame(make_frame(seq=s)) for s in (0, 2 ** 31 + 1))
        _, stats = parse_stream(at_edge)
        assert stats.frames_lost == 0

    def test_empty_stream_is_not_an_error(self):
        events, stats = parse_stream(b"")
        assert events == []
        assert stats.frames_ok == 0


class TestResync:
    def test_garbage_between_frames(self):
        f1, f2 = make_frame(seq=0), make_frame(seq=1)
        stream = encode_frame(f1) + b"\x01\x02\x03" + encode_frame(f2)
        events, stats = parse_stream(stream)
        frames = [e for e in events if isinstance(e, Frame)]
        assert frames == [f1, f2]
        assert stats.bytes_discarded == 3
        assert stats.resyncs >= 1
        assert stats.frames_lost == 0

    def test_payload_bit_flip_drops_only_that_frame(self):
        frames = [make_frame(seq=s, spc=64, fill=0x5C) for s in range(5)]
        blobs = [bytearray(encode_frame(f)) for f in frames]
        blobs[2][HEADER_SIZE + 3] ^= 0x10  # payload corruption
        events, stats = parse_stream(b"".join(bytes(b) for b in blobs))
        got = [e for e in events if isinstance(e, Frame)]
        assert [f.sequence for f in got] == [0, 1, 3, 4]
        kinds = [e.kind for e in events if isinstance(e, CorruptionEvent)]
        assert "crc_mismatch" in kinds
        assert stats.frames_ok == 4
        assert stats.frames_lost == 1
        assert stats.bytes_discarded == len(blobs[2])

    def test_corrupt_prefix_then_recovery(self):
        prefix = bytes(range(1, 200))  # no magic inside
        f1, f2 = make_frame(seq=4), make_frame(seq=5)
        events, stats = parse_stream(prefix + encode_frame(f1) + encode_frame(f2))
        frames = [e for e in events if isinstance(e, Frame)]
        assert frames == [f1, f2]
        assert stats.bytes_discarded == len(prefix)

    def test_truncated_magic_prefix_survives_chunk_boundary(self):
        f = make_frame(seq=3)
        stream = b"\x00" * 5 + encode_frame(f)
        parser = StreamParser()
        events = []
        for i in range(0, len(stream), 1):  # worst case: 1 byte at a time
            events.extend(parser.feed(stream[i:i + 1]))
        assert [e for e in events if isinstance(e, Frame)] == [f]

    def test_bad_version_triggers_resync(self):
        blob = bytearray(encode_frame(make_frame(seq=0)))
        blob[4] = 2  # version byte
        events, stats = parse_stream(bytes(blob) + encode_frame(make_frame(seq=1)))
        kinds = [e.kind for e in events if isinstance(e, CorruptionEvent)]
        assert "bad_header" in kinds
        assert stats.frames_ok == 1


class TestChunkingInvariance:
    @given(cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=8),
           garbage=st.binary(max_size=24),
           flip=st.one_of(st.none(), st.tuples(st.integers(min_value=0, max_value=10_000),
                                               st.integers(min_value=0, max_value=7))))
    @settings(max_examples=80, deadline=None)
    def test_any_partition_gives_identical_results(self, cuts, garbage, flip):
        frames = [make_frame(seq=s, spc=32, fill=0x33) for s in range(4)]
        blob = encode_frame(frames[0]) + garbage + b"".join(
            encode_frame(f) for f in frames[1:])
        if flip is not None:
            pos, bit = flip
            corrupted = bytearray(blob)
            corrupted[pos % len(blob)] ^= 1 << bit
            blob = bytes(corrupted)
        reference_events, reference_stats = parse_stream(blob)

        parser = StreamParser()
        events = []
        positions = sorted({min(c, len(blob)) for c in cuts})
        prev = 0
        for pos in positions + [len(blob)]:
            events.extend(parser.feed(blob[prev:pos]))
            prev = pos
        assert events == reference_events
        assert parser.stats == reference_stats

    def test_byte_at_a_time_equals_bulk(self):
        frames = [make_frame(seq=s) for s in range(10)]
        blob = b"".join(encode_frame(f) for f in frames)
        bulk_events, bulk_stats = parse_stream(blob)
        parser = StreamParser()
        trickle = []
        for i in range(len(blob)):
            trickle.extend(parser.feed(blob[i:i + 1]))
        assert trickle == bulk_events
        assert parser.stats == bulk_stats


class TestCrcStrength:
    def test_every_single_bit_flip_detected(self):
        frame = make_frame(seq=5, spc=64, cc=1, fill=0x3A)  # 8-byte payload
        blob = encode_frame(frame)
        for bit in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            events, stats = parse_stream(bytes(flipped))
            assert stats.frames_ok == 0, f"bit {bit} slipped through"
            assert all(not isinstance(e, Frame) for e in events)
