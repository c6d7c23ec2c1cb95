import collections
import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonarray import pipeline
from sonarray.framing import (CRC_SIZE, HEADER_SIZE, MAGIC, MAX_PAYLOAD,
                              Frame, StreamParser, StreamStats, encode_frame,
                              parse_stream)


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

    @pytest.mark.parametrize("fields, message", [
        ({"sequence": 2 ** 32}, "sequence must fit in 32 bits"),
        ({"timestamp_ticks": 2 ** 64}, "timestamp_ticks must fit in 64 bits"),
        ({"channel_count": 0}, "channel_count must lie in 1..255"),
        ({"channel_count": 256}, "channel_count must lie in 1..255"),
        ({"samples_per_channel": 2 ** 32}, "samples_per_channel must fit in 32 bits"),
        ({"samples_per_channel": 9}, "channel_count * samples_per_channel must be a "
                                     "multiple of 8"),
    ], ids=["sequence", "timestamp", "no-channel", "256-channels", "samples", "bits"])
    def test_a_field_out_of_range_is_refused(self, fields, message):
        frame = dict(sequence=0, timestamp_ticks=0, samples_per_channel=8,
                     payload=b"\x00", channel_count=1) | fields
        with pytest.raises(ValueError, match=message.replace("*", r"\*")):
            Frame(**frame)

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
        frames, stats = parse_stream(stream)
        assert frames == [f1, f2]
        assert stats.bytes_discarded == 3
        assert stats.resyncs >= 1
        assert stats.frames_lost == 0

    def test_payload_bit_flip_drops_only_that_frame(self):
        frames = [make_frame(seq=s, spc=64, fill=0x5C) for s in range(5)]
        blobs = [bytearray(encode_frame(f)) for f in frames]
        blobs[2][HEADER_SIZE + 3] ^= 0x10  # payload corruption
        got, stats = parse_stream(b"".join(bytes(b) for b in blobs))
        assert [f.sequence for f in got] == [0, 1, 3, 4]
        assert stats.crc_mismatch == 1
        assert stats.frames_ok == 4
        assert stats.frames_lost == 1
        assert stats.bytes_discarded == len(blobs[2])

    def test_corrupt_prefix_then_recovery(self):
        prefix = bytes(range(1, 200))  # no magic inside
        f1, f2 = make_frame(seq=4), make_frame(seq=5)
        frames, stats = parse_stream(prefix + encode_frame(f1) + encode_frame(f2))
        assert frames == [f1, f2]
        assert stats.bytes_discarded == len(prefix)

    def test_truncated_magic_prefix_survives_chunk_boundary(self):
        f = make_frame(seq=3)
        stream = b"\x00" * 5 + encode_frame(f)
        parser = StreamParser()
        frames = []
        for i in range(0, len(stream), 1):  # worst case: 1 byte at a time
            frames.extend(parser.feed(stream[i:i + 1]))
        assert frames == [f]

    def test_bad_version_triggers_resync(self):
        blob = bytearray(encode_frame(make_frame(seq=0)))
        blob[4] = 2  # version byte
        _, stats = parse_stream(bytes(blob) + encode_frame(make_frame(seq=1)))
        assert stats.bad_header == 1
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
        parser.finish()
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
            frames, stats = parse_stream(bytes(flipped))
            assert stats.frames_ok == 0, f"bit {bit} slipped through"
            assert frames == []


class ReferenceParser(StreamParser):
    """The parser before its three failure tails became one, kept as the
    oracle of ``StreamParser.feed``: a bad magic is rescanned from its own
    byte, and a bad header or a CRC mismatch goes through ``_discard_one``.
    ``feed`` returns the frames and the kind of each resync, in arrival
    order; its ``stats`` count no kind, so a caller tallies them."""

    def __init__(self):
        super().__init__()
        self._pos = 0  # parse position within _buf

    def feed(self, data: bytes) -> tuple:
        self._buf += data
        frames, kinds = [], []
        buf = self._buf
        while True:
            if self._scanning:
                idx = buf.find(MAGIC, self._pos)
                if idx >= 0:
                    self.stats.bytes_discarded += idx - self._pos
                    self._pos = idx
                    self._scanning = False
                    continue
                # keep any suffix that could grow into a magic
                keep = 0
                for k in (3, 2, 1):
                    if len(buf) - self._pos >= k and buf[len(buf) - k:] == MAGIC[:k]:
                        keep = k
                        break
                discard = len(buf) - self._pos - keep
                self.stats.bytes_discarded += discard
                self._pos = len(buf) - keep
                break
            if len(buf) - self._pos < 4:
                break
            if buf[self._pos:self._pos + 4] != MAGIC:
                kinds.append("bad_magic")
                self.stats.resyncs += 1
                self._scanning = True
                continue
            if len(buf) - self._pos < HEADER_SIZE:
                break
            (_, version, channel_count, _, sequence, timestamp,
             samples_per_channel) = struct.unpack_from("<4sBBHIQI", buf, self._pos)
            bits = channel_count * samples_per_channel
            payload_len = bits // 8
            if (version != 1 or channel_count < 1 or bits % 8 != 0
                    or payload_len > MAX_PAYLOAD):
                kinds.append("bad_header")
                self._discard_one()
                continue
            total = HEADER_SIZE + payload_len + CRC_SIZE
            if len(buf) - self._pos < total:
                break
            body_end = self._pos + HEADER_SIZE + payload_len
            (crc,) = struct.unpack_from("<I", buf, body_end)
            if zlib.crc32(bytes(buf[self._pos:body_end])) != crc:
                kinds.append("crc_mismatch")
                self._discard_one()
                continue
            payload = bytes(buf[self._pos + HEADER_SIZE:body_end])
            frame = Frame(sequence=sequence, timestamp_ticks=timestamp,
                          samples_per_channel=samples_per_channel,
                          payload=payload, channel_count=channel_count)
            self._account_sequence(sequence)
            self.stats.frames_ok += 1
            frames.append(frame)
            self._pos += total
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0
        return frames, kinds

    def _discard_one(self):
        self.stats.bytes_discarded += 1
        self.stats.resyncs += 1
        self._pos += 1
        self._scanning = True


def _corrupted(blob: bytes, index: int, value: int) -> bytes:
    out = bytearray(blob)
    out[index] = value
    return bytes(out)


# One piece of a stream: a clean frame, junk rich in magic bytes, a frame
# with a flipped CRC byte or a bad version, a truncated magic, or a frame
# cut short.
_piece = st.one_of(
    frames_strategy.map(encode_frame),
    st.lists(st.sampled_from([*MAGIC, 0x00, 0xFF]), max_size=12).map(bytes),
    st.binary(min_size=1, max_size=40),
    st.tuples(frames_strategy.map(encode_frame), st.integers(1, 4), st.integers(1, 255)).map(
        lambda t: _corrupted(t[0], len(t[0]) - t[1], t[0][-t[1]] ^ t[2])),
    st.tuples(frames_strategy.map(encode_frame), st.integers(2, 255)).map(
        lambda t: _corrupted(t[0], 4, t[1])),
    st.integers(1, len(MAGIC) - 1).map(lambda k: MAGIC[:k]),
    st.tuples(frames_strategy.map(encode_frame), st.integers(1, 60)).map(
        lambda t: t[0][:-t[1]]),
)


class TestReferenceEquivalence:
    @given(pieces=st.lists(_piece, max_size=10),
           cuts=st.lists(st.integers(min_value=0, max_value=4000), max_size=10))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_feed_gives_the_reference_events_and_stats_for_every_chunking(self, pieces,
                                                                           cuts):
        blob = b"".join(pieces)
        parser, reference = StreamParser(), ReferenceParser()
        kinds = collections.Counter()
        prev = 0
        for pos in sorted({min(c, len(blob)) for c in cuts}) + [len(blob)]:
            frames, found = reference.feed(blob[prev:pos])
            kinds.update(found)
            assert parser.feed(blob[prev:pos]) == frames
            expected = dataclasses.replace(reference.stats, **kinds)
            assert parser.stats == expected
            assert parser.stats.resyncs == (parser.stats.bad_header + parser.stats.bad_magic
                                            + parser.stats.crc_mismatch)
            prev = pos
        # the end of the stream discards what the reference still holds
        held = len(reference._buf)
        parser.finish()
        assert parser.stats == dataclasses.replace(
            expected, bytes_discarded=expected.bytes_discarded + held, truncated=int(held > 0))

    def test_each_corruption_kind_counts_one_resync_and_its_own_bytes(self):
        # junk with a truncated magic after a frame, then a flipped CRC byte
        # and a bad version: each kind once, in the order found
        good = encode_frame(make_frame(seq=1))
        junk = b"\x00" + MAGIC[:3]
        crc = _corrupted(good, len(good) - 1, good[-1] ^ 1)
        version = _corrupted(good, 4, 2)
        blob = good + junk + crc + version + good
        frames, stats = parse_stream(blob)
        reference_frames, kinds = ReferenceParser().feed(blob)
        assert frames == reference_frames
        assert kinds == ["bad_magic", "crc_mismatch", "bad_header"]
        n = len(good)
        assert stats == StreamStats(frames_ok=2, resyncs=3, bytes_discarded=2 * n + 4,
                                    bad_header=1, bad_magic=1, crc_mismatch=1)


class TestFinish:
    @pytest.mark.parametrize("tail", [
        encode_frame(make_frame(seq=2, spc=64))[:-5],  # a frame cut off
        MAGIC[:3],  # a magic that never completes
        b"\x07",  # a byte too few to hold a magic
    ], ids=["cut-frame", "magic-prefix", "one-byte"])
    def test_the_bytes_a_stream_ends_with_are_discarded_once(self, tail):
        frames = [make_frame(seq=s) for s in range(2)]
        head = b"".join(encode_frame(f) for f in frames)
        parser = StreamParser()
        assert parser.feed(head + tail) == frames
        assert parser.stats == StreamStats(frames_ok=2)
        parser.finish()
        done = StreamStats(frames_ok=2, bytes_discarded=len(tail), truncated=1)
        assert parser.stats == done
        parser.finish()  # nothing is held any more
        assert parser.stats == done
        assert parse_stream(head + tail) == (frames, done)


class TestBoundedMemory:
    def test_the_buffer_does_not_grow_with_the_stream(self, stock, traced_peak):
        # stock frames fed in 64 KiB chunks, the events dropped: the peak
        # holds a chunk, a partial frame and a chunk's frames, not the
        # stream.  The partial frame a chunk leaves depends on where the
        # chunk cuts a frame, and 512 frames meet cuts 64 do not, so the
        # bound allows one frame more; 448 more frames would add 12.5 MB.
        payloads = [bytes(16 * 13906 // 8)] * pipeline.FRAMES_PER_WINDOW

        def stream(n_frames):
            return b"".join(encode_frame(frame)
                            for ping in range(n_frames // pipeline.FRAMES_PER_WINDOW)
                            for frame in pipeline.frame_window(stock.sensor, payloads, ping))

        def feed_all(blob):
            parser = StreamParser()
            view = memoryview(blob)
            for i in range(0, len(blob), 65536):
                parser.feed(view[i:i + 65536])
            return parser.stats

        peaks = {}
        for n_frames in (64, 512):
            stats, peaks[n_frames] = traced_peak(feed_all, stream(n_frames))
            assert (stats.frames_ok, stats.frames_lost, stats.resyncs,
                    stats.bytes_discarded) == (n_frames, 0, 0, 0)
        assert peaks[512] <= peaks[64] + HEADER_SIZE + len(payloads[0]) + CRC_SIZE
