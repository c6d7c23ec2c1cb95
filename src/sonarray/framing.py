"""Binary frame protocol for streaming multichannel PDM captures.

Wire layout (normative, little-endian):

    offset  size  field
    0       4     magic 0xA5 0x5A 0x52 0x54
    4       1     version = 1
    5       1     channel_count (>= 1)
    6       2     reserved = 0
    8       4     sequence (u32, wrapping)
    12      8     timestamp_ticks (u64, PDM clock)
    20      4     samples_per_channel (u32)
    24      -     payload: channel-major packed PDM bits,
                  channel_count * samples_per_channel / 8 bytes
    ...     4     CRC-32 (IEEE 802.3, reflected) over magic..payload

The parser is incremental and resynchronizing: on a bad header or CRC it
discards one byte and rescans for the magic, which guarantees recovery
after any finite corrupted region.  Parse results are identical for any
chunking of the same byte stream.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

MAGIC = b"\xa5\x5aRT"
_HEADER = struct.Struct("<4sBBHIQI")
HEADER_SIZE = _HEADER.size  # 24
CRC_SIZE = 4
MAX_PAYLOAD = 1 << 20
_SEQ_MOD = 1 << 32
_SEQ_WINDOW = 1 << 31

# stream_throughput_bench feeds stock 16-channel frames in the chunk size
# that decode reads.
_BENCH_CHANNELS = 16
_BENCH_CHUNK_BYTES = 65536


@dataclass(frozen=True)
class Frame:
    sequence: int
    timestamp_ticks: int
    samples_per_channel: int
    payload: bytes
    channel_count: int = 16

    def __post_init__(self):
        if not 0 <= self.sequence < _SEQ_MOD:
            raise ValueError("sequence must fit in 32 bits")
        if not 0 <= self.timestamp_ticks < 1 << 64:
            raise ValueError("timestamp_ticks must fit in 64 bits")
        if self.channel_count < 1 or self.channel_count > 0xFF:
            raise ValueError("channel_count must lie in 1..255")
        if not 0 <= self.samples_per_channel < _SEQ_MOD:
            raise ValueError("samples_per_channel must fit in 32 bits")
        bits = self.channel_count * self.samples_per_channel
        if bits % 8 != 0:
            raise ValueError("channel_count * samples_per_channel must be a multiple of 8")
        if len(self.payload) != bits // 8:
            raise ValueError(f"payload must be exactly {bits // 8} bytes")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(f"payload exceeds {MAX_PAYLOAD} bytes")

    def channel_bits(self) -> np.ndarray:
        """Payload as a (channel_count, samples_per_channel) 0/1 array."""
        bits = np.unpackbits(np.frombuffer(self.payload, dtype=np.uint8))
        return bits[:self.channel_count * self.samples_per_channel].reshape(
            self.channel_count, self.samples_per_channel)


@dataclass(frozen=True)
class CorruptionEvent:
    kind: str     # "bad_magic" | "bad_header" | "crc_mismatch"
    offset: int   # absolute byte offset in the stream where detected


@dataclass
class StreamStats:
    frames_ok: int = 0
    frames_lost: int = 0
    resyncs: int = 0
    bytes_discarded: int = 0


def encode_frame(frame: Frame) -> bytes:
    header = _HEADER.pack(MAGIC, 1, frame.channel_count, 0, frame.sequence,
                          frame.timestamp_ticks, frame.samples_per_channel)
    body = header + frame.payload
    return body + struct.pack("<I", zlib.crc32(body))


class StreamParser:
    """Single-consumer incremental parser with resync and loss accounting.

    Feed arbitrary byte chunks; each call returns the Frames and
    CorruptionEvents completed by those bytes.  Not safe for concurrent
    feeding; safe to hand between threads between calls.
    """

    def __init__(self):
        self._buf = bytearray()
        self._base = 0        # absolute offset of _buf[0]
        self._pos = 0         # parse position within _buf
        self._scanning = False
        self._last_sequence = None
        self.stats = StreamStats()

    def feed(self, data: bytes) -> list:
        self._buf += data
        events = []
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
                events.append(CorruptionEvent("bad_magic", self._base + self._pos))
                self.stats.resyncs += 1
                self._scanning = True
                continue
            if len(buf) - self._pos < HEADER_SIZE:
                break
            (_, version, channel_count, _, sequence, timestamp,
             samples_per_channel) = _HEADER.unpack_from(buf, self._pos)
            bits = channel_count * samples_per_channel
            payload_len = bits // 8
            if (version != 1 or channel_count < 1 or bits % 8 != 0
                    or payload_len > MAX_PAYLOAD):
                events.append(CorruptionEvent("bad_header", self._base + self._pos))
                self._discard_one()
                continue
            total = HEADER_SIZE + payload_len + CRC_SIZE
            if len(buf) - self._pos < total:
                break
            body_end = self._pos + HEADER_SIZE + payload_len
            (crc,) = struct.unpack_from("<I", buf, body_end)
            if zlib.crc32(bytes(buf[self._pos:body_end])) != crc:
                events.append(CorruptionEvent("crc_mismatch", self._base + self._pos))
                self._discard_one()
                continue
            payload = bytes(buf[self._pos + HEADER_SIZE:body_end])
            frame = Frame(sequence=sequence, timestamp_ticks=timestamp,
                          samples_per_channel=samples_per_channel,
                          payload=payload, channel_count=channel_count)
            self._account_sequence(sequence)
            self.stats.frames_ok += 1
            events.append(frame)
            self._pos += total
        if self._pos:
            self._base += self._pos
            del self._buf[:self._pos]
            self._pos = 0
        return events

    def _discard_one(self):
        self.stats.bytes_discarded += 1
        self.stats.resyncs += 1
        self._pos += 1
        self._scanning = True

    def _account_sequence(self, sequence: int):
        if self._last_sequence is not None:
            gap = (sequence - self._last_sequence - 1) % _SEQ_MOD
            if 0 < gap < _SEQ_WINDOW:
                self.stats.frames_lost += gap
        self._last_sequence = sequence


def parse_stream(data) -> tuple:
    """Parse a complete byte string or an iterable of chunks.

    Returns (events, stats) where events interleaves Frames and
    CorruptionEvents in arrival order.
    """
    parser = StreamParser()
    events = []
    if isinstance(data, (bytes, bytearray, memoryview)):
        events.extend(parser.feed(bytes(data)))
    else:
        for chunk in data:
            events.extend(parser.feed(chunk))
    return events, parser.stats


@dataclass(frozen=True)
class ThroughputResult:
    bytes_per_s: float
    megabits_per_s: float
    frames_per_s: float
    bytes_total: int
    frames_total: int
    elapsed_s: float


def stream_throughput_bench(frame_payload_bytes: int = 8192,
                            duration_s: float = 2.0) -> ThroughputResult:
    """Sustained parse rate on a synthetic clean stream.

    Builds a batch of valid frames and feeds it to a parser in fixed-size
    chunks: one untimed warm-up pass, then timed passes over the whole
    batch until ``duration_s`` has elapsed (at least one), each pinned in
    turn to one of the CPUs the calling thread may use (where the
    platform allows; the thread's CPU set is restored afterwards).  The
    rates come from the fastest pass, so a run is not skewed by a partial
    pass, by a stall on one pass or by a slow CPU; the totals cover all
    timed passes.
    """
    rng = np.random.default_rng(12345)
    samples_per_channel = max(8 * frame_payload_bytes // _BENCH_CHANNELS, 8)
    batch = bytearray()
    seq = 0
    while len(batch) < max(_BENCH_CHUNK_BYTES * 4, 4 << 20):
        payload = rng.integers(0, 256, _BENCH_CHANNELS * samples_per_channel // 8,
                               dtype=np.uint8).tobytes()
        batch += encode_frame(Frame(sequence=seq, timestamp_ticks=seq * 1000,
                                    samples_per_channel=samples_per_channel,
                                    payload=payload, channel_count=_BENCH_CHANNELS))
        seq += 1
    batch = bytes(batch)
    parser = StreamParser()

    def one_pass() -> float:
        start = time.perf_counter()
        for off in range(0, len(batch), _BENCH_CHUNK_BYTES):
            parser.feed(batch[off:off + _BENCH_CHUNK_BYTES])
        return time.perf_counter() - start

    # A shared host can run its CPUs at different speeds for seconds at a
    # time, so timed passes take turns on each CPU this thread may use:
    # the best pass then does not hinge on where the scheduler put it.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    one_pass()
    warm_frames = parser.stats.frames_ok
    passes = []
    try:
        while not passes or sum(passes) < duration_s:
            if cpus:
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(one_pass())
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    best = min(passes)
    rate = len(batch) / best
    return ThroughputResult(bytes_per_s=rate, megabits_per_s=rate * 8 / 1e6,
                            frames_per_s=seq / best,
                            bytes_total=len(batch) * len(passes),
                            frames_total=parser.stats.frames_ok - warm_frames,
                            elapsed_s=sum(passes))
