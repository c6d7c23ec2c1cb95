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

The parser is incremental and resynchronizing, with one rule for every
corruption kind: a bad magic, a bad header or a CRC mismatch counts one
resync and one of its kind in StreamStats, whose ``resyncs`` is their
sum, and discards the byte it was found at; the scan that follows
discards every byte up to the next magic, and ``StreamParser.finish``
the bytes held when the stream ends (``truncated``).  So each byte the
parser skips is counted discarded once, a stream of frames is its
frames' bytes plus ``bytes_discarded``, and recovery follows any finite
corrupted region.  Parse results are identical for any chunking.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

MAGIC = b"\xa5\x5aRT"
_HEADER = struct.Struct("<4sBBHIQI")
HEADER_SIZE = _HEADER.size  # 24
CRC_SIZE = 4
MAX_PAYLOAD = 1 << 20
MAX_CHANNELS = 0xFF  # channel_count is one header byte
SEQ_MOD = 1 << 32     # sequence numbers wrap here
SEQ_WINDOW = 1 << 31  # a number less than this far ahead, mod SEQ_MOD, is ahead
_REORDER_SPAN = 1024  # how far behind the highest sequence number a late frame is recognized


@dataclass(frozen=True)
class Frame:
    sequence: int
    timestamp_ticks: int
    samples_per_channel: int
    payload: bytes
    channel_count: int

    def __post_init__(self):
        if not 0 <= self.sequence < SEQ_MOD:
            raise ValueError("sequence must fit in 32 bits")
        if not 0 <= self.timestamp_ticks < 1 << 64:
            raise ValueError("timestamp_ticks must fit in 64 bits")
        if not 1 <= self.channel_count <= MAX_CHANNELS:
            raise ValueError(f"channel_count must lie in 1..{MAX_CHANNELS}")
        if not 0 <= self.samples_per_channel < 1 << 32:
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
        return bits.reshape(self.channel_count, self.samples_per_channel)


@dataclass
class StreamStats:
    frames_ok: int = 0
    frames_lost: int = 0
    resyncs: int = 0          # bad_header + bad_magic + crc_mismatch
    bytes_discarded: int = 0
    bad_header: int = 0       # a version, channel count or payload size no frame has
    bad_magic: int = 0        # no magic where a frame should start
    crc_mismatch: int = 0     # a whole frame whose CRC-32 does not match
    truncated: int = 0        # a stream that ended with bytes held, not a resync


def encode_frame(frame: Frame) -> bytes:
    header = _HEADER.pack(MAGIC, 1, frame.channel_count, 0, frame.sequence,
                          frame.timestamp_ticks, frame.samples_per_channel)
    body = header + frame.payload
    return body + struct.pack("<I", zlib.crc32(body))


class StreamParser:
    """Single-consumer incremental parser with resync and loss accounting.

    Feed arbitrary byte chunks; each call returns the Frames completed by
    those bytes, and :meth:`finish` ends the stream.  ``stats.frames_lost``
    counts the sequence numbers that never arrived; to take a late frame
    back off it, the parser holds the numbers counted lost within
    _REORDER_SPAN of the highest seen, at most 1023.  Not safe for
    concurrent feeding; safe to hand between threads between calls.
    """

    def __init__(self):
        self._buf = bytearray()     # the bytes not yet parsed
        self._scanning = False      # looking for a magic
        self._last_sequence = None  # the highest sequence number seen
        self._missing = set()       # the numbers counted lost, < _REORDER_SPAN behind it
        self.stats = StreamStats()

    def feed(self, data: bytes) -> list:
        buf, stats = self._buf, self.stats
        buf += data
        frames = []
        pos = 0
        while True:
            if self._scanning:
                start = buf.find(MAGIC, pos)
                self._scanning = start < 0
                if self._scanning:  # keep the longest suffix that could grow into a magic
                    start = max(pos, len(buf) - len(MAGIC) + 1)
                    while not MAGIC.startswith(buf[start:]):
                        start += 1
                stats.bytes_discarded += start - pos
                pos = start
            if len(buf) - pos < len(MAGIC):  # a scan that found no magic stops here
                break
            if buf[pos:pos + len(MAGIC)] != MAGIC:
                kind = "bad_magic"
            elif len(buf) - pos < HEADER_SIZE:
                break
            else:
                (_, version, channel_count, _, sequence, timestamp,
                 samples_per_channel) = _HEADER.unpack_from(buf, pos)
                bits = channel_count * samples_per_channel
                body_end = pos + HEADER_SIZE + bits // 8
                if (version != 1 or channel_count < 1 or bits % 8 != 0
                        or bits // 8 > MAX_PAYLOAD):
                    kind = "bad_header"
                elif len(buf) < body_end + CRC_SIZE:
                    break
                elif (zlib.crc32(memoryview(buf)[pos:body_end])
                      != struct.unpack_from("<I", buf, body_end)[0]):
                    kind = "crc_mismatch"
                else:
                    self._account_sequence(sequence)
                    stats.frames_ok += 1
                    frames.append(Frame(
                        sequence=sequence, timestamp_ticks=timestamp,
                        samples_per_channel=samples_per_channel, channel_count=channel_count,
                        payload=bytes(memoryview(buf)[pos + HEADER_SIZE:body_end])))
                    pos = body_end + CRC_SIZE
                    continue
            setattr(stats, kind, getattr(stats, kind) + 1)
            stats.resyncs += 1
            stats.bytes_discarded += 1
            pos += 1
            self._scanning = True
        del buf[:pos]
        return frames

    def finish(self):
        """End the stream: the bytes still held, a cut-off frame or a
        partial magic, are discarded and counted ``truncated``."""
        if self._buf:
            self.stats.bytes_discarded += len(self._buf)
            self.stats.truncated += 1
            self._buf.clear()

    def _account_sequence(self, sequence: int):
        """A frame ahead of the highest sequence number seen counts the
        numbers it skips as lost and becomes the highest.  A frame behind
        it takes itself back off ``frames_lost`` if its number was counted
        lost and lies less than _REORDER_SPAN numbers behind; a duplicate
        takes nothing off.  "Ahead" is within half the 2^32 wrap."""
        if self._last_sequence is None:
            self._last_sequence = sequence
            return
        ahead = (sequence - self._last_sequence) % SEQ_MOD
        if 0 < ahead < SEQ_WINDOW:
            if ahead > 1:
                self.stats.frames_lost += ahead - 1
                self._missing = {seq for seq in self._missing
                                 if (sequence - seq) % SEQ_MOD < _REORDER_SPAN}
                self._missing.update((sequence - k) % SEQ_MOD
                                     for k in range(1, min(ahead, _REORDER_SPAN)))
            self._last_sequence = sequence
        elif sequence in self._missing:
            self._missing.remove(sequence)
            self.stats.frames_lost -= 1


def parse_stream(data: bytes) -> tuple:
    """(frames, stats) of a complete byte string, frames in arrival order."""
    parser = StreamParser()
    frames = parser.feed(data)
    parser.finish()
    return frames, parser.stats
