"""Wire protocol between a DKF source and the central server.

Messages are tiny by design -- the whole point of the architecture is that
*most sampling instants send nothing*.  Four message types exist:

* :class:`UpdateMessage` -- a measurement that escaped the precision bound,
  with a sequence number (loss detection) and an optional state digest
  (mirror verification).
* :class:`ResyncMessage` -- a full filter-state snapshot, sent when the
  source learns a previous update was lost and the mirrors have diverged.
* :class:`AckMessage` -- server-to-source cumulative acknowledgement; the
  only way a source ever learns whether an update survived the link.  May
  carry a resync request when the server detected a sequence gap.
* :class:`HeartbeatMessage` -- a header-only liveness beacon the source
  emits during long suppression silences, so the server can distinguish
  "within delta" from "possibly dead".

Every encoded message carries a CRC-32 trailer; receivers reject corrupt
frames (:class:`~repro.errors.CorruptMessageError`) instead of risking a
silently wrong decode.

:class:`Channel` simulates the network link: it counts messages and bytes,
and can inject loss for failure testing.  Sizes follow a simple fixed-width
encoding (8-byte floats, 4-byte ints, small header) so the energy model can
convert traffic to joules.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConfigurationError,
    CorruptMessageError,
    DuplicateSourceError,
)

__all__ = [
    "UpdateMessage",
    "ResyncMessage",
    "AckMessage",
    "HeartbeatMessage",
    "Channel",
    "ChannelStats",
]

#: Bytes per float in the simple wire encoding.
FLOAT_BYTES = 8
#: Bytes per integer field (sequence number, time index, source id hash).
INT_BYTES = 4
#: Fixed per-message header bytes (type tag + source id + seq + k).
HEADER_BYTES = 1 + 3 * INT_BYTES
#: Bytes of the optional state digest carried by verified messages.
DIGEST_BYTES = 8
#: Bytes of the CRC-32 integrity trailer appended to every message.
CRC_BYTES = 4


@dataclass(frozen=True)
class UpdateMessage:
    """A transmitted measurement (source -> server).

    Attributes:
        source_id: Originating source.
        seq: Per-source sequence number (gaps reveal lost messages).
        k: Sampling instant the measurement belongs to.
        value: The (possibly smoothed) measurement vector.
        digest: Optional mirror-state digest for desync detection.
    """

    source_id: str
    seq: int
    k: int
    value: np.ndarray
    digest: bytes | None = None

    @property
    def size_bytes(self) -> int:
        """Encoded size under the fixed-width wire format."""
        size = HEADER_BYTES + self.value.shape[0] * FLOAT_BYTES + CRC_BYTES
        if self.digest is not None:
            size += DIGEST_BYTES
        return size


@dataclass(frozen=True)
class ResyncMessage:
    """A full filter-state snapshot (source -> server) after message loss.

    Attributes:
        source_id: Originating source.
        seq: Sequence number (shares the update counter).
        k: Sampling instant of the snapshot.
        x: Mirror filter state vector.
        p: Mirror filter covariance.
        value: The current (possibly smoothed) measurement, so the server
            can also refresh its cached answer.
    """

    source_id: str
    seq: int
    k: int
    x: np.ndarray
    p: np.ndarray
    value: np.ndarray

    @property
    def size_bytes(self) -> int:
        """Encoded size under the fixed-width wire format."""
        n = self.x.shape[0]
        # State vector + upper triangle of the symmetric covariance.
        cov_floats = n * (n + 1) // 2
        return (
            HEADER_BYTES
            + (n + cov_floats + self.value.shape[0]) * FLOAT_BYTES
            + CRC_BYTES
        )


@dataclass(frozen=True)
class AckMessage:
    """A cumulative acknowledgement (server -> source).

    Attributes:
        source_id: The source whose traffic is being acknowledged.
        seq: The server's *next expected* sequence number; every sequence
            number strictly below it is acknowledged, so the source drops
            all pending-ack entries ``< seq``.
        k: Server-side tick the ack was generated at (diagnostics).
        resync_requested: True when the server detected a sequence gap and
            needs a full state snapshot to heal.
    """

    source_id: str
    seq: int
    k: int
    resync_requested: bool = False

    @property
    def size_bytes(self) -> int:
        """Encoded size under the fixed-width wire format."""
        return HEADER_BYTES + 1 + CRC_BYTES


@dataclass(frozen=True)
class HeartbeatMessage:
    """A header-only liveness beacon (source -> server).

    Sent when the suppression protocol has kept the source silent for a
    configurable interval, so the server can tell a healthy-but-quiet
    source from a dead one.  Carries no payload and needs no ack -- the
    next heartbeat supersedes a lost one.

    Attributes:
        source_id: Originating source.
        seq: The source's next unsent sequence number (diagnostics only;
            heartbeats do not consume sequence numbers).
        k: Sampling instant the beacon was emitted at.
    """

    source_id: str
    seq: int
    k: int

    @property
    def size_bytes(self) -> int:
        """Encoded size under the fixed-width wire format."""
        return HEADER_BYTES + CRC_BYTES


@dataclass
class ChannelStats:
    """Running traffic totals for one channel."""

    messages_offered: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    bytes_delivered: int = 0
    resyncs: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (logging/serialisation)."""
        return {
            "messages_offered": self.messages_offered,
            "messages_delivered": self.messages_delivered,
            "messages_lost": self.messages_lost,
            "bytes_delivered": self.bytes_delivered,
            "resyncs": self.resyncs,
        }


class Channel:
    """Simulated source-to-server link with loss injection and accounting.

    Args:
        loss_fn: Optional predicate ``(message_index) -> bool`` returning
            True when that message should be dropped.  Retransmissions
            (resyncs) are never dropped -- they model the acked recovery
            path.
        deliver: Callback invoked with each delivered message.
    """

    def __init__(
        self,
        deliver: Callable[[UpdateMessage | ResyncMessage], None],
        loss_fn: Callable[[int], bool] | None = None,
    ) -> None:
        self._deliver = deliver
        self._loss_fn = loss_fn
        self._stats = ChannelStats()

    @property
    def stats(self) -> ChannelStats:
        """Running traffic totals for this channel."""
        return self._stats

    def send(self, message: UpdateMessage) -> bool:
        """Offer an update message; returns True when it was delivered."""
        self._stats.messages_offered += 1
        index = self._stats.messages_offered - 1
        if self._loss_fn is not None and self._loss_fn(index):
            self._stats.messages_lost += 1
            return False
        self._stats.messages_delivered += 1
        self._stats.bytes_delivered += message.size_bytes
        self._deliver(message)
        return True

    def send_resync(self, message: ResyncMessage) -> None:
        """Deliver a resync snapshot (modelled as reliably retransmitted)."""
        self._stats.messages_offered += 1
        self._stats.messages_delivered += 1
        self._stats.resyncs += 1
        self._stats.bytes_delivered += message.size_bytes
        self._deliver(message)


def periodic_loss(period: int) -> Callable[[int], bool]:
    """Loss function dropping every ``period``-th message (testing aid)."""
    if period < 1:
        raise ConfigurationError("period must be positive")
    return lambda index: (index + 1) % period == 0


def random_loss(rate: float, seed: int = 0) -> Callable[[int], bool]:
    """Loss function dropping messages i.i.d. with probability ``rate``.

    The decision for message ``index`` is derived deterministically from
    ``(seed, index)`` -- never from call order -- so replays and repeated
    queries of the same index always agree (required for deterministic
    fault schedules and retransmission simulations).
    """
    if not 0 <= rate < 1:
        raise ConfigurationError("rate must be in [0, 1)")

    def drop(index: int) -> bool:
        return bool(np.random.default_rng((seed, index)).random() < rate)

    return drop


__all__ += ["periodic_loss", "random_loss", "FLOAT_BYTES", "HEADER_BYTES"]


# ----------------------------------------------------------------------
# Binary codec
# ----------------------------------------------------------------------
#
# The fixed-width encoding the size accounting assumes, made real: a
# 1-byte type tag, a 4-byte source-id hash, 4-byte seq and k, then the
# payload floats (and, for resyncs, the state vector and the upper
# triangle of the covariance), closed by a 4-byte CRC-32 of everything
# before it.  Mirrors can run on microcontrollers, so the format is
# deliberately trivial: network byte order, no varints, no framing beyond
# the leading tag and the trailing checksum.

_TAG_UPDATE = 0x01
_TAG_UPDATE_DIGEST = 0x02
_TAG_RESYNC = 0x03
_TAG_ACK = 0x04
_TAG_HEARTBEAT = 0x05

# Optional telemetry span timers around encode/decode (+ CRC).  The codec
# is module-level functions, so the hook is module-level too: the engine
# installs its Telemetry's timers here when observation is on, and the
# default (None) costs one global load and one branch per call.
_CODEC_TIMERS = None


def instrument_codec(timers) -> None:
    """Install (or with None, remove) span timers around the codec.

    Encode spans appear as ``codec.encode``, decode (including the CRC
    check) as ``codec.decode``.  Last caller wins -- the codec is shared
    by every fabric in the process.
    """
    global _CODEC_TIMERS
    _CODEC_TIMERS = timers


__all__ += ["instrument_codec"]

WireMessage = UpdateMessage | ResyncMessage | AckMessage | HeartbeatMessage


def _source_hash(source_id: str) -> int:
    """Stable 32-bit hash of the source id carried in the header."""
    return zlib.crc32(source_id.encode("utf-8")) & 0xFFFFFFFF


def build_source_index(source_ids) -> dict[int, str]:
    """Precompute the header-hash -> source-id table for :func:`decode_message`.

    Resolving the header hash against a plain id list is a linear scan --
    fine for a handful of sources, fatal for a 100k-source wire server
    decoding thousands of frames per second.  Receivers that decode in a
    loop should build this index once (or keep a :class:`SourceHashIndex`,
    which also resolves hashes to rows) and pass it as
    ``decode_message``'s ``source_ids`` argument for O(1) resolution.

    Raises:
        ConfigurationError: When two registered ids collide on the same
            32-bit hash (the header could not name either unambiguously).
        DuplicateSourceError: When an id is given twice.
    """
    index = SourceHashIndex(source_ids)
    return dict(zip(index.hashes.tolist(), index.ids))


class SourceHashIndex:
    """Header hash -> row, for a receiver that keeps its state by row.

    Rows are registration order: ``ids`` and ``hashes`` (the 32-bit header
    hash an ack carries back) are columns in that order, and a sorted copy
    of the hashes with its row permutation resolves a whole column of
    decoded hashes in one ``np.searchsorted``.  :meth:`get` is the
    hash -> id view :func:`decode_message` takes.
    """

    def __init__(self, source_ids=()) -> None:
        self.ids: list[str] = []
        self.hashes = self._sorted = np.empty(0, np.uint32)
        self._order = np.empty(0, np.int32)
        self.add(source_ids)

    def check(self, source_ids) -> np.ndarray:
        """The ids' hashes, if :meth:`add` would take them; changes nothing.

        Raises:
            ConfigurationError: Two ids, given or indexed, share a hash.
            DuplicateSourceError: An id is given twice or already indexed.
        """
        ids = list(source_ids)
        hashes = np.fromiter(map(_source_hash, ids), np.uint32, len(ids))
        order = np.argsort(hashes, kind="stable")
        ranked, rows = hashes[order], self.rows(hashes)
        pairs = [
            (ids[order[i]], ids[order[i + 1]])
            for i in np.flatnonzero(ranked[1:] == ranked[:-1])
        ] + [(self.ids[rows[i]], ids[i]) for i in np.flatnonzero(rows >= 0)]
        for first, second in pairs:
            if first != second:
                raise ConfigurationError(
                    f"source ids {first!r} and {second!r} collide on "
                    f"header hash {_source_hash(first):#x}"
                )
        if pairs:
            raise DuplicateSourceError(
                f"source(s) among {ids[:3]}... already registered"
            )
        return hashes

    def add(self, source_ids, hashes: np.ndarray | None = None) -> None:
        """Index ids as the next rows; ``hashes``: :meth:`check`'s return."""
        source_ids = list(source_ids)
        hashes = self.check(source_ids) if hashes is None else hashes
        order = np.argsort(hashes, kind="stable")
        at = np.searchsorted(self._sorted, hashes[order])
        self._sorted = np.insert(self._sorted, at, hashes[order])
        self._order = np.insert(self._order, at, order + len(self.ids))
        self.hashes = np.concatenate((self.hashes, hashes))
        self.ids.extend(source_ids)

    def rows(self, hashes) -> np.ndarray:
        """The row of each header hash, -1 where none is indexed."""
        hashes = np.asarray(hashes, dtype=np.uint32)
        if not self.ids:
            return np.full(hashes.shape, -1, np.intp)
        at = np.minimum(self._sorted.searchsorted(hashes), len(self.ids) - 1)
        hit = self._sorted[at] == hashes
        return np.where(hit, self._order[at], -1).astype(np.intp)

    def _row(self, source_hash: int) -> int:
        at = int(self._sorted.searchsorted(np.array(source_hash, np.uint32)))
        found = at < len(self.ids) and self._sorted[at] == source_hash
        return int(self._order[at]) if found else -1

    def get(self, source_hash: int) -> str | None:
        """The id whose header hash is ``source_hash``, None if none is."""
        row = self._row(source_hash)
        return self.ids[row] if row >= 0 else None

    def row_of_id(self, source_id: str) -> int | None:
        """The row of ``source_id``, None when it is not indexed."""
        row = self._row(_source_hash(source_id))
        return row if row >= 0 and self.ids[row] == source_id else None


__all__ += ["build_source_index", "SourceHashIndex"]


def _seal(frame: bytes) -> bytes:
    """Append the CRC-32 trailer to an encoded frame."""
    return frame + struct.pack("!I", zlib.crc32(frame) & 0xFFFFFFFF)


def encode_message(message: WireMessage) -> bytes:
    """Serialise a protocol message to its fixed-width wire form.

    The encoded length equals ``message.size_bytes`` exactly -- the size
    accounting and the codec cannot drift apart (a test pins this).  The
    final 4 bytes are a CRC-32 of the preceding frame; receivers verify it
    before trusting any field.

    Note the header carries a *hash* of the source id, not the string; the
    receiver resolves it against its registration table
    (:func:`decode_message` therefore needs the candidate id list).
    """
    timers = _CODEC_TIMERS
    if timers is None:
        return _encode(message)
    timers.start("codec.encode")
    try:
        return _encode(message)
    finally:
        timers.stop("codec.encode")


def _encode(message: WireMessage) -> bytes:
    if isinstance(message, ResyncMessage):
        n = message.x.shape[0]
        m = message.value.shape[0]
        triangle = message.p[np.triu_indices(n)]
        return _seal(
            struct.pack(
                f"!BIII{n}d{triangle.shape[0]}d{m}d",
                _TAG_RESYNC,
                _source_hash(message.source_id),
                message.seq,
                message.k,
                *message.x,
                *triangle,
                *message.value,
            )
        )
    if isinstance(message, AckMessage):
        return _seal(
            struct.pack(
                "!BIIIB",
                _TAG_ACK,
                _source_hash(message.source_id),
                message.seq,
                message.k,
                1 if message.resync_requested else 0,
            )
        )
    if isinstance(message, HeartbeatMessage):
        return _seal(
            struct.pack(
                "!BIII",
                _TAG_HEARTBEAT,
                _source_hash(message.source_id),
                message.seq,
                message.k,
            )
        )
    m = message.value.shape[0]
    if message.digest is not None:
        return _seal(
            struct.pack(
                f"!BIII{m}d8s",
                _TAG_UPDATE_DIGEST,
                _source_hash(message.source_id),
                message.seq,
                message.k,
                *message.value,
                message.digest,
            )
        )
    return _seal(
        struct.pack(
            f"!BIII{m}d",
            _TAG_UPDATE,
            _source_hash(message.source_id),
            message.seq,
            message.k,
            *message.value,
        )
    )


def decode_message(
    data: bytes,
    source_ids: list[str] | dict[int, str] | SourceHashIndex,
    state_dim: int | None = None,
) -> WireMessage:
    """Deserialise a wire message, verifying its CRC-32 trailer first.

    Args:
        data: The encoded bytes.
        source_ids: Registered source ids; the header's hash is resolved
            against them (collision-free for realistic deployments; a
            genuine collision raises).  Either a plain id list (linear
            scan, fine at test scale) or a prebuilt hash index, from
            :func:`build_source_index` or a :class:`SourceHashIndex`
            (required at wire scale).
        state_dim: Required to decode resync messages (the covariance
            triangle's size depends on it).

    Raises:
        CorruptMessageError: When the CRC trailer does not match the body
            (the frame was corrupted in flight; discard it).
        ConfigurationError: On unknown tags, unresolvable source hashes,
            or a resync without ``state_dim``.
    """
    timers = _CODEC_TIMERS
    if timers is None:
        return _decode(data, source_ids, state_dim)
    timers.start("codec.decode")
    try:
        return _decode(data, source_ids, state_dim)
    finally:
        timers.stop("codec.decode")


def _decode(
    data: bytes,
    source_ids: list[str] | dict[int, str] | SourceHashIndex,
    state_dim: int | None = None,
) -> WireMessage:
    if len(data) < 13 + CRC_BYTES:
        raise ConfigurationError("message shorter than the fixed header")
    frame, trailer = data[:-CRC_BYTES], data[-CRC_BYTES:]
    (crc,) = struct.unpack("!I", trailer)
    if crc != (zlib.crc32(frame) & 0xFFFFFFFF):
        raise CorruptMessageError(
            f"CRC mismatch: trailer {crc:#010x}, "
            f"computed {zlib.crc32(frame) & 0xFFFFFFFF:#010x}"
        )
    tag, source_hash, seq, k = struct.unpack("!BIII", frame[:13])

    if hasattr(source_ids, "get"):  # a dict or a SourceHashIndex
        source_id = source_ids.get(source_hash)
        if source_id is None:
            raise ConfigurationError(
                f"source hash {source_hash:#x} resolves to 0 ids"
            )
    else:
        matches = [s for s in source_ids if _source_hash(s) == source_hash]
        if len(matches) != 1:
            raise ConfigurationError(
                f"source hash {source_hash:#x} resolves to {len(matches)} ids"
            )
        source_id = matches[0]
    body = frame[13:]

    if tag == _TAG_UPDATE:
        values = np.array(struct.unpack(f"!{len(body) // 8}d", body))
        return UpdateMessage(source_id=source_id, seq=seq, k=k, value=values)
    if tag == _TAG_UPDATE_DIGEST:
        m = (len(body) - 8) // 8
        parts = struct.unpack(f"!{m}d8s", body)
        return UpdateMessage(
            source_id=source_id,
            seq=seq,
            k=k,
            value=np.array(parts[:m]),
            digest=parts[m],
        )
    if tag == _TAG_RESYNC:
        if state_dim is None:
            raise ConfigurationError("decoding a resync requires state_dim")
        n = state_dim
        tri = n * (n + 1) // 2
        total = len(body) // 8
        m = total - n - tri
        if m < 1:
            raise ConfigurationError("resync body too short for state_dim")
        parts = struct.unpack(f"!{total}d", body)
        x = np.array(parts[:n])
        p = np.zeros((n, n))
        p[np.triu_indices(n)] = parts[n : n + tri]
        p = p + np.triu(p, 1).T  # Restore symmetry from the triangle.
        value = np.array(parts[n + tri :])
        return ResyncMessage(
            source_id=source_id, seq=seq, k=k, x=x, p=p, value=value
        )
    if tag == _TAG_ACK:
        (flags,) = struct.unpack("!B", body)
        return AckMessage(
            source_id=source_id,
            seq=seq,
            k=k,
            resync_requested=bool(flags & 1),
        )
    if tag == _TAG_HEARTBEAT:
        if body:
            raise ConfigurationError("heartbeat carries no payload")
        return HeartbeatMessage(source_id=source_id, seq=seq, k=k)
    raise ConfigurationError(f"unknown message tag {tag:#x}")


__all__ += ["encode_message", "decode_message", "CRC_BYTES"]


# ----------------------------------------------------------------------
# Bulk codec (same frames, many at a time)
# ----------------------------------------------------------------------
#
# A plain update of one measurement dimension, and an ack, are fixed-size
# records, so a receiver holding a batch reads their fields as numpy
# columns, and a sender holding columns of fields packs them without a
# message object each.  The CRC-32 stays per frame.


def update_frame_dtype(measurement_dim: int) -> np.dtype:
    """The plain update frame (tag 0x01) as a packed big-endian record."""
    return np.dtype([
        ("tag", "u1"), ("hash", ">u4"), ("seq", ">u4"), ("k", ">u4"),
        ("value", ">f8", (measurement_dim,)), ("crc", ">u4"),
    ])


def decode_update_frames(
    frames: list[bytes], dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Read same-size update frames as one record array.

    Args:
        frames: Datagrams, each exactly ``dtype.itemsize`` bytes long.
        dtype: The record layout from :func:`update_frame_dtype`.

    Returns:
        The records (fields ``tag``, ``hash``, ``seq``, ``k``, ``value``,
        ``crc``) and, per frame, whether its CRC-32 trailer matches its
        body.  The source hash is *not* resolved here.
    """
    return _decode_records(frames, dtype)


#: The ack frame (tag 0x04) as a packed big-endian record.
_ACK_FRAME = np.dtype([
    ("tag", "u1"), ("hash", ">u4"), ("seq", ">u4"), ("k", ">u4"),
    ("flags", "u1"), ("crc", ">u4"),
])


def decode_ack_frames(frames: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Read ack frames as one record array.

    Args:
        frames: Datagrams, each exactly ``AckMessage.size_bytes`` (18)
            bytes long.

    Returns:
        The records (fields ``tag``, ``hash``, ``seq``, ``k``,
        ``flags``, ``crc``) and, per frame, whether its CRC-32 trailer
        matches its body.  Neither the tag nor the source hash is
        checked here; bit 0 of ``flags`` is ``resync_requested``.
    """
    return _decode_records(frames, _ACK_FRAME)


def _decode_records(frames, dtype) -> tuple[np.ndarray, np.ndarray]:
    timers = _CODEC_TIMERS
    if timers is not None:
        timers.start("codec.decode")
    try:
        records = np.frombuffer(b"".join(frames), dtype=dtype)
        crc32, body = zlib.crc32, dtype.itemsize - CRC_BYTES
        computed = np.fromiter(
            (crc32(frame[:body]) for frame in frames),
            dtype=np.uint32,
            count=len(frames),
        )
        return records, computed == records["crc"]
    finally:
        if timers is not None:
            timers.stop("codec.decode")


_ACK_BODY = struct.Struct("!BIIIB")
_CRC = struct.Struct("!I")


def encode_ack_frames(hashes, seqs, ks, resync_flags) -> list[bytes]:
    """Pack one ack frame per entry of the four equal-length columns.

    Byte-identical to ``encode_message(AckMessage(...))`` for the source
    whose header hash is given.
    """
    timers = _CODEC_TIMERS
    if timers is not None:
        timers.start("codec.encode")
    try:
        pack, seal, crc32 = _ACK_BODY.pack, _CRC.pack, zlib.crc32
        frames = []
        for fields in zip(hashes, seqs, ks, resync_flags):
            body = pack(_TAG_ACK, *fields)
            frames.append(body + seal(crc32(body)))
        return frames
    finally:
        if timers is not None:
            timers.stop("codec.encode")


def encode_update_frames(hashes, seqs, ks, values) -> list[bytes]:
    """Pack one plain update frame per entry of the four columns.

    ``values`` holds one measurement per row (shape ``(n,)`` or
    ``(n, m)``).  Byte-identical to ``encode_message(UpdateMessage(...))``
    for the source whose header hash is given: the fields are written
    into one big-endian record array and each frame is cut from its
    bytes and sealed with its own CRC-32.
    """
    timers = _CODEC_TIMERS
    if timers is not None:
        timers.start("codec.encode")
    try:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        dtype = update_frame_dtype(values.shape[1])
        records = np.empty(len(hashes), dtype=dtype)
        records["tag"] = _TAG_UPDATE
        records["hash"], records["seq"], records["k"] = hashes, seqs, ks
        records["value"] = values
        raw, size = records.tobytes(), dtype.itemsize
        seal, crc32, body = _CRC.pack, zlib.crc32, size - CRC_BYTES
        frames = []
        for start in range(0, len(raw), size):
            frame = raw[start : start + body]
            frames.append(frame + seal(crc32(frame)))
        return frames
    finally:
        if timers is not None:
            timers.stop("codec.encode")


__all__ += ["update_frame_dtype", "decode_update_frames", "encode_update_frames"]
__all__ += ["decode_ack_frames", "encode_ack_frames"]
