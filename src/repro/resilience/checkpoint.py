"""Durable server state: CRC-framed snapshots plus a write-ahead log.

The recovery story is the classic two-file design.  A *checkpoint* is an
atomic snapshot of the full server filter bank -- every source's
``(x, P, k)``, protocol counters and sequence expectations -- written as
one CRC-32-framed JSON blob and renamed into place so a crash can never
leave a half-written snapshot behind.  Between checkpoints, every update
or resync the server *applies* is appended to a JSONL write-ahead log
(WAL); recovery restores the snapshot and replays the tail.  Because the
filter arithmetic is deterministic, snapshot + replay reconstructs the
exact pre-crash estimates -- the same lock-step argument the DKF mirror
relies on, applied to durability.

A torn WAL tail is *expected* (the process died mid-append): replay
stops at the first record whose CRC or JSON fails, and everything after
is treated as never-happened.  The sources' ack timeouts recover the
difference, exactly as they recover a lossy link.  A corrupt
*checkpoint*, by contrast, raises :class:`~repro.errors.CheckpointError`
-- it was renamed into place atomically, so corruption means real
external damage, not a crash artifact.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.errors import CheckpointError

__all__ = [
    "CheckpointStore",
    "CHECKPOINT_SCHEMA",
    "build_checkpoint",
    "validate_checkpoint",
    "wal_record",
]

#: Schema marker embedded in (and required of) every snapshot.
CHECKPOINT_SCHEMA = "repro.ckpt-v1"

#: File magic for the framed checkpoint blob.
_MAGIC = b"RPRCKPT1"

_REQUIRED_TOP = ("schema", "tick", "server_clock", "sources")
_REQUIRED_SOURCE = (
    "expected_seq",
    "k",
    "last_contact",
    "desynced",
    "answer",
    "filter",
)


def validate_checkpoint(snapshot: dict) -> None:
    """Reject structurally broken snapshots before they touch disk or a
    live server.

    Raises:
        CheckpointError: On a wrong schema marker, missing keys, or
            malformed per-source entries.
    """
    if not isinstance(snapshot, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    for key in _REQUIRED_TOP:
        if key not in snapshot:
            raise CheckpointError(f"checkpoint missing required key {key!r}")
    if snapshot["schema"] != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unknown checkpoint schema {snapshot['schema']!r}; "
            f"expected {CHECKPOINT_SCHEMA!r}"
        )
    if not isinstance(snapshot["tick"], int) or snapshot["tick"] < 0:
        raise CheckpointError("checkpoint tick must be a non-negative int")
    if not isinstance(snapshot["server_clock"], int):
        raise CheckpointError("checkpoint server_clock must be an int")
    sources = snapshot["sources"]
    if not isinstance(sources, dict):
        raise CheckpointError("checkpoint sources must be an object")
    for source_id, state in sources.items():
        if not isinstance(state, dict):
            raise CheckpointError(
                f"checkpoint source {source_id!r} must be an object"
            )
        for key in _REQUIRED_SOURCE:
            if key not in state:
                raise CheckpointError(
                    f"checkpoint source {source_id!r} missing key {key!r}"
                )
        flt = state["filter"]
        if flt is not None and not all(k in flt for k in ("x", "p", "k")):
            raise CheckpointError(
                f"checkpoint source {source_id!r} filter needs x, p, k"
            )


def build_checkpoint(
    tick: int, server_clock: int, sources: dict, meta: dict | None = None
) -> dict:
    """The one ``repro.ckpt-v1`` snapshot shape every server front writes:
    the tick it was cut at, the server's liveness clock, per-source
    exported state keyed by source id, and an optional ``meta`` section."""
    snapshot = {
        "schema": CHECKPOINT_SCHEMA,
        "tick": int(tick),
        "server_clock": int(server_clock),
        "sources": sources,
    }
    if meta is not None:
        snapshot["meta"] = meta
    return snapshot


def wal_record(kind: str, source_id: str, seq, k, value, x=None, p=None) -> dict:
    """The one WAL record shape for an *applied* update or resync.

    ``value`` (and, for ``kind == "resync"``, the snapshot ``x`` / ``p``)
    are numpy arrays; the record holds their JSON-ready lists.
    """
    record = {
        "kind": kind,
        "source_id": source_id,
        "seq": int(seq),
        "k": int(k),
        "value": value.tolist(),
    }
    if kind == "resync":
        record["x"] = x.tolist()
        record["p"] = p.tolist()
    return record


def _canonical(record: dict) -> str:
    """Canonical JSON used for per-record CRC computation."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class CheckpointStore:
    """One directory holding the current checkpoint and its WAL.

    Args:
        directory: Where ``checkpoint.ckpt`` and ``wal.jsonl`` live;
            created on first use.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._wal_handle = None

    @property
    def checkpoint_path(self) -> Path:
        """Path of the current snapshot file."""
        return self._dir / "checkpoint.ckpt"

    @property
    def wal_path(self) -> Path:
        """Path of the write-ahead log."""
        return self._dir / "wal.jsonl"

    # Snapshot ------------------------------------------------------------

    def save(self, snapshot: dict) -> int:
        """Write a snapshot atomically; truncate the WAL it supersedes.

        The payload is validated, framed as ``magic + length + JSON +
        CRC-32``, written to a temporary file, fsynced, and renamed over
        the previous checkpoint -- readers see either the old snapshot or
        the new one, never a blend.  Returns the framed size in bytes.
        """
        validate_checkpoint(snapshot)
        payload = _canonical(snapshot).encode("utf-8")
        frame = (
            _MAGIC
            + len(payload).to_bytes(8, "big")
            + payload
            + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
        )
        tmp = self._dir / "checkpoint.ckpt.tmp"
        with open(tmp, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.checkpoint_path)
        # Everything the WAL recorded is now inside the snapshot.
        self.wal_truncate()
        return len(frame)

    def load(self) -> dict | None:
        """Read and verify the current snapshot.

        Returns None when no checkpoint has ever been written.

        Raises:
            CheckpointError: When the file exists but its magic, length,
                CRC or schema is wrong.
        """
        try:
            blob = self.checkpoint_path.read_bytes()
        except FileNotFoundError:
            return None
        if len(blob) < len(_MAGIC) + 12 or not blob.startswith(_MAGIC):
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} is not a framed snapshot"
            )
        offset = len(_MAGIC)
        length = int.from_bytes(blob[offset : offset + 8], "big")
        offset += 8
        payload = blob[offset : offset + length]
        trailer = blob[offset + length : offset + length + 4]
        if len(payload) != length or len(trailer) != 4:
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} is truncated"
            )
        if (zlib.crc32(payload) & 0xFFFFFFFF) != int.from_bytes(trailer, "big"):
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} failed its CRC check"
            )
        try:
            snapshot = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} holds invalid JSON: {exc}"
            ) from None
        validate_checkpoint(snapshot)
        return snapshot

    # Write-ahead log -----------------------------------------------------

    def wal_append(self, record: dict) -> None:
        """Append one applied-message record, flushed to the OS per line.

        Each line carries a ``crc`` field over the canonical JSON of the
        rest of the record, so replay can tell a torn tail from a clean
        one.
        """
        body = dict(record)
        body.pop("crc", None)
        body["crc"] = zlib.crc32(_canonical(body).encode("utf-8")) & 0xFFFFFFFF
        if self._wal_handle is None:
            self._wal_handle = open(self.wal_path, "a", encoding="utf-8")
        self._wal_handle.write(_canonical(body) + "\n")
        self._wal_handle.flush()

    def wal_records(self) -> list[dict]:
        """Every intact WAL record, in append order.

        Reading stops at the first line that fails to parse or whose CRC
        mismatches: a torn tail is the normal shape of a crash, and every
        record after the tear is untrustworthy.
        """
        try:
            lines = self.wal_path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return []
        records: list[dict] = []
        for line in lines:
            if not line.strip():
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if not isinstance(record, dict) or "crc" not in record:
                break
            claimed = record.pop("crc")
            actual = zlib.crc32(_canonical(record).encode("utf-8")) & 0xFFFFFFFF
            if claimed != actual:
                break
            records.append(record)
        return records

    def wal_truncate(self) -> None:
        """Discard the WAL (its contents are covered by a snapshot)."""
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None
        with open(self.wal_path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        """Release the WAL file handle (tests and engine teardown)."""
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None
