"""Sans-IO server core: the bank-side DKF receive rules, once.

A :class:`ServerCore` is the server half of the protocol over N rows of
one :class:`~repro.scale.vector_bank.VectorKalmanBank`: sequence
expectations, liveness, protocol counters, cached answers and the ack
outbox as parallel arrays, with the tolerant receive rules of
:class:`~repro.dkf.server.DKFServer` written as array operations.  It
owns no socket, no link and no tick loop.  Its drivers are
:class:`~repro.wire.server.WireServer` (bulk-decoded datagram batches)
and :class:`~repro.scale.shard.ShardRuntime` (each step's delivered
messages); the scalar ``DKFServer`` stays the engine/federation
implementation and the reference ``tests/scale/test_server_core.py``
compares against, byte for byte.

Batched entry points take row indices; the ``DKFServer``-shaped ones
take a source id and index the arrays with a scalar (one query touches
one row, not a one-element batch).  One bank runs one model signature:
the first registration fixes it, a different one is refused, and a
time-varying model is refused outright.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import (
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    UpdateMessage,
)
from repro.dkf.server import NIS_WINDOW
from repro.errors import (
    ConfigurationError,
    DuplicateSourceError,
    MirrorDesyncError,
    UnknownSourceError,
)
from repro.filters.models import StateSpaceModel
from repro.obs.telemetry import NULL_TELEMETRY
from repro.scale.vector_bank import VectorKalmanBank, model_signature

__all__ = ["ServerCore"]

#: The protocol counters, in ``DKFServer.stats`` / checkpoint order.
_COUNTERS = (
    "updates_received", "resyncs_received", "heartbeats_received",
    "gaps_detected", "duplicates_ignored", "rejected_nonfinite",
)
#: Per-row state arrays: int64, bool, and with the two float ones, all.
_ROW_INTS = (
    "expected_seq", "last_k", "last_contact", *_COUNTERS, "suspect_after",
)
_ROW_BOOLS = ("desynced", "has_answer")
_ROW_ARRAYS = (*_ROW_INTS, *_ROW_BOOLS, "min_delta", "answer")


def _unique_cuts(rows: np.ndarray) -> list[int]:
    """End offsets of the maximal arrival-order pieces with unique rows."""
    listed = rows.tolist()
    if len(set(listed)) == len(listed):
        return [len(listed)]
    cuts: list[int] = []
    seen: set[int] = set()
    for i, row in enumerate(listed):
        if row in seen:
            cuts.append(i)
            seen.clear()
        seen.add(row)
    cuts.append(len(listed))
    return cuts


class ServerCore:
    """N server-side DKF rows over one filter bank, tolerant delivery.

    Args:
        model: The shared state-space model; None defers the choice to
            the first registration (the wire server learns its fleet's
            model when the fleet registers).
        track_health: Record each applied update's NIS in a bounded
            per-row window for the divergence watchdog.
        telemetry: Observability handle; counters are label-free and
            incremented by batch size.

    Attributes:
        clock: The liveness clock (ticks): received messages stamp
            ``last_contact`` and their acks from it.  A driver that
            owns time (the shard) assigns it; the wire advances it.
        bank: The ``KF_s`` bank (None until a model is bound).
        ids / index: Row -> source id and back.
    """

    def __init__(
        self,
        model: StateSpaceModel | None = None,
        track_health: bool = False,
        telemetry=None,
    ) -> None:
        self.track_health = track_health
        self._tel = telemetry or NULL_TELEMETRY
        self.clock = 0
        self.bank: VectorKalmanBank | None = None
        self.ids: list[str] = []
        self.index: dict[str, int] = {}
        self.nis_windows: list[deque | None] = []
        self._outbox: list[tuple] = []
        for name in _ROW_INTS:
            setattr(self, name, np.zeros(0, dtype=np.int64))
        for name in _ROW_BOOLS:
            setattr(self, name, np.zeros(0, dtype=bool))
        self.min_delta = np.zeros(0)
        self.answer = np.zeros((0, 0))
        if model is not None:
            self._bind(model)

    def _bind(self, model: StateSpaceModel) -> None:
        self.bank = VectorKalmanBank(model)
        self._signature = model_signature(model)
        self.answer = np.zeros((0, model.measurement_dim))

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Number of registered sources."""
        return len(self.ids)

    @property
    def source_ids(self) -> list[str]:
        """Identifiers of all registered sources, in row order."""
        return list(self.ids)

    def add_rows(
        self,
        source_ids,
        config: DKFConfig,
        transport: TransportPolicy | None = None,
        last_contact: int | None = None,
    ) -> int:
        """Register sources under one config; returns the first new row.

        One allocation per array however many sources arrive, so a
        fleet registers in linear time.
        """
        source_ids = list(source_ids)
        signature = model_signature(config.model)
        if self.bank is not None and signature != self._signature:
            raise ConfigurationError(
                "a server core runs one model signature per bank; "
                f"{source_ids[:1]} brings a different model"
            )
        if len(set(source_ids)) != len(source_ids) or any(
            source_id in self.index for source_id in source_ids
        ):
            raise DuplicateSourceError(
                f"source(s) among {source_ids[:3]}... already registered"
            )
        if self.bank is None:
            self._bind(config.model)
        first, count = self.rows, len(source_ids)
        for name in _ROW_ARRAYS:
            old = getattr(self, name)
            grown = np.zeros((first + count, *old.shape[1:]), old.dtype)
            grown[:first] = old
            setattr(self, name, grown)
        self.last_k[first:] = -1
        self.last_contact[first:] = (
            self.clock if last_contact is None else last_contact
        )
        self.suspect_after[first:] = (
            transport or TransportPolicy()
        ).suspect_after_ticks
        self.min_delta[first:] = config.min_delta
        self.bank.add_rows(count, config.p0_scale)
        self.nis_windows.extend(
            deque(maxlen=NIS_WINDOW) if self.track_health else None
            for _ in range(count)
        )
        self.index.update(zip(source_ids, range(first, first + count)))
        self.ids.extend(source_ids)
        return first

    def reset_row(self, row: int, last_contact: int) -> None:
        """Fresh-registration state for one row (its config stays)."""
        self.bank.reset_row(row)
        for name in ("expected_seq", *_COUNTERS, *_ROW_BOOLS, "answer"):
            getattr(self, name)[row] = 0
        self.last_k[row] = -1
        self.last_contact[row] = last_contact
        if self.nis_windows[row] is not None:
            self.nis_windows[row].clear()

    def _assemble(self, bank: VectorKalmanBank, parts) -> ServerCore:
        """A new core over ``bank`` holding the ``(core, rows)`` parts."""
        out = ServerCore(None, self.track_health, self._tel)
        out.bank, out._signature, out.clock = bank, self._signature, self.clock
        for name in _ROW_ARRAYS:
            setattr(out, name, np.concatenate(
                [getattr(core, name)[rows] for core, rows in parts]
            ))
        for core, rows in parts:
            for row in rows.tolist():
                out.index[core.ids[row]] = len(out.ids)
                out.ids.append(core.ids[row])
                window = core.nis_windows[row]
                out.nis_windows.append(
                    None if window is None
                    else deque(window, maxlen=NIS_WINDOW)
                )
        return out

    def take_rows(self, rows: np.ndarray) -> ServerCore:
        """A new core holding copies of ``rows`` (shard splitting)."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._assemble(self.bank.take_rows(rows), [(self, rows)])

    def concat(self, other: ServerCore) -> ServerCore:
        """This core's rows followed by ``other``'s, queued acks included."""
        out = self._assemble(
            self.bank.concat(other.bank),
            [(self, np.arange(self.rows)), (other, np.arange(other.rows))],
        )
        out._outbox = self._outbox + [
            (rows + self.rows, *rest) for rows, *rest in other._outbox
        ]
        return out

    def _row(self, source_id: str) -> int:
        try:
            return self.index[source_id]
        except (KeyError, TypeError):
            raise UnknownSourceError(
                f"source {source_id!r} not registered"
            ) from None

    def _count(self, name: str, amount) -> None:
        if amount and self._tel.enabled:
            self._tel.count(name, amount=int(amount))

    # ------------------------------------------------------------------
    # Clock and coasting
    # ------------------------------------------------------------------

    def advance_clock(self, tick: int) -> None:
        """Move the liveness clock forward (monotonic)."""
        if tick > self.clock:
            self.clock = tick

    def tick(self, rows: np.ndarray, k) -> None:
        """``DKFServer.tick`` per row: clock the state, coast if primed."""
        self.last_k[rows] = k
        coasting = rows[self.bank.primed[rows]]
        if coasting.size:
            self.bank.predict(coasting)
            self.answer[coasting] = self.bank.measurement(coasting)

    # ------------------------------------------------------------------
    # Receive (batched)
    # ------------------------------------------------------------------

    def apply_updates(self, rows, seqs, ks, z, digests=None) -> np.ndarray:
        """Tolerant receive of a batch of update messages, arrival order.

        ``DKFServer._receive_update`` per message: touch; a non-finite
        payload is refused and acked with a resync request; a stale seq
        is re-acked; a gap marks the row desynced and asks for a
        resync; the expected seq primes or corrects the filter and
        becomes the answer.  Every message queues one ack.  A source
        may appear more than once: the batch is cut into pieces with
        unique rows, applied in order.

        Args:
            rows, seqs, ks: Row, sequence number and sampling instant
                per message.
            z: Measurements, shape ``(len(rows), m)``.
            digests: Optional per-message 8-byte mirror digests (None
                entries skip verification).

        Returns:
            Per message, whether it was applied to the filter.
        """
        rows = np.asarray(rows, dtype=np.intp)
        seqs = np.asarray(seqs, dtype=np.int64)
        ks = np.asarray(ks, dtype=np.int64)
        z = np.asarray(z, dtype=float).reshape(rows.size, -1)
        applied = np.empty(rows.size, dtype=bool)
        with self._tel.timers.span("core.apply_updates"):
            start = 0
            for stop in _unique_cuts(rows):
                piece = slice(start, stop)
                applied[piece] = self._apply_unique(
                    rows[piece], seqs[piece], ks[piece], z[piece],
                    digests and digests[piece],
                )
                start = stop
        return applied

    def _apply_unique(self, rows, seqs, ks, z, digests) -> np.ndarray:
        self.last_contact[rows] = self.clock
        finite = np.isfinite(z).all(axis=1)
        expected = self.expected_seq[rows]
        ok = finite & (seqs == expected)
        resync = ~finite
        good = rows
        if not ok.all():
            stale = finite & (seqs < expected)
            gap = finite & (seqs > expected)
            self.rejected_nonfinite[rows[resync]] += 1
            self.duplicates_ignored[rows[stale]] += 1
            self.gaps_detected[rows[gap]] += 1
            self.desynced[rows[gap]] = True
            self._count("server_rejected_total", resync.sum())
            self._count("server_duplicates_total", stale.sum())
            self._count("server_gaps_total", gap.sum())
            resync = resync | gap
            good, seqs, ks, z = rows[ok], seqs[ok], ks[ok], z[ok]
        if good.size:
            seasoned, z_seasoned = good, z
            fresh = ~self.bank.primed[good]
            if fresh.any():
                self.bank.prime(good[fresh], z[fresh])
                seasoned, z_seasoned = good[~fresh], z[~fresh]
            if seasoned.size:
                self._observe_nis(seasoned, z_seasoned)
                self.bank.update(seasoned, z_seasoned)
            self.expected_seq[good] = seqs + 1
            # The true reading is a strictly better answer for this
            # instant than the blended posterior the filter keeps.
            self.answer[good] = z
            self.has_answer[good] = True
            self.updates_received[good] += 1
            self.last_k[good] = ks
            self._count("server_applies_total", good.size)
        if digests:
            for i in np.flatnonzero(ok):
                mirror = self.bank.x_row(rows[i]).tobytes()[:8]
                if digests[i] not in (None, mirror):
                    self.desynced[rows[i]] = True
                    resync[i] = True
        self._queue_acks(rows, resync)
        return ok

    def apply_resyncs(self, rows, seqs, ks, z, x, p) -> np.ndarray:
        """Receive full-state snapshots for distinct ``rows``.

        ``DKFServer._receive_resync`` per message: applied regardless
        of seq, heals a desync, restarts the NIS window; a snapshot
        carrying NaN/Inf is refused like a non-finite update.  Returns
        the applied mask.
        """
        rows = np.asarray(rows, dtype=np.intp)
        count = rows.size
        z = np.asarray(z, dtype=float).reshape(count, -1)
        x = np.asarray(x, dtype=float).reshape(count, -1)
        p = np.asarray(p, dtype=float).reshape(count, x.shape[1], -1)
        self.last_contact[rows] = self.clock
        ok = (
            np.isfinite(z).all(axis=1)
            & np.isfinite(x).all(axis=1)
            & np.isfinite(p).reshape(count, -1).all(axis=1)
        )
        self.rejected_nonfinite[rows[~ok]] += 1
        self._count("server_rejected_total", (~ok).sum())
        good = rows[ok]
        if good.size:
            self.bank.set_state(good, x[ok], p[ok])
            self.answer[good] = z[ok]
            self.has_answer[good] = True
            self.expected_seq[good] = np.asarray(seqs, dtype=np.int64)[ok] + 1
            self.resyncs_received[good] += 1
            self.desynced[good] = False
            self.last_k[good] = np.asarray(ks, dtype=np.int64)[ok]
            if self.track_health:
                for row in good.tolist():
                    self.nis_windows[row].clear()
            self._count("server_resyncs_total", good.size)
        self._queue_acks(rows, ~ok)
        return ok

    def heartbeats(self, rows) -> None:
        """Liveness beacons for distinct ``rows`` (or one row index)."""
        self.last_contact[rows] = self.clock
        self.heartbeats_received[rows] += 1

    def _observe_nis(self, rows: np.ndarray, z: np.ndarray) -> None:
        """``DKFServer._observe_nis``: batched y^T S^-1 y per row."""
        if not self.track_health or rows.size == 0:
            return
        innovation = z - self.bank.measurement(rows)
        s = self.bank.innovation_covariance(rows)
        try:
            sol = np.linalg.solve(s, innovation[..., None])[..., 0]
            nis = np.einsum("ri,ri->r", innovation, sol)
        except np.linalg.LinAlgError:
            nis = np.empty(rows.size)
            for i in range(rows.size):
                try:
                    nis[i] = float(
                        innovation[i]
                        @ np.linalg.solve(s[i], innovation[i])
                    )
                except np.linalg.LinAlgError:
                    nis[i] = np.inf
        for i, row in enumerate(rows):
            self.nis_windows[row].append(float(nis[i]))

    # ------------------------------------------------------------------
    # Acks
    # ------------------------------------------------------------------

    def _queue_acks(self, rows: np.ndarray, resync: np.ndarray) -> None:
        """One cumulative ack per message, stamped with the clock."""
        self._outbox.append((
            rows,
            self.expected_seq[rows],
            np.full(rows.size, self.clock, dtype=np.int64),
            resync,
        ))

    def take_acks(self) -> tuple[np.ndarray, ...]:
        """Drain the queued acks as ``(rows, seqs, ks, resync_flags)``."""
        chunks, self._outbox = self._outbox, []
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            empty = np.zeros(0, dtype=np.int64)
            return empty.astype(np.intp), empty, empty, empty.astype(bool)
        return tuple(np.concatenate(column) for column in zip(*chunks))

    def take_outbox(self) -> list[AckMessage]:
        """Drain the queued acks as messages (``DKFServer.take_outbox``)."""
        columns = (column.tolist() for column in self.take_acks())
        return [
            AckMessage(self.ids[row], seq, k, flag)
            for row, seq, k, flag in zip(*columns)
        ]

    # ------------------------------------------------------------------
    # DKFServer-shaped access by source id
    # ------------------------------------------------------------------

    def receive(
        self, message: UpdateMessage | ResyncMessage | HeartbeatMessage
    ) -> np.ndarray | None:
        """Apply one message; returns the refreshed answer (or None)."""
        row = self._row(message.source_id)
        if isinstance(message, HeartbeatMessage):
            self.heartbeats(row)
        elif isinstance(message, ResyncMessage):
            self.apply_resyncs(
                [row], [message.seq], [message.k],
                message.value, message.x, message.p,
            )
        else:
            self.apply_updates(
                [row], [message.seq], [message.k], message.value,
                message.digest and [message.digest],
            )
        return self.answer[row].copy() if self.has_answer[row] else None

    def is_primed(self, source_id: str) -> bool:
        """Whether the priming update for ``source_id`` has arrived."""
        return self.bank.is_primed(self._row(source_id))

    def _require_primed(self, primed, source_id: str) -> None:
        if not primed:
            raise UnknownSourceError(
                f"source {source_id!r} has not delivered its priming update"
            )

    def value(self, source_id: str) -> np.ndarray:
        """The server's current best value for a source."""
        row = self._row(source_id)
        self._require_primed(self.has_answer[row], source_id)
        return self.answer[row].copy()

    def confidence(self, source_id: str) -> float:
        """``delta / (delta + sigma)`` from the coasting covariance."""
        row = self._row(source_id)
        return self._confidence(row) if self.bank.is_primed(row) else 0.0

    def _confidence(self, row: int) -> float:
        s = self.bank.innovation_covariance_row(row)
        sigma = float(np.sqrt(max(s.diagonal().max(), 0.0)))
        delta = float(self.min_delta[row])
        return delta / (delta + sigma)

    def row_liveness(self, row: int) -> tuple[int, bool]:
        """``(staleness_ticks, suspect)`` of one row against the clock."""
        staleness = max(0, self.clock - int(self.last_contact[row]))
        return staleness, staleness > int(self.suspect_after[row])

    def answer_fields(self, source_id: str) -> tuple | None:
        """``(value, k, staleness_ticks, suspect, confidence)``; None unprimed.

        ``DKFServer.answer_fields`` from one row, for a one-source query.
        """
        row = self._row(source_id)
        if not self.bank.is_primed(row):
            return None
        return (
            tuple(self.answer[row].tolist()), int(self.last_k[row]),
            *self.row_liveness(row), self._confidence(row),
        )

    def answer_columns(self, clock: int, rows: np.ndarray) -> tuple:
        """``(primed, k, value, staleness, suspect, confidence)`` of ``rows``.

        Arrays in one read (``value`` is ``(len(rows), m)``): liveness
        against ``clock``, and :meth:`confidence` from one batched
        innovation covariance over the primed rows (0 where unprimed).
        """
        staleness = np.maximum(0, clock - self.last_contact[rows])
        primed = self.bank.primed_rows(rows)
        confidence = np.zeros(len(rows))
        live = rows[primed]
        if live.size:
            s = self.bank.innovation_covariance(live)
            peak = s.diagonal(axis1=1, axis2=2).max(axis=1)
            sigma = np.sqrt(np.maximum(peak, 0.0))
            delta = self.min_delta[live]
            confidence[primed] = delta / (delta + sigma)
        return (
            primed, self.last_k[rows], self.answer[rows], staleness,
            staleness > self.suspect_after[rows], confidence,
        )

    def forecast(self, source_id: str, steps: int) -> np.ndarray:
        """Extrapolate a source's value ``steps`` instants ahead."""
        row = self._row(source_id)
        self._require_primed(self.bank.is_primed(row), source_id)
        return self.bank.forecast_row(row, steps)

    def liveness(self, source_id: str) -> dict[str, int | bool]:
        """``staleness_ticks`` / ``suspect`` / ``last_contact`` verdict."""
        row = self._row(source_id)
        staleness, suspect = self.row_liveness(row)
        return {
            "staleness_ticks": staleness,
            "suspect": suspect,
            "last_contact": int(self.last_contact[row]),
        }

    def primed_count(self) -> int:
        """Registered sources whose priming update has arrived."""
        return 0 if self.bank is None else int(self.bank.primed.sum())

    def suspect_count(self) -> int:
        """Registered sources silent past their liveness deadline."""
        silence = self.clock - self.last_contact
        return int((silence > self.suspect_after).sum())

    def stats(self, source_id: str) -> dict[str, int | bool]:
        """Per-source protocol counters (``DKFServer.stats`` shape)."""
        row = self._row(source_id)
        out: dict[str, int | bool] = {
            name: int(getattr(self, name)[row]) for name in _COUNTERS
        }
        out["desynced"] = bool(self.desynced[row])
        for name in ("last_k", "last_contact", "expected_seq"):
            out[name] = int(getattr(self, name)[row])
        return out

    # ------------------------------------------------------------------
    # Checkpoint / recovery support
    # ------------------------------------------------------------------

    def export_row(self, row: int) -> dict:
        """``DKFServer.export_source_state`` shape for one row."""
        out: dict[str, object] = {
            "expected_seq": int(self.expected_seq[row]),
            "k": int(self.last_k[row]),
            "last_contact": int(self.last_contact[row]),
        }
        for name in _COUNTERS:
            out[name] = int(getattr(self, name)[row])
        out["desynced"] = bool(self.desynced[row])
        out["answer"] = (
            self.answer[row].tolist() if self.has_answer[row] else None
        )
        out["filter"] = self.bank.export_row(row)
        return out

    def export_source_state(self, source_id: str) -> dict:
        """Checkpoint-friendly snapshot of one source's full state."""
        return self.export_row(self._row(source_id))

    def import_row(self, row: int, data: dict) -> None:
        """``DKFServer.import_source_state`` for one row."""
        try:
            self.expected_seq[row] = int(data["expected_seq"])
            self.last_k[row] = int(data["k"])
            self.last_contact[row] = int(data["last_contact"])
            for name in _COUNTERS:
                getattr(self, name)[row] = int(data.get(name, 0))
            self.desynced[row] = bool(data["desynced"])
            answer, filt = data["answer"], data["filter"]
            self.has_answer[row] = answer is not None
            if answer is not None:
                self.answer[row] = np.asarray(answer, dtype=float)
            if filt is None:
                self.bank.reset_row(row)
            else:
                self.bank.import_row(row, filt)
        except (KeyError, TypeError, ValueError) as exc:
            raise MirrorDesyncError(
                f"malformed checkpoint state for source "
                f"{self.ids[row]!r}: {exc}"
            ) from None

    def reprime_row(self, row: int) -> None:
        """``DKFServer.reprime``: re-anchor a wedged filter's covariance."""
        bank = self.bank
        arr = np.array([row], dtype=np.intp)
        x = bank.x_row(row)
        answer_ok = bool(
            self.has_answer[row] and np.isfinite(self.answer[row]).all()
        )
        if np.isfinite(x).all():
            bank.set_state(arr, x[None, :], bank.p0_row(row)[None])
        else:
            seed = (
                self.answer[row].copy() if answer_ok
                else np.zeros(bank.measurement_dim)
            )
            keep_k = bank.k_row(row)
            bank.prime(arr, seed[None, :])
            bank.set_clock(arr, keep_k)
            if not answer_ok:
                self.answer[row] = bank.measurement(arr)[0]
                self.has_answer[row] = True
        if self.nis_windows[row] is not None:
            self.nis_windows[row].clear()
