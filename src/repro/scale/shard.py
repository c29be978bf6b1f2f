"""Shard runtime: the DKF protocol state machine over array-of-streams.

A shard holds every per-stream quantity of the scalar engine as
parallel numpy arrays over N homogeneous rows (same model signature).
It owns the *source* half itself -- stream cursors, sequence numbers,
pending-ack buffers, the mirror :class:`VectorKalmanBank` -- and the
simulated link between the halves (loss/corruption predicates, link
counters, WAL hook).  The *server* half -- sequence expectations,
liveness, protocol counters, answers, the ``KF_s`` bank, the ack outbox
-- is a :class:`~repro.scale.core.ServerCore` (``shard.core``; its bank
is ``shard.server``), the same object the wire server runs, so the
bank-side receive rules exist once.  One :meth:`ShardRuntime.step` call
advances every row one sampling instant with a handful of batched array
operations.

Semantic parity with the scalar stack is the design constraint, not an
afterthought; each phase below names the scalar code it mirrors
(``SourceDriver.step``, ``DKFSource.sample``/``poll_transport``,
``DKFServer.receive``/``tick``, ``NetworkFabric.send``).  Rows fall into
two transport regimes:

* **fast rows** -- lossless link, server up, empty pending buffer, no
  resync request.  A transmitted update is delivered, applied and acked
  within the same step, and the scalar pending-ack entry it would have
  created is observably inert (its deadline is in the future and the
  same-step ack removes it), so the fast path skips the per-row buffer
  entirely and applies the server side as one batched bank update.
* **slow rows** -- anything with a loss/corruption predicate, a live
  pending buffer, a resync request, or a dead server.  These walk the
  exact per-row scalar transport state machine (timeout scan, backoff,
  resync cut, heartbeat) so fault semantics match bit for bit.

A row moves between regimes as its pending buffer drains, so a healthy
shard pays the slow path only for the rows that are actually unhealthy.
"""

from __future__ import annotations

import numpy as np

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import HeartbeatMessage, ResyncMessage, UpdateMessage
from repro.errors import ConfigurationError
from repro.filters.models import StateSpaceModel
from repro.resilience.checkpoint import wal_record
from repro.scale.core import ServerCore
from repro.scale.vector_bank import (
    VectorKalmanBank,
    model_signature,
    require_static_model,
)
from repro.streams.base import StreamRecord

__all__ = ["ShardRuntime", "ShardRouter", "model_signature"]

_UPDATE, _RESYNC, _HEARTBEAT = 0, 1, 2

#: Per-row int64 state arrays of the source half and the link (order
#: irrelevant; used for subset/split).
_ROW_INTS = (
    "pos", "m_k", "seq_next", "last_send",
    "samples_seen", "updates_sent", "readings_rejected",
    "src_retransmits", "heartbeats_sent",
    "offered", "delivered", "lost", "corrupted",
    "link_resyncs", "link_heartbeats",
    "acks_offered", "acks_delivered", "bytes_delivered",
    "consec_rejects", "hb_interval",
)
#: Per-row bool state arrays.
_ROW_BOOLS = (
    "has_last", "resync_requested", "exhausted", "retired",
    "lossy", "has_pending", "resync_prime",
)


class ShardRuntime:
    """N homogeneous DKF stream pairs advanced in lockstep.

    Rows are appended with :meth:`add_row` (engine install time) and
    addressed by index.  The runtime is self-contained and picklable
    when no closure-valued loss predicates are attached, which is what
    lets the worker pool ship whole shards to subprocesses.
    """

    def __init__(
        self, shard_id: str, model: StateSpaceModel, track_health: bool = False
    ) -> None:
        require_static_model(model)
        self.shard_id = shard_id
        self.model = model
        self.track_health = track_health
        self.mirror = VectorKalmanBank(model)
        self.core = ServerCore(model, track_health)
        self.n = model.state_dim
        self.m = model.measurement_dim
        # Wire frame sizes are constant across a homogeneous shard.
        zed = np.zeros(self.m)
        self.update_bytes = UpdateMessage("_", 0, 0, zed).size_bytes
        self.resync_bytes = ResyncMessage(
            "_", 0, 0, np.zeros(self.n), np.zeros((self.n, self.n)), zed
        ).size_bytes
        self.heartbeat_bytes = HeartbeatMessage("_", 0, 0).size_bytes

        self.policies: list[TransportPolicy] = []
        self.configs: list[DKFConfig] = []
        self.streams: list[np.ndarray] = []
        self.stream_ts: list[np.ndarray] = []
        self.pending: list[dict[int, tuple[int, int]]] = []
        self.loss_fns: dict[int, object] = {}
        self.corrupt_fns: dict[int, object] = {}
        self.crash_rows: set[int] = set()
        self.sensor_rows: set[int] = set()
        self.restart_pending: set[int] = set()
        self.dropped_while_down = 0
        # Mean per-step wall time of the last pooled chunk, µs; stamped
        # by the worker so the parent's autoscaler can keep its latency
        # models fed across process boundaries.
        self.last_step_us: float | None = None
        self._padded: np.ndarray | None = None
        self._pad_ts: np.ndarray | None = None
        self.lengths = np.zeros(0, dtype=np.int64)

        for name in _ROW_INTS:
            setattr(self, name, np.zeros(0, dtype=np.int64))
        for name in _ROW_BOOLS:
            setattr(self, name, np.zeros(0, dtype=bool))
        self.delta = np.zeros((0, self.m))
        self.last_value = np.zeros((0, self.m))

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Number of stream pairs in this shard."""
        return self.core.rows

    @property
    def ids(self) -> list[str]:
        """Row -> source id (the core's registration order)."""
        return self.core.ids

    @property
    def index(self) -> dict[str, int]:
        """Source id -> row."""
        return self.core.index

    @property
    def server(self) -> VectorKalmanBank:
        """The server-side ``KF_s`` bank (live object, owned by the core)."""
        return self.core.bank

    def add_row(
        self,
        source_id: str,
        config: DKFConfig,
        policy: TransportPolicy,
        values: np.ndarray,
        timestamps: np.ndarray,
        register_clock: int = 0,
        loss_fn=None,
        corrupt_fn=None,
    ) -> int:
        """Append one stream pair; returns its row index."""
        if source_id in self.index:
            raise ConfigurationError(f"row {source_id!r} already in shard")
        row = self.rows
        self.policies.append(policy)
        self.configs.append(config)
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[1] != self.m:
            raise ConfigurationError(
                f"stream for {source_id!r} has dim {v.shape[1]}, "
                f"model wants {self.m}"
            )
        self.streams.append(v)
        self.stream_ts.append(np.asarray(timestamps, dtype=float))
        self.pending.append({})
        self._padded = None

        for name in _ROW_INTS:
            setattr(
                self, name,
                np.concatenate([getattr(self, name), [0]]).astype(np.int64),
            )
        for name in _ROW_BOOLS:
            setattr(
                self, name,
                np.concatenate(
                    [getattr(self, name), np.zeros(1, dtype=bool)]
                ),
            )
        self.delta = np.concatenate([self.delta, [config.delta_vector()]])
        self.last_value = np.concatenate(
            [self.last_value, np.zeros((1, self.m))]
        )

        self.m_k[row] = -1
        self.hb_interval[row] = policy.heartbeat_interval_ticks
        self.mirror.add_row(config.p0_scale)
        self.core.add_rows(
            [source_id], config, policy, last_contact=register_clock
        )
        if loss_fn is not None or corrupt_fn is not None:
            self.set_link_faults(row, loss_fn, corrupt_fn)
        return row

    def set_link_faults(self, row: int, loss_fn, corrupt_fn) -> None:
        """Attach loss/corruption predicates; the row turns slow-path."""
        if loss_fn is not None:
            self.loss_fns[row] = loss_fn
        if corrupt_fn is not None:
            self.corrupt_fns[row] = corrupt_fn
        self.lossy[row] = (
            row in self.loss_fns or row in self.corrupt_fns
        )

    def reconfigure_row(
        self, row: int, config: DKFConfig, register_clock: int
    ) -> None:
        """Reinstall a row under a new config (query tightened its δ).

        Mirrors ``StreamEngine._install``: a fresh source endpoint and a
        fresh server registration -- both filters reset, sequence space
        restarts at zero, link counters survive (they live in the
        fabric, not the endpoints).  The stream cursor keeps its place.
        """
        self.configs[row] = config
        self.delta[row] = config.delta_vector()
        self._reset_source_row(row, now=0)
        self.last_send[row] = 0
        self.core.min_delta[row] = config.min_delta
        self.core.reset_row(row, register_clock)
        self.resync_prime[row] = False
        self.restart_pending.discard(row)

    def _reset_source_row(self, row: int, now: int) -> None:
        """``DKFSource.reset``: crash wipes all source-side state."""
        self.mirror.reset_row(row)
        self.pending[row].clear()
        self.has_pending[row] = False
        self.resync_requested[row] = False
        self.seq_next[row] = 0
        self.m_k[row] = -1
        self.has_last[row] = False
        self.last_value[row] = 0.0
        self.last_send[row] = now
        for name in (
            "samples_seen", "updates_sent", "readings_rejected",
            "src_retransmits", "heartbeats_sent",
        ):
            getattr(self, name)[row] = 0

    def _ensure_padded(self) -> None:
        if self._padded is not None:
            return
        count = self.rows
        longest = max((len(s) for s in self.streams), default=0)
        self.lengths = np.array(
            [len(s) for s in self.streams], dtype=np.int64
        )
        self._padded = np.full((count, longest, self.m), np.nan)
        self._pad_ts = np.zeros((count, longest))
        for i, s in enumerate(self.streams):
            self._padded[i, : len(s)] = s
            self._pad_ts[i, : len(s)] = self.stream_ts[i]

    # ------------------------------------------------------------------
    # Step
    # ------------------------------------------------------------------

    def step(
        self,
        now: int,
        *,
        server_down: bool = False,
        faults=None,
        supervisor=None,
        wal=None,
    ) -> int:
        """Advance every row one sampling instant; returns readings taken.

        Phases mirror ``SourceDriver.step`` + the engine's step tail:
        crash/restart handling, bulk read + sensor faults, server tick,
        mirror suppression decision, sends, transport poll, ack flush.
        """
        self._ensure_padded()
        self.core.clock = now
        down = np.zeros(self.rows, dtype=bool)

        # -- Phase A: crash/restart faults (affected rows only) ----------
        if faults is not None and (self.crash_rows or self.restart_pending):
            for row in sorted(self.crash_rows | self.restart_pending):
                sid = self.ids[row]
                if faults.restarts_at(sid, now) or row in self.restart_pending:
                    if supervisor is None or supervisor.request_restart(
                        sid, now
                    ):
                        self.restart_pending.discard(row)
                        self._reset_source_row(row, now)
                        self.resync_prime[row] = True
                    else:
                        self.restart_pending.add(row)
                if faults.is_down(sid, now) or row in self.restart_pending:
                    down[row] = True
                    if not server_down and self.server.is_primed(row):
                        self.core.tick(np.array([row]), now)
                    if faults.is_terminal(sid, now):
                        self.exhausted[row] = True

        # -- Phase B: bulk read ------------------------------------------
        active = ~self.exhausted & ~self.retired & ~down
        rows_a = np.flatnonzero(active)
        have = self.pos[rows_a] < self.lengths[rows_a]
        self.exhausted[rows_a[~have]] = True
        read_rows = rows_a[have]
        processed = int(read_rows.size)
        if processed:
            k_rows = self.pos[read_rows].copy()
            z = self._padded[read_rows, k_rows].copy()
            if faults is not None and self.sensor_rows:
                for i, row in enumerate(read_rows):
                    if int(row) in self.sensor_rows:
                        rec = StreamRecord(
                            k=int(k_rows[i]),
                            timestamp=float(self._pad_ts[row, k_rows[i]]),
                            value=z[i],
                        )
                        rec = faults.transform(self.ids[int(row)], now, rec)
                        z[i] = np.asarray(rec.value, dtype=float)
            self.pos[read_rows] += 1
            self.m_k[read_rows] = k_rows
            self.samples_seen[read_rows] += 1

            # -- Phase C: server tick at each row's sampling instant -----
            if not server_down:
                self.core.tick(read_rows, k_rows)

            # -- Phase D: mirror sample (reject / prime / suppress) ------
            finite = np.isfinite(z).all(axis=1)
            rej = read_rows[~finite]
            if rej.size:
                self.readings_rejected[rej] += 1
                self.consec_rejects[rej] += 1
                m_primed = self.mirror.primed
                self.mirror.predict(rej[m_primed[rej]])
            acc = read_rows[finite]
            z_acc = z[finite]
            if acc.size:
                self.consec_rejects[acc] = 0
                self.last_value[acc] = z_acc
                self.has_last[acc] = True
                m_primed = self.mirror.primed
                new_mask = ~m_primed[acc]
                prime_rows = acc[new_mask]
                steady = acc[~new_mask]
                if prime_rows.size:
                    self.mirror.prime(prime_rows, z_acc[new_mask])
                tx_rows = np.zeros(0, dtype=np.intp)
                z_tx = np.zeros((0, self.m))
                if steady.size:
                    self.mirror.predict(steady)
                    pred = self.mirror.measurement(steady)
                    z_st = z_acc[~new_mask]
                    over = (
                        np.abs(pred - z_st) > self.delta[steady]
                    ).any(axis=1)
                    tx_rows = steady[over]
                    z_tx = z_st[over]
                    if tx_rows.size:
                        self.mirror.update(tx_rows, z_tx)

                # -- Phase E/F: build + send this tick's messages --------
                self._send_sampled(
                    prime_rows, z_acc[new_mask], tx_rows, z_tx,
                    now, server_down, wal,
                )

        # -- Phase G: transport poll (retransmits + heartbeats) ----------
        self._poll(now, down, server_down, wal)
        return processed

    # ------------------------------------------------------------------
    # Sends
    # ------------------------------------------------------------------

    def _send_sampled(
        self,
        prime_rows: np.ndarray,
        z_prime: np.ndarray,
        tx_rows: np.ndarray,
        z_tx: np.ndarray,
        now: int,
        server_down: bool,
        wal,
    ) -> None:
        """Offer this tick's sampled messages to the link.

        Priming rows flagged ``resync_prime`` (post-restart) consume two
        sequence numbers -- the discarded update plus the resync snapshot
        -- exactly like the scalar engine's resync-prime conversion.
        """
        fastable = (
            ~self.lossy
            & ~self.has_pending
            & ~self.resync_requested
        ) if not server_down else np.zeros(self.rows, dtype=bool)

        # Updates: plain primings + over-δ transmissions.
        plain_prime = prime_rows[~self.resync_prime[prime_rows]]
        z_plain = z_prime[~self.resync_prime[prime_rows]]
        upd_rows = np.concatenate([plain_prime, tx_rows]).astype(np.intp)
        z_upd = np.concatenate([z_plain, z_tx])
        if upd_rows.size:
            seqs = self.seq_next[upd_rows].copy()
            self.seq_next[upd_rows] += 1
            self.updates_sent[upd_rows] += 1
            fast = fastable[upd_rows] & (
                seqs == self.core.expected_seq[upd_rows]
            )
            f_rows, f_z, f_seq = upd_rows[fast], z_upd[fast], seqs[fast]
            if f_rows.size:
                self._fast_apply_updates(f_rows, f_z, f_seq, now, wal)
            for i in np.flatnonzero(~fast):
                row = int(upd_rows[i])
                self._send_slow(
                    row, _UPDATE, int(seqs[i]), int(self.m_k[row]),
                    z_upd[i], now, server_down, wal,
                )
                self._note_sent(row, int(seqs[i]), now)

        # Resync primings (seq_next was consumed by the discarded update).
        rs_rows = prime_rows[self.resync_prime[prime_rows]]
        z_rs = z_prime[self.resync_prime[prime_rows]]
        if rs_rows.size:
            self.updates_sent[rs_rows] += 1
            seqs = self.seq_next[rs_rows] + 1
            self.seq_next[rs_rows] += 2
            self.resync_prime[rs_rows] = False
            fast = fastable[rs_rows]
            f_rows, f_z, f_seq = rs_rows[fast], z_rs[fast], seqs[fast]
            if f_rows.size:
                self._fast_apply_resyncs(f_rows, f_z, f_seq, now, wal)
            for i in np.flatnonzero(~fast):
                row = int(rs_rows[i])
                self._send_slow(
                    row, _RESYNC, int(seqs[i]), int(self.m_k[row]),
                    z_rs[i], now, server_down, wal,
                    x=self.mirror.x_row(row), p=self.mirror.p_row(row),
                )
                self._note_sent(row, int(seqs[i]), now)

    def _note_sent(self, row: int, seq: int, now: int) -> None:
        """``DKFSource.note_sent``: arm the ack deadline for a send."""
        deadline = now + self.policies[row].retry_timeout(0)
        self.pending[row][seq] = (deadline, 0)
        self.has_pending[row] = True
        self.last_send[row] = now

    def _deliver(
        self, kind: int, rows, seqs, ks, z, wal, x=None, p=None
    ) -> None:
        """Hand delivered messages to the core; log what it applied.

        The acks the core queues are settled by :meth:`flush_acks` at
        the end of the step.
        """
        if kind == _UPDATE:
            applied = self.core.apply_updates(rows, seqs, ks, z)
        else:
            applied = self.core.apply_resyncs(rows, seqs, ks, z, x, p)
        if wal is None:
            return
        count = len(rows)
        z = np.asarray(z, dtype=float).reshape(count, self.m)
        if kind == _RESYNC:
            x = np.reshape(x, (count, self.n))
            p = np.reshape(p, (count, self.n, self.n))
        resync = kind == _RESYNC
        for i in np.flatnonzero(applied):
            wal(wal_record(
                "resync" if resync else "update",
                self.ids[int(rows[i])], seqs[i], ks[i], z[i],
                x[i] if resync else None, p[i] if resync else None,
            ))

    def _fast_apply_updates(
        self, rows, z, seqs, now: int, wal
    ) -> None:
        """Lossless same-step delivery + apply for update rows."""
        self.offered[rows] += 1
        self.delivered[rows] += 1
        self.bytes_delivered[rows] += self.update_bytes
        self.last_send[rows] = now
        self._deliver(_UPDATE, rows, seqs, self.m_k[rows], z, wal)

    def _fast_apply_resyncs(self, rows, z, seqs, now: int, wal) -> None:
        """Lossless same-step delivery of resync-prime snapshots."""
        self.offered[rows] += 1
        self.link_resyncs[rows] += 1
        self.delivered[rows] += 1
        self.bytes_delivered[rows] += self.resync_bytes
        self.last_send[rows] = now
        self._deliver(
            _RESYNC, rows, seqs, self.m_k[rows], z, wal,
            x=self.mirror._x[rows], p=self.mirror._p[rows],
        )

    def _send_slow(
        self,
        row: int,
        kind: int,
        seq: int,
        k: int,
        value,
        now: int,
        server_down: bool,
        wal,
        x=None,
        p=None,
    ) -> None:
        """One message through the full fabric + server receive path.

        Mirrors ``NetworkFabric.send`` (offered index, kind counters
        before loss, loss then corruption, bytes on delivery); what
        the link delivers is received by the core.
        """
        index = int(self.offered[row])
        self.offered[row] += 1
        if kind == _RESYNC:
            self.link_resyncs[row] += 1
        elif kind == _HEARTBEAT:
            self.link_heartbeats[row] += 1
        loss = self.loss_fns.get(row)
        if loss is not None and loss(index):
            self.lost[row] += 1
            return
        corrupt = self.corrupt_fns.get(row)
        if corrupt is not None and corrupt(index):
            # A flipped bit always trips the CRC-32 trailer, so the
            # receiver rejects the frame; equivalent to a counted drop.
            self.corrupted[row] += 1
            return
        self.delivered[row] += 1
        self.bytes_delivered[row] += (
            self.update_bytes if kind == _UPDATE
            else self.resync_bytes if kind == _RESYNC
            else self.heartbeat_bytes
        )
        if server_down:
            self.dropped_while_down += 1
            return
        if kind == _HEARTBEAT:
            self.core.heartbeats(row)
        else:
            self._deliver(kind, [row], [seq], [k], value, wal, x=x, p=p)

    # ------------------------------------------------------------------
    # Transport poll
    # ------------------------------------------------------------------

    def _poll(
        self, now: int, down: np.ndarray, server_down: bool, wal
    ) -> None:
        """``DKFSource.poll_transport`` for every live row.

        Slow rows (live pending buffer or a resync request) walk the
        scalar timeout/backoff/resync logic per row; everyone else is a
        single vectorized heartbeat check.
        """
        m_primed = self.mirror.primed
        eligible = ~down & ~self.retired & m_primed & self.has_last
        slow = np.flatnonzero(
            eligible & (self.has_pending | self.resync_requested)
        )
        for row_i in slow:
            row = int(row_i)
            pend = self.pending[row]
            retry_attempt = None
            if pend and min(d for d, _ in pend.values()) <= now:
                retry_attempt = 1 + max(a for _, a in pend.values())
            elif self.resync_requested[row]:
                retry_attempt = 0
            if retry_attempt is not None:
                seq = int(self.seq_next[row])
                self.seq_next[row] += 1
                self.src_retransmits[row] += 1
                self._send_slow(
                    row, _RESYNC, seq, int(self.m_k[row]),
                    self.last_value[row].copy(), now, server_down, wal,
                    x=self.mirror.x_row(row), p=self.mirror.p_row(row),
                )
                pend.clear()
                deadline = now + self.policies[row].retry_timeout(
                    retry_attempt
                )
                pend[seq] = (deadline, retry_attempt)
                self.has_pending[row] = True
                self.resync_requested[row] = False
                self.last_send[row] = now
            # A row with an armed (not yet due) pending entry never
            # heartbeats -- same as the scalar `not pending` guard.

        hb = (
            eligible
            & ~self.has_pending
            & ~self.resync_requested
            & (now - self.last_send >= self.hb_interval)
        )
        hb_rows = np.flatnonzero(hb)
        if hb_rows.size == 0:
            return
        self.heartbeats_sent[hb_rows] += 1
        self.last_send[hb_rows] = now
        hb_lossy = hb_rows[self.lossy[hb_rows]]
        for row in hb_lossy:
            self._send_slow(
                int(row), _HEARTBEAT, int(self.seq_next[row]),
                int(self.m_k[row]), None, now, server_down, wal,
            )
        hb_fast = hb_rows[~self.lossy[hb_rows]]
        if hb_fast.size:
            self.offered[hb_fast] += 1
            self.link_heartbeats[hb_fast] += 1
            self.delivered[hb_fast] += 1
            self.bytes_delivered[hb_fast] += self.heartbeat_bytes
            if server_down:
                self.dropped_while_down += int(hb_fast.size)
            else:
                self.core.heartbeats(hb_fast)

    def flush_acks(self) -> None:
        """Deliver the core's queued acks (end of step, ``fabric.send_ack``)."""
        rows, ack_seqs, _, resync_flags = self.core.take_acks()
        if not rows.size:
            return
        acked = np.bincount(rows, minlength=self.rows)
        self.acks_offered += acked
        self.acks_delivered += acked
        # Only a row with an armed pending entry or a resync request has
        # anything to settle; a fast row's ack is a counter and no more.
        for i in np.flatnonzero(self.has_pending[rows] | resync_flags):
            row = int(rows[i])
            pend = self.pending[row]
            if pend:
                for seq in [s for s in pend if s < ack_seqs[i]]:
                    del pend[seq]
                self.has_pending[row] = bool(pend)
            if resync_flags[i]:
                self.resync_requested[row] = True

    def pending_acks(self) -> int:
        """Total armed pending-ack entries (settle loop predicate)."""
        return sum(len(p) for p in self.pending)

    # ------------------------------------------------------------------
    # Checkpoint / recovery support
    # ------------------------------------------------------------------

    def replay_apply(
        self, row: int, kind: str, seq: int, k: int, value, x=None, p=None
    ) -> None:
        """WAL replay: the receive half only (no fabric, acks discarded).

        The caller interleaves the prediction ticks; ``last_contact``
        lands on the record's sampling instant exactly like the scalar
        replay's ``advance_clock(k)`` + zero-latency delivery.
        """
        self.core.clock = k
        if kind == "resync":
            self.core.apply_resyncs([row], [seq], [k], value, x, p)
        else:
            self.core.apply_updates([row], [seq], [k], value)
        self.core.take_acks()

    def server_tick_row(self, row: int, k: int) -> None:
        """Single-row server tick (WAL replay / recovery roll-forward)."""
        self.core.tick(np.array([row], dtype=np.intp), k)

    # ------------------------------------------------------------------
    # Splitting (DRS-style rebalance)
    # ------------------------------------------------------------------

    def _assemble(self, shard_id: str, mirror, core, parts) -> ShardRuntime:
        """A new runtime over the given banks holding ``(shard, rows)`` parts.

        Every piece of per-row state -- transport counters, pending
        retransmission buffers, fault predicates, crash/sensor/restart
        sets -- is carried across verbatim, row indices renumbered.
        """
        out = ShardRuntime(shard_id, self.model, self.track_health)
        out.mirror, out.core = mirror, core
        for part, rows in parts:
            for old in rows.tolist():
                new_i = len(out.policies)
                out.policies.append(part.policies[old])
                out.configs.append(part.configs[old])
                out.streams.append(part.streams[old])
                out.stream_ts.append(part.stream_ts[old])
                out.pending.append(dict(part.pending[old]))
                if old in part.loss_fns:
                    out.loss_fns[new_i] = part.loss_fns[old]
                if old in part.corrupt_fns:
                    out.corrupt_fns[new_i] = part.corrupt_fns[old]
                if old in part.crash_rows:
                    out.crash_rows.add(new_i)
                if old in part.sensor_rows:
                    out.sensor_rows.add(new_i)
                if old in part.restart_pending:
                    out.restart_pending.add(new_i)
        for name in (*_ROW_INTS, *_ROW_BOOLS, "delta", "last_value"):
            setattr(out, name, np.concatenate(
                [getattr(part, name)[rows] for part, rows in parts]
            ))
        return out

    def subset(self, rows: np.ndarray, shard_id: str) -> "ShardRuntime":
        """A new runtime holding copies of ``rows`` (in the given order)."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._assemble(
            shard_id,
            self.mirror.take_rows(rows),
            self.core.take_rows(rows),
            [(self, rows)],
        )

    def split(self) -> tuple["ShardRuntime", "ShardRuntime"]:
        """Split into two halves (latency budget breached)."""
        if self.rows < 2:
            raise ConfigurationError("cannot split a shard with < 2 rows")
        cut = self.rows // 2
        low = self.subset(np.arange(cut), f"{self.shard_id}a")
        high = self.subset(np.arange(cut, self.rows), f"{self.shard_id}b")
        return low, high

    def merge(
        self, other: "ShardRuntime", shard_id: str | None = None
    ) -> "ShardRuntime":
        """State-preserving inverse of :meth:`split`.

        Returns a new runtime holding this shard's rows followed by
        ``other``'s, filter banks, NIS windows and queued acks included.
        A merged shard continues exactly where the two parts left off,
        including rows mid-way through slow-path loss recovery.
        """
        if other is self:
            raise ConfigurationError("cannot merge a shard with itself")
        if model_signature(self.model) != model_signature(other.model):
            raise ConfigurationError(
                "cannot merge shards with different model signatures"
            )
        if self.track_health != other.track_health:
            raise ConfigurationError(
                "cannot merge shards with different health tracking"
            )
        overlap = self.index.keys() & other.index.keys()
        if overlap:
            raise ConfigurationError(
                f"duplicate rows across merge: {sorted(overlap)}"
            )
        out = self._assemble(
            shard_id or f"{self.shard_id}+{other.shard_id}",
            self.mirror.concat(other.mirror),
            self.core.concat(other.core),
            [(self, np.arange(self.rows)), (other, np.arange(other.rows))],
        )
        out.dropped_while_down = (
            self.dropped_while_down + other.dropped_while_down
        )
        return out


class ShardRouter:
    """Partition streams into shards by model signature (DRS placement).

    Streams whose models share a byte-identical F/H/Q/R signature batch
    into the same shard (up to ``max_shard_rows``); a new signature
    opens a new shard.  The router owns no tick loop -- the engine (or
    worker pool) drives the runtimes it hands out.
    """

    def __init__(
        self, max_shard_rows: int = 4096, track_health: bool = False
    ) -> None:
        if max_shard_rows < 1:
            raise ConfigurationError("max_shard_rows must be positive")
        self.max_shard_rows = max_shard_rows
        self.track_health = track_health
        self.shards: list[ShardRuntime] = []
        self._open: dict[tuple, int] = {}
        self._counter = 0

    def place(self, model: StateSpaceModel) -> ShardRuntime:
        """The shard a stream of this model should join (creating one)."""
        sig = model_signature(model)
        idx = self._open.get(sig)
        if idx is not None and self.shards[idx].rows < self.max_shard_rows:
            return self.shards[idx]
        shard = ShardRuntime(
            f"shard-{self._counter}", model, self.track_health
        )
        self._counter += 1
        self.shards.append(shard)
        self._open[sig] = len(self.shards) - 1
        return shard

    def replace(
        self, old: ShardRuntime, parts: tuple[ShardRuntime, ...]
    ) -> None:
        """Swap a split shard for its halves (rebalance bookkeeping)."""
        idx = self.shards.index(old)
        self.shards[idx : idx + 1] = list(parts)
        # Replacing one shard with several shifts every later shard's
        # index, so the whole open-shard map is rebuilt (last shard of
        # each signature wins -- future placements go there).
        self._reindex()

    def combine(
        self, first: ShardRuntime, second: ShardRuntime
    ) -> ShardRuntime:
        """Merge two sibling shards back into one (scale-down).

        The merged runtime takes ``first``'s slot; ``second``'s slot is
        removed.  Returns the merged shard.
        """
        merged = first.merge(second)
        idx = self.shards.index(first)
        self.shards[idx] = merged
        self.shards.remove(second)
        self._reindex()
        return merged

    def _reindex(self) -> None:
        """Rebuild the signature -> open-shard index after surgery."""
        self._open = {
            model_signature(shard.model): i
            for i, shard in enumerate(self.shards)
        }
