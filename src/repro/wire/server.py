"""The UDP-facing server half of the wire runtime.

A :class:`WireServer` wraps the sans-IO :class:`~repro.scale.core.
ServerCore` (one ``KF_s`` bank row per source, tolerant delivery, ack
outbox) with the real-socket plumbing: a batch-draining UDP receiver
feeding a :class:`~repro.resilience.supervisor.BoundedInbox`,
event-driven apply, ack datagrams flowing back to each source's last
seen address, and socket-level backpressure -- the inbox depth feeds the
PR-3 :class:`~repro.resilience.supervisor.OverloadController` exactly
the way the tick engine's drain loop does, and the resulting δ-scale
changes are handed to the runtime's control-plane callback (in the soak
harness the fleet is co-located, so the callback applies them directly;
a deployed fleet would receive them out-of-band).

Event-driven apply, periodic housekeeping.  The receive callback does
nothing but enqueue (the inbox is the single admission point) and arm a
*slice*: a ``loop.call_soon`` callback that decodes and applies as many
queued datagrams as :data:`~repro.wire.datagram.SLICE_BUDGET_S` of wall
time buys at the measured service time, in one batch, flushes their
acks and re-arms itself while work remains, so an update
is visible milliseconds after its ``sendto`` and TCP queries interleave
between slices.  The budget is time, not a datagram count, because what
a query waits for is the stretch the loop does not yield.  The tick
(:meth:`WireServer.process_tick`) keeps what is genuinely periodic: the
liveness clock, the ``drain_per_tick`` apply allowance refill, the
overload step and the inbox gauge.

What a slice does with a batch (docs/WIRE.md §2).  Plain update frames
(tag 0x01) of the bank's measurement dimension are fixed-size records;
each maximal run of them is decoded in bulk, resolved hash -> row in one
:class:`~repro.dkf.protocol.SourceHashIndex` call and handed to the core
as arrays -- one batched filter correction per run.
Every other frame goes one at a time through
:meth:`WireServer._apply_datagram`: resyncs, heartbeats and digest
updates, which are rare, and whatever a run turns up as corrupt,
unknown or from the future, which the poison ledger books by reason.
A run is applied before the frame that ends it, so each source's
frames take effect in arrival order; the slice's acks are packed from
the core's ``(row, seq, k, flag)`` columns and sent when it ends, each
to its row's address slot.  The row is the only per-source identity
here: ids are for registration and checkpoints.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time
from collections.abc import Callable

import numpy as np

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import (
    AckMessage,
    SourceHashIndex,
    decode_message,
    decode_update_frames,
    encode_ack_frames,
    update_frame_dtype,
)
from repro.errors import ConfigurationError, CorruptMessageError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.resilience.checkpoint import build_checkpoint
from repro.resilience.supervisor import (
    BoundedInbox,
    OverloadController,
    OverloadPolicy,
)
from repro.scale.core import ServerCore
from repro.wire.config import WireConfig
from repro.wire.datagram import (
    SLICE_BUDGET_S,
    BatchDatagramReceiver,
    PoisonLedger,
    WireCounters,
    open_udp_socket,
)

__all__ = ["WireServer"]

#: Service-time estimate before the first slice has measured one, and
#: the weight a new slice's measurement gets in the running estimate.
_SERVICE_SEED_S = 50e-6
_SERVICE_ALPHA = 0.2
#: PROTOCOL.md §5 type tag of a plain (digest-less) update frame.
_TAG_UPDATE = 0x01


class WireServer:
    """Datagram front-end over a bank-backed :class:`ServerCore`.

    Args:
        config: The wire runtime configuration.
        telemetry: Observability handle (wire counters, inbox gauge).
        watchdog: Optional divergence watchdog; when given, the query
            layer reads its quarantine rung.
        on_scales: Control-plane callback invoked with the overload
            controller's ``{source_id: delta_scale}`` changes.
        dkf_telemetry: Telemetry handle for the *inner* server core
            (``server_applies_total`` and friends, the
            ``wire.apply_slice`` / ``core.apply_updates`` spans).
            Separate from the wire-level ``telemetry`` so the two
            accounts can be switched on independently; the core's
            counters are label-free and incremented by batch size, so
            the handle costs the same at any fleet size.

    Attributes:
        dkf: The server core (``receive`` / ``advance_clock`` / by-id
            reads, the ``DKFServer`` surface the query layer and the
            drills use).  :meth:`restore` replaces the object.
    """

    def __init__(
        self,
        config: WireConfig,
        telemetry=None,
        watchdog=None,
        on_scales: Callable[[dict[str, float]], None] | None = None,
        dkf_telemetry=None,
    ) -> None:
        self._config = config
        self._tel = telemetry or NULL_TELEMETRY
        self._dkf_telemetry = dkf_telemetry or NULL_TELEMETRY
        self.dkf = ServerCore(telemetry=self._dkf_telemetry)
        self.watchdog = watchdog
        self._on_scales = on_scales
        self.counters = WireCounters()
        self._inbox = BoundedInbox(config.inbox_capacity)
        self._overload = OverloadController(
            OverloadPolicy(
                inbox_capacity=config.inbox_capacity,
                drain_per_tick=config.drain_per_tick,
            ),
            telemetry=self._tel,
        )
        # Header hash <-> row (rows in the core's order), and per row the
        # slot of the address the source was last heard from (-1: not
        # since registration or restore) in a table of distinct addresses.
        self._index = SourceHashIndex()
        self._addr_of_row = np.empty(0, np.int32)
        self._addr_slot: dict[tuple, int] = {}
        self._addrs: list[tuple] = []
        self._update_frame = None
        self._state_dim = config.state_dim
        self._sock: socket.socket | None = None
        self._receiver: BatchDatagramReceiver | None = None
        self._send_shaper = None
        self._fleet_dkf_config: DKFConfig | None = None
        self._fleet_transport: TransportPolicy | None = None
        self.poison = PoisonLedger(self._tel)
        self._loop = None
        self._slice: asyncio.Handle | None = None
        self._allowance = config.drain_per_tick
        self._service_s = _SERVICE_SEED_S
        self._longest_slice_s = 0.0
        self._slices = self._applied = self._reported = self._exhausted = 0
        self._bank_applied = self._bank_calls = 0

    # Lifecycle ------------------------------------------------------------

    def open(
        self, loop, endpoint: tuple[str, int] | None = None
    ) -> tuple[str, int]:
        """Bind the UDP socket and install the batch receiver.

        ``endpoint`` overrides the configured ``(host, udp_port)`` --
        the restart path passes the previously bound concrete address so
        the fleet's datagrams keep landing where they always did.
        Returns the bound ``(host, port)`` (useful with port 0).
        """
        if self._sock is not None:
            raise ConfigurationError("wire server is already open")
        host, port = (
            endpoint
            if endpoint is not None
            else (self._config.host, self._config.udp_port)
        )
        self._sock = open_udp_socket(
            host, port, self._config.socket_buffer_bytes
        )
        self._receiver = BatchDatagramReceiver(
            self._sock,
            self._on_datagram,
            counters=self.counters,
            chunk=self._config.recv_chunk,
            on_oversize=lambda: self.poison.reject("oversize"),
        )
        self._receiver.install(loop)
        self._loop = loop
        self._arm()  # a rebind may have left datagrams queued
        return self._sock.getsockname()

    def close(self) -> None:
        """Remove the reader, cancel the slice and close the socket."""
        self.stop_receiving()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def rebind(self, loop) -> tuple[str, int]:
        """Close and immediately re-open on the same concrete endpoint.

        The chaos drill's mid-run socket bounce: datagrams in flight
        while the socket is down are genuinely lost (UDP's contract) and
        surface as the kernel-drop residual, never as a counter leak.
        """
        endpoint = self.endpoint
        self.close()
        return self.open(loop, endpoint)

    def stop_receiving(self) -> None:
        """Deregister the reader but keep the socket (drain phase 1).

        Acks for already-queued frames can still be sent; new datagrams
        accumulate in the kernel buffer and die with the socket.  The
        pending slice is cancelled: from here on only
        :meth:`flush_inbox` applies anything.
        """
        if self._receiver is not None:
            self._receiver.close()
            self._receiver = None
        if self._slice is not None:
            self._slice.cancel()
            self._slice = None

    @property
    def endpoint(self) -> tuple[str, int]:
        """The bound UDP address (raises before :meth:`open`)."""
        if self._sock is None:
            raise ConfigurationError("wire server is not open")
        return self._sock.getsockname()

    @property
    def inbox_depth(self) -> int:
        """Datagrams queued and not yet decoded."""
        return self._inbox.depth

    @property
    def overload(self) -> OverloadController:
        """The backpressure controller (live object)."""
        return self._overload

    # Registration ---------------------------------------------------------

    def register(
        self,
        source_id: str,
        config: DKFConfig,
        transport: TransportPolicy | None = None,
        priority: int = 0,
    ) -> None:
        """Install one source: bank row, hash index, shed tracking."""
        self._install([source_id], config, transport, priority)

    def register_fleet(
        self,
        source_ids,
        config: DKFConfig,
        transport: TransportPolicy | None = None,
    ) -> None:
        """Bulk registration: one allocation per core array.

        The fleet's DKF config and transport policy are retained so
        :meth:`restore` can re-register the same fleet bit-identically
        after a drain/restart cycle.
        """
        self._fleet_dkf_config = config
        self._fleet_transport = transport
        self._install(list(source_ids), config, transport, 0)

    def _install(self, source_ids, config, transport, priority) -> None:
        """Index, allocate and track ``source_ids``: linear in their count."""
        hashes = self._index.check(source_ids)  # all or nothing
        self.dkf.add_rows(source_ids, config, transport)
        self._index.add(source_ids, hashes)
        self._addr_of_row = np.concatenate(
            (self._addr_of_row, np.full(len(source_ids), -1, np.int32))
        )
        if self._update_frame is None:  # one model per bank, so one layout
            self._update_frame = update_frame_dtype(
                self.dkf.bank.measurement_dim
            )
        for source_id in source_ids:
            self._overload.register(source_id, priority, config.min_delta)
            if self.watchdog is not None:
                self.watchdog.register(source_id)

    # Receive path ---------------------------------------------------------

    def _on_datagram(self, data: bytes, addr: tuple) -> None:
        """Reader callback: enqueue and arm the slice, nothing more."""
        if not self._inbox.offer((data, addr)):
            self.counters.inbox_dropped += 1
        elif self._slice is None:
            self._arm()

    def _arm(self) -> None:
        """Schedule the one slice if it has work and allowance to do it."""
        if (
            self._slice is None
            and self._allowance > 0
            and self._inbox.depth
            and self._receiver is not None
        ):
            self._slice = self._loop.call_soon(self._run_slice)

    def _run_slice(self) -> None:
        """Apply what one time budget buys, ack it, re-arm."""
        self._slice = None
        clock = time.perf_counter
        started = clock()
        # One drain: nothing reaches the inbox while the slice runs, and
        # every core call has a fixed cost, so the slice takes what the
        # whole budget buys at the measured service time (apply and ack)
        # in one batch instead of cutting it into several small ones.
        size = max(1, int(SLICE_BUDGET_S / self._service_s))
        with self._dkf_telemetry.timers.span("wire.apply_slice"):
            batch = self._inbox.drain(min(size, self._allowance))
            self._apply_batch(batch)
            self._allowance -= len(batch)
            self._flush_acks()
        applied = len(batch)
        elapsed = clock() - started
        self._slices += 1
        self._applied += applied
        if applied:  # an armed slice can find the inbox already emptied
            self._service_s += _SERVICE_ALPHA * (
                elapsed / applied - self._service_s
            )
        self._longest_slice_s = max(self._longest_slice_s, elapsed)
        if self._allowance == 0 and self._inbox.depth:
            self._exhausted += 1
        if self._tel.enabled:
            self._tel.gauge("wire_apply_slice_ms", elapsed * 1000.0)
        self._arm()

    async def process_tick(self, tick: int) -> int:
        """One tick of housekeeping; returns frames applied since the last.

        Advances the liveness clock, refills the ``drain_per_tick``
        apply allowance, takes in what already reached the socket (the
        loop may not have run the reader since the fleet's last send),
        yields while the slices drain the inbox or spend the allowance,
        then feeds the depth that is *left* to the overload controller.
        """
        self.dkf.advance_clock(tick)
        self._allowance = self._config.drain_per_tick
        if self._receiver is not None:
            self._receiver.drain()
        self._arm()
        while self._slice is not None:
            await asyncio.sleep(0)
        depth = self._inbox.depth
        if self._tel.enabled:
            self._tel.gauge("inbox_depth", depth)
        changes = self._overload.step(tick, depth)
        if changes and self._on_scales is not None:
            self._on_scales(changes)
        processed = self._applied - self._reported
        self._reported = self._applied
        return processed

    def apply_stats(self) -> dict[str, float]:
        """Label-free account of the apply slices (measured, not seeded)."""
        return {
            "slices": self._slices,
            "datagrams_applied": self._applied,
            "bank_applied": self._bank_applied,
            "bank_calls": self._bank_calls,
            "service_us_ewma": round(self._service_s * 1e6, 2),
            "longest_slice_ms": round(self._longest_slice_s * 1e3, 3),
            "allowance_exhausted": self._exhausted,
        }

    def _apply_batch(self, batch: list[tuple[bytes, tuple]]) -> None:
        """Apply drained datagrams in arrival order, runs of updates in bulk."""
        frame = self._update_frame
        size = -1 if frame is None else frame.itemsize  # no bank, no runs
        start = 0
        for i, (data, _) in enumerate(batch):
            if len(data) != size or data[0] != _TAG_UPDATE:
                if start < i:
                    self._apply_run(batch[start:i])
                self._apply_datagram(*batch[i])
                start = i + 1
        if start < len(batch):
            self._apply_run(batch[start:])

    def _apply_run(self, run: list[tuple[bytes, tuple]]) -> None:
        """One batched apply for a run of plain update frames.

        A frame that fails a check (CRC, unregistered hash, sampling
        instant far past the clock) touches no source state, so it can
        be taken out of the run and rejected by the one-by-one path,
        which books it under its reason.
        """
        records, intact = decode_update_frames(
            [data for data, _ in run], self._update_frame
        )
        rows = self._index.rows(records["hash"])
        ks = records["k"].astype(np.int64)
        good = (
            intact
            & (rows >= 0)
            & (ks <= self.dkf.clock + self._config.max_future_ticks)
        )
        seqs, z = records["seq"], records["value"]
        if not good.all():
            for i in np.flatnonzero(~good):
                self._apply_datagram(*run[i])
            run = [run[i] for i in np.flatnonzero(good)]
            rows, seqs, ks, z = rows[good], seqs[good], ks[good], z[good]
            if not run:
                return
        self.counters.frames_decoded += len(run)
        self._bank_applied += len(run)
        self._bank_calls += 1
        if self._tel.enabled:
            self._tel.count("wire_frames_decoded_total", amount=len(run))
        self._heard(rows, [addr for _, addr in run])
        self.dkf.apply_updates(rows, seqs, ks, z)

    def _heard(self, rows: np.ndarray, addrs: list[tuple]) -> None:
        """Note each row's sending address; of two for one row, the later."""
        slots = np.fromiter(map(self._slot, addrs), np.int32, len(addrs))
        if len(rows) > 1:
            last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]
            rows, slots = rows[last], slots[last]
        self._addr_of_row[rows] = slots
        if len(self._addrs) > 2 * len(self._addr_of_row):  # forget the dead
            heard = self._addr_of_row >= 0
            live, self._addr_of_row[heard] = np.unique(
                self._addr_of_row[heard], return_inverse=True
            )
            self._addrs = [self._addrs[slot] for slot in live.tolist()]
            self._addr_slot = {addr: i for i, addr in enumerate(self._addrs)}

    def _slot(self, addr: tuple) -> int:
        """The address table slot of ``addr``, taken when it is new."""
        slot = self._addr_slot.setdefault(addr, len(self._addrs))
        if slot == len(self._addrs):
            self._addrs.append(addr)
        return slot

    def _apply_datagram(self, data: bytes, addr: tuple) -> None:
        counters = self.counters
        try:
            message = decode_message(
                data, self._index, state_dim=self._state_dim
            )
        except CorruptMessageError:
            counters.frames_corrupt += 1
            self.poison.reject("corrupt")
            if self._tel.enabled:
                self._tel.count("wire_frames_corrupt_total")
            return
        except (ConfigurationError, ValueError, struct.error):
            message = None
        row = self._receivable_row(message)
        if row is None or (
            message.k > self.dkf.clock + self._config.max_future_ticks
        ):
            # Unresolvable or malformed, or an intact CRC with a sampling
            # instant far past the server's clock (a forged or
            # replayed-from-the-future frame, not a straggler).
            # Conservation-wise both land in the unknown bucket; the
            # ledger records the sharper reason.
            counters.frames_unknown += 1
            self.poison.reject("unknown" if row is None else "future_epoch")
            if self._tel.enabled:
                self._tel.count("wire_frames_unknown_total")
            return
        counters.frames_decoded += 1
        if self._tel.enabled:
            self._tel.count("wire_frames_decoded_total")
        self._heard(np.array([row]), [addr])
        self.dkf.receive(message)

    def _receivable_row(self, message) -> int | None:
        """The row of a frame the core can take, None for anything else.

        An ack is not a frame a source sends, and a payload of another
        measurement dimension cannot have come from a mirror of this
        bank's model: intact frames that resolve to nothing.
        """
        if message is None or isinstance(message, AckMessage):
            return None
        row = self.dkf.index.get(message.source_id)
        value = getattr(message, "value", None)
        if row is not None and value is not None and (
            len(value) != self.dkf.bank.measurement_dim
        ):
            return None
        return row

    def flush_inbox(self) -> int:
        """Decode and apply *everything* queued, ignoring the allowance.

        The drain path's inbox flush: after :meth:`stop_receiving`, the
        inbox is finite and this empties it synchronously so the
        checkpoint cut sees every datagram the runtime ever accepted.
        A pending slice is cancelled (it would find nothing to do).
        Returns the number of datagrams applied.
        """
        if self._slice is not None:
            self._slice.cancel()
            self._slice = None
        batch = self._inbox.drain(self._inbox.depth)
        self._apply_batch(batch)
        self._flush_acks()
        return len(batch)

    # Send path ------------------------------------------------------------

    def install_send_shaper(self, shaper) -> None:
        """Route outbound datagrams through ``shaper(payload, addr, send)``.

        The chaos transport's server-side seam: the shaper decides what
        actually reaches the wire (drop, duplicate, delay, corrupt) and
        calls the passed ``send`` for each real emission, so the sent
        counters always reflect datagrams that genuinely hit the socket.
        ``None`` uninstalls.
        """
        self._send_shaper = shaper

    def _raw_send(self, payload: bytes, addr: tuple) -> None:
        """Put one datagram on the socket and account for it.

        Tolerates a closed socket: a chaos shaper's delayed release can
        fire after teardown, where the right behaviour is to count a
        send failure, not raise into the event loop.
        """
        if self._sock is None:
            self.counters.send_failures += 1
            return
        try:
            self._sock.sendto(payload, addr)
        except (BlockingIOError, OSError):
            self.counters.send_failures += 1
            return
        self.counters.datagrams_sent += 1
        self.counters.bytes_sent += len(payload)

    def _send(self, payload: bytes, addr: tuple) -> None:
        if self._send_shaper is not None:
            self._send_shaper(payload, addr, self._raw_send)
        else:
            self._raw_send(payload, addr)

    def _flush_acks(self) -> None:
        """Pack and send every queued ack to its source's last address."""
        rows, seqs, ks, flags = self.dkf.take_acks()
        if not rows.size or self._sock is None:
            return
        slots = self._addr_of_row[rows]
        heard = slots >= 0
        frames = encode_ack_frames(
            self._index.hashes[rows[heard]].tolist(),
            seqs[heard].tolist(), ks[heard].tolist(), flags[heard].tolist(),
        )
        addrs = self._addrs
        for slot, frame in zip(slots[heard].tolist(), frames):
            self._send(frame, addrs[slot])

    # Checkpoint / restore -------------------------------------------------

    def checkpoint_snapshot(self, tick: int) -> dict:
        """A PR-3 ``repro.ckpt-v1`` snapshot of the full DKF state.

        Cut *after* the final inbox flush so it reflects every update
        the server ever acknowledged; :func:`~repro.resilience.
        checkpoint.validate_checkpoint` accepts it as-is.
        """
        return build_checkpoint(
            tick,
            self.dkf.clock,
            {
                source_id: self.dkf.export_source_state(source_id)
                for source_id in self.dkf.source_ids
            },
        )

    def restore(self, snapshot: dict) -> None:
        """Rebuild the inner server core bit-identically from a snapshot.

        Requires a prior :meth:`register_fleet` (the fleet's DKF config
        and transport policy are not in the snapshot, matching the PR-3
        recovery flow where the engine re-registers from its configs).
        The hash index, shed tracking and last-seen addresses survive in
        this object; only the protocol/filter state is rebuilt.
        """
        if self._fleet_dkf_config is None:
            raise ConfigurationError(
                "restore requires a prior register_fleet"
            )
        sources = snapshot["sources"]
        dkf = ServerCore(telemetry=self._dkf_telemetry)
        dkf.add_rows(sources, self._fleet_dkf_config, self._fleet_transport)
        for row, state in enumerate(sources.values()):
            dkf.import_row(row, state)
        dkf.advance_clock(int(snapshot["server_clock"]))
        self.dkf = dkf
        self._index = SourceHashIndex(dkf.ids)
        # A genuinely restarted process would not remember peer
        # addresses; drop them so acks only flow once a source has
        # re-contacted this incarnation (its next frame carries addr).
        self._addr_of_row = np.full(len(dkf.ids), -1, np.int32)
        self._addr_slot.clear()
        self._addrs = []
