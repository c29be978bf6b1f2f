"""Simulated source fleets that talk to the wire server over real UDP.

Two fleets, two fidelities:

* :class:`StepperFleet` runs *real* protocol endpoints -- one
  :class:`~repro.dkf.source.DKFSource` per stream, driven through the
  sans-IO :class:`~repro.dkf.stepper.SourceStepper` -- over a shared
  socket.  Every δ-suppression decision, pending-ack buffer and backoff
  schedule is the genuine article.  It scales to demo size (hundreds);
  at 100k sources the per-endpoint mirror filters alone would not fit a
  tick budget.
* :class:`LiteFleet` is the soak workhorse: per-source protocol state
  held in flat numpy arrays, traffic decisions vectorised per tick, and
  the *frames on the wire* still exactly PROTOCOL.md §5 -- seq 0 primes
  the server's filter, escaped updates arrive at a seeded survivor rate,
  lost acks trigger resync retransmission with exponential state carried
  per source, silence produces heartbeats.  The server cannot tell a
  LiteFleet from 100k real sources, which is the point.

Both fleets share one UDP socket for the whole fleet (a socket per
source would mean 100k file descriptors) and receive acks through the
same :class:`~repro.wire.datagram.BatchDatagramReceiver` the server
uses, resolving ack hashes to slots (rows of one
:class:`~repro.dkf.protocol.SourceHashIndex`) in one call.  Every random
draw -- priming spread, walk steps, send decisions, the corrupt schedule
-- derives from ``(seed, purpose, tick)`` seed sequences, never from
call order, so the *offered* workload for a given config is
reproducible (the ``repro chaos`` determinism contract).
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time
import zlib

import numpy as np

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import (
    CRC_BYTES,
    HEADER_BYTES,
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    SourceHashIndex,
    decode_ack_frames,
    decode_message,
    encode_message,
    encode_update_frames,
)
from repro.dkf.source import DKFSource
from repro.dkf.stepper import SourceStepper
from repro.errors import ConfigurationError, CorruptMessageError
from repro.filters.models import constant_model
from repro.wire.config import WireConfig
from repro.wire.datagram import (
    SLICE_BUDGET_S,
    BatchDatagramReceiver,
    WireCounters,
    corrupt_datagram,
    open_udp_socket,
)

__all__ = ["LiteFleet", "StepperFleet", "collision_free_ids"]

#: Random-walk step scale for simulated stream values.
_WALK_SIGMA = 0.5
#: PROTOCOL.md §5 ack frame: type tag and length (header, flags, CRC).
_TAG_ACK = 0x04
_ACK_BYTES = HEADER_BYTES + 1 + CRC_BYTES


def collision_free_ids(count: int, prefix: str = "s") -> list[str]:
    """``count`` source ids whose CRC-32 hashes are pairwise distinct.

    The wire header carries a 32-bit hash of the source id, so a fleet
    must not contain two ids that collide (at 100k ids the birthday bound
    makes a plain ``s0..sN`` collision *expected*, not rare).  Colliding
    ids are deterministically renamed by appending ``.1``, ``.2``, ...
    until their hash is fresh -- same count in, same list out, every run.
    """
    ids: list[str] = []
    taken: set[int] = set()
    for i in range(count):
        candidate = f"{prefix}{i}"
        bump = 0
        while zlib.crc32(candidate.encode()) in taken:
            bump += 1
            candidate = f"{prefix}{i}.{bump}"
        taken.add(zlib.crc32(candidate.encode()))
        ids.append(candidate)
    return ids


class _FleetSocket:
    """The shared UDP endpoint both fleet flavours transmit through."""

    def __init__(self, config: WireConfig) -> None:
        self._config = config
        self.counters = WireCounters()
        self._sock: socket.socket | None = None
        self._receiver: BatchDatagramReceiver | None = None
        self._server_addr: tuple[str, int] | None = None
        self._ack_buf: list[bytes] = []
        self._shaper = None
        self._frame_index = 0
        self.corrupts_injected = 0

    def open(self, loop, server_addr: tuple[str, int]) -> tuple[str, int]:
        if self._sock is not None:
            raise ConfigurationError("fleet socket is already open")
        self._server_addr = server_addr
        self._sock = open_udp_socket(
            self._config.host, 0, self._config.socket_buffer_bytes
        )
        self._receiver = BatchDatagramReceiver(
            self._sock,
            lambda data, addr: self._ack_buf.append(data),
            counters=self.counters,
            chunk=self._config.recv_chunk,
        )
        self._receiver.install(loop)
        return self._sock.getsockname()

    def close(self) -> None:
        if self._receiver is not None:
            self._receiver.close()
            self._receiver = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def drain_acks(self, index: SourceHashIndex):
        """Decode and book the datagrams received since the last call.

        Ack frames are read as columns (:func:`~repro.dkf.protocol.
        decode_ack_frames`); any other datagram gets ``decode_message``'s
        verdict.  Every datagram lands in one of ``frames_decoded``,
        ``frames_corrupt`` or ``frames_unknown``.

        Returns:
            The intact acks of registered sources, in arrival order, as
            four lists: the source's slot (its row in ``index``), seq, k
            and the resync-request flag.
        """
        received, self._ack_buf = self._ack_buf, []
        counters = self.counters
        frames = []
        for data in received:
            if len(data) == _ACK_BYTES and data[0] == _TAG_ACK:
                frames.append(data)
                continue
            try:
                decode_message(data, index, state_dim=self._config.state_dim)
            except CorruptMessageError:
                counters.frames_corrupt += 1
            except (ConfigurationError, ValueError, struct.error):
                counters.frames_unknown += 1
            else:
                counters.frames_decoded += 1
        records, intact = decode_ack_frames(frames)
        slots = index.rows(records["hash"])
        known = intact & (slots >= 0)
        counters.frames_corrupt += len(frames) - int(intact.sum())
        counters.frames_unknown += int((intact & ~known).sum())
        counters.frames_decoded += int(known.sum())
        acks = records[known]
        return (
            slots[known].tolist(),
            acks["seq"].tolist(),
            acks["k"].tolist(),
            (acks["flags"] & 1).tolist(),
        )

    def install_shaper(self, shaper) -> None:
        """Route sends through ``shaper(payload, addr, raw_send)``.

        The chaos transport's fleet-side seam, mirroring
        :meth:`~repro.wire.server.WireServer.install_send_shaper`: the
        shaper calls ``raw_send`` for every datagram that genuinely hits
        the socket, so sent counters never count dropped shapes.
        ``None`` uninstalls.
        """
        self._shaper = shaper

    def _raw_send(self, payload: bytes, addr: tuple) -> None:
        """Socket-level send; tolerant of post-close delayed releases."""
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

    def send(self, payload: bytes) -> bool:
        """Transmit one datagram to the server; False on send failure."""
        if self._sock is None or self._server_addr is None:
            raise ConfigurationError("fleet socket is not open")
        if self._shaper is not None:
            self._shaper(payload, self._server_addr, self._raw_send)
            return True
        before = self.counters.send_failures
        self._raw_send(payload, self._server_addr)
        return self.counters.send_failures == before

    async def transmit(self, frames: list[bytes], rng) -> None:
        """Send one tick's frames in order, yielding on a time budget.

        The corruption draw is taken once, before the first send, so
        the seeded schedule never depends on where the yields fall.
        """
        corrupt_rate = self._config.corrupt_rate
        flips = (
            rng.random(len(frames)) < corrupt_rate
            if corrupt_rate > 0.0 and frames
            else None
        )
        clock = time.perf_counter
        deadline = clock() + SLICE_BUDGET_S
        for i, payload in enumerate(frames):
            if flips is not None and flips[i]:
                payload = corrupt_datagram(payload, self._frame_index)
                self.corrupts_injected += 1
            self._frame_index += 1
            self.send(payload)
            if clock() >= deadline:
                # Yield so the (co-located) server's reader drains the
                # burst instead of racing the kernel buffer.
                await asyncio.sleep(0)
                deadline = clock() + SLICE_BUDGET_S


class _SharedSocketFleet:
    """What both fleets share: the ids, their hash index (a source's row
    in it is its slot in every per-source column), the socket and acks."""

    def __init__(self, config: WireConfig) -> None:
        self._config = config
        self.source_ids = collision_free_ids(config.sources)
        self._index = SourceHashIndex(self.source_ids)
        self._net = _FleetSocket(config)
        self.acked_seq = np.full(config.sources, -1, dtype=np.int64)
        self.acks_received = 0

    @property
    def counters(self) -> WireCounters:
        """The fleet endpoint's traffic ledger."""
        return self._net.counters

    def transport_policy(self) -> TransportPolicy:
        """The transport policy both ends agree on."""
        return self._transport

    def open(self, loop, server_addr: tuple[str, int]) -> tuple[str, int]:
        """Bind the shared fleet socket; returns its local address."""
        return self._net.open(loop, server_addr)

    def close(self) -> None:
        """Close the shared socket and deregister the ack receiver."""
        self._net.close()

    def install_send_shaper(self, shaper) -> None:
        """Route fleet transmissions through a chaos shaper."""
        self._net.install_shaper(shaper)

    def acked_high(self) -> dict[str, int]:
        """Per-source highest cumulative ack the fleet has *received*.

        ``ack.seq`` carries the server's next expected sequence, so this
        is exactly the set of updates the fleet may consider durable --
        the zero-acked-loss drill compares it against the restored
        server's ``expected_seq`` per source.  Sources never acked are
        omitted.
        """
        return {
            self.source_ids[slot]: int(self.acked_seq[slot])
            for slot in np.flatnonzero(self.acked_seq >= 0)
        }

    def settle(self, tick: int) -> None:
        """Drain late acks without offering new traffic (run teardown)."""
        self._drain_acks(tick)


class LiteFleet(_SharedSocketFleet):
    """100k-source simulated fleet with vectorised protocol state.

    Per-source transport state lives in flat numpy arrays; each tick the
    fleet draws its decisions from a ``(seed, purpose, tick)`` generator
    and materialises only the frames that actually transmit.  The
    reliability model matches the real source's pending-ack buffer:

    * ``pending`` tracks the oldest unacknowledged data sequence (-1
      when the window is clean); a cumulative ack at or past ``next_seq``
      clears it, a partial ack advances it.
    * A pending sequence past its deadline -- or a server ack carrying
      ``resync_requested`` -- triggers a :class:`ResyncMessage` snapshot
      (``x = [value]``, unit covariance) with per-source exponential
      backoff, exactly the heal path PROTOCOL.md §6 prescribes.
    * A source silent for ``heartbeat_interval_ticks`` emits a
      header-only heartbeat so liveness never reads suppression as death.

    Args:
        config: The wire runtime configuration (``state_dim`` must be 1;
            the vectorised snapshot fabricates scalar state).
    """

    def __init__(self, config: WireConfig) -> None:
        if config.state_dim != 1:
            raise ConfigurationError(
                "LiteFleet fabricates scalar resync snapshots; "
                f"state_dim must be 1, got {config.state_dim}"
            )
        super().__init__(config)
        n = config.sources
        setup = np.random.default_rng([config.seed, 1])
        self.first_tick = setup.integers(
            0, config.ramp_ticks, n, dtype=np.int64
        )
        self.value = setup.normal(0.0, 5.0, n)
        self._value0 = self.value.copy()
        self.next_seq = np.zeros(n, dtype=np.int64)
        self.pending = np.full(n, -1, dtype=np.int64)
        self.pending_deadline = np.zeros(n, dtype=np.int64)
        self.pending_attempt = np.zeros(n, dtype=np.int64)
        self.last_send = np.full(n, -1, dtype=np.int64)
        self.needs_resync = np.zeros(n, dtype=bool)
        self.delta_scale = np.ones(n)
        self._transport = TransportPolicy(
            ack_timeout_ticks=config.ack_timeout_ticks,
            heartbeat_interval_ticks=config.heartbeat_interval_ticks,
            suspect_after_ticks=max(
                60, 2 * config.heartbeat_interval_ticks
            ),
        )
        self.updates_sent = 0
        self.resyncs_sent = 0
        self.heartbeats_sent = 0
        self.resyncs_requested = 0

    # Wiring ---------------------------------------------------------------

    def dkf_config(self) -> DKFConfig:
        """The filter config the server installs for every fleet stream."""
        return DKFConfig(
            model=constant_model(dims=1), delta=self._config.delta
        )

    def apply_scales(self, changes: dict[str, float]) -> None:
        """Backpressure actuator: δ-widening thins the update rate.

        A widened δ on a real source suppresses proportionally more
        updates; the lite model applies the same effect by dividing the
        escape probability by the scale.
        """
        for source_id, scale in changes.items():
            slot = self._index.row_of_id(source_id)
            if slot is not None:
                self.delta_scale[slot] = max(1.0, float(scale))

    def workload_digest(self) -> int:
        """CRC-32 over the seeded workload arrays (pre-socket state).

        Two fleets built from the same config agree on this digest
        before any socket exists -- the determinism probe the soak
        summary's ``workload`` section carries.
        """
        digest = zlib.crc32(self.first_tick.tobytes())
        return zlib.crc32(self._value0.tobytes(), digest)

    # Per-tick traffic -----------------------------------------------------

    def _drain_acks(self, tick: int) -> None:
        """Run each received ack through the pending-ack state machine.

        Acks apply one at a time in arrival order (two for one source
        in one drain see each other's effect).  ``ack.seq`` is
        cumulative: everything below it is settled.
        """
        slots, seqs, _, flags = self._net.drain_acks(self._index)
        next_seq, pending = self.next_seq, self.pending
        attempt, acked_seq = self.pending_attempt, self.acked_seq
        deadline = tick + self._transport.retry_timeout(0)
        self.acks_received += len(slots)
        for slot, acked, resync in zip(slots, seqs, flags):
            if resync:
                self.needs_resync[slot] = True
                self.resyncs_requested += 1
            if acked > acked_seq[slot]:
                acked_seq[slot] = acked
            if acked >= next_seq[slot]:
                pending[slot] = -1
                attempt[slot] = 0
            elif pending[slot] != -1 and acked > pending[slot]:
                pending[slot] = acked
                attempt[slot] = 0
                self.pending_deadline[slot] = deadline

    async def step_tick(self, tick: int) -> int:
        """Offer one tick of fleet traffic; returns datagrams offered."""
        config = self._config
        rng = np.random.default_rng([config.seed, 2, tick])
        # Fixed draw order per tick: walk steps, then send decisions.
        # Frame-level corruption draws follow once the frame count is
        # known.  Nothing downstream feeds back into the draws, so the
        # sequence is stable for a given (seed, tick).
        self.value += rng.normal(0.0, _WALK_SIGMA, config.sources)
        escape = rng.random(config.sources)
        self._drain_acks(tick)

        started = self.first_tick <= tick
        # A started source that has never cut a data message primes now
        # (ticks start at 1, so "first_tick == tick" alone would strand
        # every source whose ramp slot is 0).  next_seq advances on the
        # priming update, so this fires exactly once per source.
        priming = started & (self.next_seq == 0) & (self.pending == -1)
        resync_due = started & (
            self.needs_resync
            | ((self.pending != -1) & (self.pending_deadline <= tick))
        )
        update_due = (
            started
            & ~priming
            & ~resync_due
            & (escape * self.delta_scale < config.update_prob)
        )
        update_due |= priming
        heartbeat_due = (
            started
            & ~update_due
            & ~resync_due
            & (
                tick - self.last_send
                >= config.heartbeat_interval_ticks
            )
        )

        frames: list[bytes] = []
        for slot in np.flatnonzero(resync_due):
            seq = int(self.next_seq[slot])
            snapshot = np.array([self.value[slot]])
            frames.append(
                encode_message(
                    ResyncMessage(
                        source_id=self.source_ids[slot],
                        seq=seq,
                        k=tick,
                        x=snapshot,
                        p=np.eye(1),
                        value=snapshot,
                    )
                )
            )
            self.next_seq[slot] = seq + 1
            self.needs_resync[slot] = False
            attempt = int(self.pending_attempt[slot]) + 1
            self.pending[slot] = seq
            self.pending_attempt[slot] = attempt
            self.pending_deadline[slot] = (
                tick + self._transport.retry_timeout(attempt)
            )
            self.resyncs_sent += 1
        slots = np.flatnonzero(update_due)
        seqs = self.next_seq[slots]
        frames += encode_update_frames(
            self._index.hashes[slots], seqs, tick, self.value[slots]
        )
        self.next_seq[slots] = seqs + 1
        fresh = self.pending[slots] == -1
        self.pending[slots[fresh]] = seqs[fresh]
        self.pending_attempt[slots[fresh]] = 0
        self.pending_deadline[slots[fresh]] = (
            tick + self._transport.retry_timeout(0)
        )
        self.updates_sent += len(slots)
        for slot in np.flatnonzero(heartbeat_due):
            frames.append(
                encode_message(
                    HeartbeatMessage(
                        source_id=self.source_ids[slot],
                        seq=int(self.next_seq[slot]),
                        k=tick,
                    )
                )
            )
            self.heartbeats_sent += 1
        sent_any = resync_due | update_due | heartbeat_due
        self.last_send[sent_any] = tick

        await self._net.transmit(frames, rng)
        return len(frames)

    def summary(self) -> dict[str, object]:
        """Fleet-side totals for the soak summary's ``fleet`` section."""
        return {
            "sources": self._config.sources,
            "updates_sent": self.updates_sent,
            "resyncs_sent": self.resyncs_sent,
            "heartbeats_sent": self.heartbeats_sent,
            "corrupts_injected": self._net.corrupts_injected,
            "acks_received": self.acks_received,
            "resyncs_requested": self.resyncs_requested,
            "widened_sources": int((self.delta_scale > 1.0).sum()),
            "endpoint": self._net.counters.as_dict(),
        }


class StepperFleet(_SharedSocketFleet):
    """Demo-scale fleet of *real* DKF endpoints over the shared socket.

    Each stream is a full :class:`~repro.dkf.source.DKFSource` driven by
    the sans-IO :class:`~repro.dkf.stepper.SourceStepper`: genuine
    δ-suppression against the mirror filter, genuine pending-ack buffer,
    genuine backoff.  Readings are a seeded random walk (same generator
    discipline as :class:`LiteFleet`).  Priming is spread over
    ``ramp_ticks`` exactly as in the lite fleet.

    Args:
        config: The wire runtime configuration.
    """

    def __init__(self, config: WireConfig) -> None:
        super().__init__(config)
        setup = np.random.default_rng([config.seed, 1])
        self.first_tick = setup.integers(
            0, config.ramp_ticks, config.sources, dtype=np.int64
        )
        self.value = setup.normal(0.0, 5.0, config.sources)
        self._transport = TransportPolicy(
            ack_timeout_ticks=config.ack_timeout_ticks,
            heartbeat_interval_ticks=config.heartbeat_interval_ticks,
        )
        dkf_config = self.dkf_config()
        self._steppers = [
            SourceStepper(
                DKFSource(source_id, dkf_config, self._transport)
            )
            for source_id in self.source_ids
        ]

    def dkf_config(self) -> DKFConfig:
        """The filter config shared by every endpoint pair."""
        return DKFConfig(
            model=constant_model(dims=self._config.state_dim),
            delta=self._config.delta,
        )

    def apply_scales(self, changes: dict[str, float]) -> None:
        """Backpressure actuator: real δ-widening on each endpoint."""
        for source_id, scale in changes.items():
            slot = self._index.row_of_id(source_id)
            if slot is not None:
                self._steppers[slot].source.set_delta_scale(scale)

    def _drain_acks(self, tick: int) -> None:
        for slot, seq, k, resync in zip(*self._net.drain_acks(self._index)):
            source_id = self.source_ids[slot]
            self.acks_received += 1
            if seq > self.acked_seq[slot]:
                self.acked_seq[slot] = seq
            self._steppers[slot].on_ack(
                AckMessage(source_id, seq, k, bool(resync)), tick
            )

    async def step_tick(self, tick: int) -> int:
        """Offer one tick of real-endpoint traffic; returns datagrams."""
        config = self._config
        rng = np.random.default_rng([config.seed, 2, tick])
        self.value += rng.normal(0.0, _WALK_SIGMA, config.sources)
        self._drain_acks(tick)
        frames: list[bytes] = []
        dims = config.state_dim
        for slot, stepper in enumerate(self._steppers):
            if tick < self.first_tick[slot]:
                continue
            reading = np.full(dims, self.value[slot])
            for message in stepper.step(tick, reading, now=tick):
                frames.append(encode_message(message))
        await self._net.transmit(frames, rng)
        return len(frames)

    def summary(self) -> dict[str, object]:
        """Fleet-side totals for the runtime report."""
        updates = sum(
            s.source.updates_sent for s in self._steppers
        )
        return {
            "sources": self._config.sources,
            "updates_sent": updates,
            "corrupts_injected": self._net.corrupts_injected,
            "acks_received": self.acks_received,
            "endpoint": self._net.counters.as_dict(),
        }
