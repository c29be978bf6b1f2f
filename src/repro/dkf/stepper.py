"""Sans-IO source side of the DKF protocol: the per-instant source step.

The paper defines the source step once (read, ``KF_m`` predict,
``|v_hat - v| > delta``, update / resync / heartbeat, with the server
coasting the same instant); this module is the one place it is written.
:func:`sample_and_send` is the per-reading sequence.
:class:`SourceStepper` wraps it for one source whose caller owns the
clock and the readings (the asyncio wire fleet); :class:`SourceDriver`
wraps it for a set of sources read from stream cursors under a fault
schedule (the tick engine, the federated cluster).  No I/O, no fabric,
no server object: the fronts drive the identical protocol logic and
differ only in the hooks they pass -- "tick the server filter(s) for
instant k" and "put this message on my link".
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import (
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    UpdateMessage,
)
from repro.dkf.source import DKFSource, SourceStep
from repro.errors import StreamExhaustedError
from repro.obs.events import trace_id
from repro.obs.telemetry import NULL_TELEMETRY
from repro.streams.base import StreamCursor, StreamRecord

__all__ = ["SourceStepper", "SourceDriver", "sample_and_send"]

Message = UpdateMessage | ResyncMessage | HeartbeatMessage


def sample_and_send(
    source: DKFSource,
    record: StreamRecord,
    now: int,
    send: Callable[[Message], object],
    resync_prime: bool = False,
    telemetry=NULL_TELEMETRY,
) -> SourceStep:
    """One reading through one source; returns the source's verdict.

    The suppression decision, then any cut message offered to ``send``
    (whose verdict is ignored: only acks reveal fate) and registered
    with the pending-ack buffer.  ``resync_prime`` marks the first
    transmission after a source restart: it goes out as a full resync
    snapshot, because the server's expected sequence number survived the
    crash and a fresh seq-0 update would read as a stale duplicate.
    """
    step = source.sample(record)
    message = step.message
    if message is not None:
        if resync_prime:
            message = source.resync_message(record.k, step.value)
            if telemetry.enabled:
                telemetry.emit(
                    "engine.resync_prime",
                    source_id=message.source_id,
                    trace=trace_id(message.source_id, message.seq),
                    k=record.k,
                )
        send(message)
        source.note_sent(message, now)
    return step


class SourceStepper:
    """Drives one :class:`~repro.dkf.source.DKFSource` without owning I/O.

    Args:
        source: The source-side protocol endpoint (mirror filter plus
            transport state machine).
        reading_fn: Optional reading generator ``(k) -> value array``;
            when given, :meth:`step` may be called without a value.
    """

    def __init__(
        self,
        source: DKFSource,
        reading_fn: Callable[[int], np.ndarray] | None = None,
    ) -> None:
        self._source = source
        self._reading_fn = reading_fn

    @property
    def source(self) -> DKFSource:
        """The wrapped source endpoint (live object)."""
        return self._source

    def step(
        self,
        k: int,
        value: np.ndarray | None = None,
        now: int | None = None,
    ) -> list[Message]:
        """Run one sampling instant; returns the messages to transmit.

        The per-source tick of :meth:`SourceDriver.step`, with the
        caller's wire in place of the ``send`` hook: sample the reading
        (suppression decision), register any cut update with the
        pending-ack buffer, then run transport maintenance (timeout
        resyncs, heartbeats).  ``now`` defaults to ``k`` -- the wire
        runtime passes its own monotonic tick so retransmission deadlines
        ride the wall clock.
        """
        if now is None:
            now = k
        if value is None:
            if self._reading_fn is None:
                raise ValueError("step needs a value or a reading_fn")
            value = self._reading_fn(k)
        record = StreamRecord(k=k, timestamp=float(k), value=value)
        out: list[Message] = []
        sample_and_send(self._source, record, now, out.append)
        out.extend(self._source.poll_transport(now))
        return out

    def poll(
        self, now: int
    ) -> list[ResyncMessage | HeartbeatMessage]:
        """Transport maintenance only (no reading this instant)."""
        return self._source.poll_transport(now)

    def on_ack(self, ack: AckMessage, now: int) -> None:
        """Feed a received acknowledgement into the pending-ack buffer."""
        self._source.on_ack(ack, now)


class SourceDriver:
    """The source half of a tick, for every queried source of one front.

    Owns the :class:`~repro.dkf.source.DKFSource` endpoints, their stream
    cursors and transport policies, the exhausted / resync-prime / down /
    restart-pending bookkeeping, and the query-driven install/teardown.

    Args:
        registry: The front's :class:`~repro.dsms.registry.SourceRegistry`.
        install: ``(source_id, config, transport)`` -- build the server
            side of a freshly (re)installed source.
        teardown: ``(source_id)`` -- drop the server side of a source
            whose last query retired.
        telemetry: Handle threaded into every endpoint.
        supervisor: Optional restart supervisor that may defer a
            scheduled source restart (backoff or exhausted budget); the
            source stays down and asks again next tick.
    """

    def __init__(
        self,
        registry,
        install: Callable[[str, DKFConfig, TransportPolicy], None],
        teardown: Callable[[str], None],
        telemetry=NULL_TELEMETRY,
        supervisor=None,
    ) -> None:
        self._registry = registry
        self._install_server_side = install
        self._teardown_server_side = teardown
        self._tel = telemetry
        self._supervisor = supervisor
        #: Installed endpoints by source id (live; fronts read it).
        self.sources: dict[str, DKFSource] = {}
        #: Transport policy per registered source.
        self.transports: dict[str, TransportPolicy] = {}
        #: Sources whose stream drained or whose crash is terminal.
        self.exhausted: set[str] = set()
        #: Ticks stepped so far; acks arriving between steps carry it.
        self.clock = 0
        self._cursors: dict[str, StreamCursor] = {}
        self._resync_prime: set[str] = set()
        self._down_now: set[str] = set()
        self._restart_pending: set[str] = set()

    # Registration and query lifecycle -------------------------------------

    def add_source(
        self,
        source_id: str,
        model,
        stream,
        default_smoothing_r: float = 1.0,
        transport: TransportPolicy | None = None,
    ) -> None:
        """Register a source's model, data stream and transport policy."""
        self._registry.register_source(
            source_id, model, default_smoothing_r=default_smoothing_r
        )
        self._cursors[source_id] = StreamCursor(stream)
        self.transports[source_id] = transport or TransportPolicy()

    def submit_query(self, query) -> None:
        """Activate a query; (re)install the DKF when its config changed."""
        descriptor = self._registry.add_query(query)
        config = descriptor.build_config()
        existing = self.sources.get(query.source_id)
        if existing is not None and existing.config == config:
            return
        self._install(query.source_id, config)

    def retire_query(self, query_id: str) -> None:
        """Deactivate a query; tear down the DKF when none remain."""
        descriptor = self._registry.remove_query(query_id)
        source_id = descriptor.source_id
        if not descriptor.queries:
            if source_id in self.sources:
                del self.sources[source_id]
                self._teardown_server_side(source_id)
                self.exhausted.discard(source_id)
                self._resync_prime.discard(source_id)
                self._restart_pending.discard(source_id)
            return
        config = descriptor.build_config()
        if self.sources[source_id].config != config:
            self._install(source_id, config)

    def _install(self, source_id: str, config: DKFConfig) -> None:
        transport = self.transports[source_id]
        self.sources[source_id] = DKFSource(
            source_id, config, transport=transport, telemetry=self._tel
        )
        self._resync_prime.discard(source_id)
        self._install_server_side(source_id, config, transport)

    def on_ack(self, ack: AckMessage) -> None:
        """Link callback: route a delivered ack to its source."""
        source = self.sources.get(ack.source_id)
        if source is not None:
            source.on_ack(ack, self.clock)

    # The tick -------------------------------------------------------------

    def step(
        self,
        now: int,
        tick: Callable[[str, int], object],
        send: Callable[[Message], object],
        faults=None,
        coast: Callable[[str, int], object] | None = None,
        on_sample: Callable[[str, SourceStep], None] | None = None,
    ) -> int:
        """Advance every installed source one sampling instant.

        Per source: consume fault events (crash/restart, sensor faults),
        take a reading, have the server side predict the same instant,
        run the suppression decision and offer any update to the link,
        then run the transport state machine (timeout retransmissions
        and heartbeats).  Returns the number of sources that produced a
        reading (exhausted or crashed sources are skipped).

        Args:
            now: The tick being stepped.
            tick: ``(source_id, k)`` -- server prediction for a sampled
                instant.
            send: Puts one message on the source's link.
            faults: The installed fault schedule, if any.
            coast: ``(source_id, now)`` -- server prediction for a source
                that is down (no reading); defaults to ``tick``.
            on_sample: ``(source_id, SourceStep)`` -- observes each
                reading's verdict.
        """
        tel = self._tel
        supervisor = self._supervisor
        exhausted = self.exhausted
        cursors = self._cursors
        resync_prime = self._resync_prime
        restart_pending = self._restart_pending
        if coast is None:
            coast = tick
        processed = 0
        for source_id, source in self.sources.items():
            if faults is not None:
                if (
                    faults.restarts_at(source_id, now)
                    or source_id in restart_pending
                ):
                    # Recovered from a crash: all state is gone, so the
                    # next transmission must be a resync snapshot (see
                    # sample_and_send).  A supervisor may defer the
                    # restart; the request is retried next tick.
                    if supervisor is None or supervisor.request_restart(
                        source_id, now
                    ):
                        restart_pending.discard(source_id)
                        source.reset(now)
                        resync_prime.add(source_id)
                        self._down_now.discard(source_id)
                        if tel.enabled:
                            tel.emit("fault.restart", source_id=source_id)
                            tel.count("restarts_total", source_id)
                    else:
                        restart_pending.add(source_id)
                if (
                    faults.is_down(source_id, now)
                    or source_id in restart_pending
                ):
                    # Sensor dead: no reading, no transport.  The server
                    # keeps coasting so staleness and covariance grow.
                    if source_id not in self._down_now:
                        self._down_now.add(source_id)
                        if tel.enabled:
                            tel.emit("fault.crash", source_id=source_id)
                            tel.count("crashes_total", source_id)
                    coast(source_id, now)
                    if faults.is_terminal(source_id, now):
                        exhausted.add(source_id)
                    continue
            if source_id not in exhausted:
                cursor = cursors[source_id]
                try:
                    record = cursor.next()
                except StreamExhaustedError:
                    exhausted.add(source_id)
                else:
                    if faults is not None:
                        record = faults.transform(source_id, now, record)
                    tick(source_id, record.k)
                    step = sample_and_send(
                        source, record, now, send,
                        source_id in resync_prime, tel,
                    )
                    if step.message is not None:
                        resync_prime.discard(source_id)
                    if on_sample is not None:
                        on_sample(source_id, step)
                    processed += 1
            # Transport maintenance runs for every live source, even after
            # its stream drained: pending retransmissions and heartbeats
            # must not strand.
            for message in source.poll_transport(now):
                send(message)
        self.clock = now + 1
        return processed

    # Run loops ------------------------------------------------------------

    def all_exhausted(self) -> bool:
        """Whether every installed source has drained (or died for good)."""
        return len(self.exhausted) == len(self.sources)

    def run(
        self,
        step: Callable[[], int],
        flush: Callable[[], None],
        max_ticks: int | None = None,
    ) -> int:
        """Call the front's ``step`` until every stream is exhausted (or
        ``max_ticks``), then ``flush`` the in-flight traffic if they all
        drained.  Returns the number of ticks executed."""
        executed = 0
        while max_ticks is None or executed < max_ticks:
            if self.all_exhausted():
                break
            if step() == 0 and self.all_exhausted():
                break
            executed += 1
        if self.sources and self.all_exhausted():
            flush()
        return executed

    def settle(
        self,
        step: Callable[[], int],
        in_flight: Callable[[], int],
        max_ticks: int = 256,
    ) -> int:
        """Call ``step`` until ``in_flight()`` is zero and no source waits
        on an ack (or ``max_ticks``).  Returns the grace ticks executed."""
        executed = 0
        while executed < max_ticks:
            pending = sum(s.pending_acks for s in self.sources.values())
            if pending == 0 and in_flight() == 0:
                break
            step()
            executed += 1
        return executed
