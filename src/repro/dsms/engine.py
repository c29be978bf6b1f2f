"""Multi-source, multi-query DSMS engine (the "end-to-end system" of the
paper's future-work list, item 1).

The engine wires together every substrate in the library:

* a :class:`~repro.dsms.registry.SourceRegistry` mapping queries to
  sources and deriving each source's effective δ and F;
* one :class:`~repro.dkf.source.DKFSource` per registered source (the
  sensor side, stepped by the shared
  :class:`~repro.dkf.stepper.SourceDriver`) and a single shared
  :class:`~repro.dkf.server.DKFServer` in tolerant, ack-emitting mode;
* a :class:`~repro.dsms.network.NetworkFabric` carrying updates *and*
  acks, with per-direction latency/loss/corruption;
* an :class:`~repro.dsms.energy.EnergyModel` for per-node joule totals;
* optionally a :class:`~repro.dsms.faults.FaultSchedule` injecting source
  crashes, sensor faults, burst loss and payload corruption.

Loss recovery is *asymmetric-information realistic*: the engine never
peeks at the link's verdict.  A source only learns an update died when its
ack timeout expires, at which point it retransmits a full resync snapshot
over the same lossy, latent link, backing off exponentially until an ack
lands.  The server, for its part, detects sequence gaps and asks for a
resync through the ack channel instead of raising into the delivery loop.

Each call to :meth:`StreamEngine.step` advances every source by one
sampling instant; :meth:`StreamEngine.answers` returns the current answer
for every active query, annotated with staleness, confidence and a
``degraded`` flag once a source has been silent past its liveness
deadline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.autoscale.config import AutoscalePolicy
from repro.autoscale.controller import InboxAutoscaler
from repro.dkf.config import TransportPolicy
from repro.dkf.protocol import (
    AckMessage,
    ResyncMessage,
    UpdateMessage,
    instrument_codec,
)
from repro.dkf.server import DKFServer
from repro.dkf.source import DKFSource
from repro.dkf.stepper import SourceDriver
from repro.dsms.energy import EnergyModel, EnergyReport
from repro.dsms.faults import FaultSchedule
from repro.dsms.linkfaults import apply_latency_overrides, layer_link_faults
from repro.dsms.network import LinkConfig, NetworkFabric
from repro.dsms.query import ContinuousQuery, QueryAnswer
from repro.dsms.registry import SourceRegistry
from repro.errors import ConfigurationError
from repro.filters.models import StateSpaceModel
from repro.resilience.checkpoint import wal_record
from repro.resilience.config import ResilienceConfig
from repro.resilience.shell import ResilienceShell
from repro.resilience.supervisor import BoundedInbox, OverloadController
from repro.streams.base import MaterializedStream

__all__ = ["StreamEngine", "EngineReport", "SERVER_NODE"]

#: Node id of the central server in partition fault schedules: a
#: :meth:`FaultSchedule.partition` side containing this name cuts the
#: named sources off from the server (data *and* ack directions).
SERVER_NODE = "server"


@dataclass(frozen=True)
class EngineReport:
    """System-wide summary after (part of) a run.

    Attributes:
        ticks: Sampling instants processed.
        readings: Total sensor readings across sources.
        updates_sent: Update messages offered on the wire over each
            source's whole lifetime (counted at the fabric, so the
            figure survives source restarts that wipe per-source
            counters).  Disjoint from ``retransmits`` and
            ``heartbeats``, so the traffic conservation law holds:
            ``updates_sent + retransmits + heartbeats == delivered +
            messages_lost + corrupted + in_flight``.
        bytes_delivered: Total bytes that crossed the network.
        messages_lost: Data messages dropped by the loss model.
            Disjoint from ``corrupted``.
        in_flight: Messages still queued on latent links (both
            directions) when the report was cut.
        retransmits: Resync snapshots offered on the wire -- ack-timeout
            and server-requested retransmissions plus post-restart
            re-priming.
        heartbeats: Liveness beacons offered by sources.
        corrupted: Messages rejected by the receiver-side CRC check.
        acks_delivered: Server-to-source acknowledgements delivered.
        per_source_energy: Energy report per source id.
    """

    ticks: int
    readings: int
    updates_sent: int
    bytes_delivered: int
    messages_lost: int
    in_flight: int
    retransmits: int
    heartbeats: int
    corrupted: int
    acks_delivered: int
    per_source_energy: dict[str, EnergyReport]

    @property
    def total_energy_joules(self) -> float:
        """System-wide sensor energy across all sources."""
        return sum(r.total_joules for r in self.per_source_energy.values())

    def to_dict(self) -> dict:
        """JSON-serialisable form (nested ``EnergyReport``s included).

        Round-trips exactly through :meth:`from_dict`; the snapshot
        exporter embeds this under its ``meta`` when a run report rides
        along with the telemetry.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineReport":
        """Rebuild a report from :meth:`to_dict` output."""
        try:
            energy = {
                source_id: EnergyReport(**fields)
                for source_id, fields in data["per_source_energy"].items()
            }
            return cls(**{**data, "per_source_energy": energy})
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed EngineReport dict: {exc}"
            ) from None


def _dead_server(source_id: str, k: int) -> None:
    """Tick hook while the server process is down: nothing predicts."""


class StreamEngine(ResilienceShell):
    """Drive many DKF pairs over their streams under one server.

    Args:
        energy_model: Energy accounting model (defaults shared by all
            sources).
        telemetry: Optional :class:`~repro.obs.telemetry.Telemetry`
            threaded through every component (fabric, sources, server,
            fault schedule, filter hot paths).  The default
            :class:`~repro.obs.telemetry.NullTelemetry` keeps a seeded
            run byte-identical to an unobserved one.
        resilience: Optional
            :class:`~repro.resilience.config.ResilienceConfig` enabling
            checkpoint/WAL durability, the divergence watchdog, restart
            supervision and overload shedding.  When None (the default)
            the engine runs the exact pre-resilience delivery path --
            messages go straight from the fabric into the server -- so a
            seeded run stays byte-identical to one built before this
            subsystem existed.
        autoscale: Optional
            :class:`~repro.autoscale.config.AutoscalePolicy` arming the
            predictive control loop: a Kalman forecast of the inbox
            arrival rate hands δ-widening schedules to the overload
            controller *before* the watermark is crossed.  Requires an
            overload policy (the actuator and shed ledger).
    """

    def __init__(
        self,
        energy_model: EnergyModel | None = None,
        telemetry=None,
        resilience: ResilienceConfig | None = None,
        autoscale: AutoscalePolicy | None = None,
    ) -> None:
        super().__init__(telemetry, resilience)
        self.registry = SourceRegistry()
        self._server = self._new_server()
        self._front = SourceDriver(
            self.registry,
            install=self._install_server_side,
            teardown=self._teardown_server_side,
            telemetry=self._tel,
            supervisor=self._supervisor,
        )
        self._sources = self._front.sources
        self._fabric = NetworkFabric(
            # The resilient deliver path must survive the server object
            # being replaced on recovery, so it routes through a wrapper
            # instead of binding the server's method directly.
            deliver=(
                self._server.receive if resilience is None else self._deliver
            ),
            deliver_ack=self._front.on_ack,
            telemetry=self._tel,
        )
        if self._tel.enabled:
            # The codec is module-level, so its timers are too; the most
            # recently built observed engine wins the hook.
            instrument_codec(self._tel.timers)
        self._energy = energy_model or EnergyModel()
        self._links: dict[str, LinkConfig] = {}
        self._priorities: dict[str, int] = {}
        self._latency_overrides: dict[str, tuple[int, int]] = {}
        # Resilience state beyond the shared shell (inert when disabled).
        self._replaying = False
        self._dropped_while_down = 0
        self._overload: OverloadController | None = None
        self._inbox: BoundedInbox | None = None
        if resilience is not None and resilience.overload is not None:
            self._overload = OverloadController(
                resilience.overload, telemetry=self._tel
            )
            self._inbox = BoundedInbox(resilience.overload.inbox_capacity)
        self._autoscaler: InboxAutoscaler | None = None
        if autoscale is not None:
            autoscale.validate()
            if self._overload is None:
                raise ConfigurationError(
                    "predictive autoscaling widens delta through the "
                    "overload controller; pass a ResilienceConfig with an "
                    "overload policy alongside the autoscale policy"
                )
            self._autoscaler = InboxAutoscaler(
                autoscale, self._overload, telemetry=self._tel
            )

    @property
    def server(self) -> DKFServer:
        """The shared central server (live object)."""
        return self._server

    @property
    def fabric(self) -> NetworkFabric:
        """The simulated network fabric (live object)."""
        return self._fabric

    @property
    def sources(self) -> dict[str, DKFSource]:
        """The installed source-side DKF endpoints (live objects)."""
        return dict(self._sources)

    @property
    def overload(self) -> OverloadController | None:
        """The overload controller (None when disabled)."""
        return self._overload

    @property
    def inbox(self) -> BoundedInbox | None:
        """The bounded server inbox (None when overload is disabled)."""
        return self._inbox

    @property
    def autoscaler(self) -> InboxAutoscaler | None:
        """The predictive autoscaler (None when disabled)."""
        return self._autoscaler

    # Resilient delivery path ---------------------------------------------

    def _deliver(self, message):
        """Fabric deliver callback when resilience is enabled.

        While the server is down every delivery is dropped on the floor
        (the fabric already counted it delivered, which is what a dead
        process does to packets that reach its host).  With an overload
        policy the message lands in the bounded inbox and is processed at
        the drain rate; otherwise it is applied synchronously.
        """
        if self._server_down:
            self._dropped_while_down += 1
            return None
        if self._inbox is not None:
            if not self._inbox.offer(message):
                if self._overload is not None:
                    self._overload.charge_drop(message.source_id)
                if self._tel.enabled:
                    self._tel.emit(
                        "shed.drop",
                        source_id=message.source_id,
                        depth=self._inbox.depth,
                    )
                    self._tel.count("inbox_dropped_total", message.source_id)
            return None
        return self._apply_message(message)

    def _apply_message(self, message):
        """Hand one message to the server, WAL-logging what it applies."""
        server = self._server
        if (
            self._ckpt is None
            or self._replaying
            or isinstance(message, AckMessage)
            or not isinstance(message, (UpdateMessage, ResyncMessage))
            or message.source_id not in server.source_ids
        ):
            return server.receive(message)
        source_id = message.source_id
        before = server.stats(source_id)
        result = server.receive(message)
        after = server.stats(source_id)
        applied = (
            after["updates_received"] > before["updates_received"]
            or after["resyncs_received"] > before["resyncs_received"]
        )
        if applied:
            resync = isinstance(message, ResyncMessage)
            self._ckpt.wal_append(wal_record(
                "resync" if resync else "update",
                source_id, message.seq, message.k, message.value,
                *((message.x, message.p) if resync else ()),
            ))
            if self._tel.enabled:
                self._tel.count("wal_records_total", source_id)
        return result

    def add_source(
        self,
        source_id: str,
        model: StateSpaceModel,
        stream: MaterializedStream,
        link: LinkConfig | None = None,
        default_smoothing_r: float = 1.0,
        transport: TransportPolicy | None = None,
        priority: int = 0,
    ) -> None:
        """Register a source, its model, its data stream and its link.

        ``priority`` only matters under an overload policy: when the
        server inbox backs up, the shedding controller widens the δ of
        the *lowest*-priority streams first, so higher numbers keep their
        precision longest.
        """
        self._front.add_source(
            source_id, model, stream, default_smoothing_r, transport
        )
        self._fabric.add_link(source_id, link)
        self._links[source_id] = link or LinkConfig()
        self._priorities[source_id] = priority

    def inject_faults(self, schedule: FaultSchedule) -> None:
        """Install a fault schedule; call after every ``add_source``.

        Burst-loss and corruption faults are layered onto the affected
        links (existing loss functions still apply -- the fabric drops a
        message when *either* says so).  Crash and sensor faults are
        consumed tick by tick inside :meth:`step`.
        """
        schedule.reset()
        schedule.bind_telemetry(self._tel)
        self._faults = schedule
        layer_link_faults(
            self._fabric,
            self._links,
            schedule,
            ends=lambda source_id: (source_id, SERVER_NODE),
        )

    def submit_query(self, query: ContinuousQuery) -> None:
        """Activate a continuous query, (re)installing the source's DKF.

        The first query on a source installs its DKF pair; later queries
        reinstall only when they tighten the effective δ or F (a reinstall
        resets the filters, costing one priming update -- the trade the
        paper's protocol makes for simplicity).
        """
        self._front.submit_query(query)

    def retire_query(self, query_id: str) -> None:
        """Deactivate a query; tear down the DKF when none remain."""
        self._front.retire_query(query_id)

    def _install_server_side(self, source_id: str, config, transport) -> None:
        if source_id in self._server.source_ids:
            self._server.deregister(source_id)
        self._server.register(source_id, config, transport=transport)
        if self._watchdog is not None:
            self._watchdog.register(source_id)
        if self._overload is not None:
            self._overload.register(
                source_id,
                self._priorities.get(source_id, 0),
                config.min_delta,
            )

    def _teardown_server_side(self, source_id: str) -> None:
        self._server.deregister(source_id)
        if self._watchdog is not None:
            self._watchdog.deregister(source_id)
        if self._overload is not None:
            self._overload.deregister(source_id)

    def step(self) -> int:
        """Advance every queried source one sampling instant.

        Per source: consume fault events (crash/restart, sensor faults),
        take a reading, run the suppression decision, offer any update to
        the link (ignoring the link's verdict -- only acks reveal fate),
        then run the transport state machine (timeout retransmissions and
        heartbeats).  Finally the fabric advances one tick, delivering due
        messages, and the server's queued acks are sent back.

        Returns the number of sources that produced a reading (sources
        whose streams are exhausted or that are crashed are skipped).
        """
        tel = self._tel
        now = self._ticks
        tel.set_tick(now)
        with tel.timers.span("engine.step"):
            if self._faults is not None:
                self._faults.observe_tick(now)
                self._latency_overrides = apply_latency_overrides(
                    self._faults, now, self._latency_overrides,
                    (self._fabric, self._links),
                )
            if self._server_down:
                tick = coast = _dead_server
            else:
                tick, coast = self._server.tick, self._coast_server
            processed = self._front.step(
                now,
                tick,
                self._fabric.send,
                faults=self._faults,
                coast=coast,
                on_sample=(
                    self._note_reading if self._watchdog is not None else None
                ),
            )
            self._ticks += 1
            if not self._server_down:
                self._server.advance_clock(self._ticks)
            self._fabric.advance(self._ticks)
            self._drain_inbox()
            if not self._server_down:
                for ack in self._server.take_outbox():
                    self._fabric.send_ack(ack)
            self._run_watchdog()
            self._maybe_checkpoint()
        return processed

    def _coast_server(self, source_id: str, now: int) -> None:
        """A down source's server filter keeps coasting once primed, so
        staleness and covariance grow."""
        if self._server.is_primed(source_id):
            self._server.tick(source_id, now)

    def _note_reading(self, source_id: str, step) -> None:
        """Feed one reading's accept/reject verdict to the watchdog."""
        if step.rejected:
            self._watchdog.note_rejection(source_id)
        else:
            self._watchdog.note_accepted(source_id)

    def _drain_inbox(self) -> None:
        """Process the bounded inbox at the configured drain rate."""
        if self._inbox is None or self._overload is None:
            return
        if not self._server_down:
            for message in self._inbox.drain(
                self._overload.policy.drain_per_tick
            ):
                self._apply_message(message)
        depth = self._inbox.depth
        if self._tel.enabled:
            self._tel.gauge("inbox_depth", depth)
        # The predictive loop runs first: planned widening stamps the
        # reactive cooldown, so the controller below stays a backstop
        # for whatever the forecast missed.
        if self._autoscaler is not None:
            planned = self._autoscaler.control(
                self._ticks,
                depth=depth,
                offered=self._inbox.accepted + self._inbox.dropped,
            )
            self._apply_scales(planned)
        self._apply_scales(self._overload.step(self._ticks, depth))

    def _apply_scales(self, changes: dict[str, float]) -> None:
        for source_id, scale in changes.items():
            source = self._sources.get(source_id)
            if source is not None:
                source.set_delta_scale(scale)

    def _run_watchdog(self) -> None:
        """Health-check every primed stream and apply escalations."""
        if self._watchdog is None or self._server_down:
            return
        for source_id, source in self._sources.items():
            if (
                source_id not in self._server.source_ids
                or not self._server.is_primed(source_id)
            ):
                continue
            action = self._watchdog.check(
                source_id, self._ticks, self._server.health_view(source_id)
            )
            if action is None:
                continue
            if action == "resync":
                if source.primed:
                    source.request_resync()
            elif action == "reprime":
                self._server.reprime(source_id)
                if source.primed:
                    source.request_resync()
            # "quarantine" needs no mechanism here: answers() reads the
            # watchdog's rung and flags the stream untrustworthy.

    def run(self, max_ticks: int | None = None) -> int:
        """Step until every stream is exhausted (or ``max_ticks``).

        When the run ends because every stream drained, in-flight
        messages are flushed (:meth:`NetworkFabric.drain`) so nothing is
        silently stranded; a ``max_ticks`` cut leaves the fabric untouched
        so the run can be resumed.

        Returns the number of ticks executed.
        """
        with self._tel.timers.span("engine.run"):
            return self._front.run(
                self.step, self._flush_in_flight, max_ticks
            )

    def settle(self, max_ticks: int = 256) -> int:
        """Tick the transport until it quiesces (post-run grace period).

        Keeps stepping (consuming no new readings once streams are
        exhausted) until no message is in flight and no source is waiting
        on an ack, or ``max_ticks`` elapse.  Use after :meth:`run` when a
        test or deployment needs every retransmission resolved rather
        than merely flushed.

        Returns the number of grace ticks executed.
        """
        return self._front.settle(
            self.step, self._fabric.total_in_flight, max_ticks
        )

    def _flush_in_flight(self) -> None:
        """Deliver stranded in-flight traffic (and resulting acks)."""
        while True:
            drained = self._fabric.drain()
            if self._inbox is not None and not self._server_down:
                for message in self._inbox.drain(self._inbox.depth):
                    self._apply_message(message)
            acks = (
                [] if self._server_down else self._server.take_outbox()
            )
            for ack in acks:
                self._fabric.send_ack(ack)
            if drained == 0 and not acks:
                break

    def answers(self) -> list[QueryAnswer]:
        """Current answers for every active query.

        Each answer carries the liveness verdict for its source:
        ``staleness_ticks`` since the server last heard anything,
        ``confidence`` derived from the coasting filter's inflated
        covariance, and ``degraded=True`` once the silence exceeded the
        source's suspect deadline -- the honest "possibly dead" signal the
        plain value cannot convey.
        """
        out = []
        for query in self.registry.active_queries:
            answer = self._answer_for(query)
            if answer is not None:
                out.append(answer)
        return out

    def _answer_for(self, query: ContinuousQuery) -> QueryAnswer | None:
        source = self._sources.get(query.source_id)
        if source is None:
            return None
        fields = self._server.answer_fields(query.source_id)
        if fields is None:
            return None
        value, k, staleness, suspect, confidence = fields
        if self._tel.enabled:
            self._tel.observe(
                "staleness_at_answer_ticks",
                staleness,
                source_id=query.source_id,
            )
        return QueryAnswer(
            query_id=query.query_id,
            source_id=query.source_id,
            k=k,
            value=value,
            # The honest precision bound: overload shedding may have
            # widened the effective δ (scale 1.0 leaves the figure
            # bit-identical to the configured width).
            precision=source.effective_min_delta,
            staleness_ticks=staleness,
            confidence=confidence,
            # While the server process is down, clients read the cached
            # last-known answer -- always degraded.
            degraded=suspect or self._server_down,
            quarantined=(
                self._watchdog is not None
                and self._watchdog.is_quarantined(query.source_id)
            ),
        )

    # Crash recovery -------------------------------------------------------

    def _new_server(self) -> DKFServer:
        return DKFServer(
            strict=False,
            emit_acks=True,
            telemetry=self._tel,
            track_health=self._track_health,
        )

    def _export_server(self) -> tuple[int, dict]:
        return self._server.clock, {
            source_id: self._server.export_source_state(source_id)
            for source_id in self._server.source_ids
        }

    def _drop_queued(self) -> int:
        return self._inbox.clear() if self._inbox is not None else 0

    def _reset_server(self) -> None:
        """A fresh server registers every installed source (configs live
        in the engine, not the dead process)."""
        self._server = self._new_server()
        self._dropped_while_down = 0
        for source_id, source in self._sources.items():
            self._server.register(
                source_id,
                source.config,
                transport=self._front.transports[source_id],
            )

    def _import_source(self, source_id: str, data: dict) -> bool:
        if source_id not in self._server.source_ids:
            return False
        self._server.import_source_state(source_id, data)
        return True

    def _roll_forward(self) -> int:
        """Roll each restored filter forward to the present: the mirror
        predicted once per sampled instant while the server was dead.
        Returns the number of sources asked for a resync snapshot."""
        for source_id, source in self._sources.items():
            if not self._server.is_primed(source_id) or not source.primed:
                continue
            behind = source.mirror.k - self._server.filter_clock(source_id)
            last_k = int(self._server.stats(source_id)["last_k"])
            for i in range(max(0, behind)):
                self._server.tick(source_id, last_k + i + 1)
        self._server.advance_clock(self._ticks)
        # Replay re-derived acks for messages whose originals were acked
        # before the crash; re-sending them would be duplicate traffic.
        self._server.take_outbox()
        resyncs = 0
        for source_id, source in self._sources.items():
            if not source.primed:
                continue
            if (
                source.next_seq
                != self._server.stats(source_id)["expected_seq"]
            ):
                source.request_resync()
                resyncs += 1
        return resyncs

    def _replay_wal(self) -> int:
        """Apply the WAL tail to a freshly restored server."""
        self._replaying = True
        count = 0
        try:
            for record in self._ckpt.wal_records():
                source_id = record.get("source_id")
                if source_id not in self._server.source_ids:
                    continue
                k = int(record["k"])
                last_k = int(self._server.stats(source_id)["last_k"])
                # Interleave the prediction steps the original run
                # performed between the previous applied message and
                # this one (one per sampled instant).
                for t in range(last_k + 1, k + 1):
                    self._server.tick(source_id, t)
                # The live run delivered this message while the server
                # clock sat at its sampling instant (zero-latency links
                # deliver inside the same step), so replay matches that
                # clock exactly -- last_contact comes out bit-identical.
                self._server.advance_clock(k)
                if record["kind"] == "resync":
                    message = ResyncMessage(
                        source_id=source_id,
                        seq=int(record["seq"]),
                        k=k,
                        x=np.asarray(record["x"], dtype=float),
                        p=np.asarray(record["p"], dtype=float),
                        value=np.asarray(record["value"], dtype=float),
                    )
                else:
                    message = UpdateMessage(
                        source_id=source_id,
                        seq=int(record["seq"]),
                        k=k,
                        value=np.asarray(record["value"], dtype=float),
                    )
                self._server.receive(message)
                count += 1
        finally:
            self._replaying = False
        return count

    def resilience_report(self) -> dict[str, object]:
        """Summary of every resilience guard's activity this run."""
        report = super().resilience_report()
        if self._inbox is not None:
            report["inbox"] = {
                "depth": self._inbox.depth,
                "accepted": self._inbox.accepted,
                "dropped": self._inbox.dropped,
            }
        if self._overload is not None:
            report["overload"] = self._overload.report()
            report["shed_ledger"] = self._overload.ledger()
        if self._autoscaler is not None:
            report["autoscale"] = self._autoscaler.report()
        return report

    def report(self) -> EngineReport:
        """System-wide traffic and energy summary."""
        per_source_energy = {}
        readings = 0
        updates = 0
        retransmits = 0
        heartbeats = 0
        corrupted = 0
        acks_delivered = 0
        for source_id, source in self._sources.items():
            stats = self._fabric.stats_for(source_id)
            model = source.config.model
            per_source_energy[source_id] = self._energy.report(
                bytes_sent=stats.bytes_delivered,
                filter_steps=source.samples_seen,
                state_dim=model.state_dim,
                measurement_dim=model.measurement_dim,
                smoothing_steps=source.samples_seen if source.config.smoothed else 0,
            )
            readings += source.samples_seen
            # Offered-side traffic comes from the fabric ledger, not the
            # source: DKFSource.reset() wipes its counters on a crash /
            # restart, while LinkStats span the source's whole lifetime
            # -- the conservation law must survive mid-run restarts.
            updates += stats.offered - stats.resyncs - stats.heartbeats
            retransmits += stats.resyncs
            heartbeats += stats.heartbeats
            corrupted += stats.corrupted
            acks_delivered += stats.acks_delivered
        return EngineReport(
            ticks=self._ticks,
            readings=readings,
            updates_sent=updates,
            bytes_delivered=self._fabric.total_bytes(),
            messages_lost=self._fabric.total_lost(),
            in_flight=self._fabric.total_in_flight(),
            retransmits=retransmits,
            heartbeats=heartbeats,
            corrupted=corrupted,
            acks_delivered=acks_delivered,
            per_source_energy=per_source_energy,
        )
