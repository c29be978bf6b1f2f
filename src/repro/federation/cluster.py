"""The federated cluster: N peer servers behind one engine-like facade.

A :class:`FederatedCluster` drives many DKF sources against a fleet of
peer servers instead of one.  Each source is *homed* on the peer its
rendezvous hash picks; the home runs the paper's server half unchanged
(tolerant delivery, cumulative acks, resync healing), and additionally
forwards every applied-stream frame to ``k`` replica peers over directed
peer links carried by a second :class:`~repro.dsms.network.NetworkFabric`.
A periodic diffusion consensus round fuses the overlapping estimates in
information form and measures how much they disagreed -- the measured
disagreement plus a staleness drift term is the ``consensus_error``
bound every answer carries.

Robustness semantics (the headline):

* **Peer crash** -- the in-memory bank dies.  Frames delivered to the
  dead host drop on the floor (the fabric counted them delivered; that
  is what a dead process does to packets).  Once the silence deadline
  confirms the death, each orphaned stream is re-homed to its freshest
  replica (promotion order: highest applied sequence, then highest
  epoch, then lowest peer id), paced by the failover supervisor.  The
  source heals the new home itself: its un-acked frames age out and the
  retransmitted resync snapshot lands at the new ingress -- the PR-3
  handshake, reused peer-to-peer.
* **Partition** -- links crossing the cut drop sends and hold in-pipe
  frames (still ``in_flight``).  A partitioned-but-alive home keeps its
  sources: both halves keep answering, the minority side from replica
  banks with an honestly widened bound, and on heal every peer
  reconciles deterministically (epoch-ordered claims, seeded fusion).
* **Asymmetric links** -- one direction of a peer or source link slows;
  acks and data age independently, exactly the case symmetric timeout
  tuning gets wrong.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.dkf.config import TransportPolicy
from repro.dkf.protocol import ResyncMessage, UpdateMessage
from repro.dkf.source import DKFSource
from repro.dkf.stepper import SourceDriver
from repro.dsms.faults import FaultSchedule
from repro.dsms.linkfaults import apply_latency_overrides, layer_link_faults
from repro.dsms.network import LinkConfig, NetworkFabric
from repro.dsms.query import ContinuousQuery, QueryAnswer
from repro.dsms.registry import SourceRegistry
from repro.errors import ConfigurationError, QueryError, UnknownSourceError
from repro.federation.config import FederationConfig
from repro.federation.consensus import (
    ConsensusRoundInfo,
    fuse_information,
    information_form,
    staleness_drift,
    zhat_spread,
)
from repro.federation.graph import PeerGraph, peer_link_id
from repro.federation.peer import PeerNode
from repro.federation.protocol import (
    ConsensusShare,
    PeerHeartbeat,
    RehomeClaim,
    ReplicaFrame,
)
from repro.filters.models import StateSpaceModel
from repro.obs.events import trace_id
from repro.obs.telemetry import NULL_TELEMETRY
from repro.resilience.supervisor import StreamSupervisor
from repro.streams.base import MaterializedStream

__all__ = ["FederatedCluster", "FederationReport"]


@dataclasses.dataclass(frozen=True)
class FederationReport:
    """Cluster-wide traffic and robustness summary.

    Both fabrics obey the conservation law independently:
    ``offered == delivered + lost + corrupted + in_flight``.

    Attributes:
        ticks: Sampling instants processed.
        peers: Peer count.
        source_offered: Data frames offered on source links.
        source_delivered: Data frames delivered on source links.
        source_lost: Data frames dropped by loss models / severed sends.
        source_corrupted: Data frames rejected by the CRC check.
        source_in_flight: Data frames still queued on source links.
        peer_offered: Peer frames offered on peer links.
        peer_delivered: Peer frames delivered on peer links.
        peer_lost: Peer frames dropped (loss or severed sends).
        peer_corrupted: Peer frames rejected by the CRC check.
        peer_in_flight: Peer frames still queued (held across
            partitions included -- they are ``in_flight``, not lost).
        dropped_at_dead_peer: Frames delivered to a crashed peer's host
            and dropped on the floor.
        failovers: Streams re-homed after a confirmed peer death.
        rehome_latency_ticks: Per-completed-failover latency from the
            re-home decision to the first frame applied at the new home.
        peer_crashes: Peer processes killed.
        consensus_rounds: Fusion rounds applied across all peers.
        split_brain_ticks: Ticks at least one partition was active.
    """

    ticks: int
    peers: int
    source_offered: int
    source_delivered: int
    source_lost: int
    source_corrupted: int
    source_in_flight: int
    peer_offered: int
    peer_delivered: int
    peer_lost: int
    peer_corrupted: int
    peer_in_flight: int
    dropped_at_dead_peer: int
    failovers: int
    rehome_latency_ticks: tuple[int, ...]
    peer_crashes: int
    consensus_rounds: int
    split_brain_ticks: int

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return dataclasses.asdict(self)


class FederatedCluster:
    """N peer servers, consensus fusion, failover -- one facade.

    The public surface mirrors :class:`~repro.dsms.engine.StreamEngine`
    (``add_source`` / ``submit_query`` / ``inject_faults`` / ``step`` /
    ``run`` / ``answers`` / ``report``) so drills and benches can swap a
    cluster in where an engine ran.

    Args:
        config: Cluster shape and timing; defaults to 3 fully-connected
            peers with 1 replica per stream.
        telemetry: Optional telemetry handle threaded through the peer
            banks, both fabrics and the failover supervisor.
    """

    def __init__(
        self,
        config: FederationConfig | None = None,
        telemetry=None,
    ) -> None:
        self._cfg = config or FederationConfig()
        self._tel = telemetry or NULL_TELEMETRY
        self._graph = PeerGraph(self._cfg.peer_ids, self._cfg.topology)
        self._peers = {
            pid: PeerNode(pid, telemetry=self._tel)
            for pid in self._cfg.peer_ids
        }
        self.registry = SourceRegistry()
        self._front = SourceDriver(
            self.registry,
            install=self._install_banks,
            teardown=self._uninstall_banks,
            telemetry=self._tel,
        )
        self._sources = self._front.sources
        self._links: dict[str, LinkConfig] = {}
        self._drift: dict[str, float] = {}
        self._ticks = 0
        self._faults: FaultSchedule | None = None
        self._latency_overrides: dict[str, tuple[int, int]] = {}
        # Federation routing state (the cluster's ingress table).
        self._home: dict[str, str] = {}
        self._home_epoch: dict[str, int] = {}
        self._replicas: dict[str, list[str]] = {}
        self._supervisor = StreamSupervisor(
            self._cfg.failover.restart, telemetry=self._tel
        )
        self._peer_seq: dict[str, int] = {}
        self._round_index = 0
        self._consensus_rounds = 0
        self._failovers = 0
        self._rehome_latencies: list[int] = []
        self._rehome_baseline: dict[str, tuple[int, int]] = {}
        self._dropped_at_dead_peer = 0
        self._split_brain_ticks = 0
        self._source_fabric = NetworkFabric(
            deliver=self._deliver_from_source,
            deliver_ack=self._front.on_ack,
            telemetry=self._tel,
        )
        self._peer_fabric = NetworkFabric(
            deliver=self._deliver_peer_frame,
            telemetry=self._tel,
        )
        self._peer_links: dict[str, LinkConfig] = {}
        for a in self._cfg.peer_ids:
            for b in self._graph.neighbors(a):
                link = peer_link_id(a, b)
                self._peer_fabric.add_link(link, self._cfg.peer_link)
                self._peer_links[link] = self._cfg.peer_link
                self._peer_seq[link] = 0

    # Introspection --------------------------------------------------------

    @property
    def config(self) -> FederationConfig:
        """The cluster configuration."""
        return self._cfg

    @property
    def graph(self) -> PeerGraph:
        """The peer graph (topology, placement, weights)."""
        return self._graph

    @property
    def peers(self) -> dict[str, PeerNode]:
        """The peer nodes (live objects)."""
        return dict(self._peers)

    @property
    def sources(self) -> dict[str, DKFSource]:
        """The installed source-side DKF endpoints (live objects)."""
        return dict(self._sources)

    @property
    def ticks(self) -> int:
        """Sampling instants processed so far."""
        return self._ticks

    @property
    def faults(self) -> FaultSchedule | None:
        """The injected fault schedule, if any."""
        return self._faults

    @property
    def telemetry(self):
        """The telemetry handle."""
        return self._tel

    @property
    def source_fabric(self) -> NetworkFabric:
        """The source-to-cluster fabric (live object)."""
        return self._source_fabric

    @property
    def peer_fabric(self) -> NetworkFabric:
        """The peer-to-peer fabric (live object)."""
        return self._peer_fabric

    def peer(self, peer_id: str) -> PeerNode:
        """One peer node (raises on unknown ids)."""
        try:
            return self._peers[peer_id]
        except KeyError:
            raise ConfigurationError(f"unknown peer {peer_id!r}") from None

    def home_of(self, source_id: str) -> str:
        """The stream's current home (ingress) peer."""
        try:
            return self._home[source_id]
        except KeyError:
            raise UnknownSourceError(
                f"source {source_id!r} not registered"
            ) from None

    def home_epoch(self, source_id: str) -> int:
        """How many times the stream has been re-homed (0 = never)."""
        self.home_of(source_id)
        return self._home_epoch[source_id]

    def replicas_of(self, source_id: str) -> list[str]:
        """The stream's current replica peers."""
        self.home_of(source_id)
        return list(self._replicas.get(source_id, []))

    # Registration ---------------------------------------------------------

    def add_source(
        self,
        source_id: str,
        model: StateSpaceModel,
        stream: MaterializedStream,
        link: LinkConfig | None = None,
        default_smoothing_r: float = 1.0,
        transport: TransportPolicy | None = None,
    ) -> None:
        """Register a source, its model, its data stream and its link.

        Placement is decided here: rendezvous hashing picks the home
        peer, and the ``k`` best-ranked graph neighbours of the home
        become the replica set.
        """
        if ">" in source_id or source_id in self._peers:
            raise ConfigurationError(
                f"source id {source_id!r} collides with the peer namespace"
            )
        self._front.add_source(
            source_id, model, stream, default_smoothing_r, transport
        )
        self._source_fabric.add_link(source_id, link)
        self._links[source_id] = link or LinkConfig()
        self._drift[source_id] = staleness_drift(model)
        home = self._graph.home(source_id)
        self._home[source_id] = home
        self._home_epoch[source_id] = 0
        self._replicas[source_id] = self._graph.replicas(
            source_id, self._cfg.replication, home=home
        )
        for peer in self._peers.values():
            peer.adopt_claim(source_id, home, epoch=0)

    def submit_query(self, query: ContinuousQuery) -> None:
        """Activate a continuous query, (re)installing the stream's DKF.

        The filter bank is installed on the home *and* every replica
        peer; the tightest active δ wins, exactly as on the
        single-server engine.
        """
        self._front.submit_query(query)

    def retire_query(self, query_id: str) -> None:
        """Deactivate a query; tear down the DKF when none remain."""
        self._front.retire_query(query_id)

    def _uninstall_banks(self, source_id: str) -> None:
        for peer in self._peers.values():
            peer.uninstall(source_id)

    def _install_banks(
        self, source_id: str, config, transport: TransportPolicy
    ) -> None:
        holders = [self._home[source_id], *self._replicas[source_id]]
        for pid in holders:
            peer = self._peers[pid]
            if peer.alive:
                peer.install(source_id, config, transport=transport)
            else:
                # A dead holder still records the config so rejoin can
                # re-register the bank.
                peer.configs[source_id] = config
                peer.transports[source_id] = transport

    # Fault injection ------------------------------------------------------

    def inject_faults(self, schedule: FaultSchedule) -> None:
        """Install a fault schedule; call after every ``add_source``.

        On top of the single-server fault classes (crash, sensor, burst
        loss, corruption -- all keyed by source id), the cluster consumes
        *peer* crash windows (``schedule.crash("p1", ...)``), partitions
        whose sides name peers and/or sources, and asymmetric windows on
        source links or directed peer links (``"p0>p1"``).
        """
        schedule.reset()
        schedule.bind_telemetry(self._tel)
        self._faults = schedule
        # A source's link is severed when the cut separates it from its
        # *current* ingress peer -- the routing table is read live, so
        # failover re-points it.
        layer_link_faults(
            self._source_fabric,
            self._links,
            schedule,
            ends=lambda source_id: (source_id, self._home[source_id]),
        )
        layer_link_faults(
            self._peer_fabric,
            self._peer_links,
            schedule,
            ends=lambda link_id: link_id.split(">"),
        )

    # Peer lifecycle -------------------------------------------------------

    def crash_peer(self, peer_id: str) -> None:
        """Kill one peer server mid-run (its filter bank dies with it)."""
        peer = self.peer(peer_id)
        if not peer.alive:
            return
        peer.crash()
        if self._tel.enabled:
            self._tel.emit("federation.peer_crash", peer=peer_id)
            self._tel.count("fed_peer_crashes_total", peer_id)

    def restart_peer(self, peer_id: str) -> None:
        """Restart a crashed peer: amnesiac bank, higher epoch.

        The reborn peer rejoins as a *replica* -- streams it used to
        home stay with whoever holds the latest epoch claim (no
        automatic failback), and its empty banks heal through the
        replica resync path.
        """
        peer = self.peer(peer_id)
        if peer.alive:
            return
        peer.rejoin(self._ticks)
        self._recompute_replicas()
        if self._tel.enabled:
            self._tel.emit(
                "federation.peer_rejoin", peer=peer_id, epoch=peer.epoch
            )
            self._tel.count("fed_peer_rejoins_total", peer_id)

    def _recompute_replicas(self) -> None:
        """Refresh every stream's replica set around its current home."""
        for source_id, home in self._home.items():
            replicas = self._graph.replicas(
                source_id, self._cfg.replication, home=home
            )
            self._replicas[source_id] = replicas
            config = self._sources.get(source_id)
            if config is None:
                continue
            transport = self._front.transports[source_id]
            for pid in replicas:
                peer = self._peers[pid]
                if (
                    peer.alive
                    and source_id not in peer.server.source_ids
                ):
                    peer.install(
                        source_id, config.config, transport=transport
                    )

    def _apply_peer_faults(self, now: int) -> None:
        """Consume peer crash/restart windows from the fault schedule."""
        if self._faults is None:
            return
        for pid, peer in self._peers.items():
            if peer.alive and self._faults.is_down(pid, now):
                self.crash_peer(pid)
            elif not peer.alive and self._faults.restarts_at(pid, now):
                self.restart_peer(pid)

    # Stepping -------------------------------------------------------------

    def step(self) -> int:
        """Advance every queried source one sampling instant.

        The single-server step, federated: the shared
        :class:`~repro.dkf.stepper.SourceDriver` has every source sample
        and transmit to its ingress; both fabrics advance; every peer's
        acks are routed (home acks back to the source, replica resync
        requests into the replica-heal path); peers heartbeat;
        confirmed-dead homes trigger failover; and on consensus cadence
        the previous round's shares fuse before the next round broadcasts.
        """
        tel = self._tel
        now = self._ticks
        tel.set_tick(now)
        with tel.timers.span("federation.step"):
            if self._faults is not None:
                self._faults.observe_tick(now)
                self._latency_overrides = apply_latency_overrides(
                    self._faults, now, self._latency_overrides,
                    (self._source_fabric, self._links),
                    (self._peer_fabric, self._peer_links),
                )
                self._apply_peer_faults(now)
            processed = self._front.step(
                now,
                self._tick_banks,
                self._source_fabric.send,
                faults=self._faults,
            )
            self._ticks += 1
            for peer in self._peers.values():
                if peer.alive:
                    peer.server.advance_clock(self._ticks)
            self._source_fabric.advance(self._ticks)
            self._peer_fabric.advance(self._ticks)
            self._route_peer_outboxes()
            self._emit_heartbeats(self._ticks)
            self._check_failover(self._ticks)
            self._note_rehome_progress(self._ticks)
            self._maybe_consensus(self._ticks)
            if self._faults is not None and self._faults.partition_active(
                self._ticks
            ):
                self._split_brain_ticks += 1
        return processed

    def _tick_banks(self, source_id: str, k: int) -> None:
        """Advance every alive bank holding the stream one instant.

        Home and replicas alike predict every sampled instant -- a
        replica's filter must be time-aligned before the (1-tick-late)
        forwarded correction lands, just as the server predicts every
        instant in the single-server protocol.
        """
        for peer in self._peers.values():
            if (
                peer.alive
                and source_id in peer.server.source_ids
                and peer.server.is_primed(source_id)
            ):
                peer.server.tick(source_id, k)

    # Delivery -------------------------------------------------------------

    def _deliver_from_source(self, message) -> None:
        """Source fabric deliver: route to ingress, replicate onward."""
        source_id = message.source_id
        home = self._home[source_id]
        peer = self._peers[home]
        if not peer.alive:
            # Dead host: the packet reached the machine and died there.
            self._dropped_at_dead_peer += 1
            return
        if source_id not in peer.server.source_ids:
            # Frame raced a retire/failover; nothing holds the bank.
            self._dropped_at_dead_peer += 1
            return
        if self._tel.enabled and isinstance(
            message, (UpdateMessage, ResyncMessage)
        ):
            self._tel.emit(
                "federation.ingress",
                source_id=source_id,
                trace=trace_id(source_id, message.seq),
                home=home,
                lag_ticks=self._ticks - message.k,
            )
        peer.server.receive(message)
        if isinstance(message, (UpdateMessage, ResyncMessage)):
            for replica in self._replicas[source_id]:
                self._forward_replica(home, replica, message)

    def _forward_replica(
        self,
        home: str,
        replica: str,
        payload: UpdateMessage | ResyncMessage,
    ) -> None:
        """Forward one stream frame home -> replica over the peer fabric."""
        link = peer_link_id(home, replica)
        if link not in self._peer_links:
            return
        seq = self._peer_seq[link]
        self._peer_seq[link] = seq + 1
        frame = ReplicaFrame(
            link_id=link, seq=seq, k=payload.k, payload=payload
        )
        if self._tel.enabled:
            self._tel.emit(
                "federation.replica_forward",
                source_id=frame.stream_id,
                trace=frame.trace_id,
                home=home,
                replica=replica,
            )
        self._peer_fabric.send(frame)

    def _deliver_peer_frame(self, frame) -> None:
        """Peer fabric deliver: dispatch one peer frame at its receiver."""
        sender, receiver = frame.link_id.split(">")
        peer = self._peers[receiver]
        if not peer.alive:
            self._dropped_at_dead_peer += 1
            return
        if isinstance(frame, PeerHeartbeat):
            peer.note_heard(frame.peer_id, self._ticks, epoch=frame.epoch)
            return
        peer.note_heard(sender, self._ticks)
        if isinstance(frame, ReplicaFrame):
            if frame.stream_id in peer.server.source_ids:
                if self._tel.enabled:
                    self._tel.emit(
                        "federation.replica_apply",
                        source_id=frame.stream_id,
                        trace=frame.trace_id,
                        replica=receiver,
                        lag_ticks=self._ticks - frame.k,
                    )
                peer.server.receive(frame.payload)
            return
        if isinstance(frame, ConsensusShare):
            peer.round_shares.setdefault(frame.stream_id, {})[sender] = frame
            return
        if isinstance(frame, RehomeClaim):
            peer.adopt_claim(frame.stream_id, frame.new_home, frame.epoch)

    def _route_peer_outboxes(self) -> None:
        """Drain every bank's ack outbox to the right consumer.

        Acks cut by a stream's *home* bank travel back to the source
        over its link (the paper's ack channel).  Acks cut by a replica
        bank never reach the source -- a replica's sequence expectations
        are its own business -- but a replica's ``resync_requested``
        enters the replica-heal path: the home answers it with a full
        snapshot of its own bank, the same medicine a gap-detecting
        server prescribes a source.
        """
        for pid, peer in self._peers.items():
            if not peer.alive:
                continue
            for ack in peer.server.take_outbox():
                stream = ack.source_id
                if self._home.get(stream) == pid:
                    self._source_fabric.send_ack(ack)
                elif ack.resync_requested:
                    self._heal_replica(stream, pid)

    def _heal_replica(self, stream: str, replica: str) -> None:
        """Home -> replica snapshot after the replica detected a gap."""
        home_id = self._home.get(stream)
        if home_id is None or home_id == replica:
            return
        home = self._peers[home_id]
        if (
            not home.alive
            or stream not in home.server.source_ids
            or not home.server.is_primed(stream)
        ):
            return
        view = home.server.health_view(stream)
        stats = home.server.stats(stream)
        snapshot = ResyncMessage(
            source_id=stream,
            seq=int(stats["expected_seq"]) - 1,
            k=int(stats["last_k"]),
            x=view["x"],
            p=view["p"],
            value=home.server.value(stream),
        )
        self._forward_replica(home_id, replica, snapshot)
        if self._tel.enabled:
            self._tel.emit(
                "federation.replica_heal",
                source_id=stream,
                home=home_id,
                replica=replica,
            )
            self._tel.count("fed_replica_heals_total", stream)

    # Heartbeats and failover ----------------------------------------------

    def _emit_heartbeats(self, tick: int) -> None:
        """Every alive peer beacons its neighbours on the cadence."""
        if tick % self._cfg.heartbeat_every != 0:
            return
        for pid, peer in self._peers.items():
            if not peer.alive:
                continue
            for neighbor in self._graph.neighbors(pid):
                link = peer_link_id(pid, neighbor)
                seq = self._peer_seq[link]
                self._peer_seq[link] = seq + 1
                self._peer_fabric.send(
                    PeerHeartbeat(
                        link_id=link,
                        seq=seq,
                        k=tick,
                        peer_id=pid,
                        epoch=peer.epoch,
                    )
                )

    def _check_failover(self, now: int) -> None:
        """Re-home streams whose home is confirmed dead.

        Two conditions gate every re-home: the home process is actually
        down (a partitioned-but-alive home keeps its sources -- both
        sides answering beats a split-brain ingress fight), and the
        promotion candidate has *observed* the silence past the policy
        deadline (detection is earned through missed heartbeats, not
        read off the simulation's omniscient state).  Promotion picks
        the freshest alive replica: highest applied sequence, then
        highest epoch, then lowest peer id -- a deterministic order every
        peer computes identically.
        """
        policy = self._cfg.failover
        for source_id, home_id in list(self._home.items()):
            home = self._peers[home_id]
            if home.alive or source_id not in self._sources:
                continue
            candidates = [
                self._peers[pid]
                for pid in self._replicas.get(source_id, [])
                if self._peers[pid].alive
            ]
            if not candidates:
                # No replica holds the stream: fall back to rendezvous
                # order over the survivors; the source's own resync will
                # prime the empty bank.
                candidates = [
                    self._peers[pid]
                    for pid in self._graph.rank(source_id)
                    if self._peers[pid].alive
                ]
            if not candidates:
                continue
            best = min(
                candidates,
                key=lambda p: (
                    -p.last_applied_seq(source_id),
                    -p.epoch,
                    p.peer_id,
                ),
            )
            if best.silence(home_id, now) <= policy.dead_after_ticks:
                continue
            if not self._supervisor.request_restart(source_id, now):
                continue
            self._promote(source_id, home_id, best.peer_id, now)

    def _promote(
        self, source_id: str, old_home: str, new_home: str, now: int
    ) -> None:
        """Re-point a stream's ingress and announce the claim."""
        self._home[source_id] = new_home
        self._home_epoch[source_id] += 1
        epoch = self._home_epoch[source_id]
        peer = self._peers[new_home]
        if source_id not in peer.server.source_ids:
            config = self._sources[source_id].config
            peer.install(
                source_id,
                config,
                transport=self._front.transports[source_id],
            )
        peer.adopt_claim(source_id, new_home, epoch)
        self._replicas[source_id] = self._graph.replicas(
            source_id, self._cfg.replication, home=new_home
        )
        self._recompute_replicas()
        last_seq = peer.last_applied_seq(source_id)
        for neighbor in self._graph.neighbors(new_home):
            link = peer_link_id(new_home, neighbor)
            seq = self._peer_seq[link]
            self._peer_seq[link] = seq + 1
            self._peer_fabric.send(
                RehomeClaim(
                    link_id=link,
                    seq=seq,
                    k=now,
                    stream_id=source_id,
                    new_home=new_home,
                    epoch=epoch,
                    last_seq=max(0, last_seq),
                )
            )
        stats_applied = 0
        if source_id in peer.server.source_ids:
            stats = peer.server.stats(source_id)
            stats_applied = int(stats["updates_received"]) + int(
                stats["resyncs_received"]
            )
        self._rehome_baseline[source_id] = (now, stats_applied)
        self._failovers += 1
        if self._tel.enabled:
            self._tel.emit(
                "federation.failover",
                source_id=source_id,
                trace=f"rehome/{source_id}/{epoch}",
                old_home=old_home,
                new_home=new_home,
                epoch=epoch,
            )
            self._tel.count("fed_failovers_total", source_id)

    def _note_rehome_progress(self, now: int) -> None:
        """Close out re-homes once the new home applies its first frame."""
        for source_id, (started, baseline) in list(
            self._rehome_baseline.items()
        ):
            peer = self._peers[self._home[source_id]]
            if not peer.alive or source_id not in peer.server.source_ids:
                continue
            stats = peer.server.stats(source_id)
            applied = int(stats["updates_received"]) + int(
                stats["resyncs_received"]
            )
            if applied > baseline:
                latency = now - started
                self._rehome_latencies.append(latency)
                del self._rehome_baseline[source_id]
                if self._tel.enabled:
                    self._tel.emit(
                        "federation.rehome_complete",
                        source_id=source_id,
                        trace=(
                            f"rehome/{source_id}/"
                            f"{self._home_epoch[source_id]}"
                        ),
                        home=peer.peer_id,
                        latency_ticks=latency,
                    )
                    self._tel.observe(
                        "fed_rehome_latency_ticks", latency, source_id
                    )

    # Consensus ------------------------------------------------------------

    def _maybe_consensus(self, tick: int) -> None:
        """Fuse last round's shares, then broadcast the next round."""
        every = self._cfg.consensus_every
        if not every or tick % every != 0:
            return
        if self._round_index > 0:
            for peer in self._peers.values():
                if peer.alive:
                    self._fuse_round(peer, self._round_index - 1, tick)
        self._broadcast_round(self._round_index, tick)
        self._round_index += 1

    def _broadcast_round(self, round_index: int, tick: int) -> None:
        """Every alive holder shares its estimate of every held stream."""
        for pid, peer in self._peers.items():
            if not peer.alive:
                continue
            for stream in peer.server.source_ids:
                if not peer.server.is_primed(stream):
                    continue
                state = peer.server.health_view(stream)
                flt_p = state["p"]
                if flt_p is None or not bool(np.all(np.isfinite(flt_p))):
                    continue
                try:
                    holders = {
                        self._home[stream],
                        *self._replicas.get(stream, []),
                    }
                except KeyError:
                    continue
                share = self._build_share(peer, stream, round_index, tick)
                if share is None:
                    continue
                # The peer's own contribution enters its buffer directly
                # -- it does not travel the fabric.
                peer.round_shares.setdefault(stream, {})[pid] = share
                for neighbor in self._graph.neighbors(pid):
                    if neighbor not in holders:
                        continue
                    link = peer_link_id(pid, neighbor)
                    seq = self._peer_seq[link]
                    self._peer_seq[link] = seq + 1
                    self._peer_fabric.send(
                        dataclasses.replace(share, link_id=link, seq=seq)
                    )

    def _build_share(
        self, peer: PeerNode, stream: str, round_index: int, tick: int
    ) -> ConsensusShare | None:
        view = peer.server.health_view(stream)
        if view["x"] is None:
            return None
        flt = peer.server._state(stream).filter
        try:
            y, yv = information_form(flt)
        except ConfigurationError:
            return None
        return ConsensusShare(
            link_id=peer_link_id(peer.peer_id, peer.peer_id),
            seq=0,
            k=tick,
            stream_id=stream,
            round_index=round_index,
            y=y,
            yv=yv,
            zhat=flt.predict_measurement(),
            last_seq=max(0, peer.last_applied_seq(stream)),
            staleness=int(view["staleness_ticks"]),
        )

    def _fuse_round(
        self, peer: PeerNode, round_index: int, tick: int
    ) -> None:
        """Apply one collected round at one peer.

        Fusion mutates *replica* filters only: the home filter stays in
        exact lock-step with the source mirror (the paper's invariant),
        while replicas -- whose estimates drifted on late forwarded
        corrections -- are pulled onto the weighted neighbourhood
        average.  The measured ``zhat`` spread is recorded either way:
        it is the honest disagreement bound the answers advertise.
        """
        weights_by_peer = self._graph.metropolis_weights(peer.peer_id)
        for stream in list(peer.round_shares):
            shares = {
                sender: share
                for sender, share in peer.round_shares[stream].items()
                if share.round_index == round_index
            }
            # Drop consumed (and stale) shares; newer rounds stay queued.
            peer.round_shares[stream] = {
                sender: share
                for sender, share in peer.round_shares[stream].items()
                if share.round_index > round_index
            }
            if not shares or stream not in peer.server.source_ids:
                continue
            participants = sorted(shares)
            residual = zhat_spread(
                [shares[s].zhat for s in participants]
            )
            best_seq = max(shares[s].last_seq for s in participants)
            if (
                len(shares) > 1
                and self._home.get(stream) != peer.peer_id
                and peer.server.is_primed(stream)
            ):
                pairs = [
                    (shares[s].y, shares[s].yv) for s in participants
                ]
                weights = [
                    weights_by_peer.get(s, weights_by_peer[peer.peer_id])
                    for s in participants
                ]
                try:
                    x, p = fuse_information(pairs, weights)
                except ConfigurationError:
                    continue
                if bool(np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
                    peer.server._state(stream).filter.set_state(x, p)
            peer.consensus[stream] = ConsensusRoundInfo(
                round_index=round_index,
                at_tick=tick,
                participants=len(participants),
                residual=residual,
                best_last_seq=best_seq,
            )
            peer.consensus_rounds_applied += 1
            self._consensus_rounds += 1
            if self._tel.enabled:
                self._tel.emit(
                    "federation.consensus_fuse",
                    source_id=stream,
                    trace=f"consensus/{round_index}/{stream}",
                    peer=peer.peer_id,
                    round_index=round_index,
                    participants=len(participants),
                    residual=residual,
                )
                self._tel.observe(
                    "fed_consensus_residual", residual, stream
                )

    # Answers --------------------------------------------------------------

    def answers(self, peer_id: str | None = None) -> list[QueryAnswer]:
        """Current answers for every active query.

        Args:
            peer_id: Serve every query from this peer's point of view
                (its own bank when it holds the stream, a proxied home
                answer when it can reach the home, nothing otherwise).
                None serves each stream from its current home -- falling
                back to the freshest alive replica, flagged degraded,
                while a death is awaiting failover.

        Every answer's guarantee is ``precision + consensus_error``:
        0.0 extra from a live home, the measured round residual plus
        staleness drift from a replica bank, and one peer hop of drift
        on proxied answers.
        """
        out = []
        for query in self.registry.active_queries:
            answer = self._answer_for(query, peer_id)
            if answer is not None:
                out.append(answer)
        return out

    def answer(self, query_id: str, peer_id: str | None = None) -> QueryAnswer:
        """The current answer for one query (optionally one peer's view)."""
        try:
            found = self._answer_for(self.registry.query(query_id), peer_id)
        except QueryError:
            found = None
        if found is None:
            raise UnknownSourceError(f"no answer available for query {query_id!r}")
        return found

    def _answer_for(
        self, query: ContinuousQuery, peer_id: str | None
    ) -> QueryAnswer | None:
        source = self._sources.get(query.source_id)
        if source is None:
            return None
        stream = query.source_id
        home_id = self._home[stream]
        if peer_id is None:
            serving = self._serving_peer(stream)
            if serving is None:
                return None
            return self._bank_answer(
                query, source, serving, home_id, record=True
            )
        peer = self.peer(peer_id)
        if not peer.alive:
            return None
        if stream in peer.server and peer.server.is_primed(stream):
            return self._bank_answer(query, source, peer, home_id)
        home = self._peers[home_id]
        if (
            home.alive
            and self._peer_reachable(peer_id, home_id)
            and stream in home.server
            and home.server.is_primed(stream)
        ):
            proxied = self._bank_answer(query, source, home, home_id)
            if proxied is None:
                return None
            hop_drift = self._drift[stream] * max(
                1, self._cfg.peer_link.latency_ticks
            )
            return dataclasses.replace(
                proxied,
                consensus_error=proxied.consensus_error + hop_drift,
            )
        return None

    def _serving_peer(self, stream: str) -> PeerNode | None:
        """The default serving bank: home, else the freshest replica."""
        home = self._peers[self._home[stream]]
        if home.alive and stream in home.server and home.server.is_primed(stream):
            return home
        holders = [
            self._peers[pid]
            for pid in self._replicas.get(stream, [])
            if self._peers[pid].alive
            and stream in self._peers[pid].server
            and self._peers[pid].server.is_primed(stream)
        ]
        if not holders:
            return None
        return min(
            holders,
            key=lambda p: (-p.last_applied_seq(stream), -p.epoch, p.peer_id),
        )

    def _bank_answer(
        self,
        query: ContinuousQuery,
        source: DKFSource,
        peer: PeerNode,
        home_id: str,
        record: bool = False,
    ) -> QueryAnswer | None:
        stream = query.source_id
        fields = peer.server.answer_fields(stream)
        if fields is None:
            return None
        value, k, staleness, suspect, confidence = fields
        is_home = peer.peer_id == home_id and self._peers[home_id].alive
        if is_home:
            consensus_error = 0.0
        else:
            # The honest widening is the larger of two estimates: what
            # the last fusion round measured (plus drift since), and the
            # full drift over this bank's own silence -- a solo round
            # measures zero disagreement, but a bank that heard nothing
            # since the cut is stale however recently it "agreed" with
            # itself.
            drift = self._drift[stream]
            stale_bound = drift * max(1, staleness)
            info = peer.consensus.get(stream)
            if info is not None:
                consensus_error = max(
                    info.bound(self._ticks, drift), stale_bound
                )
            else:
                consensus_error = stale_bound
        degraded = suspect or not is_home
        if (
            self._faults is not None
            and self._faults.partition_active(self._ticks)
        ):
            degraded = degraded or not self._peers[home_id].alive
        if record and self._tel.enabled:
            # Answer-side health feed: the staleness histogram drives the
            # p99-staleness SLO, the gauge drives the consensus-error
            # bound rule and its Kalman watcher.  Only the default
            # serving view records -- per-peer diagnostic views would
            # report a replica's honest-but-wide bound as if it were the
            # answer the system served.
            self._tel.observe("staleness_at_answer_ticks", staleness, stream)
            self._tel.gauge("consensus_error", float(consensus_error), stream)
        return QueryAnswer(
            query_id=query.query_id,
            source_id=stream,
            k=int(k),
            value=value,
            precision=source.effective_min_delta,
            staleness_ticks=staleness,
            confidence=confidence,
            degraded=degraded,
            consensus_error=float(consensus_error),
        )

    def _peer_reachable(self, from_peer: str, to_peer: str) -> bool:
        """Whether two peers are mutually reachable right now."""
        if from_peer == to_peer:
            return True

        def link_up(a: str, b: str) -> bool:
            if not (self._peers[a].alive and self._peers[b].alive):
                return False
            if self._faults is None:
                return True
            return not self._faults.link_severed(a, b, self._ticks)

        for component in self._graph.components(link_up):
            if from_peer in component:
                return to_peer in component
        return False

    # Run loop -------------------------------------------------------------

    def run(self, max_ticks: int | None = None) -> int:
        """Step until every stream is exhausted (or ``max_ticks``)."""
        with self._tel.timers.span("federation.run"):
            return self._front.run(
                self.step, self._flush_in_flight, max_ticks
            )

    def settle(self, max_ticks: int = 256) -> int:
        """Tick until the transport quiesces (post-run grace period)."""
        return self._front.settle(
            self.step,
            lambda: self._source_fabric.total_in_flight()
            + self._peer_fabric.total_in_flight(),
            max_ticks,
        )

    def _flush_in_flight(self) -> None:
        """Deliver stranded traffic on both fabrics (and resulting acks)."""
        while True:
            drained = self._source_fabric.drain()
            drained += self._peer_fabric.drain()
            before = self._source_fabric.total_in_flight()
            self._route_peer_outboxes()
            grew = self._source_fabric.total_in_flight() > before
            if drained == 0 and not grew:
                break

    # Reporting ------------------------------------------------------------

    def report(self) -> FederationReport:
        """Cluster-wide traffic and robustness summary."""
        src = [
            self._source_fabric.stats_for(sid) for sid in self._links
        ]
        peer = [
            self._peer_fabric.stats_for(lid) for lid in self._peer_links
        ]
        return FederationReport(
            ticks=self._ticks,
            peers=len(self._peers),
            source_offered=sum(s.offered + s.acks_offered for s in src),
            source_delivered=sum(
                s.delivered + s.acks_delivered for s in src
            ),
            source_lost=sum(s.lost + s.acks_lost for s in src),
            source_corrupted=sum(s.corrupted for s in src),
            source_in_flight=self._source_fabric.total_in_flight(),
            peer_offered=sum(s.offered for s in peer),
            peer_delivered=sum(s.delivered for s in peer),
            peer_lost=sum(s.lost for s in peer),
            peer_corrupted=sum(s.corrupted for s in peer),
            peer_in_flight=self._peer_fabric.total_in_flight(),
            dropped_at_dead_peer=self._dropped_at_dead_peer,
            failovers=self._failovers,
            rehome_latency_ticks=tuple(self._rehome_latencies),
            peer_crashes=sum(p.crashes for p in self._peers.values()),
            consensus_rounds=self._consensus_rounds,
            split_brain_ticks=self._split_brain_ticks,
        )
