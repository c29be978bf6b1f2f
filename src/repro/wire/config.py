"""Configuration for the asyncio real-wire runtime.

One :class:`WireConfig` parameterises everything the runtime touches:
socket endpoints, the tick-to-wall-clock mapping, the simulated fleet's
seeded workload and the overload/backpressure knobs.  The dataclass is
frozen and fully determined by its fields, so the deterministic parts of
a soak run -- the offered workload -- can be rebuilt bit-identically
from ``(config, seed)`` alone (the same contract ``repro chaos``
artifacts honour).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["WireConfig"]


@dataclass(frozen=True)
class WireConfig:
    """Knobs for one wire runtime (server + co-located simulated fleet).

    Attributes:
        host: Interface both sockets bind to.
        udp_port: Update-fabric datagram port (0 = ephemeral).
        tcp_port: Query-API port (0 = ephemeral).
        tick_seconds: Wall-clock seconds per runtime tick.  Retransmission
            timeouts, heartbeat intervals and liveness deadlines keep
            their tick denominations from :class:`~repro.dkf.config.
            TransportPolicy`; this factor maps them onto real time.
        ticks: Runtime ticks to execute before shutting down.
        sources: Simulated fleet size.
        seed: Root seed for every random draw the wire layer makes --
            per-source phases, send jitter, values, the corrupt schedule.
            Two runs with equal ``(config)`` offer identical traffic.
        update_prob: Per-source, per-tick probability of an escaped
            update once primed (the δ-suppression survivor rate).
        ramp_ticks: Ticks over which the fleet's priming updates are
            spread, so 100k filter builds do not land on one tick.
        heartbeat_interval_ticks: Fleet silence threshold before a
            heartbeat (kept in ticks; the runtime maps it to wall time).
        ack_timeout_ticks: Fleet ack deadline before a resync retransmit.
        corrupt_rate: Probability a fleet datagram is bit-flipped before
            transmission (seeded; exercises the CRC discard path).
        inbox_capacity: Server-side bounded-inbox depth; overflowing
            datagrams are tail-dropped and counted.
        drain_per_tick: Frames the server may apply between two ticks.
        recv_chunk: Max datagrams drained per reader wakeup.
        socket_buffer_bytes: Requested SO_RCVBUF/SO_SNDBUF size.
        query_rate: Self-generated query load (queries per second) the
            soak harness applies through the TCP API.
        query_p99_gate_ms: Soak gate -- the harness fails when the p99
            query latency exceeds this many milliseconds.
        query_idle_timeout_s: Per-connection idle deadline on the query
            port: a client that holds a connection open without
            completing a request line for this long is disconnected (the
            slow-loris guard).
        query_max_connections: Hard cap on concurrently open query
            connections; connections past the cap get one error line and
            an immediate close instead of a handler task.
        query_rate_limit_per_s: Per-peer token-bucket refill rate on the
            query port (requests per second).  0 disables rate limiting.
        query_rate_burst: Token-bucket capacity -- how many requests a
            peer may burst before the refill rate governs.
        max_future_ticks: Frames stamped more than this many ticks ahead
            of the server clock are rejected as ``future_epoch`` poison
            (a replayed-from-the-future or forged frame, not protocol).
        stall_budget_ms: Event-loop lag past which the stall watchdog
            emits ``wire.stall`` and escalates to the overload
            controller.  None derives the budget from ``tick_seconds``
            (one tick of lag is a missed tick).
        state_dim: Filter state dimension of the fleet's model.
        delta: Precision width installed on every simulated stream.
    """

    host: str = "127.0.0.1"
    udp_port: int = 0
    tcp_port: int = 0
    tick_seconds: float = 0.5
    ticks: int = 40
    sources: int = 100
    seed: int = 0
    update_prob: float = 0.05
    ramp_ticks: int = 10
    heartbeat_interval_ticks: int = 50
    ack_timeout_ticks: int = 8
    corrupt_rate: float = 0.0
    inbox_capacity: int = 65536
    drain_per_tick: int = 50000
    recv_chunk: int = 2000
    socket_buffer_bytes: int = 4 << 20
    query_rate: float = 50.0
    query_p99_gate_ms: float = 250.0
    query_idle_timeout_s: float = 30.0
    query_max_connections: int = 256
    query_rate_limit_per_s: float = 0.0
    query_rate_burst: float = 20.0
    max_future_ticks: int = 10000
    stall_budget_ms: float | None = None
    state_dim: int = 1
    delta: float = 2.0

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise ConfigurationError("tick_seconds must be positive")
        if self.ticks < 1:
            raise ConfigurationError("ticks must be at least 1")
        if self.sources < 1:
            raise ConfigurationError("sources must be at least 1")
        if not 0.0 <= self.update_prob <= 1.0:
            raise ConfigurationError("update_prob must be in [0, 1]")
        if not 0.0 <= self.corrupt_rate < 1.0:
            raise ConfigurationError("corrupt_rate must be in [0, 1)")
        if self.ramp_ticks < 1:
            raise ConfigurationError("ramp_ticks must be at least 1")
        if self.ramp_ticks >= self.ticks:
            raise ConfigurationError("ramp_ticks must be below ticks")
        if self.inbox_capacity < 1:
            raise ConfigurationError("inbox_capacity must be at least 1")
        if self.drain_per_tick < 1:
            raise ConfigurationError("drain_per_tick must be at least 1")
        if self.recv_chunk < 1:
            raise ConfigurationError("recv_chunk must be at least 1")
        if self.query_rate < 0:
            raise ConfigurationError("query_rate must not be negative")
        if self.query_p99_gate_ms <= 0:
            raise ConfigurationError("query_p99_gate_ms must be positive")
        if self.query_idle_timeout_s <= 0:
            raise ConfigurationError("query_idle_timeout_s must be positive")
        if self.query_max_connections < 1:
            raise ConfigurationError(
                "query_max_connections must be at least 1"
            )
        if self.query_rate_limit_per_s < 0:
            raise ConfigurationError(
                "query_rate_limit_per_s must not be negative"
            )
        if self.query_rate_burst < 1:
            raise ConfigurationError("query_rate_burst must be at least 1")
        if self.max_future_ticks < 1:
            raise ConfigurationError("max_future_ticks must be at least 1")
        if self.stall_budget_ms is not None and self.stall_budget_ms <= 0:
            raise ConfigurationError("stall_budget_ms must be positive")

    @property
    def tick_ms(self) -> float:
        """Milliseconds per runtime tick (staleness conversions)."""
        return self.tick_seconds * 1000.0

    def workload_fields(self) -> dict[str, object]:
        """The fields that determine the offered workload, for artifacts.

        Everything here is deterministic given the config -- no socket
        addresses, no measured timings -- so the soak summary's
        ``workload`` section is byte-identical across same-seed runs.
        """
        return {
            "seed": self.seed,
            "sources": self.sources,
            "ticks": self.ticks,
            "tick_seconds": self.tick_seconds,
            "update_prob": self.update_prob,
            "ramp_ticks": self.ramp_ticks,
            "heartbeat_interval_ticks": self.heartbeat_interval_ticks,
            "ack_timeout_ticks": self.ack_timeout_ticks,
            "corrupt_rate": self.corrupt_rate,
            "state_dim": self.state_dim,
            "delta": self.delta,
        }
