"""The wall-clock scheduler: ticks mapped onto an asyncio event loop.

:class:`AsyncRuntime` is the second :class:`~repro.wire.scheduler.
Scheduler` backend.  Where :class:`~repro.wire.scheduler.TickScheduler`
counts loop iterations, the runtime counts *seconds*: each tick ``t``
fires at ``t0 + t * tick_seconds`` on the loop's monotonic clock, the
fleet and server exchange PROTOCOL.md frames over real UDP, queries
arrive over real TCP, and every tick-denominated policy -- ack
timeouts, heartbeat intervals, liveness deadlines -- becomes a real
duration through the ``tick_seconds`` factor.  A tick that finishes
late is counted as an overrun, never silently stretched, so the report
is honest about whether the box kept up.

The tick is housekeeping, not the update path: the server applies
datagrams as they land, in time-budgeted slices (see :mod:`repro.wire.
server`).  Each tick advances the server clock, lets the fleet offer,
then runs ``process_tick`` (allowance refill, overload step, gauges)
and the coordinator hook.

Telemetry under this backend runs on a millisecond clock: the runtime
stamps ``set_tick(elapsed_ms)`` each tick, so metric history, health
watchers and the ms-denominated :func:`~repro.obs.slo.wire_rules` all
evaluate against wall time.  Construct the handle with
``Telemetry(time_unit="ms")`` so exported histories carry the right
unit label.

The runtime also owns the query-load probe: a persistent TCP client
issuing ``answer`` requests round-robin across the fleet at
``query_rate`` per second, recording each round trip into
``wire_query_latency_ms`` -- the latency distribution the soak gate
judges.

Two robustness organs live here as well.  The :class:`StallWatchdog` is
a heartbeat task that measures event-loop lag (how late its own wakeup
fired), gauges it into ``wire_loop_lag_ms`` for the Kalman health
watchers, and -- past the tick budget -- emits ``wire.stall`` and
escalates one planned widening step through the OverloadController.
And :meth:`AsyncRuntime.drain` / :meth:`AsyncRuntime.restart` implement
the zero-loss hot-restart cycle: stop accepting, flush the inbox,
checkpoint through the PR-3 machinery, close the sockets; then re-bind
both endpoints on their old concrete addresses, recover bit-identically
and let the resync handshake re-prime stragglers.
"""

from __future__ import annotations

import asyncio
import itertools
import json

from repro.obs.telemetry import NULL_TELEMETRY
from repro.resilience.checkpoint import CheckpointStore
from repro.wire.config import WireConfig
from repro.wire.fleet import LiteFleet
from repro.wire.query import QueryServer
from repro.wire.scheduler import Scheduler
from repro.wire.server import WireServer

__all__ = ["AsyncRuntime", "StallWatchdog"]

#: Extra drain passes after the last tick so in-flight datagrams and
#: acks land before the books are closed.
_SETTLE_ROUNDS = 3


class StallWatchdog:
    """Heartbeat task measuring how late its own wakeups fire.

    Event-loop lag is the one overload signal no queue depth captures:
    a synchronous stall (GC pause, a handler that forgot to yield, CPU
    starvation) delays *everything* scheduled, including this task.
    Each interval the watchdog records the overshoot as
    ``wire_loop_lag_ms`` -- the gauge the ``loop_lag`` Kalman health
    watcher consumes -- and when the lag breaches ``budget_ms`` it
    counts ``wire_stalls_total``, emits a ``wire.stall`` event and
    invokes ``on_stall(lag_ms)`` (the runtime escalates that to one
    planned OverloadController widening step).

    Args:
        budget_ms: Lag past which a wakeup counts as a stall.
        interval_s: Heartbeat period (a fraction of the tick length).
        telemetry: Observability handle.
        on_stall: Optional escalation callback ``(lag_ms) -> None``.
    """

    def __init__(
        self,
        budget_ms: float,
        interval_s: float,
        telemetry=None,
        on_stall=None,
    ) -> None:
        self.budget_ms = budget_ms
        self._interval = interval_s
        self._tel = telemetry or NULL_TELEMETRY
        self._on_stall = on_stall
        self.beats = 0
        self.stalls = 0
        self.max_lag_ms = 0.0

    async def run(self) -> None:
        """Beat until cancelled (the runtime owns the task)."""
        loop = asyncio.get_running_loop()
        target = loop.time() + self._interval
        while True:
            await asyncio.sleep(max(0.0, target - loop.time()))
            now = loop.time()
            lag_ms = max(0.0, (now - target) * 1000.0)
            target = now + self._interval
            self.beats += 1
            if lag_ms > self.max_lag_ms:
                self.max_lag_ms = lag_ms
            if self._tel.enabled:
                self._tel.gauge("wire_loop_lag_ms", lag_ms)
            if lag_ms > self.budget_ms:
                self.stalls += 1
                if self._tel.enabled:
                    self._tel.count("wire_stalls_total")
                    self._tel.emit(
                        "wire.stall",
                        lag_ms=round(lag_ms, 3),
                        budget_ms=self.budget_ms,
                    )
                if self._on_stall is not None:
                    self._on_stall(lag_ms)

    def summary(self) -> dict[str, object]:
        """Measured lag account (non-deterministic; report only)."""
        return {
            "beats": self.beats,
            "stalls": self.stalls,
            "max_lag_ms": round(self.max_lag_ms, 3),
            "budget_ms": self.budget_ms,
        }


class AsyncRuntime(Scheduler):
    """Runs a fleet and a wire server against the wall clock.

    Args:
        config: The wire runtime configuration (horizon, tick length,
            fleet shape, gates).
        fleet: A fleet object (:class:`~repro.wire.fleet.LiteFleet` or
            :class:`~repro.wire.fleet.StepperFleet`); defaults to a
            ``LiteFleet`` built from ``config``.
        telemetry: Observability handle; pass one constructed with
            ``time_unit="ms"`` -- the runtime advances its clock in
            elapsed wall milliseconds.
        watchdog: Optional divergence watchdog handed to the server (the
            query API then reports quarantine).  Registering 100k
            sources with a watchdog is feasible but rarely worth the
            per-tick checks at soak scale.
        dkf_telemetry: Optional handle for the server core's label-free
            counters and apply spans (see :class:`WireServer`).
        chaos: Optional chaos coordinator (:class:`~repro.wire.chaos.
            ChaosCoordinator`).  When given, its ``install`` hook runs
            once the sockets are open (shapers, fuzzers) and its
            ``on_tick`` coroutine runs after every tick (fault pumps,
            scheduled rebinds, the drain/restart drill).
    """

    backend = "wall-clock"

    def __init__(
        self,
        config: WireConfig,
        fleet=None,
        telemetry=None,
        watchdog=None,
        dkf_telemetry=None,
        chaos=None,
    ) -> None:
        self._config = config
        self.fleet = fleet if fleet is not None else LiteFleet(config)
        self._tel = telemetry or NULL_TELEMETRY
        self._watchdog = watchdog
        self._dkf_tel = dkf_telemetry
        self._chaos = chaos
        self.server: WireServer | None = None
        self.query: QueryServer | None = None
        self.stall_watchdog: StallWatchdog | None = None
        self.udp_endpoint: tuple[str, int] | None = None
        self.tcp_endpoint: tuple[str, int] | None = None
        self.latencies_ms: list[float] = []
        self.query_failures = 0
        self.overruns = 0
        self.ticks_run = 0
        self.wall_seconds = 0.0
        self.primed = 0
        self.suspects = 0
        self.drains = 0
        self.restarts = 0

    # Scheduler contract ---------------------------------------------------

    def run(self) -> int:
        """Execute the configured horizon on a fresh event loop."""
        asyncio.run(self._main())
        return self.ticks_run

    def report(self) -> dict[str, object]:
        """JSON-ready account of the completed run."""
        latencies = sorted(self.latencies_ms)

        def pct(q: float) -> float | None:
            if not latencies:
                return None
            index = min(
                len(latencies) - 1, int(q * (len(latencies) - 1))
            )
            return round(latencies[index], 3)

        qps = (
            len(latencies) / self.wall_seconds
            if self.wall_seconds > 0
            else 0.0
        )
        return {
            "backend": self.backend,
            "ticks": self.ticks_run,
            "tick_seconds": self._config.tick_seconds,
            "wall_seconds": round(self.wall_seconds, 3),
            "overruns": self.overruns,
            "primed": self.primed,
            "suspects": self.suspects,
            "queries": len(latencies),
            "query_failures": self.query_failures,
            "query_qps": round(qps, 2),
            "query_p50_ms": pct(0.50),
            "query_p99_ms": pct(0.99),
            "query_max_ms": pct(1.0),
            "drains": self.drains,
            "restarts": self.restarts,
            "stall_watchdog": (
                self.stall_watchdog.summary()
                if self.stall_watchdog is not None
                else {}
            ),
            "fleet": self.fleet.summary(),
            "server": (
                self.server.counters.as_dict()
                | {"apply": self.server.apply_stats()}
                if self.server is not None
                else {}
            ),
            "rejections": (
                self.server.poison.as_dict()
                if self.server is not None
                else {}
            ),
        }

    # Event-loop body ------------------------------------------------------

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        config = self._config
        self.server = WireServer(
            config,
            telemetry=self._tel,
            watchdog=self._watchdog,
            on_scales=self.fleet.apply_scales,
            dkf_telemetry=self._dkf_tel,
        )
        probe_task: asyncio.Task | None = None
        stall_task: asyncio.Task | None = None
        try:
            self.udp_endpoint = self.server.open(loop)
            self.fleet.open(loop, self.udp_endpoint)
            self.server.register_fleet(
                self.fleet.source_ids,
                self.fleet.dkf_config(),
                self.fleet.transport_policy(),
            )
            self.query = QueryServer(
                self.server, config, self._tel,
                poison=self.server.poison,
            )
            self.tcp_endpoint = await self.query.start()
            self.stall_watchdog = StallWatchdog(
                budget_ms=(
                    config.stall_budget_ms
                    if config.stall_budget_ms is not None
                    else config.tick_ms
                ),
                interval_s=min(max(config.tick_seconds / 4, 0.01), 0.25),
                telemetry=self._tel,
                on_stall=self._escalate_stall,
            )
            stall_task = asyncio.ensure_future(self.stall_watchdog.run())
            if config.query_rate > 0:
                probe_task = asyncio.ensure_future(self._probe())
            if self._chaos is not None:
                self._chaos.install(self, loop)

            t0 = loop.time()
            for tick in range(1, config.ticks + 1):
                target = t0 + tick * config.tick_seconds
                now = loop.time()
                if now < target:
                    await asyncio.sleep(target - now)
                else:
                    self.overruns += 1
                # Clock before offer: frames stamped k = tick are applied
                # as they land, and liveness and acks are stamped from it.
                self.server.dkf.advance_clock(tick)
                await self.fleet.step_tick(tick)
                await self.server.process_tick(tick)
                if self._chaos is not None:
                    await self._chaos.on_tick(tick, self)
                if self._tel.enabled:
                    self._tel.set_tick(
                        int((loop.time() - t0) * 1000.0)
                    )
                self.ticks_run = tick
            # Settle: no new traffic, but let straggling datagrams and
            # acks land so the conservation books can balance.
            for extra in range(1, _SETTLE_ROUNDS + 1):
                await asyncio.sleep(min(config.tick_seconds, 0.05))
                await self.server.process_tick(config.ticks + extra)
                self.fleet.settle(config.ticks + extra)
            self.wall_seconds = loop.time() - t0
            self._close_books()
        finally:
            for task in (probe_task, stall_task):
                if task is not None:
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
            if self._chaos is not None:
                await self._chaos.teardown(self)
            if self.query is not None:
                await self.query.close()
            self.server.close()
            self.fleet.close()

    def _escalate_stall(self, lag_ms: float) -> None:
        """Stall escalation: one planned widening step, applied now."""
        if self.server is None:
            return
        changes = self.server.overload.plan_widen(self.ticks_run, 1)
        if changes:
            self.fleet.apply_scales(changes)

    # Drain / hot restart --------------------------------------------------

    async def drain(self, checkpoint_dir: str | None = None) -> dict:
        """Zero-loss drain: stop intake, flush, checkpoint, close.

        Ordering is the whole proof.  (1) The receiver deregisters, so
        no new datagram can be accepted -- anything arriving now dies in
        the kernel and is, by definition, unacknowledged.  (2) The query
        listener closes.  (3) The inbox is flushed to exhaustion, so
        every datagram the runtime ever *accepted* reaches the DKF and
        its ack hits the wire.  (4) The checkpoint is cut *after* that
        flush -- the last state change before close -- so any ack the
        fleet has ever received satisfies ``ack.seq <= checkpointed
        expected_seq``.  (5) Sockets close.  Returns the snapshot, and
        persists it through the PR-3 :class:`CheckpointStore` (WAL
        machinery included) when ``checkpoint_dir`` is given.
        """
        server = self.server
        server.stop_receiving()
        if self.query is not None:
            await self.query.close()
            self.query = None
        server.flush_inbox()
        snapshot = server.checkpoint_snapshot(self.ticks_run)
        if checkpoint_dir is not None:
            CheckpointStore(checkpoint_dir).save(snapshot)
        server.close()
        self.drains += 1
        if self._tel.enabled:
            self._tel.emit("wire.drain", at_tick=self.ticks_run)
        return snapshot

    async def restart(self, snapshot: dict) -> None:
        """Hot restart: re-bind old endpoints, recover, re-prime.

        The UDP socket and TCP listener come back on the exact concrete
        addresses they had before :meth:`drain` (UDP has no TIME_WAIT;
        the TCP listener was closed cleanly), so the fleet's frames and
        the probe's reconnects land without reconfiguration.  The DKF
        state is rebuilt bit-identically from the snapshot; sources the
        checkpoint missed re-prime through the ordinary resync
        handshake once their ack deadlines fire.
        """
        loop = asyncio.get_running_loop()
        server = self.server
        server.restore(snapshot)
        server.open(loop, self.udp_endpoint)
        self.query = QueryServer(
            server, self._config, self._tel, poison=server.poison
        )
        await self.query.start(port=self.tcp_endpoint[1])
        self.restarts += 1
        if self._tel.enabled:
            self._tel.emit("wire.restart", at_tick=self.ticks_run)

    def _close_books(self) -> None:
        self.primed = self.server.dkf.primed_count()
        self.suspects = self.server.dkf.suspect_count()
        if self._tel.enabled:
            self._tel.gauge("wire_primed_sources", float(self.primed))
            self._tel.gauge("wire_suspect_sources", float(self.suspects))
            self._tel.sample_now()

    # Query-load probe -----------------------------------------------------

    async def _probe(self) -> None:
        """Issue ``answer`` queries at ``query_rate``/s, timing each."""
        loop = asyncio.get_running_loop()
        config = self._config
        interval = 1.0 / config.query_rate
        targets = itertools.cycle(self.fleet.source_ids)
        reader = writer = None
        try:
            while True:
                if writer is None:
                    try:
                        reader, writer = await asyncio.open_connection(
                            *self.tcp_endpoint
                        )
                    except OSError:
                        self.query_failures += 1
                        await asyncio.sleep(interval)
                        continue
                request = {"op": "answer", "source_id": next(targets)}
                started = loop.time()
                try:
                    writer.write(
                        json.dumps(
                            request, separators=(",", ":")
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    line = await reader.readline()
                    if not line:
                        raise ConnectionResetError
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    OSError,
                ):
                    self.query_failures += 1
                    writer.close()
                    reader = writer = None
                    continue
                elapsed_ms = (loop.time() - started) * 1000.0
                self.latencies_ms.append(elapsed_ms)
                if self._tel.enabled:
                    self._tel.observe(
                        "wire_query_latency_ms", elapsed_ms, unit="ms"
                    )
                remaining = interval - (loop.time() - started)
                if remaining > 0:
                    await asyncio.sleep(remaining)
        finally:
            if writer is not None:
                writer.close()
