"""Event-driven apply: datagrams are served on arrival, in time slices.

The tick is housekeeping, not the update path.  These tests pin the
three promises of that schedule against real sockets: an update sent in
the middle of a (long) period is acked and queryable milliseconds
later, not at the next tick; a flood is applied in slices short enough
that a concurrent TCP query never waits long; and ``drain_per_tick``
still caps what is applied between two ticks.  A fourth pins the
runtime's clock-before-offer ordering the schedule relies on.  Every
await is bounded by ``asyncio.wait_for``.
"""

import asyncio
import contextlib
import gc
import json
import time

import numpy as np

from repro.dkf.config import DKFConfig
from repro.dkf.protocol import (
    AckMessage,
    UpdateMessage,
    build_source_index,
    decode_message,
    encode_message,
)
from repro.filters.models import constant_model
from repro.wire.config import WireConfig
from repro.wire.datagram import SLICE_BUDGET_S, open_udp_socket
from repro.wire.fleet import LiteFleet, collision_free_ids
from repro.wire.query import QueryServer, query_line
from repro.wire.runtime import AsyncRuntime
from repro.wire.server import WireServer

DKF_CONFIG = DKFConfig(model=constant_model(dims=1), delta=0.5)
AWAIT_S = 5.0


def _update(source_id: str, seq: int, k: int, value: float) -> bytes:
    return encode_message(
        UpdateMessage(
            source_id=source_id, seq=seq, k=k, value=np.array([value])
        )
    )


@contextlib.contextmanager
def _no_collections():
    """The latency bounds below are on the loop's scheduling, not on a
    collection pause in whatever heap the rest of the suite has grown."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def _until(condition, timeout: float = AWAIT_S) -> None:
    """Yield to the loop until ``condition()`` holds (bounded)."""

    async def poll():
        while not condition():
            await asyncio.sleep(0)

    await asyncio.wait_for(poll(), timeout)


# (a) mid-period visibility ------------------------------------------------


class _MidPeriodProbe:
    """Coordinator: one foreign source sends 0.3 s into a 1 s period."""

    SOURCE = "probe"

    def __init__(self) -> None:
        self.task: asyncio.Task | None = None
        self.result: dict = {}

    def install(self, runtime, loop) -> None:
        runtime.server.register(self.SOURCE, DKF_CONFIG)

    async def on_tick(self, tick: int, runtime) -> None:
        if tick == 1:
            self.task = asyncio.ensure_future(self._probe(runtime))

    async def teardown(self, runtime) -> None:
        await asyncio.wait_for(self.task, AWAIT_S)

    async def _probe(self, runtime) -> None:
        loop = asyncio.get_running_loop()
        await asyncio.sleep(0.3)
        client = open_udp_socket("127.0.0.1", 0)
        try:
            started = time.perf_counter()
            client.sendto(
                _update(self.SOURCE, 0, 1, 7.0), runtime.udp_endpoint
            )
            data = await asyncio.wait_for(loop.sock_recv(client, 4096), 0.1)
            acked = time.perf_counter()
            reply = await asyncio.wait_for(
                query_line(
                    *runtime.tcp_endpoint,
                    {"op": "answer", "source_id": self.SOURCE},
                ),
                AWAIT_S,
            )
            answered = time.perf_counter()
        finally:
            client.close()
        self.result = {
            "ack": decode_message(
                data, build_source_index([self.SOURCE]), state_dim=1
            ),
            "reply": reply,
            "ack_s": acked - started,
            "answer_s": answered - started,
            "clock": runtime.server.dkf.clock,
        }


def test_update_sent_mid_period_is_visible_before_the_next_tick():
    config = WireConfig(
        sources=1, ticks=2, tick_seconds=1.0, ramp_ticks=1, query_rate=0.0
    )
    probe = _MidPeriodProbe()
    runtime = AsyncRuntime(config, chaos=probe)
    with _no_collections():
        assert runtime.run() == config.ticks

    result = probe.result
    assert isinstance(result["ack"], AckMessage)
    assert result["ack"].seq == 1 and result["ack"].k == 1
    assert result["reply"]["primed"] is True
    assert result["reply"]["value"] == [7.0]
    assert result["reply"]["staleness_ms"] == 0
    # Acked and answered inside tick 1's period: no tick did the work.
    assert result["clock"] == 1
    assert result["ack_s"] < 0.1
    assert result["answer_s"] < 0.1
    stats = runtime.report()["server"]["apply"]
    assert stats["slices"] >= 1 and stats["datagrams_applied"] >= 2


# (b) flood in slices, queries interleave ------------------------------------


#: A round trip crosses the loop six times (client write, server read,
#: ``wait_for``'s inner task, handler, client read, resume) and while a
#: flood drains each crossing waits behind one slice: its budget, the
#: quarter-budget clock stride and the ack flush, about 8x the budget in
#: all on a quiet box.  The count-chunked loop this replaced held each
#: crossing for 500 datagrams, 16x the budget.
ROUND_TRIP_BOUND_S = 20 * SLICE_BUDGET_S


def test_flood_drains_in_slices_while_queries_interleave():
    # What this bounds is the loop's scheduling: not asyncio's debug
    # instrumentation (``-X dev`` would turn it on), not a neighbour on
    # the box.  Interference only ever adds time, so the latency bound
    # has to hold in one of a few floods; everything else is asserted in
    # each of them.
    worst = []
    with _no_collections():
        for _ in range(3):
            worst.append(asyncio.run(_flood(), debug=False))
            if worst[-1] < ROUND_TRIP_BOUND_S:
                break
    assert min(worst) < ROUND_TRIP_BOUND_S, worst


async def _flood() -> float:
    """One flood; returns the worst query round trip during it."""
    loop = asyncio.get_running_loop()
    flood, burst = 5000, 25
    source_ids = collision_free_ids(50)
    config = WireConfig(sources=len(source_ids), ticks=4, ramp_ticks=1)
    assert config.drain_per_tick >= flood
    server = WireServer(config)
    query = QueryServer(server, config, poison=server.poison)
    client = open_udp_socket("127.0.0.1", 0)
    round_trips: list[float] = []
    flooding = True

    async def ask():
        # Bounded as a whole (below): a wait_for per await would put its
        # own loop passes, each behind a slice, inside every round trip.
        reader, writer = await asyncio.open_connection(*tcp_endpoint)
        line = json.dumps({"op": "answer", "source_id": source_ids[0]})
        try:
            while flooding:
                started = time.perf_counter()
                writer.write(line.encode() + b"\n")
                await writer.drain()
                reply = await reader.readline()
                round_trips.append(time.perf_counter() - started)
                assert "error" not in json.loads(reply)
        finally:
            writer.close()

    try:
        udp_endpoint = server.open(loop)
        server.register_fleet(source_ids, DKF_CONFIG)
        tcp_endpoint = await asyncio.wait_for(query.start(), AWAIT_S)
        await asyncio.wait_for(server.process_tick(1), AWAIT_S)
        asker = asyncio.ensure_future(asyncio.wait_for(ask(), 4 * AWAIT_S))
        await _until(lambda: len(round_trips) >= 5)
        quiet = len(round_trips)
        # Bursts small enough for the kernel buffer; the reader and the
        # slices run between them, and no tick runs until all is applied.
        for i in range(flood):
            source_id = source_ids[i % len(source_ids)]
            client.sendto(
                _update(source_id, i // len(source_ids), 1, float(i)),
                udp_endpoint,
            )
            if (i + 1) % burst == 0:
                await asyncio.sleep(0)
        await _until(lambda: server.counters.frames_decoded == flood)
        flooding = False
        await asker
    finally:
        client.close()
        await asyncio.wait_for(query.close(), AWAIT_S)
        server.close()

    assert server.inbox_depth == 0
    assert server.counters.datagrams_received == flood
    stats = server.apply_stats()
    assert stats["datagrams_applied"] == flood
    assert stats["allowance_exhausted"] == 0
    # ~50 us of service per datagram: the flood took many slices ...
    assert stats["slices"] >= 20
    # ... and queries kept being answered between them.
    during = round_trips[quiet:]
    assert len(during) >= 20
    for source_id in source_ids:
        assert server.dkf.is_primed(source_id)
    return max(during)


# (c) drain_per_tick is the per-tick apply allowance ------------------------


def test_drain_per_tick_caps_what_is_applied_between_ticks():
    asyncio.run(_allowance())


async def _allowance():
    loop = asyncio.get_running_loop()
    allowance = 7
    source_ids = collision_free_ids(3 * allowance)
    config = WireConfig(
        sources=len(source_ids),
        ticks=4,
        ramp_ticks=1,
        drain_per_tick=allowance,
    )
    server = WireServer(config)
    client = open_udp_socket("127.0.0.1", 0)
    try:
        udp_endpoint = server.open(loop)
        server.register_fleet(source_ids, DKF_CONFIG)
        assert await asyncio.wait_for(server.process_tick(1), AWAIT_S) == 0
        for source_id in source_ids:
            client.sendto(_update(source_id, 0, 1, 1.0), udp_endpoint)
        await _until(
            lambda: server.counters.datagrams_received == len(source_ids)
        )
        # Nothing refills the allowance between ticks, however long the
        # loop idles with work queued.
        await asyncio.sleep(0.05)
        assert server.counters.frames_decoded == allowance
        assert server.inbox_depth == 2 * allowance
        assert server.apply_stats()["allowance_exhausted"] >= 1
        # Each tick grants one more allowance and reports what was applied
        # since the previous tick returned.
        assert (
            await asyncio.wait_for(server.process_tick(2), AWAIT_S)
            == 2 * allowance
        )
        await asyncio.sleep(0.05)
        assert server.counters.frames_decoded == 2 * allowance
        assert (
            await asyncio.wait_for(server.process_tick(3), AWAIT_S)
            == allowance
        )
        assert server.inbox_depth == 0
        assert await asyncio.wait_for(server.process_tick(4), AWAIT_S) == 0
    finally:
        client.close()
        server.close()


# Slice lifecycle ------------------------------------------------------------


def test_rebind_rearms_and_close_cancels_the_pending_slice():
    asyncio.run(_lifecycle())


async def _queue_without_applying(server, client, endpoint, frames) -> None:
    """Send, then return in the loop pass where the slice is armed.

    A bounded poll rather than a ``wait_for``, whose extra loop passes
    would let the slice run before this task resumes.
    """
    for frame in frames:
        client.sendto(frame, endpoint)
    for _ in range(1000):
        if server.inbox_depth == len(frames):
            break
        await asyncio.sleep(0)
    assert server.inbox_depth == len(frames)
    assert server._slice is not None


async def _lifecycle():
    loop = asyncio.get_running_loop()
    source_ids = collision_free_ids(5)
    config = WireConfig(sources=len(source_ids), ticks=4, ramp_ticks=1)
    server = WireServer(config)
    client = open_udp_socket("127.0.0.1", 0)
    try:
        endpoint = server.open(loop)
        server.register_fleet(source_ids, DKF_CONFIG)
        await asyncio.wait_for(server.process_tick(1), AWAIT_S)
        await _queue_without_applying(
            server, client, endpoint,
            [_update(source_id, 0, 1, 1.0) for source_id in source_ids],
        )
        # The bounce cancels the slice, keeps the queue, and the re-opened
        # socket picks the work up again without waiting for a tick.
        assert server.rebind(loop) == endpoint
        assert server.counters.frames_decoded == 0
        await _until(
            lambda: server.counters.frames_decoded == len(source_ids)
        )
        await _queue_without_applying(
            server, client, endpoint,
            [_update(source_id, 1, 1, 2.0) for source_id in source_ids],
        )
        server.close()
        assert server._slice is None
        await asyncio.sleep(0.02)
        # Nothing fires on the closed socket; the queue stays on the books.
        assert server.counters.frames_decoded == len(source_ids)
        assert server.inbox_depth == len(source_ids)
    finally:
        client.close()
        server.close()


def test_flush_inbox_disarms_the_pending_slice():
    asyncio.run(_flush_under_an_armed_slice())


async def _flush_under_an_armed_slice():
    # The armed slice used to survive flush_inbox(), find the queue
    # empty and divide its elapsed time by zero datagrams -- inside a
    # loop callback, so the loop's exception handler is the tripwire.
    loop = asyncio.get_running_loop()
    loop_errors: list[dict] = []
    loop.set_exception_handler(
        lambda _, context: loop_errors.append(context)
    )
    config = WireConfig(sources=1, ticks=4, ramp_ticks=1)
    server = WireServer(config)
    client = open_udp_socket("127.0.0.1", 0)
    try:
        endpoint = server.open(loop)
        server.register("s0", DKF_CONFIG)
        await asyncio.wait_for(server.process_tick(1), AWAIT_S)
        await _queue_without_applying(
            server, client, endpoint, [_update("s0", 0, 1, 1.0)]
        )
        assert server.flush_inbox() == 1
        assert server._slice is None
        await asyncio.sleep(0.02)
        assert loop_errors == []
        assert server.counters.frames_decoded == 1
        # A slice with nothing to apply leaves the service estimate alone.
        before = server.apply_stats()
        server._run_slice()
        after = server.apply_stats()
        assert after["service_us_ewma"] == before["service_us_ewma"]
        assert after["datagrams_applied"] == before["datagrams_applied"]
    finally:
        client.close()
        server.close()


# Clock before offer ---------------------------------------------------------


class _HoldingFleet(LiteFleet):
    """Holds each tick open until its frames are acked.

    The acks can only exist if the frames were applied *before* the
    tick's ``process_tick`` -- the between-ticks apply whose liveness
    stamp and ack ``k`` the runtime's clock-before-offer ordering fixes.
    """

    def __init__(self, config: WireConfig) -> None:
        super().__init__(config)
        self.server: WireServer | None = None
        self.seen: list[tuple[int, int, int]] = []

    async def step_tick(self, tick: int) -> int:
        offered = await super().step_tick(tick)
        await _until(lambda: len(self._net._ack_buf) >= offered, 1.0)
        for data in self._net._ack_buf:
            ack = decode_message(data, self._index, state_dim=1)
            staleness = self.server.dkf.liveness(ack.source_id)
            self.seen.append((tick, ack.k, staleness["staleness_ticks"]))
        return offered


class _HandServerToFleet:
    def install(self, runtime, loop) -> None:
        runtime.fleet.server = runtime.server

    async def on_tick(self, tick: int, runtime) -> None:
        """Nothing per tick."""

    async def teardown(self, runtime) -> None:
        """Nothing to reap."""


def test_frames_applied_between_ticks_carry_the_current_tick():
    config = WireConfig(
        sources=3,
        ticks=5,
        tick_seconds=0.02,
        update_prob=1.0,
        ramp_ticks=1,
        heartbeat_interval_ticks=50,
        query_rate=0.0,
    )
    fleet = _HoldingFleet(config)
    runtime = AsyncRuntime(config, fleet=fleet, chaos=_HandServerToFleet())
    assert runtime.run() == config.ticks
    assert len(fleet.seen) == config.sources * config.ticks
    for tick, ack_k, staleness_ticks in fleet.seen:
        assert ack_k == tick
        assert staleness_ticks == 0
