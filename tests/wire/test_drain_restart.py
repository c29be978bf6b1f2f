"""Zero-loss drain and hot restart: the two recovery gates, directly.

The server-level half proves the checkpoint/restore cycle without
sockets: a :meth:`WireServer.checkpoint_snapshot` validates against the
PR-3 schema and :meth:`WireServer.restore` rebuilds the DKF state
bit-identically (canonical-JSON CRC equality of the re-export).  The
runtime-level half runs a real mid-soak drill through a minimal test
coordinator -- drain on one tick, restart on the next -- and asserts
the headline invariant: **no update the fleet ever saw acknowledged is
missing from the restored server**, and the fleet re-primes to full
coverage on the same endpoints.
"""

import asyncio
import json
import zlib

import numpy as np
import pytest

from repro.dkf.config import DKFConfig
from repro.dkf.protocol import UpdateMessage, encode_message
from repro.errors import ConfigurationError
from repro.filters.models import constant_model
from repro.resilience.checkpoint import validate_checkpoint
from repro.wire.config import WireConfig
from repro.wire.runtime import AsyncRuntime
from repro.wire.server import WireServer

SOURCES = ("a", "b", "c")


def _digest(sources: dict) -> int:
    return zlib.crc32(
        json.dumps(sources, sort_keys=True,
                   separators=(",", ":")).encode()
    )


def _loaded_server() -> WireServer:
    config = WireConfig(
        sources=len(SOURCES), ticks=8, ramp_ticks=1, tick_seconds=0.5
    )
    server = WireServer(config)
    server.register_fleet(
        SOURCES, DKFConfig(model=constant_model(dims=1), delta=1.0)
    )
    rng = np.random.default_rng(3)
    for k in range(1, 6):
        server.dkf.advance_clock(k)
        for i, source_id in enumerate(SOURCES):
            server.dkf.receive(
                UpdateMessage(
                    source_id=source_id,
                    seq=k - 1,
                    k=k,
                    value=np.array([rng.normal()]),
                )
            )
    server.dkf.take_outbox()
    return server


def test_checkpoint_restore_is_bit_identical():
    server = _loaded_server()
    snapshot = server.checkpoint_snapshot(5)
    validate_checkpoint(snapshot)  # PR-3 schema, as-is
    before = _digest(snapshot["sources"])

    server.restore(snapshot)
    reexported = {
        source_id: server.dkf.export_source_state(source_id)
        for source_id in server.dkf.source_ids
    }
    assert _digest(reexported) == before
    assert server.dkf.clock == snapshot["server_clock"]
    for source_id in SOURCES:
        assert server.dkf.is_primed(source_id)
        assert (
            reexported[source_id]["expected_seq"]
            == snapshot["sources"][source_id]["expected_seq"]
        )


def test_restore_requires_registered_fleet():
    config = WireConfig(sources=1, ticks=4, ramp_ticks=1)
    bare = WireServer(config)
    snapshot = _loaded_server().checkpoint_snapshot(5)
    with pytest.raises(ConfigurationError):
        bare.restore(snapshot)


def test_restore_forgets_peer_addresses():
    # A restarted process would not remember where sources live; acks
    # must wait for each source's next frame to re-learn its address.
    asyncio.run(_acks_across_a_restore())


async def _acks_across_a_restore():
    def update(seq: int) -> UpdateMessage:
        return UpdateMessage(source_id="a", seq=seq, k=5, value=np.array([0.5]))

    server = _loaded_server()
    sent: list[tuple] = []
    server.install_send_shaper(lambda payload, addr, send: sent.append(addr))
    server.open(asyncio.get_running_loop())
    try:
        server._on_datagram(encode_message(update(5)), ("127.0.0.1", 50000))
        server.flush_inbox()
        assert sent == [("127.0.0.1", 50000)]
        server.restore(server.checkpoint_snapshot(5))
        # The restored state still produces an ack for "a" ...
        server.dkf.receive(update(6))
        server.flush_inbox()
        assert len(sent) == 1  # ... with nowhere to send it,
        server._on_datagram(encode_message(update(7)), ("127.0.0.1", 50001))
        server.flush_inbox()
        assert sent[1:] == [("127.0.0.1", 50001)]  # until "a" is heard from.
    finally:
        server.close()


class _DrillCoordinator:
    """Minimal chaos stand-in: drain at one tick, restart the next."""

    def __init__(self, drain_tick: int) -> None:
        self.drain_tick = drain_tick
        self.acked_before: dict[str, int] = {}
        self.snapshot: dict | None = None
        self.snapshot_digest: int | None = None
        self.bit_identical: bool | None = None
        self.acked_at_restart: dict[str, int] = {}

    def install(self, runtime, loop) -> None:
        """No shapers to arm; the drill is tick-driven."""

    async def _drain(self, runtime) -> None:
        self.acked_before = runtime.fleet.acked_high()
        self.snapshot = await runtime.drain()
        self.snapshot_digest = _digest(self.snapshot["sources"])

    async def on_tick(self, tick: int, runtime) -> None:
        """Drain exactly once, restart exactly one tick later."""
        if tick == self.drain_tick:
            if self.snapshot is None:
                await self._drain(runtime)
        elif self.snapshot is not None and self.bit_identical is None:
            # The server has been down since the cut, so these are all
            # the acks it ever sent -- the flush's included.
            self.acked_at_restart = runtime.fleet.acked_high()
            await runtime.restart(self.snapshot)
            reexported = {
                source_id: runtime.server.dkf.export_source_state(
                    source_id
                )
                for source_id in runtime.server.dkf.source_ids
            }
            self.bit_identical = (
                _digest(reexported) == self.snapshot_digest
            )

    async def teardown(self, runtime) -> None:
        """Nothing to reap; both phases completed inside the horizon."""


def test_mid_soak_drain_restart_loses_no_acked_update():
    config = WireConfig(
        sources=40,
        ticks=16,
        tick_seconds=0.04,
        seed=21,
        update_prob=0.4,
        ramp_ticks=4,
        heartbeat_interval_ticks=6,
        query_rate=50.0,
    )
    drill = _DrillCoordinator(drain_tick=10)
    runtime = AsyncRuntime(config, chaos=drill)
    assert runtime.run() == config.ticks

    assert runtime.drains == 1
    assert runtime.restarts == 1
    assert drill.bit_identical is True
    # The zero-loss invariant: every cumulative ack the fleet received
    # before the drain is covered by the checkpointed expected_seq.
    assert drill.acked_before, "fleet never saw an ack before drain"
    snapshot = drill.snapshot
    lost = {
        source_id: acked
        for source_id, acked in drill.acked_before.items()
        if snapshot["sources"][source_id]["expected_seq"] < acked
    }
    assert lost == {}
    # Back on the same endpoints, the fleet re-primed fully.
    assert runtime.primed == config.sources
    report = runtime.report()
    assert report["drains"] == 1
    assert report["restarts"] == 1


class _MidOfferDrill(_DrillCoordinator):
    """Drains between the fleet's offer and the tick's housekeeping.

    At that instant the tick's burst sits in the inbox and the apply
    slice is armed but has not run: the cut must come after the flush
    and the cancelled slice must not apply anything after the cut.
    """

    def __init__(self, drain_tick: int) -> None:
        super().__init__(drain_tick)
        self.queued_at_drain = 0
        self.slice_pending = False

    def install(self, runtime, loop) -> None:
        server = runtime.server
        housekeeping = server.process_tick

        async def process_tick(tick: int) -> int:
            if tick == self.drain_tick:
                # A bounded poll, not a wait_for: its extra loop passes
                # would let the slice run before this task resumes.
                for _ in range(1000):
                    if server.inbox_depth:
                        break
                    await asyncio.sleep(0)
                self.queued_at_drain = server.inbox_depth
                self.slice_pending = server._slice is not None
                await asyncio.wait_for(self._drain(runtime), 5.0)
            return await housekeeping(tick)

        server.process_tick = process_tick


def test_drain_with_a_slice_pending_cuts_after_the_flush():
    config = WireConfig(
        sources=40,
        ticks=16,
        tick_seconds=0.04,
        seed=21,
        update_prob=0.4,
        ramp_ticks=4,
        heartbeat_interval_ticks=6,
        query_rate=50.0,
    )
    drill = _MidOfferDrill(drain_tick=10)
    runtime = AsyncRuntime(config, chaos=drill)
    assert runtime.run() == config.ticks

    assert drill.queued_at_drain > 0 and drill.slice_pending
    assert runtime.drains == 1 and runtime.restarts == 1
    assert drill.bit_identical is True
    # Every ack the server ever sent before going down -- the ones the
    # flush emitted included -- is covered by the checkpoint.
    expected = {
        source_id: state["expected_seq"]
        for source_id, state in drill.snapshot["sources"].items()
    }
    assert len(drill.acked_at_restart) >= len(drill.acked_before) > 0
    lost = {
        source_id: acked
        for source_id, acked in drill.acked_at_restart.items()
        if expected[source_id] < acked
    }
    assert lost == {}
    # The flush reached the fleet: some ack is newer than before the cut.
    assert drill.acked_at_restart != drill.acked_before
    assert runtime.primed == config.sources
