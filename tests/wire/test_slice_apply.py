"""What a slice does with a batch: bulk runs, one-by-one frames, same books.

The server decodes runs of plain update frames in bulk and hands them to
the bank-backed core as arrays; everything else goes one frame at a time
through ``_apply_datagram``.  These tests feed one mixed batch -- good
updates (two of one source in a run), a stale retransmit, a gap, a NaN
payload, a bit-flipped frame, a truncated frame, an unregistered hash, a
future-epoch frame, a heartbeat, a digest update and a resync followed
by an update of the same source -- to the real server and to the rules
the scalar server applied one datagram at a time, and require the same
counters, poison reasons, ack bytes in the same order, and final state.
The rest pins the ``drain_per_tick`` allowance mid-batch, the batch shape
a slice hands the core (counted, on a fake clock), the frames no source
sends, and registration (incremental index, linear bulk set-up).  Every
await is bounded.
"""

import asyncio
import json
import struct
import time
import types
import zlib

import numpy as np
import pytest

from repro.dkf.config import DKFConfig
from repro.dkf.protocol import (
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    UpdateMessage,
    build_source_index,
    decode_message,
    encode_message,
)
from repro.dkf.server import DKFServer
from repro.errors import ConfigurationError, CorruptMessageError
from repro.filters.models import constant_model, linear_model
from repro.wire import server as server_module
from repro.wire.config import WireConfig
from repro.wire.datagram import SLICE_BUDGET_S, corrupt_datagram
from repro.wire.fleet import collision_free_ids
from repro.wire.server import WireServer

DKF_CONFIG = DKFConfig(model=constant_model(dims=1), delta=0.5)
SOURCES = tuple(f"s{i}" for i in range(6))
CLOCK = 3
AWAIT_S = 5.0


def _addr(source_id: str) -> tuple[str, int]:
    return ("127.0.0.1", 40000 + SOURCES.index(source_id))


def _update(source_id, seq, value, k=CLOCK, digest=None) -> bytes:
    return encode_message(
        UpdateMessage(source_id, seq, k, np.atleast_1d(float(value)), digest)
    )


def _mixed_batch(config: WireConfig) -> list[tuple[bytes, tuple]]:
    future = CLOCK + config.max_future_ticks + 5
    resync = ResyncMessage(
        "s5", 0, CLOCK, np.array([4.0]), np.array([[2.5]]), np.array([4.5])
    )
    frames = [
        ("s0", _update("s0", 0, 1.0)),
        ("s1", _update("s1", 0, 2.0)),
        ("s0", _update("s0", 1, 1.5)),  # same source twice in one run
        ("s2", corrupt_datagram(_update("s2", 0, 3.0), 11)),
        ("s2", _update("s2", 3, 3.5)),  # gap
        ("s1", _update("s1", 0, 2.0)),  # stale retransmit
        ("s3", _update("s3", 0, float("nan"))),
        ("s4", encode_message(HeartbeatMessage("s4", 0, CLOCK))),
        ("s1", _update("s1", 1, 2.5)[:20]),  # truncated: CRC fails
        ("s1", _update("s1", 1, 2.5)[:9]),  # shorter than a header
        ("s0", _update("ghost", 0, 9.0)),  # unregistered hash
        ("s3", _update("s3", 0, 6.0, k=future)),
        ("s5", encode_message(resync)),
        ("s5", _update("s5", 1, 4.75)),  # applies on the resynced state
        ("s4", _update("s4", 0, 5.0, digest=b"\x00" * 8)),
        ("s3", _update("s3", 0, 6.5)),
        ("s2", _update("s2", 0, 3.25)),
    ]
    return [(data, _addr(source_id)) for source_id, data in frames]


class _OneAtATime:
    """The rules the scalar server applied, one datagram at a time."""

    def __init__(self, config: WireConfig) -> None:
        self.dkf = DKFServer(strict=False, emit_acks=True)
        for source_id in SOURCES:
            self.dkf.register(source_id, DKF_CONFIG)
        self.dkf.advance_clock(CLOCK)
        self._index = build_source_index(SOURCES)
        self._max_future = config.max_future_ticks
        self.counts = {"decoded": 0, "corrupt": 0, "unknown": 0}
        self.reasons: dict[str, int] = {}

    def _reject(self, bucket: str, reason: str) -> None:
        self.counts[bucket] += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def apply(self, data: bytes) -> None:
        try:
            message = decode_message(data, self._index, state_dim=1)
        except CorruptMessageError:
            return self._reject("corrupt", "corrupt")
        except (ConfigurationError, ValueError, struct.error):
            return self._reject("unknown", "unknown")
        if message.k > self.dkf.clock + self._max_future:
            return self._reject("unknown", "future_epoch")
        self.counts["decoded"] += 1
        self.dkf.receive(message)


def _state(dkf) -> bytes:
    return json.dumps(
        {s: dkf.export_source_state(s) for s in SOURCES},
        sort_keys=True, separators=(",", ":"),
    ).encode()


def _counts(server: WireServer) -> dict[str, int]:
    counters = server.counters
    return {
        "decoded": counters.frames_decoded,
        "corrupt": counters.frames_corrupt,
        "unknown": counters.frames_unknown,
    }


async def _open_server(config: WireConfig):
    server = WireServer(config)
    server.open(asyncio.get_running_loop())
    server.register_fleet(SOURCES, DKF_CONFIG)
    sent: list[tuple[bytes, tuple]] = []
    server.install_send_shaper(
        lambda payload, addr, send: sent.append((payload, addr))
    )
    await asyncio.wait_for(server.process_tick(CLOCK), AWAIT_S)
    return server, sent


async def _until_idle(server: WireServer) -> None:
    for _ in range(10_000):
        if server._slice is None:
            return
        await asyncio.sleep(0)
    raise AssertionError("the slice never finished")


@pytest.mark.parametrize("how", ["flush_inbox", "slices"])
def test_mixed_batch_keeps_the_one_at_a_time_books(how):
    asyncio.run(_mixed(how))


async def _mixed(how: str) -> None:
    config = WireConfig(sources=len(SOURCES), ticks=4, ramp_ticks=1)
    batch = _mixed_batch(config)
    reference = _OneAtATime(config)
    for data, _ in batch:
        reference.apply(data)
    server, sent = await _open_server(config)
    try:
        for data, addr in batch:
            server._on_datagram(data, addr)
        if how == "flush_inbox":
            assert server.flush_inbox() == len(batch)
        else:
            await _until_idle(server)
        assert server.inbox_depth == 0

        assert _counts(server) == reference.counts
        assert sum(reference.counts.values()) == len(batch)  # conservation
        assert server.poison.reasons == reference.reasons
        assert set(reference.reasons) == {"corrupt", "unknown", "future_epoch"}
        acks = reference.dkf.take_outbox()
        assert [payload for payload, _ in sent] == [
            encode_message(ack) for ack in acks
        ]
        assert [addr for _, addr in sent] == [
            _addr(ack.source_id) for ack in acks
        ]
        assert {ack.k for ack in acks} == {CLOCK}
        assert _state(server.dkf) == _state(reference.dkf)
        for source_id in SOURCES:
            assert server.dkf.stats(source_id) == reference.dkf.stats(source_id)
        stats = server.apply_stats()
        # Plain, intact updates from registered sources took the bank.
        assert stats["bank_applied"] == 9
        if how == "slices":  # the drain-path flush is not a slice
            assert stats["datagrams_applied"] == len(batch)
    finally:
        server.close()


def test_allowance_stops_a_slice_in_the_middle_of_a_batch():
    asyncio.run(_capped())


async def _capped() -> None:
    allowance = 5
    config = WireConfig(
        sources=len(SOURCES), ticks=4, ramp_ticks=1, drain_per_tick=allowance
    )
    batch = _mixed_batch(config)
    reference = _OneAtATime(config)
    for data, _ in batch[:allowance]:
        reference.apply(data)
    server, sent = await _open_server(config)
    try:
        for data, addr in batch:
            server._on_datagram(data, addr)
        await _until_idle(server)
        await asyncio.sleep(0.02)  # nothing refills the allowance
        assert server.inbox_depth == len(batch) - allowance
        assert _counts(server) == reference.counts
        assert server.apply_stats()["allowance_exhausted"] >= 1
        assert len(sent) == len(reference.dkf.take_outbox())
        assert _state(server.dkf) == _state(reference.dkf)
        # The next tick's allowance takes the next five, no more.
        assert (
            await asyncio.wait_for(server.process_tick(CLOCK + 1), AWAIT_S)
            == 2 * allowance
        )
        assert server.inbox_depth == len(batch) - 2 * allowance
    finally:
        server.close()


class _CostedCore:
    """Count core apply calls; each advances a fake clock by its cost."""

    def __init__(self, server: WireServer, per_frame_s: float) -> None:
        self.now = 0.0
        self.sizes: list[int] = []
        apply = server.dkf.apply_updates

        def counted(rows, *args):
            self.sizes.append(len(rows))
            self.now += len(rows) * per_frame_s
            return apply(rows, *args)

        server.dkf.apply_updates = counted


def _queued_slice(monkeypatch, queued: int, service_s: float, cost_s: float):
    """Queue plain updates, run one slice on a fake clock, count calls."""
    ids = collision_free_ids(queued)
    server = WireServer(WireConfig(sources=queued, ticks=4, ramp_ticks=1))
    server.register_fleet(ids, DKF_CONFIG)
    server.dkf.advance_clock(CLOCK)
    core = _CostedCore(server, cost_s)
    monkeypatch.setattr(
        server_module, "time", types.SimpleNamespace(perf_counter=lambda: core.now)
    )
    for i, source_id in enumerate(ids):
        server._on_datagram(_update(source_id, 0, 1.0), ("127.0.0.1", 40000 + i))
    server._service_s = service_s
    server._run_slice()  # unopened: the slice does not re-arm itself
    return server, core.sizes


def test_a_slice_applies_what_fits_its_budget_in_at_most_two_calls(monkeypatch):
    cost = SLICE_BUDGET_S / 100  # the budget buys 100 frames
    server, sizes = _queued_slice(monkeypatch, 80, service_s=cost, cost_s=cost)
    assert len(sizes) <= 2 and sum(sizes) == 80, sizes
    assert server.inbox_depth == 0
    stats = server.apply_stats()
    assert stats["bank_calls"] == len(sizes)
    assert stats["bank_applied"] == stats["datagrams_applied"] == 80


def test_an_underestimated_service_time_overruns_by_one_batch(monkeypatch):
    cost = SLICE_BUDGET_S / 100
    # Ten times too low: the slice drains ten budgets' worth in one
    # batch, applies it whole and ends there.
    server, sizes = _queued_slice(
        monkeypatch, 3000, service_s=cost / 10, cost_s=cost
    )
    assert len(sizes) == 1 and 900 <= sizes[0] <= 1000, sizes
    assert server.inbox_depth == 3000 - sizes[0]
    assert server.apply_stats()["slices"] == 1
    # The overrun is measured: the next slice's batch is smaller.
    server._run_slice()
    assert len(sizes) == 2 and sizes[1] < sizes[0] / 2, sizes


def test_frames_no_source_sends_are_refused_not_raised():
    config = WireConfig(sources=len(SOURCES), ticks=4, ramp_ticks=1)
    server = WireServer(config)
    server.register_fleet(SOURCES, DKF_CONFIG)
    wide = encode_message(UpdateMessage("s0", 0, 1, np.array([1.0, 2.0, 3.0])))
    ack = encode_message(AckMessage("s1", 4, 1))
    server._apply_batch([(wide, _addr("s0")), (ack, _addr("s1"))])
    assert server.counters.frames_unknown == 2
    assert server.poison.reasons == {"unknown": 2}
    assert not server.dkf.is_primed("s0")
    assert server.dkf.take_outbox() == []


def test_a_second_model_signature_is_refused_loudly():
    server = WireServer(WireConfig(sources=2, ticks=4, ramp_ticks=1))
    server.register("a", DKF_CONFIG)
    with pytest.raises(ConfigurationError, match="one model signature"):
        server.register("b", DKFConfig(model=linear_model(dims=1), delta=0.5))
    assert server.dkf.source_ids == ["a"]


# Registration ---------------------------------------------------------------


def _registered(source_ids, bulk: bool) -> tuple[WireServer, float]:
    server = WireServer(
        WireConfig(sources=len(source_ids), ticks=4, ramp_ticks=1)
    )
    started = time.perf_counter()
    if bulk:
        server.register_fleet(source_ids, DKF_CONFIG)
    else:
        for source_id in source_ids:
            server.register(source_id, DKF_CONFIG)
    return server, time.perf_counter() - started


def test_one_by_one_and_bulk_registration_build_equal_indexes():
    source_ids = collision_free_ids(20_000)
    single, _ = _registered(source_ids, bulk=False)
    bulk, _ = _registered(source_ids, bulk=True)
    reference = build_source_index(source_ids)
    registered = np.fromiter(reference, np.uint32, len(reference))
    ghost = zlib.crc32(b"ghost")
    assert ghost not in reference
    for server in (single, bulk):
        assert server._index.rows(registered).tolist() == list(
            range(len(source_ids))
        )
        assert server._index.rows([ghost]).tolist() == [-1]
    assert single.dkf.index == bulk.dkf.index
    assert single.dkf.source_ids == bulk.dkf.source_ids == source_ids
    frame = _update(source_ids[-1], 0, 1.0, k=0)
    for server in (single, bulk):
        server._apply_batch([(frame, ("127.0.0.1", 40000))])
        assert server.dkf.is_primed(source_ids[-1])


def test_hash_collisions_are_refused_at_registration():
    first, second = "plumless", "buckeroo"  # one CRC-32: 0x4ddb0c25
    assert zlib.crc32(first.encode()) == zlib.crc32(second.encode())
    server = WireServer(WireConfig(sources=2, ticks=4, ramp_ticks=1))
    server.register(first, DKF_CONFIG)
    with pytest.raises(ConfigurationError, match="collide"):
        server.register(second, DKF_CONFIG)


def test_bulk_set_up_time_is_linear_in_the_fleet():
    small, large = collision_free_ids(10_000), collision_free_ids(80_000)
    ratios = []
    for _ in range(3):  # interference only ever adds time
        _, t_small = _registered(small, bulk=True)
        _, t_large = _registered(large, bulk=True)
        ratios.append(t_large / t_small)
    # 8x the sources: linear is 8x, the per-source rebuild this
    # replaced was 64x.
    assert min(ratios) < 24, ratios
