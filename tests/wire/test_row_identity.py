"""The row is the identity between the socket and the bank.

:class:`~repro.dkf.protocol.SourceHashIndex` resolves a frame's 32-bit
header hash to a row: a property test holds it to the plain
``build_source_index`` dict, built in bulk and in random incremental
cuts, and collisions and duplicates are refused within one add and
across adds.  The server built on it registers all or nothing, keeps
each source's address as a slot in a small table of distinct addresses
(the later of two in one run wins), resolves a whole run of update
frames with one ``rows`` call, and holds a bounded number of bytes per
source.
"""

import asyncio
import gc
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dkf.config import DKFConfig
from repro.dkf.protocol import (
    HeartbeatMessage,
    SourceHashIndex,
    UpdateMessage,
    build_source_index,
    decode_message,
    encode_message,
    encode_update_frames,
)
from repro.errors import ConfigurationError, DuplicateSourceError
from repro.filters.models import constant_model
from repro.wire.config import WireConfig
from repro.wire.fleet import collision_free_ids
from repro.wire.server import WireServer

DKF_CONFIG = DKFConfig(model=constant_model(dims=1), delta=0.5)
# Two ids with one CRC-32 (0x4ddb0c25).
COLLIDING = ("plumless", "buckeroo")


def _hash(source_id: str) -> int:
    return zlib.crc32(source_id.encode())


# The index ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=6),
    strangers=st.lists(st.integers(0, 2**32 - 1), max_size=20),
)
def test_rows_and_get_agree_with_the_dict_index(ids, cuts, strangers):
    reference = build_source_index(ids)
    assume(len(reference) == len(ids))  # no collision among the draws
    incremental = SourceHashIndex()
    bounds = [0, *sorted(min(cut, len(ids)) for cut in cuts), len(ids)]
    for start, stop in zip(bounds, bounds[1:]):
        incremental.add(ids[start:stop])
    hashes = list(reference)  # registration order
    strangers = [key for key in strangers if key not in reference]
    for index in (SourceHashIndex(ids), incremental):
        assert index.ids == ids
        assert index.hashes.tolist() == hashes
        assert index.rows(hashes).tolist() == list(range(len(ids)))
        assert [index.get(key) for key in hashes] == ids
        assert index.rows(strangers).tolist() == [-1] * len(strangers)
        assert [index.get(key) for key in strangers] == [None] * len(strangers)
        assert [index.row_of_id(s) for s in ids] == list(range(len(ids)))


def test_collisions_are_refused_within_one_add_and_across_adds():
    first, second = COLLIDING
    assert _hash(first) == _hash(second)
    with pytest.raises(ConfigurationError, match="collide"):
        SourceHashIndex(["a", first, "b", second])
    index = SourceHashIndex(["a", first])
    with pytest.raises(ConfigurationError, match="collide"):
        index.add(["c", second])
    assert index.ids == ["a", first]
    assert index.rows([_hash("c"), _hash(first)]).tolist() == [-1, 1]
    assert index.row_of_id(second) is None  # same hash, other id


def test_duplicates_are_refused_within_one_add_and_across_adds():
    with pytest.raises(DuplicateSourceError):
        SourceHashIndex(["a", "b", "a"])
    index = SourceHashIndex(["a"])
    with pytest.raises(DuplicateSourceError):
        index.check(["b", "a"])
    assert index.ids == ["a"] and index.rows([_hash("b")]).tolist() == [-1]


def test_the_index_decodes_like_the_dict():
    ids = ["s0", "s1", "s2"]
    frame = encode_message(UpdateMessage("s1", 4, 7, np.array([2.5])))
    assert decode_message(frame, SourceHashIndex(ids)) == decode_message(
        frame, build_source_index(ids)
    )
    with pytest.raises(ConfigurationError, match="resolves to 0"):
        decode_message(frame, SourceHashIndex(["s0"]))


# Registration -------------------------------------------------------------


def _books(server: WireServer) -> dict:
    """Every per-row column and registry registration may touch."""
    index = server._index
    return {
        "ids": list(index.ids),
        "hashes": index.hashes.tolist(),
        "sorted": index._sorted.tolist(),
        "order": index._order.tolist(),
        "addr_of_row": server._addr_of_row.tolist(),
        "core_ids": list(server.dkf.ids),
        "core_index": dict(server.dkf.index),
        "core_rows": server.dkf.rows,
        "shed": sorted(server.overload._streams),
    }


def test_a_refused_registration_changes_nothing():
    first, second = COLLIDING
    server = WireServer(WireConfig(sources=4, ticks=4, ramp_ticks=1))
    server.register_fleet(["a", "b"], DKF_CONFIG)
    before = _books(server)
    # "a" is taken: nothing of the fleet, "plumless" included, is kept.
    with pytest.raises(DuplicateSourceError):
        server.register_fleet([first, "a"], DKF_CONFIG)
    assert _books(server) == before
    # So an id colliding with the refused one is free to register.
    server.register(second, DKF_CONFIG)
    after = _books(server)
    assert after["ids"] == after["core_ids"] == ["a", "b", second]
    with pytest.raises(ConfigurationError, match="collide"):
        server.register_fleet(["c", first], DKF_CONFIG)
    assert _books(server) == after
    frame = encode_message(UpdateMessage(second, 0, 0, np.array([1.0])))
    server._apply_batch([(frame, ("127.0.0.1", 40000))])
    assert server.dkf.is_primed(second)


# Addresses and batching ---------------------------------------------------


def _update(source_id: str, seq: int, value: float = 1.0) -> bytes:
    return encode_message(UpdateMessage(source_id, seq, 0, np.array([value])))


async def _opened(source_ids) -> tuple[WireServer, list]:
    server = WireServer(
        WireConfig(sources=len(source_ids), ticks=4, ramp_ticks=1)
    )
    server.open(asyncio.get_running_loop())
    server.register_fleet(source_ids, DKF_CONFIG)
    sent: list[tuple[bytes, tuple]] = []
    server.install_send_shaper(
        lambda payload, addr, send: sent.append((payload, addr))
    )
    return server, sent


def test_the_later_of_two_addresses_in_one_run_gets_the_ack():
    asyncio.run(_two_addresses())


async def _two_addresses() -> None:
    old, other, new = (("127.0.0.1", port) for port in (40001, 40002, 40003))
    server, sent = await _opened(["s0", "s1"])
    try:
        batch = [
            (_update("s0", 0), old),
            (_update("s1", 0), other),
            (_update("s0", 1, 1.5), new),
        ]
        for data, addr in batch:
            server._on_datagram(data, addr)
        assert server.flush_inbox() == 3
        assert server.apply_stats()["bank_calls"] == 1  # one run
        index = build_source_index(["s0", "s1"])
        acks = [
            (decode_message(data, index).source_id, addr) for data, addr in sent
        ]
        assert acks and {addr for sid, addr in acks if sid == "s0"} == {new}
        assert {addr for sid, addr in acks if sid == "s1"} == {other}
        assert len(server._addrs) == 3
    finally:
        server.close()


def test_a_flood_from_one_socket_resolves_each_run_in_one_call():
    asyncio.run(_flood())


async def _flood() -> None:
    source_ids = collision_free_ids(5_000)
    server, sent = await _opened(source_ids)
    calls = []
    rows = server._index.rows
    server._index.rows = lambda hashes: calls.append(len(hashes)) or rows(hashes)
    addr = ("127.0.0.1", 40000)
    try:
        for i, source_id in enumerate(source_ids):
            if i % 1000 == 999:  # a heartbeat ends the run
                frame = encode_message(HeartbeatMessage(source_id, 0, 0))
            else:
                frame = _update(source_id, 0)
            server._on_datagram(frame, addr)
        for _ in range(100_000):
            if server._slice is None:
                break
            await asyncio.sleep(0)
        assert server.inbox_depth == 0
        stats = server.apply_stats()
        assert stats["datagrams_applied"] == len(source_ids)
        assert stats["bank_applied"] == len(source_ids) - 5 == sum(calls)
        assert len(calls) == stats["bank_calls"]
        assert stats["bank_applied"] >= 40 * stats["bank_calls"]
        # Every source talks from the fleet's one socket: one entry.
        assert server._addrs == [addr] and server._addr_slot == {addr: 0}
        assert set(server._addr_of_row.tolist()) == {0}
        assert len(sent) == len(source_ids) - 5
        assert {to for _, to in sent} == {addr}
    finally:
        server.close()


def test_addresses_no_row_was_last_heard_from_are_forgotten():
    server = WireServer(WireConfig(sources=2, ticks=4, ramp_ticks=1))
    server.register_fleet(["s0", "s1"], DKF_CONFIG)
    for port in range(40000, 40010):  # s0 hops ports; s1 stays
        server._apply_batch([
            (_update("s0", port - 40000), ("127.0.0.1", port)),
            (_update("s1", port - 40000), ("127.0.0.1", 50000)),
        ])
    assert len(server._addrs) <= 2 * len(server._addr_of_row)
    slots = server._addr_of_row.tolist()
    assert [server._addrs[slot] for slot in slots] == [
        ("127.0.0.1", 40009), ("127.0.0.1", 50000)
    ]
    assert server._addr_slot == {a: i for i, a in enumerate(server._addrs)}


def test_restore_forgets_every_peer():
    server = WireServer(WireConfig(sources=2, ticks=4, ramp_ticks=1))
    server.register_fleet(["s0", "s1"], DKF_CONFIG)
    server._apply_batch([(_update("s0", 0), ("127.0.0.1", 40000))])
    server.restore(server.checkpoint_snapshot(1))
    assert server._addr_of_row.tolist() == [-1, -1]
    assert server._addrs == [] and server._addr_slot == {}
    assert server._index.ids == ["s0", "s1"]


# Memory ---------------------------------------------------------------------


def test_a_100k_fleet_holds_a_bounded_number_of_bytes_per_source():
    n = 100_000
    source_ids = collision_free_ids(n)
    frames = encode_update_frames(
        [_hash(s) for s in source_ids], [0] * n, [0] * n, np.arange(n, dtype=float)
    )
    addrs = [("127.0.0.1", 40000 + i) for i in range(3)]
    batch = [(frame, addrs[i % 3]) for i, frame in enumerate(frames)]
    gc.collect()
    tracemalloc.start()
    try:
        server = WireServer(WireConfig(sources=n, ticks=4, ramp_ticks=1))
        server.register_fleet(source_ids, DKF_CONFIG)
        server._apply_batch(batch)
        server._flush_acks()  # unopened: the acks are taken, not sent
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert server.apply_stats()["bank_applied"] == n
    assert server.dkf.bank.primed.all()
    assert len(server._addrs) == 3
    assert held / n <= 450, held / n
