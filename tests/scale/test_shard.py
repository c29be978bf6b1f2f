"""Shard placement, signatures, frame accounting and split mechanics."""

import numpy as np
import pytest

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import HeartbeatMessage, ResyncMessage, UpdateMessage
from repro.errors import ConfigurationError
from repro.filters.models import constant_model, linear_model, sinusoidal_model
from repro.scale.shard import ShardRouter, ShardRuntime, model_signature


def _shard(model=None, rows=4, ticks=60, seed=0, delta=1.0, **shard_kw):
    model = model or linear_model(dims=1)
    shard = ShardRuntime("t", model, **shard_kw)
    rng = np.random.default_rng(seed)
    for i in range(rows):
        vals = np.cumsum(rng.normal(0.0, 1.0, ticks))
        shard.add_row(
            f"s{i}",
            DKFConfig(model=model, delta=delta),
            TransportPolicy(),
            vals,
            np.arange(ticks, dtype=float),
        )
    return shard


def _drive(shard, ticks):
    for t in range(ticks):
        shard.step(t)
        shard.flush_acks()


def test_signature_equal_for_equal_matrices():
    a = linear_model(dims=1, dt=1.0)
    b = linear_model(dims=1, dt=1.0)
    assert a is not b
    assert model_signature(a) == model_signature(b)


def test_signature_differs_across_models():
    sigs = {
        model_signature(constant_model()),
        model_signature(linear_model(dims=1)),
        model_signature(linear_model(dims=1, dt=0.5)),
        model_signature(linear_model(dims=2)),
    }
    assert len(sigs) == 4


def test_signature_rejects_time_varying():
    with pytest.raises(ConfigurationError):
        model_signature(sinusoidal_model(omega=0.3, theta=0.0))


def test_router_groups_by_signature():
    router = ShardRouter()
    m1a, m1b = linear_model(dims=1), linear_model(dims=1)
    m2 = constant_model()
    s1 = router.place(m1a)
    assert router.place(m1b) is s1  # equal signature, same shard
    s2 = router.place(m2)
    assert s2 is not s1
    assert len(router.shards) == 2


def test_router_caps_shard_rows():
    model = linear_model(dims=1)
    router = ShardRouter(max_shard_rows=2)
    config = DKFConfig(model=model, delta=1.0)
    vals = np.zeros(5)
    ts = np.arange(5, dtype=float)
    homes = []
    for i in range(5):
        shard = router.place(model)
        shard.add_row(f"s{i}", config, TransportPolicy(), vals, ts)
        homes.append(shard)
    assert len(router.shards) == 3
    assert [s.rows for s in router.shards] == [2, 2, 1]


def test_duplicate_row_rejected():
    shard = _shard(rows=1)
    model = shard.model
    with pytest.raises(ConfigurationError):
        shard.add_row(
            "s0",
            DKFConfig(model=model, delta=1.0),
            TransportPolicy(),
            np.zeros(5),
            np.arange(5, dtype=float),
        )


def test_dim_mismatch_rejected():
    shard = _shard(model=linear_model(dims=2), rows=0)
    with pytest.raises(ConfigurationError):
        shard.add_row(
            "bad",
            DKFConfig(model=shard.model, delta=1.0),
            TransportPolicy(),
            np.zeros(5),  # 1-D values into a 2-attribute model
            np.arange(5, dtype=float),
        )


def test_frame_sizes_match_protocol_messages():
    model = linear_model(dims=2)
    shard = _shard(model=model, rows=0)
    z = np.zeros(model.measurement_dim)
    x = np.zeros(model.state_dim)
    p = np.eye(model.state_dim)
    assert shard.update_bytes == UpdateMessage("_", 0, 0, z).size_bytes
    assert shard.resync_bytes == ResyncMessage("_", 0, 0, x, p, z).size_bytes
    assert shard.heartbeat_bytes == HeartbeatMessage("_", 0, 0).size_bytes


def test_split_preserves_rows_and_state():
    shard = _shard(rows=6, ticks=80)
    _drive(shard, 40)
    before = {
        sid: (
            shard.server.x_row(shard.index[sid]).copy(),
            shard.server.p_row(shard.index[sid]).copy(),
            int(shard.samples_seen[shard.index[sid]]),
            int(shard.updates_sent[shard.index[sid]]),
            int(shard.core.expected_seq[shard.index[sid]]),
        )
        for sid in shard.ids
    }
    low, high = shard.split()
    assert sorted(low.ids + high.ids) == sorted(shard.ids)
    assert low.rows + high.rows == 6
    assert abs(low.rows - high.rows) <= 1
    for part in (low, high):
        for sid in part.ids:
            row = part.index[sid]
            x, p, seen, sent, expected = before[sid]
            np.testing.assert_array_equal(part.server.x_row(row), x)
            np.testing.assert_array_equal(part.server.p_row(row), p)
            assert part.samples_seen[row] == seen
            assert part.updates_sent[row] == sent
            assert part.core.expected_seq[row] == expected


def test_split_halves_continue_like_the_whole():
    """Driving the two halves onward equals driving the unsplit shard."""
    whole = _shard(rows=6, ticks=100, seed=5)
    forked = _shard(rows=6, ticks=100, seed=5)
    _drive(whole, 50)
    _drive(forked, 50)
    low, high = forked.split()
    for t in range(50, 100):
        whole.step(t)
        whole.flush_acks()
        for part in (low, high):
            part.step(t)
            part.flush_acks()
    for sid in whole.ids:
        part = low if sid in low.index else high
        row_w, row_p = whole.index[sid], part.index[sid]
        np.testing.assert_array_equal(
            whole.server.x_row(row_w), part.server.x_row(row_p)
        )
        assert whole.updates_sent[row_w] == part.updates_sent[row_p]
        assert whole.bytes_delivered[row_w] == part.bytes_delivered[row_p]


def test_router_replace_after_split():
    router = ShardRouter()
    model = linear_model(dims=1)
    config = DKFConfig(model=model, delta=1.0)
    shard = router.place(model)
    for i in range(4):
        shard.add_row(
            f"s{i}", config, TransportPolicy(), np.zeros(5),
            np.arange(5, dtype=float),
        )
    parts = shard.split()
    router.replace(shard, parts)
    assert shard not in router.shards
    assert len(router.shards) == 2
    # New placements of the same signature land in an existing half.
    assert router.place(model) in parts


def _lossy_shard(rows=6, ticks=120, seed=9, lost=frozenset(range(12, 17))):
    """A shard whose row 1 drops a burst of frames mid-run.

    The loss predicate receives the per-row offered-frame index, so the
    burst lands while updates are in flight and the row goes through
    the full slow-path recovery arc: gap detection, desync, resync.
    """
    shard = _shard(rows=rows, ticks=ticks, seed=seed)
    shard.set_link_faults(
        shard.index["s1"], lambda index: index in lost, None
    )
    return shard


def test_split_mid_loss_recovery_matches_unsplit_control():
    """Splitting while a row is desynced must lose nothing: the halves,
    driven onward, end exactly where the unsplit control ends."""
    whole = _lossy_shard()
    forked = _lossy_shard()
    _drive(whole, 24)  # inside the loss burst: retransmissions pending
    _drive(forked, 24)
    assert forked.lost[forked.index["s1"]] > 0, "burst never fired"
    low, high = forked.split()
    lossy_part = low if "s1" in low.index else high
    # The loss predicate travels with the row (indices renumbered).
    assert lossy_part.lossy[lossy_part.index["s1"]]
    for t in range(24, 120):
        whole.step(t)
        whole.flush_acks()
        for part in (low, high):
            part.step(t)
            part.flush_acks()
    for sid in whole.ids:
        part = low if sid in low.index else high
        row_w, row_p = whole.index[sid], part.index[sid]
        np.testing.assert_array_equal(
            whole.server.x_row(row_w), part.server.x_row(row_p)
        )
        # No update lost or double-applied anywhere on the recovery
        # path: sequence space, retransmit and resync counters agree.
        assert whole.core.expected_seq[row_w] == part.core.expected_seq[row_p]
        assert whole.updates_sent[row_w] == part.updates_sent[row_p]
        assert whole.link_resyncs[row_w] == part.link_resyncs[row_p]
        assert whole.core.gaps_detected[row_w] == part.core.gaps_detected[row_p]
        assert (
            whole.core.duplicates_ignored[row_w]
            == part.core.duplicates_ignored[row_p]
        )
    # Recovery actually completed: the lossy row re-synced.
    assert not whole.core.desynced[whole.index["s1"]]


def test_merge_mid_loss_recovery_matches_unsplit_control():
    """merge() is the state-preserving inverse of split() even for rows
    mid-way through slow-path loss recovery."""
    whole = _lossy_shard()
    forked = _lossy_shard()
    _drive(whole, 24)
    _drive(forked, 24)
    low, high = forked.split()
    # Drive the halves apart briefly, then weld them back while the
    # lossy row still holds pending retransmissions.
    for t in range(24, 28):
        for part in (low, high):
            part.step(t)
            part.flush_acks()
        whole.step(t)
        whole.flush_acks()
    merged = low.merge(high)
    assert sorted(merged.ids) == sorted(whole.ids)
    lossy_row = merged.index["s1"]
    assert merged.lossy[lossy_row]
    assert merged.pending[lossy_row], "retransmissions should be in flight"
    for t in range(28, 120):
        whole.step(t)
        whole.flush_acks()
        merged.step(t)
        merged.flush_acks()
    for sid in whole.ids:
        row_w, row_m = whole.index[sid], merged.index[sid]
        np.testing.assert_array_equal(
            whole.server.x_row(row_w), merged.server.x_row(row_m)
        )
        assert whole.core.expected_seq[row_w] == merged.core.expected_seq[row_m]
        assert whole.updates_sent[row_w] == merged.updates_sent[row_m]
        assert whole.link_resyncs[row_w] == merged.link_resyncs[row_m]
        assert (
            whole.bytes_delivered[row_w] == merged.bytes_delivered[row_m]
        )
    assert not merged.core.desynced[lossy_row]


def test_merge_rejects_incompatible_shards():
    shard = _shard(rows=2)
    with pytest.raises(ConfigurationError):
        shard.merge(shard)
    other = _shard(model=constant_model(q=0.2, r=1.0), rows=2)
    with pytest.raises(ConfigurationError):
        shard.merge(other)


def test_export_import_row_round_trip():
    shard = _shard(rows=3, ticks=60, seed=2)
    _drive(shard, 30)
    payload = shard.core.export_row(1)
    assert payload is not None
    other = _shard(rows=3, ticks=60, seed=2)
    other.core.import_row(1, payload)
    np.testing.assert_array_equal(
        other.server.x_row(1), shard.server.x_row(1)
    )
    assert other.core.expected_seq[1] == shard.core.expected_seq[1]
    assert other.core.last_k[1] == shard.core.last_k[1]
