"""Differential test: the bank-backed ``ServerCore`` against ``DKFServer``.

The scalar tolerant server is the reference for the bank-side receive
rules.  A generated sequence of updates, stale retransmits, gaps,
non-finite payloads, resyncs, heartbeats, digest updates, coasting
ticks and clock advances over a handful of sources goes through
``DKFServer(strict=False, emit_acks=True)`` one message at a time and
through the core in random batch cuts (plain updates of a cut in one
``apply_updates`` call, everything else by ``receive``).  The two must
agree on every observable: the ack sequence, the exported checkpoint
state as canonical JSON bytes, ``stats``, ``value``, ``confidence``,
``forecast`` and ``liveness``, and ``answer_fields`` after every step
the core has caught up with.  Not 1e-10: bytes.

Byte equality is what the wire needs (its chaos report and restart
drill compare state byte for byte) and what the bank gives wherever a
correction's sums have one non-zero term: measurement dimension 1 --
every model the wire fleets run -- or covariances that stay diagonal.
With m > 1 *and* a dense covariance the bank's ``einsum`` and the
scalar filter's ``@`` may round the state update one ULP apart (the
bank's own contract there is 1e-10, ``tests/scale/test_vector_bank.py``),
so the 2-d model's generated resync snapshots carry diagonal
covariances.

The codec pins at the bottom hold the bulk decoders and packers to
``decode_message`` / ``encode_message`` field for field, verdict for
verdict and byte for byte.
"""

import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import (
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    UpdateMessage,
    build_source_index,
    decode_ack_frames,
    decode_message,
    decode_update_frames,
    encode_ack_frames,
    encode_message,
    encode_update_frames,
    update_frame_dtype,
)
from repro.dkf.server import DKFServer
from repro.errors import (
    ConfigurationError,
    CorruptMessageError,
    DuplicateSourceError,
    UnknownSourceError,
)
from repro.filters.models import constant_model, linear_model, sinusoidal_model
from repro.obs import Telemetry
from repro.scale.core import ServerCore

SOURCES = ("a", "b", "c", "d")
MODELS = {
    "constant-1d": constant_model(dims=1),
    "constant-2d": constant_model(dims=2),
    "linear-1d": linear_model(dims=1),
}
TRANSPORT = TransportPolicy(suspect_after_ticks=6)

_KINDS = (
    "update", "update", "update", "update", "stale", "gap", "nonfinite",
    "resync", "heartbeat", "digest", "bad_digest", "tick", "clock",
)
_finite = st.floats(-1e3, 1e3, allow_nan=False, width=64)
_op = st.tuples(
    st.sampled_from(_KINDS),
    st.integers(0, len(SOURCES) - 1),
    st.lists(_finite, min_size=12, max_size=12),
    st.integers(1, 3),
    st.booleans(),  # cut the core's batch after this op
)


def _messages(model, ops):
    """Turn ops into protocol messages the way a (faulty) source would.

    Returns a list of ``("msg", message)``, ``("tick", source, k)`` and
    ``("clock", tick)`` items plus the cut flags.  Digest updates are
    left with a placeholder resolved against the reference on the fly.
    """
    n, m = model.state_dim, model.measurement_dim
    seq_next = dict.fromkeys(SOURCES, 0)
    k = dict.fromkeys(SOURCES, 0)
    clock = 0
    items = []
    for kind, who, floats, step, _ in ops:
        sid = SOURCES[who]
        value = np.array(floats[:m])
        if kind == "clock":
            clock += step
            items.append(("clock", clock))
            continue
        k[sid] += 1
        if kind == "tick":
            items.append(("tick", sid, k[sid]))
        elif kind == "heartbeat":
            items.append(("msg", HeartbeatMessage(sid, seq_next[sid], k[sid])))
        elif kind == "resync":
            a = np.array(floats[m : m + n * n] * n)[: n * n].reshape(n, n)
            if m > 1:
                a = np.diag(np.diag(a))  # see the module docstring
            p = a @ a.T / 1e3 + np.eye(n) * 0.5
            x = np.array((floats * n)[-n:])
            items.append((
                "msg", ResyncMessage(sid, seq_next[sid], k[sid], x, p, value)
            ))
            seq_next[sid] += 1
        elif kind == "stale":
            seq = max(0, seq_next[sid] - step)
            items.append(("msg", UpdateMessage(sid, seq, k[sid], value)))
        else:
            if kind == "gap":
                seq_next[sid] += step  # the link ate these
            if kind == "nonfinite":
                value = value.copy()
                value[0] = (np.nan, np.inf, -np.inf)[step - 1]
            digest = kind if kind in ("digest", "bad_digest") else None
            items.append((
                "msg",
                UpdateMessage(sid, seq_next[sid], k[sid], value, digest),
            ))
            seq_next[sid] += 1
    return items


def _fresh_pair(model):
    config = DKFConfig(model=model, delta=0.7)
    reference = DKFServer(strict=False, emit_acks=True)
    oracle = DKFServer(strict=False)  # digest-less twin: the mirror's x
    core = ServerCore()
    for sid in SOURCES:
        reference.register(sid, config, TRANSPORT)
        oracle.register(sid, config, TRANSPORT)
    core.add_rows(SOURCES, config, TRANSPORT)
    return reference, oracle, core


def _flush(core, run):
    """One batched call for a run of plain updates, in arrival order."""
    if run:
        core.apply_updates(
            [core.index[msg.source_id] for msg in run],
            [msg.seq for msg in run],
            [msg.k for msg in run],
            np.array([msg.value for msg in run]),
        )
        run.clear()


def _canonical(state: dict) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("model_name", sorted(MODELS))
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=60))
def test_core_matches_the_scalar_server_message_for_message(model_name, ops):
    model = MODELS[model_name]
    reference, oracle, core = _fresh_pair(model)
    run: list[UpdateMessage] = []
    for item, (*_, cut) in zip(_messages(model, ops), ops):
        if item[0] == "clock":
            _flush(core, run)
            for server in (reference, oracle, core):
                server.advance_clock(item[1])
        elif item[0] == "tick":
            _flush(core, run)
            _, sid, k = item
            reference.tick(sid, k)
            oracle.tick(sid, k)
            core.tick(np.array([core.index[sid]]), k)
        else:
            message = item[1]
            plain = message
            if isinstance(message, UpdateMessage) and message.digest:
                plain = UpdateMessage(
                    message.source_id, message.seq, message.k, message.value
                )
            oracle.receive(plain)
            if plain is not message:
                mirror = oracle.export_source_state(message.source_id)
                x = np.array(mirror["filter"]["x"]) if mirror["filter"] else 0
                good = np.asarray(x, dtype=float).tobytes()[:8]
                message = UpdateMessage(
                    message.source_id, message.seq, message.k, message.value,
                    good if message.digest == "digest" else b"\x00" * 8,
                )
            reference.receive(message)
            if isinstance(message, UpdateMessage) and message.digest is None:
                run.append(message)
            else:
                _flush(core, run)
                core.receive(message)
        if cut:
            _flush(core, run)
        if not run:
            for sid in SOURCES:
                assert core.answer_fields(sid) == reference.answer_fields(sid)
    _flush(core, run)

    assert core.take_outbox() == reference.take_outbox()
    assert core.clock == reference.clock
    for sid in SOURCES:
        assert _canonical(core.export_source_state(sid)) == _canonical(
            reference.export_source_state(sid)
        )
        assert core.stats(sid) == reference.stats(sid)
        assert core.liveness(sid) == reference.liveness(sid)
        assert core.is_primed(sid) == reference.is_primed(sid)
        assert core.confidence(sid) == reference.confidence(sid)
        if reference.is_primed(sid):
            assert core.value(sid).tobytes() == reference.value(sid).tobytes()
            assert (
                core.forecast(sid, 5).tobytes()
                == reference.forecast(sid, 5).tobytes()
            )
        else:
            with pytest.raises(UnknownSourceError):
                core.forecast(sid, 5)
    primed = sum(reference.is_primed(sid) for sid in SOURCES)
    suspect = sum(reference.liveness(sid)["suspect"] for sid in SOURCES)
    assert (core.primed_count(), core.suspect_count()) == (primed, suspect)


def test_checkpoint_round_trip_is_interchangeable_with_the_scalar_server():
    model = MODELS["linear-1d"]
    reference, _, core = _fresh_pair(model)
    rng = np.random.default_rng(5)
    for seq in range(4):
        for sid in SOURCES[:3]:  # "d" stays unprimed
            message = UpdateMessage(sid, seq, seq + 1, rng.normal(size=1))
            reference.receive(message)
            core.receive(message)
    restored = ServerCore()
    restored.add_rows(SOURCES, DKFConfig(model=model, delta=0.7), TRANSPORT)
    for sid in SOURCES:
        restored.import_row(
            restored.index[sid], reference.export_source_state(sid)
        )
        assert _canonical(restored.export_source_state(sid)) == _canonical(
            core.export_source_state(sid)
        )
    assert not restored.is_primed("d")


def test_suspect_starts_one_tick_after_the_deadline_on_every_read_path():
    """At exactly ``suspect_after_ticks`` of silence a source is not yet
    suspect; one tick later it is -- primed or not, on every view."""
    reference, _, core = _fresh_pair(MODELS["linear-1d"])
    priming = UpdateMessage("a", 0, 1, np.array([1.0]))
    reference.receive(priming)
    core.receive(priming)  # "a" primed, the rest silent since clock 0
    rows = np.array([core.index[sid] for sid in SOURCES])
    deadline = TRANSPORT.suspect_after_ticks
    for clock, suspect in ((deadline, False), (deadline + 1, True)):
        reference.advance_clock(clock)
        core.advance_clock(clock)
        for sid in SOURCES:
            verdict = {
                "staleness_ticks": clock, "suspect": suspect, "last_contact": 0,
            }
            assert reference.liveness(sid) == verdict
            assert core.liveness(sid) == verdict
            assert core.row_liveness(core.index[sid]) == (clock, suspect)
        assert reference.answer_fields("a")[2:4] == (clock, suspect)
        assert core.answer_fields("a") == reference.answer_fields("a")
        primed, _, _, staleness, flags, _ = core.answer_columns(clock, rows)
        assert primed.tolist() == [True, False, False, False]
        assert staleness.tolist() == [clock] * len(SOURCES)
        assert flags.tolist() == [suspect] * len(SOURCES)
        assert core.suspect_count() == (len(SOURCES) if suspect else 0)


def test_one_model_signature_per_bank_and_no_time_varying_models():
    core = ServerCore()
    core.add_rows(["a"], DKFConfig(model=constant_model(dims=1), delta=1.0))
    with pytest.raises(ConfigurationError):
        core.add_rows(["b"], DKFConfig(model=linear_model(dims=1), delta=1.0))
    with pytest.raises(DuplicateSourceError):
        core.add_rows(["a"], DKFConfig(model=constant_model(dims=1), delta=1.0))
    with pytest.raises(ConfigurationError):
        ServerCore().add_rows(
            ["s"],
            DKFConfig(model=sinusoidal_model(omega=0.3, theta=0.0), delta=1.0),
        )
    assert core.source_ids == ["a"]


def test_counters_are_label_free_and_count_by_batch():
    telemetry = Telemetry()
    core = ServerCore(telemetry=telemetry)
    core.add_rows(SOURCES, DKFConfig(model=constant_model(dims=1), delta=1.0))
    rows = np.arange(4)
    core.apply_updates(rows, [0, 0, 0, 0], [1, 1, 1, 1], np.ones((4, 1)))
    # One more of each: applied, stale, gap, non-finite.
    core.apply_updates(
        rows, [1, 0, 5, 1], [2, 2, 2, 2], np.array([[1.0], [1.0], [1.0], [np.nan]])
    )
    counters = {
        (counter.name, tuple(counter.labels)): counter.value
        for counter in telemetry.metrics.counters()
    }
    assert counters == {
        ("server_applies_total", ()): 5,
        ("server_duplicates_total", ()): 1,
        ("server_gaps_total", ()): 1,
        ("server_rejected_total", ()): 1,
    }
    assert telemetry.timers.get("core.apply_updates").count == 2


# Codec pins -----------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 3])
def test_bulk_decoded_records_equal_decode_message_field_for_field(m):
    rng = np.random.default_rng(m)
    ids = [f"src-{i}" for i in range(40)]
    index = build_source_index(ids)
    messages = [
        UpdateMessage(
            ids[int(rng.integers(0, len(ids)))],
            int(rng.integers(0, 2**32)),
            int(rng.integers(0, 2**32)),
            rng.normal(size=m) * 10.0 ** float(rng.integers(-200, 200)),
        )
        for _ in range(200)
    ]
    frames = [encode_message(message) for message in messages]
    frames[7] = frames[7][:5] + bytes([frames[7][5] ^ 0x10]) + frames[7][6:]
    dtype = update_frame_dtype(m)
    assert {len(frame) for frame in frames} == {dtype.itemsize}
    records, intact = decode_update_frames(frames, dtype)
    assert intact.tolist() == [i != 7 for i in range(len(frames))]
    for i in np.flatnonzero(intact):
        decoded = decode_message(frames[i], index)
        assert int(records["tag"][i]) == 0x01
        assert index[int(records["hash"][i])] == decoded.source_id
        assert int(records["seq"][i]) == decoded.seq
        assert int(records["k"][i]) == decoded.k
        assert (
            records["value"][i].astype(float).tobytes()
            == decoded.value.tobytes()
        )


def test_packed_ack_frames_equal_encode_message_byte_for_byte():
    rng = np.random.default_rng(9)
    ids = [f"src-{i}" for i in range(64)]
    hash_of = {source_id: key for key, source_id in build_source_index(ids).items()}
    acks = [
        AckMessage(
            source_id,
            int(rng.integers(0, 2**32)),
            int(rng.integers(0, 2**32)),
            bool(rng.integers(0, 2)),
        )
        for source_id in ids
    ]
    frames = encode_ack_frames(
        [hash_of[ack.source_id] for ack in acks],
        [ack.seq for ack in acks],
        [ack.k for ack in acks],
        [ack.resync_requested for ack in acks],
    )
    assert frames == [encode_message(ack) for ack in acks]


_u32 = st.integers(0, 2**32 - 1)
# Every float a value column can hold: -0.0, subnormals and +-inf come
# with st.floats; NaNs come as arbitrary bit patterns, payloads included.
_any_float = st.one_of(
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 3),
    rows=st.lists(st.tuples(_u32, _u32, _u32), min_size=0, max_size=12),
    data=st.data(),
)
def test_packed_update_frames_equal_encode_message_byte_for_byte(m, rows, data):
    values = [
        data.draw(st.lists(_any_float, min_size=m, max_size=m)) for _ in rows
    ]
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), 3).T
    z = np.array(values, dtype=float).reshape(len(rows), m)
    frames = encode_update_frames(*columns, z)
    # The header carries whatever _source_hash gives the id: pin it to
    # the drawn hash so any 32-bit value can be checked.
    with mock.patch("repro.dkf.protocol._source_hash", int):
        expected = [
            encode_message(UpdateMessage(str(key), seq, k, np.array(value)))
            for (key, seq, k), value in zip(rows, values)
        ]
    assert frames == expected
    if m == 1:  # a flat column is one measurement per row
        assert encode_update_frames(*columns, z.ravel()) == expected


def _verdict(data: bytes, index: dict[int, str]):
    try:
        return decode_message(data, index)
    except CorruptMessageError:
        return "corrupt"
    except ConfigurationError:
        return "unknown"


@settings(max_examples=150, deadline=None)
@given(
    acks=st.lists(
        st.tuples(
            _u32, _u32, _u32, st.booleans(),
            st.booleans(),  # the hash is registered
            st.one_of(st.none(), st.integers(0, 18 * 8 - 1)),  # bit flipped
        ),
        max_size=16,
    )
)
def test_bulk_decoded_acks_get_decode_message_s_verdict(acks):
    index = {key: f"src-{key}" for key, *_, known, _ in acks if known}
    frames = encode_ack_frames(*(
        [ack[i] for ack in acks] for i in range(4)
    ))
    for i, (*_, flip) in enumerate(acks):
        if flip is not None:
            frame = bytearray(frames[i])
            frame[flip // 8] ^= 1 << (flip % 8)
            frames[i] = bytes(frame)
    records, intact = decode_ack_frames(frames)
    for i, frame in enumerate(frames):
        source_id = index.get(int(records["hash"][i]))
        if not intact[i]:
            bulk = "corrupt"
        elif source_id is None:
            bulk = "unknown"
        else:
            bulk = AckMessage(
                source_id,
                int(records["seq"][i]),
                int(records["k"][i]),
                bool(records["flags"][i] & 1),
            )
        assert bulk == _verdict(frame, index)
        assert intact[i] == (acks[i][5] is None)
