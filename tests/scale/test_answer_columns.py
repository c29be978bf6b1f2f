"""The columnar read path: ``answers()`` from one column read per shard.

``BatchStreamEngine.answers()`` used to build each answer row by row
(``_locate`` -> per-row ``confidence`` -> ``innovation_covariance_row``);
that loop is kept here, and only here, as the oracle the column read
must match bit for bit -- NaN states included -- through shard splits,
m = 1, 2 and 3 models with a dense covariance, two queries on one
source, retired and unprimed rows, suspect and quarantined sources, a
server crash window and its recovery, with telemetry on.  ``answer(qid)``
on every front must equal the matching entry of ``answers()`` without
calling it.
"""

import dataclasses
import struct

import numpy as np
import pytest

from repro.dkf.config import TransportPolicy
from repro.dkf.server import DKFServer
from repro.dsms.engine import StreamEngine
from repro.dsms.faults import FaultSchedule
from repro.dsms.query import ContinuousQuery, QueryAnswer
from repro.errors import UnknownSourceError
from repro.federation import FederatedCluster, FederationConfig
from repro.filters.models import StateSpaceModel, constant_model, linear_model
from repro.obs.telemetry import Telemetry
from repro.resilience.config import ResilienceConfig
from repro.resilience.watchdog import WatchdogPolicy
from repro.scale.core import ServerCore
from repro.scale.engine import BatchStreamEngine
from repro.scale.vector_bank import VectorKalmanBank
from repro.streams.base import stream_from_values

T = 90
SPLIT_AT, RETIRE_AT, LATE_QUERY_AT, CRASH_AT, RECOVER_AT = 5, 40, 50, 60, 70


def _dense_model() -> StateSpaceModel:
    """m = n = 3 with dense phi, H, Q and R: every covariance is dense."""
    rng = np.random.default_rng(5)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    return StateSpaceModel(
        name="dense[3d]",
        phi=0.99 * rotation,
        h=np.eye(3) + 0.3 * rng.normal(size=(3, 3)),
        q=0.02 * a @ a.T + 0.05 * np.eye(3),
        r=0.1 * b @ b.T + 0.2 * np.eye(3),
        state_dim=3,
        measurement_dim=3,
    )


#: Source prefix -> (model, measurement dim, query δ).
KINDS = {
    "a": (linear_model(dims=1), 1, 1.0),
    "b": (linear_model(dims=2, dt=0.5), 2, 1.5),
    "c": (_dense_model(), 3, 2.0),
}
#: Crashes for good at tick 20 and heartbeats often, so it turns suspect.
SILENT = "a3"
#: Reads NaN from the start: its row never primes.
UNPRIMED = "a4"
#: A NaN window long enough to walk the watchdog ladder to quarantine.
QUARANTINED = "b1"
#: Its query is submitted mid-run (unprimed until its first step).
LATE = "b5"
#: Its only query is retired mid-run (the row parks).
RETIRED = "c4"
#: A diverged filter: the bank row is overwritten with NaN at the end.
POISONED = "c1"


def _queries():
    out = []
    for prefix, (_, _, delta) in KINDS.items():
        for i in range(6):
            sid = f"{prefix}{i}"
            if sid != LATE:
                out.append(ContinuousQuery(sid, delta, query_id=f"q-{sid}"))
    out.append(ContinuousQuery("a0", 0.5, query_id="q-a0-tight"))
    out.append(ContinuousQuery("b4", 3.0, query_id="q-b4-loose"))
    return out


ALL_QUERY_IDS = [q.query_id for q in _queries()] + [f"q-{LATE}", "q-ghost"]


class RecordingTelemetry(Telemetry):
    """Live telemetry that also lists each staleness observation."""

    def __init__(self) -> None:
        super().__init__()
        self.staleness: list[tuple[str, int]] = []

    def observe(self, name, value, source_id=None, unit=None) -> None:
        super().observe(name, value, source_id=source_id, unit=unit)
        if name == "staleness_at_answer_ticks":
            self.staleness.append((source_id, value))


def _build(engine_cls, tmp_path, telemetry, **kwargs):
    resilience = ResilienceConfig(
        checkpoint_dir=tmp_path / "ckpt",
        checkpoint_every=20,
        watchdog=WatchdogPolicy(
            reject_limit=3, escalation_grace_ticks=2, hysteresis_ticks=4
        ),
    )
    engine = engine_cls(telemetry=telemetry, resilience=resilience, **kwargs)
    rng = np.random.default_rng(17)
    for prefix, (model, dim, _) in KINDS.items():
        for i in range(6):
            sid = f"{prefix}{i}"
            walk = np.cumsum(rng.normal(0.0, 0.6, size=(T + 10, dim)), axis=0)
            engine.add_source(
                sid,
                model,
                stream_from_values(walk if dim > 1 else walk[:, 0], name=sid),
                transport=TransportPolicy(
                    ack_timeout_ticks=4,
                    heartbeat_interval_ticks=4,
                    suspect_after_ticks=6,
                ),
            )
    for query in _queries():
        engine.submit_query(query)
    engine.inject_faults(
        FaultSchedule(seed=9)
        .crash(SILENT, at=20)
        .sensor(UNPRIMED, "nan", start=0, duration=T + 10)
        .sensor(QUARANTINED, "nan", start=30, duration=40)
    )
    return engine


def _bits(value):
    """A field compared by type and bit pattern (NaN equals itself)."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return type(value).__name__, struct.pack("<d", value)
    return type(value).__name__, value


def _fields(answer: QueryAnswer) -> dict:
    return {
        f.name: _bits(getattr(answer, f.name))
        for f in dataclasses.fields(answer)
    }


def _oracle(engine: BatchStreamEngine) -> list[QueryAnswer]:
    """The per-row ``answers()`` loop the column read replaced."""
    out = []
    for query in engine.registry.active_queries:
        where = engine._where.get(query.source_id)
        if where is None:
            continue
        shard, row = where
        if shard.retired[row] or not shard.server.is_primed(row):
            continue
        staleness = max(
            0, engine._server_clock - int(shard.core.last_contact[row])
        )
        s = shard.server.innovation_covariance_row(row)
        sigma = float(np.sqrt(max(np.max(np.diag(s)), 0.0)))
        delta = float(shard.core.min_delta[row])
        out.append(
            QueryAnswer(
                query_id=query.query_id,
                source_id=query.source_id,
                k=int(shard.core.last_k[row]),
                value=tuple(float(v) for v in shard.core.answer[row]),
                precision=shard.configs[row].min_delta,
                staleness_ticks=staleness,
                confidence=delta / (delta + sigma),
                degraded=(
                    staleness > int(shard.core.suspect_after[row])
                    or engine._server_down
                ),
                quarantined=(
                    engine._watchdog is not None
                    and engine._watchdog.is_quarantined(query.source_id)
                ),
            )
        )
    return out


def _check_by_id(front, got, telemetry=None, peer_id=None) -> None:
    """``answer(qid)`` is ``answers()``'s entry (and observes once)."""
    by_id = {a.query_id: a for a in got}
    kwargs = {} if peer_id is None else {"peer_id": peer_id}
    for query_id in ALL_QUERY_IDS:
        if telemetry is not None:
            telemetry.staleness.clear()
        if query_id not in by_id:
            with pytest.raises(UnknownSourceError):
                front.answer(query_id, **kwargs)
            continue
        expected = by_id[query_id]
        assert _fields(front.answer(query_id, **kwargs)) == _fields(expected)
        if telemetry is not None:
            assert telemetry.staleness == [
                (expected.source_id, expected.staleness_ticks)
            ]


def _drive(engine, on_tick) -> None:
    for _ in range(T):
        tick = engine.ticks
        if tick == SPLIT_AT and isinstance(engine, BatchStreamEngine):
            engine._split_shard(engine.shards[0], 0.0)
        if tick == CRASH_AT:
            engine.crash_server()
        if tick == RECOVER_AT:
            engine.recover()
        if tick == LATE_QUERY_AT:
            engine.submit_query(
                ContinuousQuery(LATE, 1.5, query_id=f"q-{LATE}")
            )
            on_tick()
        if tick == RETIRE_AT:
            engine.retire_query(f"q-{RETIRED}")
            engine.retire_query("q-b4-loose")
        engine.step()
        on_tick()


def test_batch_answers_match_the_per_row_oracle_bit_for_bit(tmp_path):
    telemetry = RecordingTelemetry()
    engine = _build(BatchStreamEngine, tmp_path, telemetry, max_shard_rows=4)
    seen = {
        "degraded": False, "quarantined": False, "suspect": False,
        "nan": False,
    }

    def check() -> None:
        telemetry.staleness.clear()
        got = engine.answers()
        observed = list(telemetry.staleness)
        expected = _oracle(engine)
        assert [_fields(a) for a in got] == [_fields(a) for a in expected]
        assert observed == [(a.source_id, a.staleness_ticks) for a in got]
        _check_by_id(engine, got, telemetry)
        for answer in got:
            seen["degraded"] |= answer.degraded and engine.server_down
            seen["quarantined"] |= answer.quarantined
            seen["suspect"] |= (
                answer.source_id == SILENT and answer.degraded
                and not engine.server_down
            )
            seen["nan"] |= bool(np.isnan(answer.confidence))
        ids = {a.source_id for a in got}
        assert UNPRIMED not in ids
        if engine.ticks > RETIRE_AT:
            assert RETIRED not in ids

    _drive(engine, check)
    shard, row = engine._where[POISONED]
    shard.server._p[row] = np.nan
    shard.core.answer[row] = np.nan
    check()

    assert len({id(s.model) for s in engine.shards}) == 3
    assert len(engine.shards) >= 7
    assert all(seen.values()), seen


def test_scalar_answer_is_the_matching_answers_entry(tmp_path):
    telemetry = RecordingTelemetry()
    engine = _build(StreamEngine, tmp_path, telemetry)

    def check() -> None:
        telemetry.staleness.clear()
        got = engine.answers()
        assert telemetry.staleness == [
            (a.source_id, a.staleness_ticks) for a in got
        ]
        _check_by_id(engine, got, telemetry)

    _drive(engine, check)


def test_federation_answer_matches_every_peer_view():
    rng = np.random.default_rng(2024)
    telemetry = RecordingTelemetry()
    cluster = FederatedCluster(
        FederationConfig(peers=3, replication=1), telemetry=telemetry
    )
    for i in range(6):
        sid = f"a{i}"
        cluster.add_source(
            sid,
            constant_model(q=0.2, r=1.0),
            stream_from_values(np.cumsum(rng.normal(0.0, 0.4, 80)), name=sid),
        )
        cluster.submit_query(ContinuousQuery(sid, 1.0, query_id=f"q-{sid}"))
    cluster.submit_query(ContinuousQuery("a0", 2.0, query_id="q-a0-tight"))
    views = [None, *cluster.peers]
    for tick in range(60):
        if tick == 25:
            cluster.crash_peer(sorted(cluster.peers)[0])
        cluster.step()
        for peer_id in views:
            _check_by_id(
                cluster,
                cluster.answers(peer_id),
                telemetry if peer_id is None else None,
                peer_id,
            )


def _boom(*args, **kwargs):
    raise AssertionError("not on this read path")


def test_bulk_read_uses_no_per_row_confidence(monkeypatch):
    engine = BatchStreamEngine()
    model = constant_model()
    stream = stream_from_values(np.arange(20.0), name="ramp")
    for i in range(2000):
        engine.add_source(f"s{i}", model, stream)
        engine.submit_query(ContinuousQuery(f"s{i}", 1.0, query_id=f"q-s{i}"))
    for _ in range(3):
        engine.step()
    monkeypatch.setattr(ServerCore, "confidence", _boom)
    monkeypatch.setattr(VectorKalmanBank, "innovation_covariance_row", _boom)
    monkeypatch.setattr(VectorKalmanBank, "primed", property(_boom))
    assert len(engine.answers()) == 2000

    # Parked rows are not read: covariances only for the queried rows.
    for i in range(10, 2000):
        engine.retire_query(f"q-s{i}")
    covariance_rows = []
    batched = VectorKalmanBank.innovation_covariance

    def counting(bank, rows):
        covariance_rows.append(len(rows))
        return batched(bank, rows)

    monkeypatch.setattr(VectorKalmanBank, "innovation_covariance", counting)
    assert [a.source_id for a in engine.answers()] == [
        f"s{i}" for i in range(10)
    ]
    assert sum(covariance_rows) == 10


@pytest.mark.parametrize("front", ["scalar", "batch", "federation"])
def test_answer_by_id_does_not_build_every_answer(monkeypatch, front):
    if front == "federation":
        engine = FederatedCluster(FederationConfig(peers=2, replication=1))
    else:
        engine = (StreamEngine if front == "scalar" else BatchStreamEngine)()
    for i in range(4):
        engine.add_source(
            f"s{i}",
            constant_model(),
            stream_from_values(np.arange(20.0), name="ramp"),
        )
        engine.submit_query(ContinuousQuery(f"s{i}", 1.0, query_id=f"q{i}"))
    for _ in range(5):
        engine.step()
    expected = engine.answers()[2]
    monkeypatch.setattr(type(engine), "answers", _boom)
    # No copy of a server's whole source list either (the cluster's peers).
    monkeypatch.setattr(DKFServer, "source_ids", property(_boom))
    assert engine.answer("q2") == expected
