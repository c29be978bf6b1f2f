"""The federated home runs the single-server source step -- by
construction, since both fronts step their sources through one
:class:`~repro.dkf.stepper.SourceDriver`.

One seeded workload with a source crash/restart, a NaN sensor window,
Gilbert-Elliott burst loss and a latent link goes through a
:class:`~repro.dsms.engine.StreamEngine` and through the smallest
cluster the config accepts (one peer, no replicas).  Every protocol
decision must agree: the per-source link ledger, the source-side
counters and the final answers.
"""

import numpy as np

from repro.dkf.config import TransportPolicy
from repro.dsms.engine import StreamEngine
from repro.dsms.faults import FaultSchedule
from repro.dsms.network import LinkConfig
from repro.dsms.query import ContinuousQuery
from repro.federation import FederatedCluster, FederationConfig
from repro.filters.models import constant_model
from repro.streams.base import stream_from_values

TICKS = 160
LINK_FIELDS = (
    "offered", "delivered", "lost", "corrupted",
    "resyncs", "heartbeats", "acks_delivered",
)
SOURCE_COUNTERS = (
    "updates_sent", "retransmits", "heartbeats_sent", "readings_rejected",
)


def drive(system):
    for i in range(4):
        sid = f"s{i}"
        values = np.cumsum(
            np.random.default_rng(40 + i).normal(0.0, 0.4, size=TICKS)
        )
        system.add_source(
            sid,
            constant_model(q=0.2, r=1.0),
            stream_from_values(values, name=sid),
            link=(
                LinkConfig(latency_ticks=2, ack_latency_ticks=1)
                if sid == "s3" else None
            ),
            transport=TransportPolicy(
                ack_timeout_ticks=6, heartbeat_interval_ticks=5
            ),
        )
        system.submit_query(ContinuousQuery(sid, delta=0.7, query_id=f"q-{sid}"))
    system.inject_faults(
        FaultSchedule(seed=9)
        .crash("s0", at=30, restart_at=48)
        .sensor("s1", "nan", 60, 7)
        .burst_loss("s2", 0.15, 0.35)
    )
    system.run()
    system.settle()
    return system


def test_federated_home_matches_single_server_decisions():
    engine = drive(StreamEngine())
    cluster = drive(
        FederatedCluster(FederationConfig(peers=1, replication=0))
    )
    for sid, source in engine.sources.items():
        ours = engine.fabric.stats_for(sid)
        theirs = cluster.source_fabric.stats_for(sid)
        for name in LINK_FIELDS:
            assert getattr(ours, name) == getattr(theirs, name), (sid, name)
        twin = cluster.sources[sid]
        for name in SOURCE_COUNTERS:
            assert getattr(source, name) == getattr(twin, name), (sid, name)
    # The workload exercised every path the comparison claims to cover.
    assert engine.fabric.stats_for("s0").resyncs >= 1
    assert engine.sources["s1"].readings_rejected == 7
    assert engine.fabric.stats_for("s2").lost >= 1
    single = {a.query_id: a for a in engine.answers()}
    federated = {a.query_id: a for a in cluster.answers()}
    assert set(single) == set(federated) == {f"q-s{i}" for i in range(4)}
    for query_id, answer in single.items():
        twin = federated[query_id]
        assert answer.value == twin.value
        assert answer.k == twin.k
        assert answer.precision == twin.precision
        assert twin.consensus_error == 0.0
