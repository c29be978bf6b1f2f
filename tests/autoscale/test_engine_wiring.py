"""Autoscaler wiring into both engines: arming, actuation, reports."""

import dataclasses

import numpy as np
import pytest

from repro.autoscale import AutoscalePolicy
from repro.dkf.config import TransportPolicy
from repro.dsms.engine import StreamEngine
from repro.dsms.query import ContinuousQuery
from repro.errors import ConfigurationError
from repro.filters.models import linear_model
from repro.obs import Telemetry
from repro.resilience import OverloadPolicy, ResilienceConfig
from repro.scale.engine import BatchStreamEngine
from repro.streams.base import stream_from_values


class TestScalarEngineWiring:
    def test_autoscale_requires_overload_policy(self):
        with pytest.raises(ConfigurationError):
            StreamEngine(autoscale=AutoscalePolicy())

    def make_engine(self, telemetry=None):
        engine = StreamEngine(
            telemetry=telemetry,
            resilience=ResilienceConfig(
                overload=OverloadPolicy(
                    inbox_capacity=16, drain_per_tick=7, cooldown_ticks=8
                )
            ),
            autoscale=AutoscalePolicy(),
        )
        rng = np.random.default_rng(11)
        for i in range(6):
            sid = f"s{i}"
            values = np.cumsum(rng.normal(0.0, 0.5, size=80))
            engine.add_source(
                sid,
                linear_model(dims=1, dt=1.0),
                stream_from_values(values, name=sid),
                transport=TransportPolicy(ack_timeout_ticks=4),
                priority=i % 3,
            )
            engine.submit_query(
                ContinuousQuery(sid, delta=1.0, query_id=f"q-{sid}")
            )
        return engine

    def test_autoscaler_armed_and_reported(self):
        engine = self.make_engine()
        assert engine.autoscaler is not None
        engine.run(40)
        report = engine.resilience_report()
        assert "autoscale" in report
        assert report["autoscale"]["arrival"]["seen"] > 0

    def test_tail_drops_charge_the_shed_account(self):
        # A 4-slot inbox cannot hold the tick-0 priming burst of six
        # sources, so some updates must tail-drop -- and every drop
        # must land on the overload controller's shed account.
        engine = StreamEngine(
            telemetry=Telemetry(),
            resilience=ResilienceConfig(
                overload=OverloadPolicy(
                    inbox_capacity=4, drain_per_tick=2, cooldown_ticks=8
                )
            ),
            autoscale=AutoscalePolicy(),
        )
        rng = np.random.default_rng(11)
        for i in range(6):
            sid = f"s{i}"
            values = np.cumsum(rng.normal(0.0, 0.5, size=40))
            engine.add_source(
                sid,
                linear_model(dims=1, dt=1.0),
                stream_from_values(values, name=sid),
                transport=TransportPolicy(ack_timeout_ticks=4),
                priority=i % 3,
            )
            engine.submit_query(
                ContinuousQuery(sid, delta=1.0, query_id=f"q-{sid}")
            )
        engine.run(40)
        assert engine.inbox.dropped > 0
        ledger = engine.overload.ledger()
        assert ledger["dropped_updates"] == engine.inbox.dropped
        assert ledger["shed_error_total"] > 0

    def test_answers_unaffected_by_arming(self):
        """With calm load the autoscaler never acts, so arming it must
        not change a single answer."""
        armed = self.make_engine()
        plain = StreamEngine(
            resilience=ResilienceConfig(
                overload=OverloadPolicy(
                    inbox_capacity=16, drain_per_tick=7, cooldown_ticks=8
                )
            ),
        )
        rng = np.random.default_rng(11)
        for i in range(6):
            sid = f"s{i}"
            values = np.cumsum(rng.normal(0.0, 0.5, size=80))
            plain.add_source(
                sid,
                linear_model(dims=1, dt=1.0),
                stream_from_values(values, name=sid),
                transport=TransportPolicy(ack_timeout_ticks=4),
                priority=i % 3,
            )
            plain.submit_query(
                ContinuousQuery(sid, delta=1.0, query_id=f"q-{sid}")
            )
        armed.run(60)
        plain.run(60)
        assert armed.overload.ledger()["widen_steps"] == 0
        for a, b in zip(armed.answers(), plain.answers()):
            assert a.source_id == b.source_id
            np.testing.assert_array_equal(a.value, b.value)


def _batch_engine(policy, budget_us, max_shard_rows=4096, sources=4):
    engine = BatchStreamEngine(
        latency_budget_us=budget_us,
        autoscale=policy,
        max_shard_rows=max_shard_rows,
    )
    rng = np.random.default_rng(5)
    model = linear_model(dims=1, dt=1.0)
    for i in range(sources):
        sid = f"s{i}"
        values = np.cumsum(rng.normal(0.0, 0.5, size=200))
        engine.add_source(
            sid, model, stream_from_values(values, name=sid)
        )
        engine.submit_query(
            ContinuousQuery(sid, delta=1.0, query_id=f"q-{sid}")
        )
    return engine


class TestBatchEngineWiring:
    def policy(self, **overrides):
        base = dict(control_interval=2, warmup_ticks=4)
        base.update(overrides)
        return dataclasses.replace(AutoscalePolicy(), **base)

    def test_autoscale_requires_latency_budget(self):
        with pytest.raises(ConfigurationError):
            BatchStreamEngine(autoscale=AutoscalePolicy())

    def test_predictive_split_on_blown_budget(self):
        # A budget no real step can meet forces the planner's hand.
        engine = _batch_engine(self.policy(), budget_us=1e-3)
        engine.run(30)
        report = engine.scale_report()
        assert len(report["shards"]) > 1
        assert report["autoscale"]["plans"] > 0

    def test_reactive_split_forgets_the_dead_shards_forecaster(self):
        # Warm-up far beyond the run: every split below is the reactive
        # EMA backstop, never a plan.
        engine = _batch_engine(
            self.policy(warmup_ticks=10_000), budget_us=1e-3
        )
        engine.run(6)
        report = engine.scale_report()
        assert report["rebalances"] >= 1
        assert report["autoscale"]["plans"] == 0
        live = {shard["shard_id"] for shard in report["shards"]}
        assert set(report["autoscale"]["shards"]) <= live

    def test_predictive_merge_rejoins_cold_shards(self):
        engine = _batch_engine(self.policy(), budget_us=1e-3)
        engine.run(30)
        split_into = len(engine.scale_report()["shards"])
        assert split_into > 1
        # Lift the budget so the halves run far under the merge
        # headroom; the planner should weld them back together.
        engine._latency_budget_us = 1e9
        engine.run(40)
        report = engine.scale_report()
        assert report["merges"] >= 1
        assert len(report["shards"]) < split_into

    def test_split_and_merge_preserve_answers(self):
        """The elastic engine's answers match a static engine's."""
        elastic = _batch_engine(self.policy(), budget_us=1e-3)
        static = _batch_engine(None, budget_us=None)
        elastic.run(30)
        elastic._latency_budget_us = 1e9
        elastic.run(40)
        static.run(70)
        a = {x.source_id: x for x in elastic.answers()}
        b = {x.source_id: x for x in static.answers()}
        assert set(a) == set(b)
        for sid in a:
            np.testing.assert_array_equal(a[sid].value, b[sid].value)

    def test_pool_resize_bounded_by_policy(self):
        engine = _batch_engine(
            self.policy(min_workers=0, max_workers=2), budget_us=1e-3
        )
        engine.run(30)
        assert engine.scale_report()["workers"] <= 2
