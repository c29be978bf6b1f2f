"""Unit tests for the DKF source (sensor) side."""

import numpy as np
import pytest

from repro.dkf.config import DKFConfig
from repro.dkf.source import DKFSource
from repro.errors import DimensionError
from repro.filters.models import constant_model, linear_model
from repro.streams.base import StreamRecord


def record(k, *values):
    return StreamRecord(k=k, timestamp=float(k), value=np.array(values))


def make_source(delta=3.0, model=None, **kwargs):
    config = DKFConfig(model=model or linear_model(dims=1, dt=1.0), delta=delta, **kwargs)
    return DKFSource("s0", config)


class TestPriming:
    def test_first_reading_transmits(self):
        source = make_source()
        step = source.sample(record(0, 10.0))
        assert step.message is not None
        assert step.prediction is None
        assert source.primed

    def test_priming_message_carries_value(self):
        source = make_source()
        step = source.sample(record(0, 10.0))
        assert np.allclose(step.message.value, [10.0])
        assert step.message.seq == 0

    def test_mirror_unavailable_before_priming(self):
        source = make_source()
        with pytest.raises(DimensionError):
            source.mirror  # noqa: B018


class TestSuppressionRule:
    def test_suppresses_when_prediction_within_delta(self):
        source = make_source(delta=5.0, model=constant_model(dims=1))
        source.sample(record(0, 10.0))
        step = source.sample(record(1, 12.0))  # |10 - 12| <= 5
        assert step.message is None
        assert step.error <= 5.0

    def test_transmits_when_prediction_escapes(self):
        source = make_source(delta=5.0, model=constant_model(dims=1))
        source.sample(record(0, 10.0))
        step = source.sample(record(1, 20.0))
        assert step.message is not None
        assert step.error > 5.0

    def test_boundary_is_inclusive(self):
        """The rule is strict: transmit only when error *exceeds* delta."""
        source = make_source(delta=5.0, model=constant_model(dims=1))
        source.sample(record(0, 10.0))
        step = source.sample(record(1, 15.0))  # error exactly 5.0
        assert step.message is None

    def test_vector_any_component_triggers(self):
        source = make_source(delta=5.0, model=constant_model(dims=2))
        source.sample(record(0, 0.0, 0.0))
        step = source.sample(record(1, 1.0, 9.0))
        assert step.message is not None

    def test_linear_model_suppresses_ramp(self):
        """On a clean ramp the mirror learns the slope and goes silent."""
        source = make_source(delta=1.0, model=linear_model(dims=1, dt=1.0))
        sent = 0
        for k in range(100):
            step = source.sample(record(k, 5.0 * k))
            sent += step.message is not None
        assert sent < 10

    def test_sequence_numbers_increment(self):
        source = make_source(delta=0.001, model=constant_model(dims=1))
        seqs = []
        for k in range(5):
            step = source.sample(record(k, float(k * 10)))
            if step.message:
                seqs.append(step.message.seq)
        assert seqs == list(range(len(seqs)))

    def test_counters(self):
        source = make_source(delta=1000.0, model=constant_model(dims=1))
        for k in range(10):
            source.sample(record(k, float(k)))
        assert source.samples_seen == 10
        assert source.updates_sent == 1  # priming only


class TestSmoothingIntegration:
    def test_smoothed_value_reported(self):
        source = make_source(
            delta=5.0, model=constant_model(dims=1), smoothing_f=1e-9
        )
        source.sample(record(0, 100.0))
        step = None
        for k in range(1, 10):
            step = source.sample(record(k, 200.0))
        # With F -> 0 the smoother approaches the running mean, so the
        # protocol value lags the raw jump from 100 to 200.
        running_mean = (100.0 + 9 * 200.0) / 10.0
        assert np.isclose(step.value[0], running_mean, rtol=0.05)
        assert step.raw_value[0] == 200.0

    def test_vector_streams_smooth_per_component(self):
        source = make_source(
            delta=5.0, model=constant_model(dims=2), smoothing_f=1e-9
        )
        source.sample(record(0, 100.0, 0.0))
        step = None
        for k in range(1, 10):
            step = source.sample(record(k, 200.0, 0.0))
        # Component 0 lags toward the running mean; component 1 is exact.
        assert step.value[0] < 195.0
        assert step.value[1] == 0.0

    def test_smoothing_suppresses_noise_updates(self):
        rng = np.random.default_rng(0)
        noisy = 100.0 + rng.normal(0, 10, 200)
        smoothed_source = make_source(
            delta=5.0, model=constant_model(dims=1), smoothing_f=1e-9
        )
        raw_source = make_source(delta=5.0, model=constant_model(dims=1))
        smoothed_sent = sum(
            smoothed_source.sample(record(k, v)).message is not None
            for k, v in enumerate(noisy)
        )
        raw_sent = sum(
            raw_source.sample(record(k, v)).message is not None
            for k, v in enumerate(noisy)
        )
        assert smoothed_sent < raw_sent / 2


class TestMirrorDigest:
    def test_digest_attached_when_configured(self):
        source = make_source(
            delta=0.001, model=constant_model(dims=1), check_mirror=True
        )
        source.sample(record(0, 0.0))
        step = source.sample(record(1, 100.0))
        assert step.message.digest is not None

    def test_no_digest_by_default(self):
        source = make_source(delta=0.001, model=constant_model(dims=1))
        source.sample(record(0, 0.0))
        step = source.sample(record(1, 100.0))
        assert step.message.digest is None


class TestResyncAndReset:
    def test_resync_snapshot_matches_mirror(self):
        source = make_source()
        source.sample(record(0, 5.0))
        source.sample(record(1, 50.0))
        msg = source.resync_message(k=1, value=np.array([50.0]))
        assert np.allclose(msg.x, source.mirror.x)
        assert np.allclose(msg.p, source.mirror.p)

    def test_resync_consumes_sequence_number(self):
        source = make_source(model=constant_model(dims=1))
        source.sample(record(0, 0.0))
        msg = source.resync_message(k=0, value=np.array([0.0]))
        assert msg.seq == 1
        step = source.sample(record(1, 100.0))
        assert step.message.seq == 2

    def test_reset(self):
        source = make_source()
        source.sample(record(0, 1.0))
        source.reset()
        assert not source.primed
        assert source.samples_seen == 0
        assert source.sample(record(0, 1.0)).message is not None


class TestReadingOwnership:
    """The source keeps one read-only copy of each reading."""

    @pytest.mark.parametrize("smoothing_f", [None, 0.5])
    def test_mutating_the_record_array_afterwards_changes_nothing(
        self, smoothing_f
    ):
        readings = [10.0, 10.5, 19.0, 19.2, float("nan"), 30.0]
        kept, mutated = (
            make_source(delta=1.0, smoothing_f=smoothing_f) for _ in range(2)
        )
        kept_steps, mutated_steps = [], []
        for k, reading in enumerate(readings):
            kept_steps.append(kept.sample(record(k, reading)))
            buffer = np.array([reading])
            mutated_steps.append(
                mutated.sample(StreamRecord(k=k, timestamp=float(k), value=buffer))
            )
            buffer[:] = -1e6  # the caller reuses its array
        for ours, theirs in zip(kept_steps, mutated_steps):
            assert np.array_equal(ours.raw_value, theirs.raw_value, equal_nan=True)
            assert np.array_equal(ours.value, theirs.value, equal_nan=True)
            assert (ours.message is None) == (theirs.message is None)
            if ours.message is not None:
                assert np.array_equal(ours.message.value, theirs.message.value)
        for source in (kept, mutated):
            source.request_resync()
        (ours,), (theirs,) = kept.poll_transport(9), mutated.poll_transport(9)
        assert np.array_equal(ours.value, theirs.value)
        assert np.array_equal(ours.x, theirs.x)

    def test_an_unsmoothed_reading_is_one_shared_read_only_array(self):
        source = make_source(delta=1.0)
        buffer = np.array([4.0])
        step = source.sample(StreamRecord(k=0, timestamp=0.0, value=buffer))
        assert step.value is step.raw_value is step.message.value
        assert step.value is not buffer and not step.value.flags.writeable
        with pytest.raises(ValueError):
            step.value[0] = 5.0
