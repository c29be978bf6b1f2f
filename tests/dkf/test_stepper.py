"""The sans-IO stepper is the engine's per-source tick.

:class:`~repro.dkf.stepper.SourceStepper` exists so the wall-clock wire
runtime runs the protocol logic the tick fronts run.  The parity test
drives two identical :class:`DKFSource` endpoints through the same
readings -- one via the stepper, one via the
:class:`~repro.dkf.stepper.SourceDriver` the engine and the cluster step
their sources with -- and requires identical messages and identical
transport counters at every instant.  The remaining cases pin the
stepper's own contract: decoupled clocks, reading functions, and ack
feedback.
"""

import numpy as np
import pytest

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.server import DKFServer
from repro.dkf.source import DKFSource
from repro.dkf.stepper import SourceDriver, SourceStepper
from repro.dsms.query import ContinuousQuery
from repro.dsms.registry import SourceRegistry
from repro.filters.models import constant_model
from repro.streams.base import stream_from_values

SOURCE = "s0"


def _config(delta=0.8):
    return DKFConfig(model=constant_model(dims=1), delta=delta)


def _values(n=60, seed=3):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0, 0.4, n)) + 10.0


def test_stepper_matches_inlined_engine_sequence():
    transport = TransportPolicy(
        ack_timeout_ticks=4, heartbeat_interval_ticks=5
    )
    values = _values()
    expected: list = []
    driver = SourceDriver(
        SourceRegistry(),
        install=lambda source_id, config, transport: None,
        teardown=lambda source_id: None,
    )
    driver.add_source(
        SOURCE,
        constant_model(dims=1),
        stream_from_values(values),
        transport=transport,
    )
    driver.submit_query(ContinuousQuery(SOURCE, delta=0.8))
    inlined = driver.sources[SOURCE]
    stepped = SourceStepper(DKFSource(SOURCE, inlined.config, transport))

    for k, value in enumerate(values):
        via_stepper = stepped.step(k, np.array([value]))

        # The engine's per-source tick: the driver, with a wire that
        # only collects.
        expected.clear()
        assert driver.step(
            k, tick=lambda source_id, k: None, send=expected.append
        ) == 1

        assert len(via_stepper) == len(expected), f"instant {k}"
        for ours, theirs in zip(via_stepper, expected):
            assert type(ours) is type(theirs)
            assert ours.seq == theirs.seq
            assert ours.k == theirs.k

    assert stepped.source.updates_sent == inlined.updates_sent
    assert stepped.source.retransmits == inlined.retransmits
    assert stepped.source.heartbeats_sent == inlined.heartbeats_sent
    assert stepped.source.pending_acks == inlined.pending_acks
    # δ-suppression actually happened (the parity is not vacuous).
    assert stepped.source.updates_sent < len(values)


def test_stepper_round_trip_primes_server_and_settles():
    # Perfect wire: every message delivered, every ack fed back.
    stepper = SourceStepper(DKFSource(SOURCE, _config()))
    server = DKFServer(emit_acks=True)
    server.register(SOURCE, _config())
    values = _values(40)

    for k, value in enumerate(values):
        for message in stepper.step(k, np.array([value])):
            server.receive(message)
        server.advance_clock(k + 1)
        for ack in server.take_outbox():
            stepper.on_ack(ack, k)

    assert server.is_primed(SOURCE)
    assert stepper.source.pending_acks == 0
    # δ-tolerance: the server's answer tracks the source within δ.
    assert abs(server.value(SOURCE)[0] - values[-1]) <= 0.8 + 1e-9


def test_step_wall_clock_decoupled_from_sampling_index():
    # The wire runtime passes now != k: retransmission deadlines must
    # ride `now`, not the reading index.
    transport = TransportPolicy(ack_timeout_ticks=3)
    stepper = SourceStepper(DKFSource(SOURCE, _config(), transport))
    sent = stepper.step(0, np.array([5.0]), now=100)
    assert len(sent) == 1
    assert stepper.source.pending_acks == 1
    # Not due at now=102 (deadline is 100 + 3)...
    assert stepper.poll(102) == []
    # ...due at 103, as a resync snapshot.
    overdue = stepper.poll(103)
    assert len(overdue) == 1
    assert stepper.source.retransmits == 1


def test_reading_fn_supplies_values():
    stepper = SourceStepper(
        DKFSource(SOURCE, _config()),
        reading_fn=lambda k: np.array([float(k)]),
    )
    [message] = stepper.step(0)
    assert message.value[0] == 0.0


def test_step_without_value_or_reading_fn_raises():
    stepper = SourceStepper(DKFSource(SOURCE, _config()))
    with pytest.raises(ValueError):
        stepper.step(0)


def test_poll_cuts_heartbeats_when_idle():
    transport = TransportPolicy(
        ack_timeout_ticks=50, heartbeat_interval_ticks=4
    )
    stepper = SourceStepper(DKFSource(SOURCE, _config(), transport))
    server = DKFServer(emit_acks=True)
    server.register(SOURCE, _config())
    for message in stepper.step(0, np.array([1.0])):
        server.receive(message)
    for ack in server.take_outbox():
        stepper.on_ack(ack, 0)
    # Silence: suppressed readings, heartbeat cadence takes over.
    beats = 0
    for now in range(1, 13):
        for message in stepper.poll(now):
            beats += 1
    assert beats == stepper.source.heartbeats_sent
    assert beats >= 2
