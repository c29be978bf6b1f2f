"""The tick fronts: ``scalar-tick`` (StreamEngine) and ``batch-tick``
(BatchStreamEngine) on the paper's Example 1.

Both engines run the same seeded moving-object trajectories under one
``ContinuousQuery(delta=3.0)`` per source.  A run generates its inputs
once and then makes :data:`PASSES` identical passes over them, each a
fresh engine: set-up (build + warm-up ticks, timed) and a measured phase
cut into blocks of :data:`BLOCK_TICKS` ticks, with ``step()`` and
``answers()`` timed separately.  The passes do the same work tick for
tick, so every tick, call and block is timed :data:`PASSES` times some
seconds apart and the fastest reading is kept: interference on a shared
box only ever adds time, and an episode of it rarely returns to the same
tick in every pass.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from repro.datasets import moving_object_dataset
from repro.dkf.protocol import AckMessage
from repro.dsms import ContinuousQuery, StreamEngine
from repro.filters.models import linear_model
from repro.obs import Telemetry
from repro.scale import BatchStreamEngine

from . import estimators
from .spans import LayerTime, Tracer, trace_call, trace_method

WARMUP_TICKS = 100
BLOCK_TICKS = 20
ANSWERS_EVERY = 4
#: Identical passes per run (each with its own timed set-up).  The box
#: runs at two thirds of its speed for seconds on end, often enough
#: that a tick now and then meets that in every one of three passes: on
#: a dump of five, the p90 of the per-tick minimum still fell 4 % from
#: the third pass to the fifth and the median 2.6 %.
PASSES = 5
#: Measured ticks per second of ``--seconds``, over all passes: 1200
#: ticks at the benchmark's 15 s, the source counts below sized so they
#: take about that long on the reference box.  Fixed work, not a
#: stopwatch, so the transmission ledger repeats exactly for a seed.
TICKS_PER_SECOND = 80
DELTA = 3.0
SAMPLING_DT = 0.1
_SEED_STRIDE = 1_000_003
_ORACLE_SLACK = 1e-9


@dataclass(frozen=True)
class TickWorkload:
    """One tick-front workload at scale 1.

    ``trajectories`` caps the distinct streams: source ``i`` replays
    trajectory ``i % trajectories``.  Building 1300 ``StreamRecord``s
    costs the harness 5.6 ms per trajectory -- more than the batch
    engine spends on the row -- so the wide workload shares them.
    """

    batch: bool
    sources: int
    trajectories: int


WORKLOADS = {
    "scalar-tick": TickWorkload(batch=False, sources=240, trajectories=240),
    "batch-tick": TickWorkload(batch=True, sources=2000, trajectories=500),
}


def _generate(workload: TickWorkload, seed: int, ticks: int, scale: float):
    sources = max(2, round(workload.sources * scale))
    distinct = min(sources, workload.trajectories)
    streams = [
        moving_object_dataset(n=ticks, seed=seed * _SEED_STRIDE + i)
        for i in range(distinct)
    ]
    truth = np.stack([stream.values() for stream in streams])
    return sources, streams, truth


def _set_up(workload: TickWorkload, sources: int, streams, telemetry=None):
    """Build the engine, register every source and query, warm up."""
    engine_type = BatchStreamEngine if workload.batch else StreamEngine
    engine = engine_type(telemetry=telemetry)
    model = linear_model(dims=2, dt=SAMPLING_DT)
    for i in range(sources):
        source_id = f"s{i}"
        engine.add_source(source_id, model, streams[i % len(streams)])
        engine.submit_query(ContinuousQuery(source_id, DELTA))
    for _ in range(WARMUP_TICKS):
        engine.step()
    return engine


def _violations(answers, truth_now: np.ndarray, distinct: int) -> int:
    """Answers outside their own precision of the source's reading.

    The paper's contract: a non-degraded answer is within ``precision``
    (max-norm over components) of what the source just read.
    """
    held = [a for a in answers if not (a.degraded or a.quarantined)]
    if not held:
        return 0
    rows = np.array([int(a.source_id[1:]) % distinct for a in held])
    values = np.array([a.value for a in held])
    bound = np.array([a.precision for a in held]) + _ORACLE_SLACK
    error = np.abs(values - truth_now[rows]).max(axis=1)
    return int((error > bound).sum())


def _ledger(engine) -> np.ndarray:
    report = engine.report()
    return np.array(
        [
            report.readings,
            report.updates_sent,
            report.retransmits,
            report.heartbeats,
            report.acks_delivered,
            report.bytes_delivered,
        ],
        dtype=np.int64,
    )


def _trace_shards(tracer: Tracer, engine) -> None:
    for shard in engine.shards:
        trace_method(tracer, "shard.step", shard, "step")
        trace_method(tracer, "shard.flush_acks", shard, "flush_acks")
        for bank in (shard.mirror, shard.server):
            trace_method(tracer, "bank.predict", bank, "predict")
            trace_method(tracer, "bank.update", bank, "update")


def _measure(engine, truth, sources: int, ticks: int, tracer: Tracer | None):
    """The measured phase of one pass; returns its raw samples."""
    step, answers = engine.step, engine.answers
    if tracer is not None:
        step = trace_call(tracer, "call.step", step)
        answers = trace_call(tracer, "call.answers", answers)
    distinct = truth.shape[0]
    step_s: list[float] = []
    answers_s: list[float] = []
    blocks: list[tuple[float, float, float, float]] = []
    answers_read = failed = 0
    gc.collect()
    gc.freeze()
    ledger = _ledger(engine)
    clock, cpu_clock = time.perf_counter, time.process_time
    for _ in range(ticks // BLOCK_TICKS):
        reads = []
        in_step = 0.0
        cpu0 = cpu_clock()
        wall0 = clock()
        for tick in range(1, BLOCK_TICKS + 1):
            t0 = clock()
            step()
            t1 = clock()
            step_s.append(t1 - t0)
            in_step += t1 - t0
            if tick % ANSWERS_EVERY == 0:
                t0 = clock()
                got = answers()
                answers_s.append(clock() - t0)
                reads.append((engine.ticks - 1, got))
        wall1 = clock()
        blocks.append((wall0, wall1, in_step, cpu_clock() - cpu0))
        # The oracle runs between blocks, outside every timed region.
        for k, got in reads:
            answers_read += len(got)
            failed += sources - len(got)
            failed += _violations(got, truth[:, k], distinct)
    ledger = _ledger(engine) - ledger
    rss = estimators.rss_bytes()
    gc.unfreeze()
    if ledger[0] != sources * ticks:
        raise RuntimeError(
            f"{ledger[0]} readings in {ticks} ticks of {sources} sources"
        )
    return {
        "step_s": np.array(step_s),
        "answers_s": np.array(answers_s),
        "blocks": np.array(blocks),
        "answers_read": answers_read,
        "failed": failed,
        "ledger": ledger,
        "rss": rss,
        "shard_rows": [shard.rows for shard in getattr(engine, "shards", ())],
    }


def _fastest(passes, key: str) -> np.ndarray:
    """Element-wise minimum of one sample series over the passes."""
    return np.min([raw[key] for raw in passes], axis=0)


def _end_to_end(passes, sources: int, setups, rss_base: int) -> dict:
    readings, updates, retransmits, _, acks, data_bytes = passes[0]["ledger"]
    block_readings = sources * BLOCK_TICKS
    blocks = _fastest(passes, "blocks")
    step_ms = _fastest(passes, "step_s") * 1e3
    answers_ms = _fastest(passes, "answers_s") * 1e3
    ack_bytes = AckMessage("", 0, 0).size_bytes
    return {
        "setup_s": min(setups),
        "readings_per_s": block_readings / estimators.median(blocks[:, 2]),
        "cpu_s_per_mreading": (
            estimators.median(blocks[:, 3]) / block_readings * 1e6
        ),
        # Memory is read once, after the first pass: later passes run in
        # a heap the first one already grew.
        "rss_bytes_per_source": (passes[0]["rss"] - rss_base) / sources,
        "update_ratio": (updates + retransmits) / readings,
        "bytes_per_reading": (data_bytes + acks * ack_bytes) / readings,
        "update_visible_ms_p50": estimators.percentile(step_ms, 50),
        "update_visible_ms_p90": estimators.percentile(step_ms, 90),
        "query_ms_p50": estimators.percentile(answers_ms, 50),
    }


def _counts(passes) -> dict:
    _, updates, retransmits, heartbeats, acks, _ = passes[0]["ledger"]
    layers = {
        "dkf.source.updates_sent": updates,
        "dkf.source.retransmits": retransmits,
        "dkf.source.heartbeats": heartbeats,
        "dkf.server.acks_delivered": acks,
        "tail.query_ms_p90": estimators.percentile(
            _fastest(passes, "answers_s") * 1e3, 90
        ),
        # Tails are what the slow moments make: every reading of every
        # pass, not the fastest per call.
        "tail.update_visible_ms_p99": estimators.percentile(
            np.concatenate([raw["step_s"] for raw in passes]) * 1e3, 99
        ),
        "tail.query_ms_p99": estimators.percentile(
            np.concatenate([raw["answers_s"] for raw in passes]) * 1e3, 99
        ),
    }
    shard_rows = passes[0]["shard_rows"]
    if shard_rows:
        layers["scale.shard.count"] = len(shard_rows)
        layers["scale.vector_bank.rows"] = sum(shard_rows)
    return layers


def _spans(raw, tracer: Tracer, workload: TickWorkload) -> dict:
    times, covered = tracer.layers(raw["blocks"][:, :2])
    busy = float(raw["blocks"][:, 3].sum())

    def layer(name: str) -> LayerTime:
        return times.get(name, LayerTime())

    front = "scale" if workload.batch else "dsms"
    answers = layer("call.answers")
    out = {
        "filters.kalman.predict_s": layer("kalman.predict").total_s,
        "filters.kalman.predict_calls": layer("kalman.predict").calls,
        "filters.kalman.update_s": layer("kalman.update").total_s,
        "filters.kalman.update_calls": layer("kalman.update").calls,
        f"{front}.engine.step_self_s": layer("engine.step").self_s,
        f"{front}.engine.answers_s": answers.total_s,
        f"{front}.engine.answers_us_per_answer": (
            answers.total_s / raw["answers_read"] * 1e6
        ),
        "trace.unattributed_pct": (busy - covered) / busy * 100.0,
    }
    if workload.batch:
        out["scale.shard.step_s"] = layer("shard.step").total_s
        out["scale.shard.flush_acks_s"] = layer("shard.flush_acks").total_s
        out["scale.vector_bank.predict_s"] = layer("bank.predict").total_s
        out["scale.vector_bank.update_s"] = layer("bank.update").total_s
    else:
        out["dsms.network.deliver_s"] = layer("fabric.deliver").total_s
        out["dsms.network.deliver_calls"] = layer("fabric.deliver").calls
    return out


def run(name: str, seed: int, seconds: float, scale: float, trace: bool):
    """One run of a tick workload; see ``cli.run_workload`` for the shape."""
    workload = WORKLOADS[name]
    blocks = max(1, round(seconds * TICKS_PER_SECOND / (PASSES * BLOCK_TICKS)))
    ticks = blocks * BLOCK_TICKS
    started = time.perf_counter()
    sources, streams, truth = _generate(
        workload, seed, WARMUP_TICKS + ticks, scale
    )
    generate_s = time.perf_counter() - started

    # The first calibration also builds the kernel's working set, which
    # must not be billed to the engine's memory.
    calib_before = estimators.calibrate()
    rss_base = estimators.rss_bytes()
    setups, passes = [], []
    # The traced run needs one timed pass to compare with, not all of them.
    for _ in range(1 if trace else PASSES):
        gc.collect()
        started = time.perf_counter()
        engine = _set_up(workload, sources, streams)
        setups.append(time.perf_counter() - started)
        passes.append(_measure(engine, truth, sources, ticks, None))
        del engine
    calib_after = estimators.calibrate()
    layers = _counts(passes)
    if any(not np.array_equal(p["ledger"], passes[0]["ledger"]) for p in passes):
        raise RuntimeError(f"{name}: passes over one seed disagree on the ledger")

    if trace:
        tracer = Tracer()
        telemetry = Telemetry()
        telemetry.timers = tracer
        engine = _set_up(workload, sources, streams, telemetry)
        if workload.batch:
            _trace_shards(tracer, engine)
        traced = _measure(engine, truth, sources, ticks, tracer)
        if not np.array_equal(traced["ledger"], passes[0]["ledger"]):
            raise RuntimeError(f"{name}: tracing changed the ledger")
        layers.update(_spans(traced, tracer, workload))
        timed, spanned = (
            float((raw["blocks"][:, 1] - raw["blocks"][:, 0]).sum())
            for raw in (passes[0], traced)
        )
        layers["trace.overhead_pct"] = (spanned / timed - 1.0) * 100.0

    layers.update(
        {
            "datasets.generate_s": generate_s,
            "machine.calib_ms_before": calib_before,
            "machine.calib_ms_after": calib_after,
        }
    )
    failed = sum(raw["failed"] for raw in passes)
    attempted = sum(raw["answers_read"] for raw in passes)
    return {
        "operations": {"answers_read": attempted, "outside_precision": failed},
        "end_to_end": _end_to_end(passes, sources, setups, rss_base),
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "digest": estimators.digest(truth),
        "disturbed": estimators.disturbed(calib_before, calib_after),
        "sources": sources,
    }
