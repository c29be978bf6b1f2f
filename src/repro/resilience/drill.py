"""The crash drill: a seeded kill-and-recover run with a recovery bound.

``repro chaos`` (``--batch``: on the vectorized batch engine) runs three
priority streams through burst loss, a NaN burst, a spike train and a
source crash, kills the server mid-checkpoint-interval and recovers it
from the checkpoint plus the WAL tail.  ``report.json`` and
``slo-report.json`` are byte-identical across same-seed runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.dkf.config import TransportPolicy
from repro.drill import Drill
from repro.dsms.engine import StreamEngine
from repro.dsms.faults import FaultSchedule
from repro.dsms.query import ContinuousQuery
from repro.errors import ConfigurationError
from repro.filters.models import linear_model
from repro.obs import Telemetry
from repro.resilience import (
    OverloadPolicy,
    ResilienceConfig,
    RestartPolicy,
    WatchdogPolicy,
)
from repro.streams.base import stream_from_values

__all__ = ["crash_drill", "crash_gates"]


def crash_gates(report: dict) -> dict[str, bool]:
    """The crash drill's gates, read off its ``report.json`` payload:
    every stream back within δ inside the bound, and a recovery that
    restored checkpointed sources and replayed a WAL tail."""
    within = report["recovered_within_ticks"]
    recovery = report["recovery"]
    return {
        "recovered_in_bound": (
            within is not None and within <= report["max_recovery_ticks"]
        ),
        "sources_restored": recovery["restored_sources"] >= 1,
        "wal_replayed": recovery["wal_replayed"] >= 1,
    }


def crash_drill(
    out: str | Path,
    *,
    seed: int = 7,
    ticks: int = 400,
    crash_at: int = 225,
    recover_after: int = 10,
    checkpoint_every: int = 50,
    max_recovery_ticks: int = 50,
    batch: bool = False,
) -> Drill:
    """Run the crash drill; the checkpoint and WAL land under ``out``.

    Args:
        out: Artifact directory.
        seed: Drives the truth signals and the fault schedule.
        ticks: Total run length.
        crash_at: Tick the server dies.
        recover_after: Downtime ticks before ``recover()`` runs.
        checkpoint_every: Checkpoint cadence in ticks.
        max_recovery_ticks: The recovery bound.
        batch: Run on the batch engine.  Its synchronous transport has
            no server inbox to shed from, so it runs without the
            overload policy.
    """
    recover_at = crash_at + recover_after
    if not 0 < crash_at < ticks or recover_at >= ticks:
        raise ConfigurationError(
            "need 0 < crash-at and crash-at + recover-after < ticks"
        )
    out = Path(out)

    rng = np.random.default_rng(seed)
    truth = {
        "hi": np.cumsum(rng.normal(0.4, 1.0, size=ticks)),
        "mid": np.cumsum(rng.normal(-0.2, 1.2, size=ticks)),
        "lo": np.cumsum(rng.normal(0.0, 0.8, size=ticks)),
    }
    deltas = {"hi": 1.0, "mid": 1.5, "lo": 2.0}
    priorities = {"hi": 2, "mid": 1, "lo": 0}

    telemetry = Telemetry()
    telemetry.health.install_defaults()
    telemetry.slo.install_defaults()
    resilience = ResilienceConfig(
        checkpoint_dir=str(out / "checkpoint"),
        checkpoint_every=checkpoint_every,
        watchdog=WatchdogPolicy(),
        restart=RestartPolicy(),
        overload=None if batch else OverloadPolicy(
            inbox_capacity=32, drain_per_tick=4, cooldown_ticks=8
        ),
    )
    if batch:
        from repro.scale.engine import BatchStreamEngine

        engine = BatchStreamEngine(telemetry=telemetry, resilience=resilience)
    else:
        engine = StreamEngine(telemetry=telemetry, resilience=resilience)
    for source_id in ("hi", "mid", "lo"):
        engine.add_source(
            source_id,
            linear_model(dims=1, dt=1.0),
            stream_from_values(truth[source_id], name=source_id),
            transport=TransportPolicy(ack_timeout_ticks=4),
            priority=priorities[source_id],
        )
        engine.submit_query(
            ContinuousQuery(
                source_id,
                delta=deltas[source_id],
                query_id=f"q-{source_id}",
            )
        )
    engine.inject_faults(
        FaultSchedule(seed=seed)
        .burst_loss("hi", p_enter=0.05, p_exit=0.3)
        .sensor("mid", "nan", start=80, duration=12)
        .sensor("lo", "spike", start=120, duration=6, magnitude=40.0)
        .crash("lo", at=150, restart_at=160)
    )

    lines: list[str] = []
    recovery = None
    recovered_within = None
    for _ in range(ticks):
        tick = engine.ticks
        if tick == crash_at:
            engine.crash_server()
            lines.append(f"[tick {tick}] server crashed")
        if tick == recover_at:
            recovery = engine.recover()
            lines.append(
                f"[tick {tick}] server recovered: "
                f"{recovery['restored_sources']} sources restored, "
                f"{recovery['wal_replayed']} WAL records replayed, "
                f"{recovery['resync_requests']} resyncs requested"
            )
        engine.step()
        if recovery is not None and recovered_within is None:
            answers = {a.source_id: a for a in engine.answers()}
            if len(answers) == len(truth) and all(
                abs(a.value[0] - truth[sid][engine.ticks - 1])
                <= a.precision + 1e-9
                for sid, a in answers.items()
            ):
                recovered_within = engine.ticks - recover_at
    engine.settle()

    counters: dict[str, int] = {}
    for c in telemetry.metrics.counters():
        counters[c.name] = counters.get(c.name, 0) + c.value
    accounts = engine.resilience_report()
    report = {
        "seed": seed,
        "ticks": engine.ticks,
        "crash_at": crash_at,
        "recover_at": recover_at,
        "recovery": recovery,
        "recovered_within_ticks": recovered_within,
        "max_recovery_ticks": max_recovery_ticks,
        "watchdog_trips": counters.get("watchdog_trips_total", 0),
        "checkpoint_writes": counters.get("checkpoint_writes_total", 0),
        "wal_records": counters.get("wal_records_total", 0),
        "resilience": accounts,
        "traffic": engine.report().to_dict(),
    }

    lines += [
        "",
        "=== chaos recovery report ===",
        f"checkpoints written : {report['checkpoint_writes']}",
        f"WAL records logged  : {report['wal_records']}",
        f"watchdog trips      : {report['watchdog_trips']}",
        f"WAL records replayed: {recovery['wal_replayed']}",
        f"resyncs requested   : {recovery['resync_requests']}",
        f"dropped while down  : {recovery['dropped_while_down']}",
    ]
    for source_id, account in sorted(accounts.get("overload", {}).items()):
        if account["widened_ticks"]:
            lines.append(
                f"shed on {source_id:<12}: {account['widened_ticks']} ticks "
                f"widened, {account['shed_error']:.2f} bounded extra error"
            )
    within = "never" if recovered_within is None else (
        f"{recovered_within} ticks"
    )
    lines += [
        f"artifacts           : {out}/",
        f"recovered within    : {within} (bound {max_recovery_ticks})",
    ]
    # Taking the snapshot evaluates the SLO rules once more, so it comes
    # before the SLO report that must match it.
    snapshot = engine.obs_snapshot({"name": "chaos", "seed": seed})
    return Drill(
        report=report,
        gates=crash_gates(report),
        lines=lines,
        artifacts={
            out / "report.json": report,
            out / "slo-report.json": {
                "slo": telemetry.slo.report(),
                "health": telemetry.health.report(),
                "faults": {"crash_at": crash_at, "recover_at": recover_at},
            },
        },
        snapshots={out / "snapshot.json": snapshot},
    )
