"""The soak harness: sustained real-socket load with honest gates.

``repro wire --soak`` drives a :class:`~repro.wire.runtime.AsyncRuntime`
at configurable scale (CI runs 5k sources; the acceptance target is
100k on one box) and cuts a summary artifact split along the
determinism boundary:

* ``workload`` -- everything derivable from ``(config, seed)`` alone:
  the config's workload fields plus the fleet's pre-socket workload
  digest.  Byte-identical across same-seed runs, the ``repro chaos``
  contract.
* ``wire`` -- the traffic books from both endpoints, the receiver-side
  conservation law, and the kernel-drop residuals (``sent - received``
  per direction; the only loss the ledgers cannot see directly).
* ``measured`` -- wall-clock observations: query latency percentiles,
  tick overruns, achieved qps.  Real timings, never expected to repeat.
* ``gates`` -- pass/fail: the p99 query-latency gate, the conservation
  law, and a priming-coverage floor.

The same run exports ``BENCH_wire.json`` (a ``repro.obs`` snapshot with
``wire_query_p99_ms``/``wire_query_p50_ms`` gauges) for ``repro
benchdiff`` regression gating in CI.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs import Telemetry, build_snapshot, write_snapshot
from repro.wire.config import WireConfig
from repro.wire.fleet import LiteFleet, StepperFleet
from repro.wire.runtime import AsyncRuntime

__all__ = ["run_soak", "SOAK_SCHEMA"]

#: Schema tag carried by every soak summary artifact.
SOAK_SCHEMA = "repro.wire-soak/v1"

#: Fraction of the fleet that must be primed when the books close.
_PRIMED_FLOOR = 0.99


def _build_fleet(config: WireConfig, kind: str):
    if kind == "lite":
        return LiteFleet(config)
    if kind == "stepper":
        return StepperFleet(config)
    raise ConfigurationError(f"unknown fleet kind {kind!r}")


def _conservation(
    runtime: AsyncRuntime, extra_data_sent: int = 0
) -> dict[str, object]:
    """Both endpoints' books plus the cross-endpoint residuals.

    ``extra_data_sent`` counts datagrams offered to the server by
    senders *other than the fleet* -- the chaos run's fuzz barrage --
    without which the data-direction residual would go negative (the
    server legitimately receives more than the fleet sent).
    """
    server = runtime.server.counters
    fleet = runtime.fleet.counters
    inbox_left = runtime.server.inbox_depth
    server_accounted = (
        server.frames_decoded
        + server.frames_corrupt
        + server.frames_unknown
        + server.frames_oversize
        + server.inbox_dropped
        + inbox_left
    )
    # Kernel drops are invisible to both ledgers; they surface only as
    # the non-negative residual sent - received per direction.
    data_residual = (
        fleet.datagrams_sent + extra_data_sent
        - server.datagrams_received
    )
    ack_residual = server.datagrams_sent - fleet.datagrams_received
    fleet_accounted = (
        fleet.frames_decoded
        + fleet.frames_corrupt
        + fleet.frames_unknown
        + fleet.frames_oversize
    )
    holds = (
        server_accounted == server.datagrams_received
        and fleet_accounted <= fleet.datagrams_received
        and data_residual >= 0
        and ack_residual >= 0
    )
    return {
        "holds": holds,
        "server_inbox_left": inbox_left,
        "server_accounted": server_accounted,
        "fleet_acks_queued": (
            fleet.datagrams_received - fleet_accounted
        ),
        "kernel_dropped_data": data_residual,
        "kernel_dropped_acks": ack_residual,
    }


def summarise(config: WireConfig, runtime: AsyncRuntime) -> dict:
    """Assemble the soak summary from a completed runtime."""
    report = runtime.report()
    conservation = _conservation(runtime)
    workload: dict[str, object] = dict(config.workload_fields())
    digest = getattr(runtime.fleet, "workload_digest", None)
    if digest is not None:
        workload["digest"] = digest()
    p99 = report["query_p99_ms"]
    primed_floor = math.ceil(_PRIMED_FLOOR * config.sources)
    gates = {
        "query_p99_gate_ms": config.query_p99_gate_ms,
        "query_p99_ok": (
            p99 is not None and p99 <= config.query_p99_gate_ms
        ),
        "conservation_ok": bool(conservation["holds"]),
        "primed_floor": primed_floor,
        "primed_ok": runtime.primed >= primed_floor,
    }
    gates["ok"] = (
        gates["query_p99_ok"]
        and gates["conservation_ok"]
        and gates["primed_ok"]
    )
    return {
        "schema": SOAK_SCHEMA,
        "workload": workload,
        "wire": {
            "server": runtime.server.counters.as_dict(),
            "fleet": runtime.fleet.counters.as_dict(),
            "conservation": conservation,
        },
        "fleet": runtime.fleet.summary(),
        "measured": {
            "ticks": report["ticks"],
            "wall_seconds": report["wall_seconds"],
            "overruns": report["overruns"],
            "primed": runtime.primed,
            "suspects": runtime.suspects,
            "queries": report["queries"],
            "query_failures": report["query_failures"],
            "query_qps": report["query_qps"],
            "query_p50_ms": report["query_p50_ms"],
            "query_p99_ms": report["query_p99_ms"],
            "query_max_ms": report["query_max_ms"],
            "apply": report["server"]["apply"],
        },
        "gates": gates,
    }


def _export_bench(
    telemetry: Telemetry,
    summary: dict,
    config: WireConfig,
    path: Path,
) -> None:
    measured = summary["measured"]
    registry = telemetry.metrics
    for gauge, key in (
        ("wire_query_p99_ms", "query_p99_ms"),
        ("wire_query_p50_ms", "query_p50_ms"),
    ):
        value = measured[key]
        if value is not None:
            registry.gauge(gauge).set(float(value))
    registry.gauge("wire_tick_overruns").set(
        float(measured["overruns"])
    )
    snapshot = build_snapshot(
        telemetry,
        meta={
            "bench": "wire",
            "seed": config.seed,
            "sources": config.sources,
            "ticks": config.ticks,
            "tick_seconds": config.tick_seconds,
            "query_rate": config.query_rate,
        },
    )
    # The ms-clock history is bulk without being gated; benchdiff judges
    # gauges, and the counters already prove the pipe end-to-end.
    snapshot["history"] = {
        **snapshot["history"], "samples": 0, "series": [],
    }
    write_snapshot(path, snapshot)


def run_soak(
    config: WireConfig,
    fleet_kind: str = "lite",
    out: str | Path | None = None,
    bench_out: str | Path | None = None,
) -> dict:
    """Run one soak and return its summary (gates included).

    Args:
        config: The wire runtime configuration.
        fleet_kind: ``lite`` (vectorised, soak scale) or ``stepper``
            (real DKF endpoints, demo scale).
        out: Optional path for the summary JSON artifact.
        bench_out: Optional path for the ``BENCH_wire.json`` snapshot.
    """
    telemetry = Telemetry(time_unit="ms")
    # A δ-suppressed source's worst-case contact cadence is its
    # heartbeat interval, so a fixed staleness objective would fire on
    # perfectly healthy runs whenever heartbeats are sparse.  Objective:
    # 1.5 heartbeat intervals, floored at the default 2.5 s.
    heartbeat_ms = config.heartbeat_interval_ticks * config.tick_ms
    telemetry.slo.install_wire_defaults(
        staleness_objective_ms=max(2500.0, 1.5 * heartbeat_ms),
        query_p99_objective_ms=config.query_p99_gate_ms,
    )
    runtime = AsyncRuntime(
        config,
        fleet=_build_fleet(config, fleet_kind),
        telemetry=telemetry,
    )
    runtime.run()
    summary = summarise(config, runtime)
    if out is not None:
        Path(out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if bench_out is not None:
        _export_bench(telemetry, summary, config, Path(bench_out))
    return summary
