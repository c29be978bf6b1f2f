"""Command-line interface: ``python -m repro <command>``.

Exposes the experiment harness and a configurable one-shot comparison so
the paper's results can be regenerated, and new streams scored, without
writing code::

    python -m repro example1             # Figures 3-5
    python -m repro example2             # Figures 6-8
    python -m repro example3             # Figures 9-12
    python -m repro table1               # Table 1 proxy matrix
    python -m repro compare --dataset moving-object --delta 3
    python -m repro compare --csv trace.csv --model linear --delta 1.5
    python -m repro obs --record snap.json --events run.jsonl
    python -m repro obs snap.json          # replay as ASCII dashboard
    python -m repro obs snap.json --check  # schema validation only
    python -m repro obs --record snap.json --watch --every 60
    python -m repro obs --events run.jsonl --trace s0/41   # causal tree
    python -m repro slo snap.json          # SLO alert + health report
    python -m repro slo --demo --strict
    python -m repro chaos                  # seeded kill-and-recover drill
    python -m repro chaos --out chaos-out --max-recovery-ticks 50
    python -m repro chaos --batch          # same drill on the batch engine
    python -m repro chaos --federation     # peer kill + partition drill
    python -m repro chaos --surge          # load x3 mid-run, autoscaler gated
    python -m repro scale                  # scalar vs batch engine race
    python -m repro scale --sources 64 1024 --min-speedup 5
    python -m repro wire --demo            # real sockets, real DKF endpoints
    python -m repro wire --soak --sources 5000 --out soak.json
    python -m repro benchdiff BENCH_engine_scale.json fresh.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.baselines.caching import CachedValueScheme
from repro.datasets import (
    http_traffic_dataset,
    moving_object_dataset,
    power_load_dataset,
)
from repro.dkf.config import DKFConfig
from repro.dkf.session import DKFSession
from repro.errors import ConfigurationError
from repro.experiments import example1, example2, example3, table1
from repro.filters.models import constant_model, linear_model, sinusoidal_model
from repro.metrics.compare import format_results
from repro.metrics.evaluation import evaluate_scheme
from repro.streams.base import MaterializedStream
from repro.streams.replay import load_stream_csv

__all__ = ["main", "build_parser"]

_DATASETS = {
    "moving-object": moving_object_dataset,
    "power-load": power_load_dataset,
    "http-traffic": http_traffic_dataset,
}

_EXPERIMENTS = {
    "example1": example1.main,
    "example2": example2.main,
    "example3": example3.main,
    "table1": table1.main,
}


class _DrillFlag(argparse.Action):
    """A flag only one drill mode reads; records that it was given, so
    :func:`main` can refuse it under another mode."""

    def __init__(self, *args, drill: str, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.drill = drill

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.drill_flags = getattr(namespace, "drill_flags", ()) + (
            (self.option_strings[0], self.drill),
        )


def _drill_mode(args: argparse.Namespace) -> str:
    if args.command == "chaos":
        return "surge" if args.surge else (
            "federation" if args.federation else "crash"
        )
    return "chaos" if args.chaos else "demo" if args.demo else "soak"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dual Kalman Filter stream resource management "
        "(SIGMOD 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _EXPERIMENTS:
        sub.add_parser(name, help=f"regenerate the {name} figure series")

    compare = sub.add_parser(
        "compare", help="score DKF variants and caching on one stream"
    )
    source = compare.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", choices=sorted(_DATASETS), help="built-in dataset"
    )
    source.add_argument("--csv", help="CSV trace saved by save_stream_csv")
    compare.add_argument(
        "--delta", type=float, default=3.0, help="precision width (default 3)"
    )
    compare.add_argument(
        "--model",
        choices=["constant", "linear", "sinusoidal", "all"],
        default="all",
        help="which DKF model to run (default: all applicable)",
    )
    compare.add_argument(
        "--smoothing-f",
        type=float,
        default=None,
        help="optional smoothing factor F for KF_c",
    )
    compare.add_argument(
        "--limit", type=int, default=None, help="truncate the stream"
    )
    compare.add_argument(
        "--omega",
        type=float,
        default=example2.OMEGA,
        help="sinusoidal model angular frequency",
    )

    obs = sub.add_parser(
        "obs", help="record or replay a telemetry snapshot dashboard"
    )
    obs.add_argument(
        "snapshot",
        nargs="?",
        help="snapshot JSON to replay (omit with --record)",
    )
    obs.add_argument(
        "--record",
        metavar="PATH",
        help="run a seeded burst-loss demo with telemetry and write the "
        "snapshot here",
    )
    obs.add_argument(
        "--events",
        metavar="PATH",
        help="with --record: also write the JSONL event log here; with "
        "--trace: the JSONL event log to reconstruct the trace from",
    )
    obs.add_argument(
        "--check",
        action="store_true",
        help="validate the snapshot against the schema and exit",
    )
    obs.add_argument(
        "--ticks", type=int, default=300, help="demo run length (--record)"
    )
    obs.add_argument(
        "--watch",
        action="store_true",
        help="with --record: render live dashboard frames as the demo runs",
    )
    obs.add_argument(
        "--every",
        type=int,
        default=60,
        help="with --watch: ticks between dashboard frames (default 60)",
    )
    obs.add_argument(
        "--trace",
        metavar="ID",
        help="render one trace's causal tree from an --events JSONL log "
        "('all' lists the trace IDs present)",
    )

    slo = sub.add_parser(
        "slo",
        help="SLO alert and health-watcher report from a v2 snapshot",
    )
    slo.add_argument(
        "snapshot",
        nargs="?",
        help="snapshot JSON to report on (omit with --demo)",
    )
    slo.add_argument(
        "--demo",
        action="store_true",
        help="run the seeded burst-loss demo with the default SLO rules "
        "and health watchers installed, then report on it",
    )
    slo.add_argument(
        "--ticks", type=int, default=300, help="demo run length (--demo)"
    )
    slo.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any alert fired (or is still firing)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded crash drill: burst loss, sensor faults, a server "
        "kill, checkpoint/WAL recovery, and a recovery report",
    )
    chaos.add_argument(
        "--ticks", type=int, default=400, help="total run length"
    )
    chaos.add_argument("--seed", type=int, default=7, help="scenario seed")
    chaos.add_argument(
        "--crash-at",
        action=_DrillFlag,
        drill="crash",
        type=int,
        default=225,
        help="tick the server dies (default mid-checkpoint-interval so "
        "recovery must replay a WAL tail)",
    )
    chaos.add_argument(
        "--recover-after",
        action=_DrillFlag,
        drill="crash",
        type=int,
        default=10,
        help="downtime ticks before recovery runs",
    )
    chaos.add_argument(
        "--checkpoint-every",
        action=_DrillFlag,
        drill="crash",
        type=int,
        default=50,
        help="checkpoint cadence in ticks",
    )
    chaos.add_argument(
        "--max-recovery-ticks",
        action=_DrillFlag,
        drill="crash",
        type=int,
        default=50,
        help="recovery bound: every stream must be back within its δ of "
        "the true value this many ticks after recover() (exit 1 "
        "otherwise)",
    )
    chaos.add_argument(
        "--out",
        default="chaos-out",
        help="artifact directory (checkpoint + WAL + snapshot + report)",
    )
    mode = chaos.add_mutually_exclusive_group()
    mode.add_argument(
        "--batch",
        action="store_true",
        help="run the drill on the vectorized BatchStreamEngine (its "
        "synchronous transport has no server inbox, so overload "
        "shedding is skipped)",
    )
    mode.add_argument(
        "--federation",
        action="store_true",
        help="run the federated drill instead: a peer cluster survives a "
        "server kill (failover re-homes every stream) and a network "
        "partition (both halves answer, deterministic reconcile on heal)",
    )
    chaos.add_argument(
        "--peers",
        action=_DrillFlag,
        drill="federation",
        type=int,
        default=3,
        help="peer count for --federation (default 3)",
    )
    mode.add_argument(
        "--surge",
        action="store_true",
        help="run the load-surge drill instead: offered load triples "
        "mid-run; the predictive autoscaler must hold the latency SLO "
        "with a lower audited δ-shed error than the reactive-only "
        "baseline (same seed, exit 1 on any gate failure)",
    )
    chaos.add_argument(
        "--surge-start",
        action=_DrillFlag,
        drill="surge",
        type=int,
        default=80,
        help="first tick of the surge (--surge only)",
    )
    chaos.add_argument(
        "--surge-len",
        action=_DrillFlag,
        drill="surge",
        type=int,
        default=80,
        help="surge duration in ticks (--surge only)",
    )
    chaos.add_argument(
        "--load-factor",
        action=_DrillFlag,
        drill="surge",
        type=float,
        default=3.0,
        help="offered-load multiplier during the surge (--surge only)",
    )
    chaos.add_argument(
        "--settle-window",
        action=_DrillFlag,
        drill="surge",
        type=int,
        default=64,
        help="ticks after the surge by which the shed ledger must "
        "balance and the SLO must resolve (--surge only)",
    )

    scale = sub.add_parser(
        "scale",
        help="race the vectorized batch engine against the scalar engine "
        "over growing source counts",
    )
    scale.add_argument(
        "--sources",
        type=int,
        nargs="+",
        default=[64, 256, 1024],
        help="source counts to sweep (default: 64 256 1024)",
    )
    scale.add_argument(
        "--ticks", type=int, default=300, help="ticks per source"
    )
    scale.add_argument(
        "--workers",
        type=int,
        default=0,
        help="batch-engine worker processes (0 = inline)",
    )
    scale.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="exit 1 unless the batch engine beats the scalar engine by "
        "this factor at the largest sweep point",
    )
    scale.add_argument(
        "--out",
        default=None,
        help="write the sweep as a repro.obs/v2 snapshot JSON here",
    )

    wire = sub.add_parser(
        "wire",
        help="run the asyncio real-wire runtime: UDP update fabric, TCP "
        "query API, wall-clock ticks",
    )
    mode = wire.add_mutually_exclusive_group()
    mode.add_argument(
        "--soak",
        action="store_true",
        help="soak-scale run with the vectorised lite fleet and the p99 "
        "query-latency gate armed",
    )
    mode.add_argument(
        "--demo",
        action="store_true",
        help="demo-scale run with real DKF endpoints (SourceStepper) "
        "instead of the lite fleet",
    )
    mode.add_argument(
        "--chaos",
        action="store_true",
        help="chaos-hardened run: seeded socket-level fault injection "
        "(loss, corruption, duplication, reorder, delay, partition), "
        "adversarial fuzz barrage, mid-run rebind, stall injection and "
        "a zero-loss drain/hot-restart drill",
    )
    wire.add_argument(
        "--sources", type=int, default=None,
        help="fleet size (default: 5000 for --soak, 64 for --demo, "
        "256 for --chaos)",
    )
    wire.add_argument(
        "--ticks", type=int, default=None,
        help="runtime ticks to execute (default: 120 soak, 40 demo)",
    )
    wire.add_argument(
        "--tick-seconds", type=float, default=None,
        help="wall-clock seconds per tick (default: 0.25 soak, 0.1 demo)",
    )
    wire.add_argument("--seed", type=int, default=0, help="workload seed")
    wire.add_argument(
        "--update-prob", type=float, default=0.05,
        help="per-source escaped-update probability per tick (lite fleet)",
    )
    wire.add_argument(
        "--corrupt-rate", type=float, default=0.0,
        help="seeded probability a fleet datagram is bit-flipped",
    )
    wire.add_argument(
        "--query-rate", type=float, default=200.0,
        help="TCP query load in queries per second",
    )
    wire.add_argument(
        "--p99-gate-ms", type=float, default=250.0,
        help="fail when p99 query latency exceeds this many ms",
    )
    wire.add_argument(
        "--out", default=None,
        help="write the soak summary JSON here",
    )
    wire.add_argument(
        "--bench-out", default=None,
        help="write a repro.obs bench snapshot (BENCH_wire.json) here",
    )
    wire.add_argument(
        "--chaos-report", default=None, action=_DrillFlag, drill="chaos",
        help="(--chaos only) write the deterministic chaos report here; "
        "byte-identical across same-seed runs",
    )

    benchdiff = sub.add_parser(
        "benchdiff",
        help="compare two bench snapshots and gate on throughput "
        "regression (baseline may be a v1 artifact; it migrates on load)",
    )
    benchdiff.add_argument("baseline", help="committed baseline snapshot")
    benchdiff.add_argument("fresh", help="freshly produced snapshot")
    benchdiff.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="fail when any shared throughput gauge regresses by more "
        "than this fraction (default 0.25)",
    )
    return parser


def _load_stream(args: argparse.Namespace) -> MaterializedStream:
    if args.dataset:
        stream = _DATASETS[args.dataset]()
    else:
        stream = load_stream_csv(args.csv)
    if args.limit is not None:
        stream = stream.head(args.limit)
    return stream


def _models_for(args: argparse.Namespace, dims: int):
    choices = {
        "constant": lambda: constant_model(dims=dims),
        "linear": lambda: linear_model(dims=dims, dt=1.0),
    }
    if dims == 1:
        choices["sinusoidal"] = lambda: sinusoidal_model(
            omega=args.omega, theta=0.0
        )
    if args.model == "all":
        return [(name, build()) for name, build in choices.items()]
    if args.model not in choices:
        raise ConfigurationError(
            f"model {args.model!r} is not applicable to a {dims}-d stream"
        )
    return [(args.model, choices[args.model]())]


def _run_compare(args: argparse.Namespace) -> int:
    stream = _load_stream(args)
    if not len(stream):
        print("stream is empty", file=sys.stderr)
        return 1
    dims = stream.dim
    results = [
        evaluate_scheme(
            CachedValueScheme.from_precision(args.delta, dims=dims), stream
        )
    ]
    for name, model in _models_for(args, dims):
        config = DKFConfig(
            model=model,
            delta=args.delta,
            smoothing_f=args.smoothing_f,
            label=f"dkf-{name}",
        )
        results.append(evaluate_scheme(DKFSession(config), stream))
    print(format_results(results))
    return 0


def _build_demo_engine(ticks: int, telemetry):
    """The seeded burst-loss demo engine (shared by obs/slo demos).

    One linear stream, bursty loss plus rare corruption, with the
    default health watchers and SLO rules installed -- enough traffic
    for every v2 snapshot section to carry real data.
    """
    import numpy as np

    from repro.dkf.config import TransportPolicy
    from repro.dsms.engine import StreamEngine
    from repro.dsms.faults import FaultSchedule
    from repro.dsms.query import ContinuousQuery
    from repro.streams.base import stream_from_values

    telemetry.health.install_defaults()
    telemetry.slo.install_defaults()
    engine = StreamEngine(telemetry=telemetry)
    rng = np.random.default_rng(7)
    values = np.cumsum(rng.normal(0.0, 1.0, size=ticks))
    engine.add_source(
        "s0",
        linear_model(dims=1, dt=1.0),
        stream_from_values(values, name="demo"),
        transport=TransportPolicy(ack_timeout_ticks=4),
    )
    engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
    engine.inject_faults(
        FaultSchedule(seed=7)
        .burst_loss("s0", p_enter=0.05, p_exit=0.3)
        .corrupt("s0", rate=0.02)
    )
    return engine


def _record_demo(args: argparse.Namespace) -> dict:
    """Run the seeded burst-loss demo with telemetry and export artifacts."""
    from repro.obs import JsonlEventWriter, Telemetry, write_snapshot
    from repro.obs.dashboard import render_dashboard

    ticks = args.ticks
    telemetry = Telemetry()
    writer = None
    if args.events:
        writer = JsonlEventWriter(args.events)
        telemetry.bus.subscribe(writer)
    engine = _build_demo_engine(ticks, telemetry)
    meta = {"name": "obs-demo", "seed": 7, "demo_ticks": ticks}
    if getattr(args, "watch", False):
        frame_every = max(1, args.every)
        for _ in range(ticks):
            engine.step()
            if engine.ticks % frame_every == 0:
                print(render_dashboard(engine.obs_snapshot(meta)))
                print(f"\n[watch] tick {engine.ticks}/{ticks}\n")
    else:
        engine.run()
    engine.settle()
    snapshot = engine.obs_snapshot(meta)
    write_snapshot(args.record, snapshot)
    if writer is not None:
        writer.close()
        print(f"wrote {writer.lines_written} events to {args.events}")
    print(f"wrote snapshot to {args.record}")
    return snapshot


def _run_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the crash, federation or surge drill."""
    if args.surge:
        from repro.autoscale.drill import surge_drill

        drill = surge_drill(
            args.out,
            seed=args.seed,
            ticks=args.ticks,
            surge_start=args.surge_start,
            surge_len=args.surge_len,
            load_factor=args.load_factor,
            settle_window=args.settle_window,
        )
    elif args.federation:
        from repro.federation.drill import federation_drill

        drill = federation_drill(
            args.out, seed=args.seed, ticks=args.ticks, peers=args.peers
        )
    else:
        from repro.resilience.drill import crash_drill

        drill = crash_drill(
            args.out,
            seed=args.seed,
            ticks=args.ticks,
            crash_at=args.crash_at,
            recover_after=args.recover_after,
            checkpoint_every=args.checkpoint_every,
            max_recovery_ticks=args.max_recovery_ticks,
            batch=args.batch,
        )
    return drill.finish()


def _run_scale(args: argparse.Namespace) -> int:
    """Race the scalar engine against the batch engine, gate on speedup."""
    import time

    import numpy as np

    from repro.dsms.engine import StreamEngine
    from repro.dsms.query import ContinuousQuery
    from repro.scale.engine import BatchStreamEngine
    from repro.streams.base import stream_from_values

    counts = sorted(set(args.sources))
    if any(n < 1 for n in counts):
        raise ConfigurationError("source counts must be positive")
    if args.ticks < 1:
        raise ConfigurationError("ticks must be positive")

    def run(cls, n, **kw):
        rng = np.random.default_rng(42)
        engine = cls(**kw)
        model = linear_model(dims=1, dt=1.0)
        for i in range(n):
            values = np.cumsum(rng.normal(0.0, 1.0, size=args.ticks))
            engine.add_source(
                f"s{i}", model, stream_from_values(values, name=f"s{i}")
            )
            engine.submit_query(
                ContinuousQuery(f"s{i}", delta=2.0, query_id=f"q{i}")
            )
        start = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - start
        return elapsed, engine.report()

    results = []
    for n in counts:
        scalar_s, scalar_report = run(StreamEngine, n)
        batch_s, batch_report = run(
            BatchStreamEngine, n, workers=args.workers
        )
        if batch_report.updates_sent != scalar_report.updates_sent:
            print(
                f"error: at {n} sources the batch engine sent "
                f"{batch_report.updates_sent} updates but the scalar "
                f"engine sent {scalar_report.updates_sent}",
                file=sys.stderr,
            )
            return 1
        results.append((n, scalar_s, batch_s, scalar_s / batch_s))
        n_, ss, bs, sp = results[-1]
        print(
            f"{n_:6d} sources: scalar {ss * 1e3:9.1f} ms  "
            f"batch {bs * 1e3:8.1f} ms  "
            f"({bs / (n_ * args.ticks) * 1e6:5.2f} us/reading)  "
            f"speedup {sp:5.1f}x"
        )

    if args.out:
        from repro.obs import MetricsRegistry, build_snapshot, write_snapshot

        registry = MetricsRegistry()
        for n, scalar_s, batch_s, speedup in results:
            for variant, seconds in (("scalar", scalar_s), ("batch", batch_s)):
                labels = {"sources": str(n), "variant": variant}
                registry.gauge("engine_run_seconds", labels).set(seconds)
                registry.gauge("engine_us_per_reading", labels).set(
                    seconds / (n * args.ticks) * 1e6
                )
            registry.gauge("batch_speedup_x", {"sources": str(n)}).set(
                speedup
            )
        write_snapshot(
            args.out,
            build_snapshot(
                registry,
                meta={
                    "bench": "cli_scale",
                    "ticks_per_source": args.ticks,
                    "source_counts": counts,
                    "workers": args.workers,
                    "min_speedup": args.min_speedup,
                },
            ),
        )
        print(f"wrote snapshot to {args.out}")

    largest, _, _, speedup = results[-1]
    if speedup < args.min_speedup:
        print(
            f"FAIL: batch speedup {speedup:.1f}x at {largest} sources is "
            f"below the {args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: batch speedup {speedup:.1f}x at {largest} sources "
        f"(floor {args.min_speedup:.1f}x)"
    )
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    from repro.obs import load_snapshot, render_dashboard, validate_snapshot

    if args.trace is not None and args.record is None:
        # Post-mortem trace view: rebuild one update's causal tree from
        # an exported JSONL event log.
        from repro.obs import read_jsonl_events, render_trace, trace_ids

        if args.events is None:
            print("error: --trace needs --events <run.jsonl>", file=sys.stderr)
            return 1
        events = read_jsonl_events(args.events)
        if args.trace == "all":
            ids = trace_ids(events)
            for tid in ids:
                print(tid)
            print(f"({len(ids)} traces in {args.events})")
            return 0
        print(render_trace(events, args.trace))
        return 0
    if args.record is None and args.snapshot is None:
        print("error: need a snapshot path or --record", file=sys.stderr)
        return 1
    if args.record is not None:
        snapshot = _record_demo(args)
    else:
        snapshot = load_snapshot(args.snapshot)
    validate_snapshot(snapshot)
    if args.check:
        print("snapshot ok")
        return 0
    if args.trace is not None:
        # --record --events --trace: trace from the just-written log.
        from repro.obs import read_jsonl_events, render_trace

        if args.events is None:
            print("error: --trace needs --events <run.jsonl>", file=sys.stderr)
            return 1
        print(render_trace(read_jsonl_events(args.events), args.trace))
        return 0
    print(render_dashboard(snapshot))
    return 0


def _format_slo_report(snapshot: dict) -> tuple[str, bool]:
    """Render the alerts/health sections; returns (text, any_fired)."""
    lines: list[str] = []
    rules = snapshot.get("alerts", {}).get("rules", [])
    watchers = snapshot.get("health", {}).get("watchers", [])
    any_fired = False
    lines.append("=== SLO report ===")
    if not rules:
        lines.append("(no SLO rules installed)")
    for rule in rules:
        fired = [t for t in rule["transitions"] if t["to"] == "firing"]
        resolved = [t for t in rule["transitions"] if t["to"] == "resolved"]
        if fired or rule["state"] == "firing":
            any_fired = True
        status = rule["state"].upper() if rule["state"] != "ok" else "ok"
        lines.append(
            f"{rule['name']} ({rule['kind']}, objective "
            f"{rule['objective']:g}): {status}"
        )
        if fired:
            ticks = ", ".join(str(t["tick"]) for t in fired)
            lines.append(f"  fired at tick(s): {ticks}")
        if resolved:
            ticks = ", ".join(str(t["tick"]) for t in resolved)
            lines.append(f"  resolved at tick(s): {ticks}")
        last = rule.get("last")
        if last:
            pairs = " ".join(f"{k}={v:g}" for k, v in sorted(last.items()))
            lines.append(f"  last evaluation: {pairs}")
    lines.append("")
    lines.append("=== health watchers ===")
    if not watchers:
        lines.append("(no health watchers installed)")
    for w in watchers:
        if w["anomalies"]:
            lines.append(
                f"{w['name']} <- {w['metric']} ({w['signal']}): "
                f"{w['anomalies']} anomalies, first @tick "
                f"{w['first_anomaly_tick']}, last @tick "
                f"{w['last_anomaly_tick']}"
            )
        else:
            lines.append(
                f"{w['name']} <- {w['metric']} ({w['signal']}): clean"
            )
    return "\n".join(lines), any_fired


def _run_slo(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry, load_snapshot

    if args.demo:
        telemetry = Telemetry()
        engine = _build_demo_engine(args.ticks, telemetry)
        engine.run()
        engine.settle()
        snapshot = engine.obs_snapshot(
            {"name": "slo-demo", "seed": 7, "demo_ticks": args.ticks}
        )
    elif args.snapshot is None:
        print("error: need a snapshot path or --demo", file=sys.stderr)
        return 1
    else:
        snapshot = load_snapshot(args.snapshot)
    text, any_fired = _format_slo_report(snapshot)
    print(text)
    if args.strict and any_fired:
        print("strict: at least one alert fired", file=sys.stderr)
        return 1
    return 0


def _run_wire(args: argparse.Namespace) -> int:
    from repro.wire import WireConfig
    from repro.wire.chaos import chaos_drill
    from repro.wire.soak import soak_drill

    demo = args.demo
    chaos = args.chaos
    sources = args.sources if args.sources is not None else (
        256 if chaos else 64 if demo else 5000
    )
    ticks = args.ticks if args.ticks is not None else (
        30 if chaos else 40 if demo else 120
    )
    tick_seconds = args.tick_seconds if args.tick_seconds is not None else (
        0.2 if chaos else 0.1 if demo else 0.25
    )
    config = WireConfig(
        sources=sources,
        ticks=ticks,
        tick_seconds=tick_seconds,
        seed=args.seed,
        update_prob=args.update_prob,
        ramp_ticks=max(1, min(ticks - 1, ticks // 4)),
        corrupt_rate=args.corrupt_rate,
        query_rate=args.query_rate,
        query_p99_gate_ms=args.p99_gate_ms,
        heartbeat_interval_ticks=min(50, max(2, ticks // 2)),
        # The chaos run's slow-loris drill must see the idle deadline
        # expire inside the run's teardown window.
        query_idle_timeout_s=(
            max(1.0, 4 * tick_seconds) if chaos else 30.0
        ),
    )
    if chaos:
        drill = chaos_drill(
            config,
            out=args.out,
            report_out=args.chaos_report,
            bench_out=args.bench_out,
        )
    else:
        drill = soak_drill(
            config,
            fleet_kind="stepper" if demo else "lite",
            out=args.out,
            bench_out=args.bench_out,
        )
    return drill.finish()


#: Bench gauges gated by ``repro benchdiff``; regression direction per name.
_BENCH_LOWER_IS_BETTER = (
    "engine_run_seconds",
    "engine_us_per_reading",
    "fed_run_seconds",
    "fed_answer_us",
    "surge_shed_error",
    "surge_inbox_drops",
    "surge_settle_ticks",
    "wire_query_p99_ms",
    "wire_query_p50_ms",
    "wire_tick_overruns",
    "wire_chaos_query_p99_ms",
)
_BENCH_HIGHER_IS_BETTER = ("batch_speedup_x", "wire_chaos_primed_pct")


def _run_benchdiff(args: argparse.Namespace) -> int:
    """Gate a fresh bench snapshot against a committed baseline."""
    from repro.obs import load_snapshot

    if not 0.0 < args.max_regression:
        raise ConfigurationError("--max-regression must be positive")

    def throughput_gauges(path: str) -> dict[tuple, float]:
        snapshot = load_snapshot(path)
        gauges: dict[tuple, float] = {}
        for row in snapshot["gauges"]:
            name = row["name"]
            if (
                name in _BENCH_LOWER_IS_BETTER
                or name in _BENCH_HIGHER_IS_BETTER
            ):
                key = (name, tuple(sorted(row["labels"].items())))
                gauges[key] = float(row["value"])
        return gauges

    baseline = throughput_gauges(args.baseline)
    fresh = throughput_gauges(args.fresh)
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print(
            "error: the snapshots share no throughput gauges "
            f"({args.baseline} has {len(baseline)}, "
            f"{args.fresh} has {len(fresh)})",
            file=sys.stderr,
        )
        return 1
    only_baseline = sorted(set(baseline) - set(fresh))
    for name, labels in only_baseline:
        label_text = ",".join(f"{k}={v}" for k, v in labels)
        print(f"note: {name}{{{label_text}}} absent from the fresh run")

    regressions: list[str] = []
    for key in shared:
        name, labels = key
        base, new = baseline[key], fresh[key]
        if base <= 0:
            continue
        if name in _BENCH_LOWER_IS_BETTER:
            change = (new - base) / base
        else:
            change = (base - new) / base
        label_text = ",".join(f"{k}={v}" for k, v in labels)
        verdict = "REGRESSED" if change > args.max_regression else "ok"
        print(
            f"{name}{{{label_text}}}: baseline {base:.4g} -> {new:.4g} "
            f"({change:+.1%} worse) {verdict}"
        )
        if change > args.max_regression:
            regressions.append(f"{name}{{{label_text}}}")
    if regressions:
        print(
            f"FAIL: {len(regressions)} gauge(s) regressed beyond "
            f"{args.max_regression:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: {len(shared)} shared throughput gauges within "
        f"{args.max_regression:.0%} of baseline"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, drill in getattr(args, "drill_flags", ()):
        if drill != _drill_mode(args):
            parser.error(
                f"{flag} belongs to the {drill} drill, not the "
                f"{_drill_mode(args)} drill"
            )
    if args.command in _EXPERIMENTS:
        _EXPERIMENTS[args.command]()
        return 0
    try:
        if args.command == "obs":
            return _run_obs(args)
        if args.command == "slo":
            return _run_slo(args)
        if args.command == "benchdiff":
            return _run_benchdiff(args)
        if args.command == "chaos":
            return _run_chaos(args)
        if args.command == "scale":
            return _run_scale(args)
        if args.command == "wire":
            return _run_wire(args)
        return _run_compare(args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
