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
        type=int,
        default=225,
        help="tick the server dies (default mid-checkpoint-interval so "
        "recovery must replay a WAL tail)",
    )
    chaos.add_argument(
        "--recover-after",
        type=int,
        default=10,
        help="downtime ticks before recovery runs",
    )
    chaos.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        help="checkpoint cadence in ticks",
    )
    chaos.add_argument(
        "--max-recovery-ticks",
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
    chaos.add_argument(
        "--batch",
        action="store_true",
        help="run the drill on the vectorized BatchStreamEngine (its "
        "synchronous transport has no server inbox, so overload "
        "shedding is skipped)",
    )
    chaos.add_argument(
        "--federation",
        action="store_true",
        help="run the federated drill instead: a peer cluster survives a "
        "server kill (failover re-homes every stream) and a network "
        "partition (both halves answer, deterministic reconcile on heal)",
    )
    chaos.add_argument(
        "--peers",
        type=int,
        default=3,
        help="peer count for --federation (default 3)",
    )
    chaos.add_argument(
        "--surge",
        action="store_true",
        help="run the load-surge drill instead: offered load triples "
        "mid-run; the predictive autoscaler must hold the latency SLO "
        "with a lower audited δ-shed error than the reactive-only "
        "baseline (same seed, exit 1 on any gate failure)",
    )
    chaos.add_argument(
        "--surge-start",
        type=int,
        default=80,
        help="first tick of the surge (--surge only)",
    )
    chaos.add_argument(
        "--surge-len",
        type=int,
        default=80,
        help="surge duration in ticks (--surge only)",
    )
    chaos.add_argument(
        "--load-factor",
        type=float,
        default=3.0,
        help="offered-load multiplier during the surge (--surge only)",
    )
    chaos.add_argument(
        "--settle-window",
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
    wire.add_argument(
        "--soak",
        action="store_true",
        help="soak-scale run with the vectorised lite fleet and the p99 "
        "query-latency gate armed",
    )
    wire.add_argument(
        "--demo",
        action="store_true",
        help="demo-scale run with real DKF endpoints (SourceStepper) "
        "instead of the lite fleet",
    )
    wire.add_argument(
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
        "--chaos-report", default=None,
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
    """Seeded kill-and-recover drill with a pass/fail recovery bound."""
    import json
    from pathlib import Path

    import numpy as np

    from repro.dkf.config import TransportPolicy
    from repro.dsms.engine import StreamEngine
    from repro.dsms.faults import FaultSchedule
    from repro.dsms.query import ContinuousQuery
    from repro.obs import Telemetry, write_snapshot
    from repro.resilience import (
        OverloadPolicy,
        ResilienceConfig,
        RestartPolicy,
        WatchdogPolicy,
    )
    from repro.streams.base import stream_from_values

    ticks = args.ticks
    crash_at = args.crash_at
    recover_at = crash_at + args.recover_after
    if not 0 < crash_at < ticks or recover_at >= ticks:
        raise ConfigurationError(
            "need 0 < crash-at and crash-at + recover-after < ticks"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
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
    if args.batch:
        from repro.scale.engine import BatchStreamEngine

        # The batch transport applies deliveries synchronously -- there
        # is no server inbox to shed from, so the drill runs without the
        # overload policy.
        engine = BatchStreamEngine(
            telemetry=telemetry,
            resilience=ResilienceConfig(
                checkpoint_dir=str(out / "checkpoint"),
                checkpoint_every=args.checkpoint_every,
                watchdog=WatchdogPolicy(),
                restart=RestartPolicy(),
            ),
        )
    else:
        engine = StreamEngine(
            telemetry=telemetry,
            resilience=ResilienceConfig(
                checkpoint_dir=str(out / "checkpoint"),
                checkpoint_every=args.checkpoint_every,
                watchdog=WatchdogPolicy(),
                restart=RestartPolicy(),
                overload=OverloadPolicy(inbox_capacity=32, drain_per_tick=4,
                                        cooldown_ticks=8),
            ),
        )
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
        FaultSchedule(seed=args.seed)
        .burst_loss("hi", p_enter=0.05, p_exit=0.3)
        .sensor("mid", "nan", start=80, duration=12)
        .sensor("lo", "spike", start=120, duration=6, magnitude=40.0)
        .crash("lo", at=150, restart_at=160)
    )

    recovery_summary = None
    recovered_within = None
    for _ in range(ticks):
        tick = engine.ticks
        if tick == crash_at:
            engine.crash_server()
            print(f"[tick {tick}] server crashed")
        if tick == recover_at:
            recovery_summary = engine.recover()
            print(
                f"[tick {tick}] server recovered: "
                f"{recovery_summary['restored_sources']} sources restored, "
                f"{recovery_summary['wal_replayed']} WAL records replayed, "
                f"{recovery_summary['resync_requests']} resyncs requested"
            )
        engine.step()
        if recovery_summary is not None and recovered_within is None:
            answers = {a.source_id: a for a in engine.answers()}
            if len(answers) == len(truth) and all(
                abs(a.value[0] - truth[sid][engine.ticks - 1])
                <= a.precision + 1e-9
                for sid, a in answers.items()
            ):
                recovered_within = engine.ticks - recover_at
    engine.settle()

    counters = {
        c.name: c.value
        for c in telemetry.metrics.counters()
        if not c.labels
    }
    for c in telemetry.metrics.counters():
        if c.labels:
            counters[c.name] = counters.get(c.name, 0) + c.value
    resilience = engine.resilience_report()
    report = {
        "seed": args.seed,
        "ticks": engine.ticks,
        "crash_at": crash_at,
        "recover_at": recover_at,
        "recovery": recovery_summary,
        "recovered_within_ticks": recovered_within,
        "max_recovery_ticks": args.max_recovery_ticks,
        "watchdog_trips": counters.get("watchdog_trips_total", 0),
        "checkpoint_writes": counters.get("checkpoint_writes_total", 0),
        "wal_records": counters.get("wal_records_total", 0),
        "resilience": resilience,
        "traffic": engine.report().to_dict(),
    }
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_snapshot(
        str(out / "snapshot.json"),
        engine.obs_snapshot({"name": "chaos", "seed": args.seed}),
    )
    (out / "slo-report.json").write_text(
        json.dumps(
            {
                "slo": telemetry.slo.report(),
                "health": telemetry.health.report(),
                "faults": {"crash_at": crash_at, "recover_at": recover_at},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    print("\n=== chaos recovery report ===")
    print(f"checkpoints written : {report['checkpoint_writes']}")
    print(f"WAL records logged  : {report['wal_records']}")
    print(f"watchdog trips      : {report['watchdog_trips']}")
    if recovery_summary is not None:
        print(f"WAL records replayed: {recovery_summary['wal_replayed']}")
        print(f"resyncs requested   : {recovery_summary['resync_requests']}")
        print(
            "dropped while down  : "
            f"{recovery_summary['dropped_while_down']}"
        )
    shed = resilience.get("overload", {})
    widened = {s: v for s, v in shed.items() if v["widened_ticks"]}
    if widened:
        for source_id, account in sorted(widened.items()):
            print(
                f"shed on {source_id:<12}: {account['widened_ticks']} ticks "
                f"widened, {account['shed_error']:.2f} bounded extra error"
            )
    print(f"artifacts           : {out}/")
    if recovered_within is None:
        print(
            f"FAIL: streams never re-converged within delta after recovery"
        )
        return 1
    verdict = "ok" if recovered_within <= args.max_recovery_ticks else "FAIL"
    print(
        f"recovered within    : {recovered_within} ticks "
        f"(bound {args.max_recovery_ticks}) -> {verdict}"
    )
    return 0 if verdict == "ok" else 1


def _run_chaos_federation(args: argparse.Namespace) -> int:
    """Federated chaos drill: peer kill + partition, zero stream loss.

    One seeded scenario, two hard gates:

    * **Crash**: the busiest peer dies mid-run.  Every stream it homed
      must be re-homed (failover visible in telemetry) and every final
      answer must sit within its advertised ``precision +
      consensus_error`` of the stream's true final value.
    * **Partition**: a later cut isolates one peer.  Both halves must
      keep answering their streams, and a second identical run must
      produce bit-identical final answers (deterministic reconcile).
    """
    import json
    from pathlib import Path

    import numpy as np

    from repro.dsms.faults import FaultSchedule
    from repro.dsms.query import ContinuousQuery
    from repro.federation import FederatedCluster, FederationConfig
    from repro.obs import Telemetry, build_snapshot, write_snapshot
    from repro.streams.base import stream_from_values

    ticks = args.ticks
    if args.peers < 3:
        raise ConfigurationError("the federated drill needs at least 3 peers")
    crash_at = ticks // 4
    restart_at = ticks // 2
    cut_at = (ticks * 5) // 8
    heal_at = (ticks * 7) // 8
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    n_streams = max(6, 2 * args.peers)
    rng = np.random.default_rng(args.seed)
    truth = {
        f"s{i}": np.cumsum(rng.normal(0.0, 0.4, size=ticks))
        for i in range(n_streams)
    }

    def build(telemetry=None, faults=True):
        cluster = FederatedCluster(
            FederationConfig(
                peers=args.peers, replication=1, consensus_every=8
            ),
            telemetry=telemetry,
        )
        for sid, values in truth.items():
            cluster.add_source(
                sid, constant_model(q=0.2, r=1.0),
                stream_from_values(values, name=sid),
            )
            cluster.submit_query(
                ContinuousQuery(sid, delta=1.0, query_id=f"q-{sid}")
            )
        homes = {sid: cluster.home_of(sid) for sid in truth}
        counts = {p: sum(1 for h in homes.values() if h == p)
                  for p in cluster.peers}
        victim = max(sorted(counts), key=lambda p: counts[p])
        # Isolate a *surviving* peer for the partition leg, its homed
        # sources on its side of the cut (split-brain, not starvation).
        others = [p for p in sorted(cluster.peers) if p != victim]
        island = others[0]
        island_side = {island} | {
            s for s, h in homes.items() if h == island
        }
        far_side = (set(cluster.peers) | set(truth)) - island_side
        if faults:
            cluster.inject_faults(
                FaultSchedule(seed=args.seed)
                .crash(victim, at=crash_at, restart_at=restart_at)
                .partition(island_side, far_side, at=cut_at, heal_at=heal_at)
            )
        return cluster, victim, island

    def drill(telemetry=None, faults=True):
        cluster, victim, island = build(telemetry, faults)
        mid_partition = None
        for _ in range(ticks):
            cluster.step()
            # Serve every query once per tick: answers feed the
            # staleness and consensus-error health series (a pure read
            # when telemetry is disabled, so bit-identity holds).
            cluster.answers()
            if cluster.ticks == (cut_at + heal_at) // 2:
                mid_partition = {
                    "island": sorted(
                        a.source_id for a in cluster.answers(island)
                    ),
                    # The mainland answers as a *side*: any alive peer
                    # over there may hold the serving bank (the restarted
                    # victim's healed replicas included).
                    "mainland": sorted(
                        {
                            a.source_id
                            for p, node in cluster.peers.items()
                            if p != island and node.alive
                            for a in cluster.answers(p)
                        }
                    ),
                }
        cluster.run()
        cluster.settle()
        finals = sorted(
            (a.source_id, a.value, a.precision, a.consensus_error)
            for a in cluster.answers()
        )
        return cluster, victim, island, mid_partition, finals

    telemetry = Telemetry()
    telemetry.health.install_defaults(federation=True)
    telemetry.slo.install_defaults(federation=True)
    cluster, victim, island, mid_partition, finals = drill(telemetry)
    report = cluster.report()
    orphans = sorted(s for s in truth if cluster.home_epoch(s) > 0)
    failures: list[str] = []

    answered = {row[0] for row in finals}
    missing = sorted(set(truth) - answered)
    if missing:
        failures.append(f"streams lost (no final answer): {missing}")
    if report.failovers == 0:
        failures.append("peer kill produced no failovers")
    for sid, value, precision, consensus_error in finals:
        err = abs(value[0] - truth[sid][-1])
        bound = precision + consensus_error + 1e-9
        if err > bound:
            failures.append(
                f"{sid}: final error {err:.4f} exceeds advertised "
                f"bound {bound:.4f}"
            )
    if mid_partition is None:
        failures.append("drill never sampled the partition window")
    else:
        island_homes = {
            s for s in truth if cluster.home_of(s) == island
        }
        if not island_homes <= set(mid_partition["island"]):
            failures.append(
                "isolated half stopped answering its own streams: "
                f"{sorted(island_homes - set(mid_partition['island']))}"
            )
        if set(mid_partition["mainland"]) != set(truth):
            failures.append(
                "mainland half lost streams mid-partition: "
                f"{sorted(set(truth) - set(mid_partition['mainland']))}"
            )
    counters: dict[str, int] = {}
    for c in telemetry.metrics.counters():
        counters[c.name] = counters.get(c.name, 0) + c.value
    if not counters.get("fed_failovers_total"):
        failures.append("failovers invisible in telemetry counters")

    # SLO lifecycle gates: the partition must push at least one alert
    # through pending -> firing inside the fault window, and the heal
    # must resolve it before the run ends.
    slo_alerts = telemetry.slo.alerts
    fired_in_partition = sorted(
        name
        for name, alert in slo_alerts.items()
        if alert.fired_between(cut_at, heal_at)
    )
    if not fired_in_partition:
        failures.append(
            "no SLO alert fired during the partition window "
            f"[{cut_at}, {heal_at}]"
        )
    resolved_after_heal = sorted(
        name
        for name in fired_in_partition
        if slo_alerts[name].resolved_after(heal_at)
    )
    if fired_in_partition and not resolved_after_heal:
        failures.append(
            "no partition-window alert resolved after the heal at "
            f"{heal_at}"
        )
    # Health gate: a Kalman watcher must flag an injected fault within
    # 50 ticks of its onset.
    anomaly_ticks = sorted(
        e.tick for e in telemetry.bus.events("health.anomaly")
    )
    detection_window = 50
    flagged_fast = any(
        start <= t <= start + detection_window
        for start in (crash_at, cut_at)
        for t in anomaly_ticks
    )
    if not flagged_fast:
        failures.append(
            "no health watcher flagged the crash or the partition within "
            f"{detection_window} ticks (anomalies at {anomaly_ticks})"
        )

    _, _, _, _, finals_again = drill()
    if finals != finals_again:
        failures.append("re-run after heal was not bit-identical")

    # Clean-run gate: the same cluster without injected faults must stay
    # silent -- zero anomaly events, zero alerts fired.
    clean_tel = Telemetry()
    clean_tel.health.install_defaults(federation=True)
    clean_tel.slo.install_defaults(federation=True)
    drill(clean_tel, faults=False)
    clean_anomalies = clean_tel.health.total_anomalies
    clean_fired = sorted(
        name
        for name, alert in clean_tel.slo.alerts.items()
        if alert.fired_between(0, ticks)
    )
    if clean_anomalies:
        failures.append(
            f"clean run produced {clean_anomalies} health anomalies "
            "(watchers must stay silent without faults)"
        )
    if clean_fired:
        failures.append(f"clean run fired SLO alerts: {clean_fired}")

    drill_report = {
        "seed": args.seed,
        "ticks": cluster.ticks,
        "peers": args.peers,
        "victim": victim,
        "island": island,
        "crash_at": crash_at,
        "restart_at": restart_at,
        "cut_at": cut_at,
        "heal_at": heal_at,
        "streams": sorted(truth),
        "re_homed": orphans,
        "mid_partition": mid_partition,
        "failures": failures,
        "federation": report.to_dict(),
    }
    (out / "federation-report.json").write_text(
        json.dumps(drill_report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    write_snapshot(
        str(out / "federation-snapshot.json"),
        build_snapshot(
            telemetry,
            meta={"name": "chaos-federation", "seed": args.seed,
                  "peers": args.peers},
        ),
    )
    slo_report = {
        "windows": {
            "crash_at": crash_at,
            "restart_at": restart_at,
            "cut_at": cut_at,
            "heal_at": heal_at,
            "detection_window": detection_window,
        },
        "slo": telemetry.slo.report(),
        "health": telemetry.health.report(),
        "anomaly_ticks": anomaly_ticks,
        "fired_during_partition": fired_in_partition,
        "resolved_after_heal": resolved_after_heal,
        "clean_run": {
            "anomalies": clean_anomalies,
            "alerts_fired": clean_fired,
        },
    }
    (out / "slo-report.json").write_text(
        json.dumps(slo_report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    print("\n=== federated chaos report ===")
    print(f"peers               : {args.peers} (killed {victim}, "
          f"isolated {island})")
    print(f"failovers           : {report.failovers} "
          f"(re-homed: {', '.join(orphans) or 'none'})")
    print(f"re-home latencies   : {list(report.rehome_latency_ticks)}")
    print(f"consensus rounds    : {report.consensus_rounds}")
    print(f"split-brain ticks   : {report.split_brain_ticks}")
    print(f"dropped at dead peer: {report.dropped_at_dead_peer}")
    print(f"alerts fired in cut : {', '.join(fired_in_partition) or 'none'}")
    print(
        f"resolved after heal : {', '.join(resolved_after_heal) or 'none'}"
    )
    print(f"anomaly ticks       : {anomaly_ticks or 'none'}")
    print(
        f"clean run           : {clean_anomalies} anomalies, "
        f"{len(clean_fired)} alerts fired"
    )
    print(f"artifacts           : {out}/")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"ok: {len(truth)} streams survived the kill and the partition")
    return 0


def _run_chaos_surge(args: argparse.Namespace) -> int:
    """Load-surge drill: predictive vs reactive δ-shedding, gated.

    Runs :func:`repro.autoscale.drill.compare_surge_drill` -- the same
    seeded scenario twice, once with the predictive autoscaler armed and
    once with reactive overload control only -- and writes three
    artifacts into ``--out``:

    * ``report.json`` -- both runs plus the acceptance gates;
    * ``slo-report.json`` -- the enabled run's SLO/alert state (pure
      tick-indexed control flow, so two runs with the same ``--seed``
      produce byte-identical files);
    * ``autoscale-trace.json`` -- every control-interval decision the
      planner made, with the forecast inputs that produced it.

    Exit 1 when any gate fails.
    """
    import json
    from pathlib import Path

    from repro.autoscale.drill import compare_surge_drill

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    comparison = compare_surge_drill(
        args.seed,
        ticks=args.ticks,
        surge_start=args.surge_start,
        surge_len=args.surge_len,
        load_factor=args.load_factor,
        settle_window=args.settle_window,
    )
    enabled = comparison["enabled"]
    disabled = comparison["disabled"]
    gates = comparison["gates"]

    (out / "report.json").write_text(
        json.dumps(comparison, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (out / "slo-report.json").write_text(
        json.dumps(
            {
                "seed": comparison["seed"],
                "slo": enabled["slo"],
                "gates": gates,
                "surge": {
                    "start": enabled["surge_start"],
                    "end": enabled["surge_end"],
                    "load_factor": comparison["load_factor"],
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    (out / "autoscale-trace.json").write_text(
        json.dumps(
            (enabled["autoscale"] or {}).get("trace", []),
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    print("=== surge drill (predictive vs reactive) ===")
    print(
        f"offered rate        : calm {enabled['calm_rate']:.2f}/tick -> "
        f"surge {enabled['surge_rate']:.2f}/tick "
        f"(x{enabled['surge_rate'] / max(enabled['calm_rate'], 1e-9):.1f})"
    )
    for label, run in (("predictive", enabled), ("reactive  ", disabled)):
        ledger = run["ledger"]
        print(
            f"{label}          : shed error {run['shed_error_total']:8.1f}, "
            f"drops {run['inbox_dropped']:4d}, "
            f"widen steps {ledger['widen_steps']:3d}, "
            f"settle {run['settle_ticks']} ticks"
        )
    saved = disabled["shed_error_total"] - enabled["shed_error_total"]
    print(
        f"prediction saved    : {saved:.1f} bounded error "
        f"({saved / max(disabled['shed_error_total'], 1e-9):.0%} of the "
        "reactive total)"
    )
    print(f"artifacts           : {out}/")
    for gate, passed in sorted(gates.items()):
        print(f"gate {gate:<20}: {'ok' if passed else 'FAIL'}")
    return 0 if comparison["passed"] else 1


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
    from repro.wire import WireConfig, run_chaos, run_soak

    demo = args.demo and not args.soak and not args.chaos
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
        return _run_wire_chaos(args, config, run_chaos)
    summary = run_soak(
        config,
        fleet_kind="stepper" if demo else "lite",
        out=args.out,
        bench_out=args.bench_out,
    )
    measured = summary["measured"]
    wire = summary["wire"]
    gates = summary["gates"]
    print(
        f"wire {'demo' if demo else 'soak'}: {sources} sources, "
        f"{measured['ticks']} ticks x {tick_seconds:g}s "
        f"({measured['wall_seconds']:.1f}s wall, "
        f"{measured['overruns']} overruns)"
    )
    print(
        f"  fleet -> server: {wire['fleet']['datagrams_sent']} datagrams "
        f"({wire['server']['frames_decoded']} decoded, "
        f"{wire['server']['frames_corrupt']} corrupt, "
        f"{wire['server']['inbox_dropped']} inbox-dropped, "
        f"{wire['conservation']['kernel_dropped_data']} kernel-dropped)"
    )
    print(
        f"  primed {measured['primed']}/{sources}, "
        f"suspects {measured['suspects']}, "
        f"acks {wire['server']['datagrams_sent']}"
    )
    p50 = measured["query_p50_ms"]
    p99 = measured["query_p99_ms"]
    print(
        f"  queries: {measured['queries']} at "
        f"{measured['query_qps']:g}/s, "
        f"p50 {p50 if p50 is not None else '-'} ms, "
        f"p99 {p99 if p99 is not None else '-'} ms "
        f"(gate {config.query_p99_gate_ms:g} ms)"
    )
    for name in ("query_p99_ok", "conservation_ok", "primed_ok"):
        print(f"  gate {name}: {'pass' if gates[name] else 'FAIL'}")
    if args.out:
        print(f"summary written to {args.out}")
    if args.bench_out:
        print(f"bench snapshot written to {args.bench_out}")
    return 0 if gates["ok"] else 1


def _run_wire_chaos(
    args: argparse.Namespace, config, run_chaos
) -> int:
    """The ``repro wire --chaos`` branch: seeded hostility, hard gates."""
    summary = run_chaos(
        config,
        out=args.out,
        report_out=args.chaos_report,
        bench_out=args.bench_out,
    )
    measured = summary["measured"]
    wire = summary["wire"]
    chaos = summary["chaos"]
    gates = summary["gates"]
    print(
        f"wire chaos: {config.sources} sources, "
        f"{measured['ticks']} ticks x {config.tick_seconds:g}s "
        f"({measured['wall_seconds']:.1f}s wall, seed {config.seed})"
    )
    data = chaos["data_shaper"]
    print(
        f"  data shaper: {data.get('offered', 0)} offered, "
        f"{data.get('dropped', 0)} dropped, "
        f"{data.get('partition_dropped', 0)} partitioned, "
        f"{data.get('corrupted', 0)} corrupted, "
        f"{data.get('duplicated', 0)} duplicated, "
        f"{data.get('reordered', 0)} reordered, "
        f"{data.get('delayed', 0)} delayed"
    )
    rejections = wire["rejections"]
    rejected = ", ".join(
        f"{reason}={count}" for reason, count in rejections.items()
    )
    print(
        f"  fuzz: {chaos['fuzz_datagrams']} datagrams + "
        f"{chaos['fuzz_lines']} lines; poison ledger: "
        f"{rejected if rejected else 'empty'}"
    )
    drill = chaos["drill"]
    if drill:
        print(
            f"  drill: drained at tick {drill.get('drain_tick')}, "
            f"restarted, bit_identical={drill.get('bit_identical')}, "
            f"acked_updates_lost={drill.get('acked_updates_lost')}"
        )
    p99 = measured["query_p99_ms"]
    print(
        f"  primed {measured['primed']}/{config.sources}, "
        f"queries {measured['queries']}, "
        f"p99 {p99 if p99 is not None else '-'} ms "
        f"(gate {config.query_p99_gate_ms:g} ms)"
    )
    for name in sorted(gates):
        if name == "ok":
            continue
        print(f"  gate {name}: {'pass' if gates[name] else 'FAIL'}")
    if args.out:
        print(f"summary written to {args.out}")
    if args.chaos_report:
        print(f"chaos report written to {args.chaos_report}")
    if args.bench_out:
        print(f"bench snapshot written to {args.bench_out}")
    return 0 if gates["ok"] else 1


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
    args = build_parser().parse_args(argv)
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
            if args.surge:
                return _run_chaos_surge(args)
            if args.federation:
                return _run_chaos_federation(args)
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
