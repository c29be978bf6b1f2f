"""The federation drill: a peer kill and a partition with zero stream loss.

``repro chaos --federation`` runs one seeded scenario on a
:class:`~repro.federation.FederatedCluster`: the busiest peer dies a
quarter of the way in and restarts at the half, then a cut isolates a
surviving peer with its homed sources until seven eighths.  The same
cluster runs twice more -- once for bit-identity, once without faults
to prove the watchers stay silent.  ``federation-report.json`` and
``slo-report.json`` are byte-identical across same-seed runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.drill import Drill
from repro.dsms.faults import FaultSchedule
from repro.dsms.query import ContinuousQuery
from repro.errors import ConfigurationError
from repro.federation.cluster import FederatedCluster
from repro.federation.config import FederationConfig
from repro.filters.models import constant_model
from repro.obs import Telemetry, build_snapshot
from repro.streams.base import stream_from_values

__all__ = ["federation_drill", "ledger_gates"]

#: Ticks after a fault's onset within which a health watcher must flag it.
DETECTION_WINDOW = 50


def ledger_gates(report: dict) -> dict[str, bool]:
    """The gates read off ``federation-report.json`` alone: the kill
    re-homed a stream, the cut took effect, and both fabrics conserve
    ``offered == delivered + lost + corrupted + in_flight``."""
    fed = report["federation"]
    gates = {
        "streams_re_homed": bool(report["re_homed"]),
        "partition_took_effect": fed["split_brain_ticks"] > 0,
    }
    for fabric in ("source", "peer"):
        gates[f"{fabric}_fabric_conserved"] = fed[f"{fabric}_offered"] == sum(
            fed[f"{fabric}_{bucket}"]
            for bucket in ("delivered", "lost", "corrupted", "in_flight")
        )
    return gates


def federation_drill(
    out: str | Path, *, seed: int = 7, ticks: int = 400, peers: int = 3
) -> Drill:
    """Run the federation drill and gate it.

    Args:
        out: Artifact directory.
        seed: Drives the truth signals and the fault schedule.
        ticks: Run length; the fault windows scale with it.
        peers: Cluster size (at least 3).
    """
    if peers < 3:
        raise ConfigurationError("the federated drill needs at least 3 peers")
    crash_at = ticks // 4
    restart_at = ticks // 2
    cut_at = (ticks * 5) // 8
    heal_at = (ticks * 7) // 8
    out = Path(out)

    n_streams = max(6, 2 * peers)
    rng = np.random.default_rng(seed)
    truth = {
        f"s{i}": np.cumsum(rng.normal(0.0, 0.4, size=ticks))
        for i in range(n_streams)
    }

    def build(telemetry=None, faults=True):
        cluster = FederatedCluster(
            FederationConfig(peers=peers, replication=1, consensus_every=8),
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
                FaultSchedule(seed=seed)
                .crash(victim, at=crash_at, restart_at=restart_at)
                .partition(island_side, far_side, at=cut_at, heal_at=heal_at)
            )
        return cluster, victim, island

    def run(telemetry=None, faults=True):
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
    cluster, victim, island, mid_partition, finals = run(telemetry)
    report = cluster.report()
    orphans = sorted(s for s in truth if cluster.home_epoch(s) > 0)

    answered = {sid for sid, *_ in finals}
    in_bound = all(
        abs(value[0] - truth[sid][-1])
        <= precision + consensus_error + 1e-9
        for sid, value, precision, consensus_error in finals
    )
    island_homes = {s for s in truth if cluster.home_of(s) == island}
    counters: dict[str, int] = {}
    for c in telemetry.metrics.counters():
        counters[c.name] = counters.get(c.name, 0) + c.value

    slo_alerts = telemetry.slo.alerts
    fired_in_partition = sorted(
        name
        for name, alert in slo_alerts.items()
        if alert.fired_between(cut_at, heal_at)
    )
    resolved_after_heal = sorted(
        name
        for name in fired_in_partition
        if slo_alerts[name].resolved_after(heal_at)
    )
    anomaly_ticks = sorted(
        e.tick for e in telemetry.bus.events("health.anomaly")
    )
    flagged_fast = any(
        start <= t <= start + DETECTION_WINDOW
        for start in (crash_at, cut_at)
        for t in anomaly_ticks
    )

    _, _, _, _, finals_again = run()

    # The same cluster without injected faults must stay silent: zero
    # anomaly events, zero alerts fired.
    clean_tel = Telemetry()
    clean_tel.health.install_defaults(federation=True)
    clean_tel.slo.install_defaults(federation=True)
    run(clean_tel, faults=False)
    clean_anomalies = clean_tel.health.total_anomalies
    clean_fired = sorted(
        name
        for name, alert in clean_tel.slo.alerts.items()
        if alert.fired_between(0, ticks)
    )

    gates = {
        "streams_answered": set(truth) <= answered,
        "answers_in_bound": in_bound,
        "failover": report.failovers > 0,
        "failover_in_telemetry": bool(counters.get("fed_failovers_total")),
        "partition_sampled": mid_partition is not None,
        "island_answered": mid_partition is not None
        and island_homes <= set(mid_partition["island"]),
        "mainland_answered": mid_partition is not None
        and set(mid_partition["mainland"]) == set(truth),
        # The partition pushes an alert through pending -> firing inside
        # the cut, and the heal resolves it before the run ends.
        "slo_fired_in_cut": bool(fired_in_partition),
        "slo_resolved": not fired_in_partition or bool(resolved_after_heal),
        "fault_flagged": flagged_fast,
        "rerun_identical": finals == finals_again,
        "clean_run_quiet": not clean_anomalies,
        "clean_run_no_alerts": not clean_fired,
        **ledger_gates({"re_homed": orphans, "federation": report.to_dict()}),
    }
    failures = [name for name, ok in gates.items() if not ok]

    drill_report = {
        "seed": seed,
        "ticks": cluster.ticks,
        "peers": peers,
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
    # Taking the snapshot evaluates the SLO rules once more, so it comes
    # before the SLO report that must match it.
    snapshot = build_snapshot(
        telemetry,
        meta={"name": "chaos-federation", "seed": seed, "peers": peers},
    )
    slo_report = {
        "windows": {
            "crash_at": crash_at,
            "restart_at": restart_at,
            "cut_at": cut_at,
            "heal_at": heal_at,
            "detection_window": DETECTION_WINDOW,
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
    lines = [
        "",
        "=== federated chaos report ===",
        f"peers               : {peers} (killed {victim}, "
        f"isolated {island})",
        f"failovers           : {report.failovers} "
        f"(re-homed: {', '.join(orphans) or 'none'})",
        f"re-home latencies   : {list(report.rehome_latency_ticks)}",
        f"consensus rounds    : {report.consensus_rounds}",
        f"split-brain ticks   : {report.split_brain_ticks}",
        f"dropped at dead peer: {report.dropped_at_dead_peer}",
        f"alerts fired in cut : {', '.join(fired_in_partition) or 'none'}",
        f"resolved after heal : {', '.join(resolved_after_heal) or 'none'}",
        f"anomaly ticks       : {anomaly_ticks or 'none'}",
        f"clean run           : {clean_anomalies} anomalies, "
        f"{len(clean_fired)} alerts fired",
        f"artifacts           : {out}/",
    ]
    return Drill(
        report=drill_report,
        gates=gates,
        lines=lines,
        artifacts={
            out / "federation-report.json": drill_report,
            out / "slo-report.json": slo_report,
        },
        snapshots={out / "federation-snapshot.json": snapshot},
    )
