"""The seeded drills through the one runner.

Each tick-front drill replays byte for byte at one seed, the scalar and
batch crash drills agree, and every gate -- the checks CI used to run
as scripts of its own included -- turns the exit code to 1 when it
fails.
"""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.federation.drill import ledger_gates
from repro.wire.chaos import ChaosProfile, _chaos_gates
from repro.wire.config import WireConfig

CRASH = [
    "--ticks", "160", "--crash-at", "70", "--recover-after", "5",
    "--checkpoint-every", "30",
]
SURGE = ["--ticks", "200", "--surge-start", "60", "--surge-len", "60"]

#: drill -> (command line, replayable artifacts)
TICK_DRILLS = {
    "crash": (["chaos", *CRASH], ("report.json", "slo-report.json")),
    "crash-batch": (
        ["chaos", "--batch", *CRASH], ("report.json", "slo-report.json")
    ),
    "federation": (
        ["chaos", "--federation", "--ticks", "240"],
        ("federation-report.json", "slo-report.json"),
    ),
    "surge": (
        ["chaos", "--surge", *SURGE],
        ("report.json", "slo-report.json", "autoscale-trace.json"),
    ),
}


@pytest.mark.parametrize("drill", sorted(TICK_DRILLS))
def test_same_seed_artifacts_are_byte_identical(drill, tmp_path, capsys):
    argv, artifacts = TICK_DRILLS[drill]
    for run in ("a", "b"):
        assert main([*argv, "--out", str(tmp_path / run)]) == 0
    for name in artifacts:
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes(), name


def test_batch_crash_drill_matches_scalar(tmp_path, capsys):
    reports = {}
    for name, extra in (("scalar", []), ("batch", ["--batch"])):
        assert main(["chaos", *extra, "--out", str(tmp_path / name)]) == 0
        reports[name] = json.loads(
            (tmp_path / name / "report.json").read_text()
        )
    for key in ("recovery", "traffic", "watchdog_trips"):
        assert reports["scalar"][key] == reports["batch"][key], key


#: drill -> (command line, a gate it fails)
FAILING = {
    "crash-slow": (
        ["chaos", *CRASH, "--max-recovery-ticks", "0"], "recovered_in_bound"
    ),
    # Crash before the first checkpoint: nothing to restore.
    "crash-early": (
        ["chaos", "--ticks", "160", "--crash-at", "20", "--recover-after",
         "5", "--checkpoint-every", "50"],
        "sources_restored",
    ),
    # Crash on a checkpoint tick: the WAL tail is empty.
    "crash-on-checkpoint": (
        ["chaos", "--batch", "--ticks", "160", "--crash-at", "60",
         "--recover-after", "5", "--checkpoint-every", "30"],
        "wal_replayed",
    ),
    # The restart comes before the silence deadline confirms the kill.
    "federation-short": (
        ["chaos", "--federation", "--ticks", "40"], "streams_re_homed"
    ),
    "surge-flat": (
        ["chaos", "--surge", *SURGE, "--load-factor", "1.0"], "surge_offered"
    ),
    "wire-soak": (
        ["wire", "--soak", "--sources", "50", "--ticks", "4",
         "--tick-seconds", "0.05", "--p99-gate-ms", "0.0001"],
        "query_p99_ok",
    ),
    "wire-chaos": (
        ["wire", "--chaos", "--sources", "24", "--ticks", "14",
         "--tick-seconds", "0.06", "--p99-gate-ms", "0.0001"],
        "query_p99_ok",
    ),
}


@pytest.mark.parametrize("drill", sorted(FAILING))
def test_failed_gate_exits_1(drill, tmp_path, capsys):
    argv, gate = FAILING[drill]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"gate {gate:<24}: FAIL" in capsys.readouterr().out


def _federation_report() -> dict:
    ledger = {"split_brain_ticks": 60}
    for fabric in ("source", "peer"):
        ledger.update(
            {
                f"{fabric}_offered": 10,
                f"{fabric}_delivered": 6,
                f"{fabric}_lost": 2,
                f"{fabric}_corrupted": 1,
                f"{fabric}_in_flight": 1,
            }
        )
    return {"re_homed": ["s0"], "federation": ledger}


@pytest.mark.parametrize(
    "change, gate",
    [
        ({"re_homed": []}, "streams_re_homed"),
        ({"split_brain_ticks": 0}, "partition_took_effect"),
        ({"source_lost": 3}, "source_fabric_conserved"),
        ({"peer_in_flight": 0}, "peer_fabric_conserved"),
    ],
)
def test_federation_ledger_gates_fire(change, gate):
    report = _federation_report()
    assert all(ledger_gates(report).values())
    if "re_homed" in change:
        report.update(change)
    else:
        report["federation"].update(change)
    failed = [name for name, ok in ledger_gates(report).items() if not ok]
    assert failed == [gate]


@pytest.mark.parametrize(
    "drains, restarts, failed",
    [
        (1, 1, []),
        (0, 0, ["drained_once", "restarted_once"]),
        (1, 0, ["restarted_once"]),
        (2, 2, ["drained_once", "restarted_once"]),
    ],
)
def test_wire_chaos_drain_restart_gates_fire(drains, restarts, failed):
    config = WireConfig(sources=4, ticks=30, ramp_ticks=2)
    runtime = SimpleNamespace(
        primed=4,
        stall_watchdog=SimpleNamespace(stalls=1),
        drains=drains,
        restarts=restarts,
    )
    coordinator = SimpleNamespace(
        profile=ChaosProfile.reference(config.ticks),
        drill={"acked_updates_lost": 0, "bit_identical": True},
        fuzz=None,
        loop_errors=[],
        rebinds=1,
    )
    gates = _chaos_gates(
        config, runtime, coordinator, {"holds": True}, p99=1.0
    )
    assert gates.pop("ok") == (not failed)
    assert sorted(name for name, ok in gates.items() if not ok) == failed
