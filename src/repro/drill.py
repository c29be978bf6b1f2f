"""The drill runner: what every seeded drill repeats, written once.

A drill is a seeded scenario plus gates.  Each subsystem owns its
scenario and returns a :class:`Drill` -- the crash drill
(:mod:`repro.resilience.drill`), the federation drill
(:mod:`repro.federation.drill`), the surge drill
(:mod:`repro.autoscale.drill`) and the wire soak and chaos runs
(:mod:`repro.wire.soak`, :mod:`repro.wire.chaos`).  This module writes
the artifacts as canonical JSON, prints the summary and the gate table
and turns the gates into the exit code, so ``python -m repro chaos``
fails on exactly the checks CI fails on.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.obs import build_snapshot, write_snapshot

__all__ = ["Drill", "bench_snapshot", "write_json"]


def write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` as canonical JSON (sorted keys, two-space
    indent, one trailing newline), creating the parent directory.

    Equal payloads give equal bytes: the replayable-artifact contract
    the same-seed ``cmp`` checks rest on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def bench_snapshot(
    telemetry, gauges: dict[str, float | None], meta: dict
) -> dict:
    """A ``repro.obs`` bench snapshot for ``repro benchdiff``.

    Sets every gauge that has a value on the run's telemetry and empties
    the sampled history: benchdiff judges gauges, and the counters
    already prove the pipe end to end.
    """
    for name, value in gauges.items():
        if value is not None:
            telemetry.metrics.gauge(name).set(float(value))
    snapshot = build_snapshot(telemetry, meta=meta)
    snapshot["history"] = {**snapshot["history"], "samples": 0, "series": []}
    return snapshot


@dataclasses.dataclass
class Drill:
    """One finished drill run, ready for the runner.

    Attributes:
        report: The drill's main payload, for callers that read it.
        gates: ``{gate: passed}``; any failed gate makes the exit code 1.
        lines: Summary lines printed above the gate table.
        artifacts: ``path -> payload`` written as canonical JSON.
        snapshots: ``path -> repro.obs snapshot`` written through
            :func:`~repro.obs.write_snapshot`, which validates first.
    """

    report: dict
    gates: dict[str, bool]
    lines: list[str] = dataclasses.field(default_factory=list)
    artifacts: dict = dataclasses.field(default_factory=dict)
    snapshots: dict = dataclasses.field(default_factory=dict)

    def write(self) -> None:
        """Write every artifact and snapshot."""
        for path, payload in self.artifacts.items():
            write_json(path, payload)
        for path, snapshot in self.snapshots.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            write_snapshot(path, snapshot)

    def finish(self) -> int:
        """Write the artifacts, print the summary and the gate table,
        and return the process exit code."""
        self.write()
        for line in self.lines:
            print(line)
        for name, passed in sorted(self.gates.items()):
            print(f"gate {name:<24}: {'ok' if passed else 'FAIL'}")
        return 0 if all(self.gates.values()) else 1
