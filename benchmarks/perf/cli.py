"""Command line: one workload per run, every declared metric printed.

``BENCHMARK.json`` at the repo root is the single list of metric names,
units, directions and bounds; the workload modules compute values by
name and this module refuses to finish when the two disagree.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Seconds before a stuck run dumps every stack and exits non-zero (the
#: benchmark contract allows a run 180 s).
HARD_DEADLINE_S = 170
#: ``--selfcheck`` fails when two sets of runs of the same code differ
#: by more than this share of a metric's bound.
SELFCHECK_SHARE = 0.5

_ROOT = Path(__file__).resolve().parents[2]


def load_spec() -> dict:
    """The benchmark's declaration (``BENCHMARK.json``)."""
    return json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, scale: float, trace: bool):
    """Run one workload in this process.

    Returns a dict with ``end_to_end`` and ``layers`` (metric name ->
    value), ``operations`` (what was attempted and what failed, by
    kind) with their ``attempted``/``failed`` totals, ``correct``, the
    workload ``digest``, the ``disturbed`` flag and ``sources``.
    """
    from . import tick, wire

    module = tick if name in tick.WORKLOADS else wire
    return module.run(name, seed, seconds, scale, trace)


def _emit(spec: dict, result: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the contract's JSON."""
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "layers": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for section, units in declared.items():
        unknown = set(result[section]) - set(units)
        if unknown:
            raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    missing = set(declared["end_to_end"]) - set(result["end_to_end"])
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    # A layer the workload never enters did no work: it reads 0.
    layers = {name: 0.0 for name in declared["layers"]} | result["layers"]

    print("end-to-end (timed run, spans off)")
    for name, unit in declared["end_to_end"].items():
        print(f"  {name:<34} {result['end_to_end'][name]:>16.6g} {unit}")
    print(
        "per-layer"
        + ("" if trace else " (counts only; --trace 1 adds the spans)")
    )
    for name, unit in declared["layers"].items():
        if name in result["layers"]:
            print(f"  {name:<34} {layers[name]:>16.6g} {unit}")

    section, values = (
        ("layers", layers) if trace else ("end_to_end", result["end_to_end"])
    )
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared[section].items()
        },
    }


def _one_run(args, spec: dict) -> int:
    faulthandler.dump_traceback_later(HARD_DEADLINE_S, exit=True)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = run_workload(
        args.workload, args.seed, seconds, args.scale, bool(args.trace)
    )
    print(
        f"workload {args.workload} seed {args.seed} seconds {seconds:g} "
        f"scale {args.scale:g} sources {result['sources']} "
        f"digest {result['digest']:#010x} "
        f"disturbed {'yes' if result['disturbed'] else 'no'}"
    )
    print(
        "operations "
        + " ".join(f"{key} {value}" for key, value in result["operations"].items())
    )
    line = _emit(spec, result, bool(args.trace))
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _child(workload: str, seed: int, seconds: float | None) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).with_name("run.py")),
        "--workload", workload,
        "--seed", str(seed),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=HARD_DEADLINE_S + 30
    )
    lines = done.stdout.splitlines()
    # A run whose gate failed exits 1 but still reports; only a run that
    # died without a result stops the self-check.
    if not lines or not lines[-1].startswith('{"correct"'):
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["operations"] = next(
        line for line in lines if line.startswith("operations ")
    )
    return result


def _spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _selfcheck(args, spec: dict) -> int:
    """Two interleaved sets of runs of the same code, compared per metric."""
    workloads = (
        [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    )
    verdict = 0
    for workload in workloads:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for i in range(2 * args.runs):
            line = _child(workload, args.seed + i // 2, args.seconds)
            if not line["correct"] or line["failed"]:
                print(f"{workload}: run {i} failed: {line['operations']}")
                verdict = 1
            sets[i % 2].append(line["metrics"])
            print(
                f"{workload} set {'AB'[i % 2]} seed {args.seed + i // 2}: "
                + " ".join(f"{m['value']:.5g}" for m in line["metrics"].values()),
                flush=True,
            )
        print(
            f"{workload}: two sets of {args.runs} runs, seeds "
            f"{args.seed}..{args.seed + args.runs - 1}"
        )
        print(
            f"  {'metric':<24}{'median A':>14}{'median B':>14}"
            f"{'gap':>8}{'spread A':>10}{'spread B':>10}{'bound':>8}"
        )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run[name]["value"] for run in s] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / med_a
            spreads = (_spread(a), _spread(b))
            flag = ""
            if gap > SELFCHECK_SHARE * bound:
                flag, verdict = "  GAP", 1
            elif name != "setup_s" and max(spreads) > bound:
                flag, verdict = "  SPREAD", 1
            elif name != "setup_s" and max(spreads) > bound / 3:
                flag = "  (spread above a third of the bound)"
            print(
                f"  {name:<24}{med_a:>14.6g}{med_b:>14.6g}{gap:>8.2%}"
                f"{spreads[0]:>10.2%}{spreads[1]:>10.2%}{bound:>8.1%}{flag}"
            )
    return verdict


def main(argv: list[str]) -> int:
    """Parse ``argv`` and run; returns the process exit code."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"length of the measured phase (default {spec['run_seconds']})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: repeat the workload with spans on and report the layers",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply source counts (ad-hoc runs and the smoke test; "
        "only scale 1 is the benchmark)",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run two interleaved sets of --runs runs and compare medians",
    )
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return _selfcheck(args, spec)
    if args.workload is None:
        parser.error("--workload is required")
    return _one_run(args, spec)
