"""Surge drill: seeded load-surge scenario for the inbox autoscaler.

The drill builds a scalar :class:`~repro.dsms.engine.StreamEngine` with a
small bounded inbox, offers it a fleet of random-walk streams, and
mid-run multiplies the walk volatility so the per-tick update rate jumps
by ``load_factor`` (every source's reading starts clearing its δ nearly
every instant, and δ-suppression stops saving traffic).  Without
intervention the inbox saturates and tail-drops; drops trigger gap
detection and retransmissions, which feed the congestion.

Run once with the autoscaler armed and once without (same seed, same
``OverloadPolicy``) and the comparison isolates what prediction buys:

* the **reactive** controller widens one step per cooldown only after
  the high watermark is already breached -- during the lag the inbox
  pins at capacity and sheds by *dropping*, which is unaccounted error
  and retransmit fuel;
* the **predictive** controller sees the arrival-rate forecast cross
  the plan watermark and widens δ *before* the budget blows, so load
  falls while the inbox still has headroom, then restores the moment
  the forecast clears -- every shed tick charged to the exact
  ``(scale - 1) * δ`` account and unwound LIFO.

Everything is deterministic for a given seed: streams, fault-free
transport, tick-indexed control decisions.  ``repro chaos --surge``
(:func:`surge_drill`) and ``benchmarks/test_bench_autoscale.py`` both
run through :func:`run_surge_drill` so the CLI artifact and the
committed benchmark measure the same trajectory.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.autoscale.config import AutoscalePolicy
from repro.dkf.config import TransportPolicy
from repro.drill import Drill
from repro.dsms.engine import StreamEngine
from repro.dsms.query import ContinuousQuery
from repro.filters.models import linear_model
from repro.obs import Telemetry
from repro.obs.slo import SLORule
from repro.resilience import OverloadPolicy, ResilienceConfig
from repro.streams.base import stream_from_values

__all__ = [
    "SurgeDrillResult",
    "run_surge_drill",
    "compare_surge_drill",
    "surge_drill",
]

#: Gauge-level SLO on inbox fill: firing means the server is one burst
#: away from tail-dropping updates.
INBOX_PRESSURE_RULE = SLORule(
    name="inbox-pressure",
    kind="bound",
    objective=0.85,
    metric="inbox_utilisation",
    short_window=8,
    for_ticks=2,
    clear_ticks=8,
)


@dataclasses.dataclass(frozen=True)
class SurgeDrillResult:
    """Outcome of one surge-drill run (one engine, one seed)."""

    seed: int
    autoscale_enabled: bool
    ticks: int
    surge_start: int
    surge_end: int
    calm_rate: float
    surge_rate: float
    inbox_dropped: int
    peak_depth: int
    shed_error_total: float
    ledger: dict
    settle_ticks: int | None
    slo: dict
    slo_fired_in_surge: bool
    slo_resolved_after_surge: bool
    slo_clean: bool
    autoscale: dict | None
    overload: dict
    traffic: dict

    def as_dict(self) -> dict:
        """JSON-ready view (artifact payload)."""
        return dataclasses.asdict(self)


def _surge_truth(
    seed: int,
    ticks: int,
    sources: int,
    surge_start: int,
    surge_end: int,
    load_factor: float,
    calm_sigma: float,
) -> dict[str, np.ndarray]:
    """Random walks whose volatility jumps by ``load_factor`` mid-run.

    A DKF source transmits when the reading escapes its δ envelope, so
    scaling the innovation standard deviation scales the offered update
    rate almost one-for-one once the walk outruns the filter.
    """
    rng = np.random.default_rng(seed)
    scale = np.ones(ticks)
    scale[surge_start:surge_end] = load_factor
    truth = {}
    for i in range(sources):
        steps = rng.normal(0.0, calm_sigma, size=ticks) * scale
        truth[f"s{i:02d}"] = np.cumsum(steps)
    return truth


def run_surge_drill(
    seed: int = 7,
    *,
    ticks: int = 280,
    sources: int = 24,
    surge_start: int = 80,
    surge_len: int = 80,
    load_factor: float = 3.0,
    autoscale: AutoscalePolicy | None = None,
    overload: OverloadPolicy | None = None,
    telemetry: Telemetry | None = None,
) -> SurgeDrillResult:
    """Run the surge scenario once and audit the shed account.

    Args:
        seed: Drives the truth signals; two runs with the same seed see
            byte-identical offered load.
        ticks: Total drill length (surge must end well before it).
        sources: Stream count; priorities cycle 0/1/2 so the widening
            order (lowest first) and the tie-break (stream id) are both
            exercised.
        surge_start: First tick of the volatility surge.
        surge_len: Surge duration in ticks.
        load_factor: Volatility multiplier during the surge (~ offered
            update-rate multiplier once the walks outrun their filters).
        autoscale: Arm the predictive controller with this policy
            (None = reactive overload control only).
        overload: Inbox bounds; defaults to a deliberately tight inbox
            so the surge actually hurts.
        telemetry: Pass a handle to keep the event stream (the CLI
            attaches a JSONL writer); defaults to a fresh one.
    """
    surge_end = surge_start + surge_len
    if not 0 < surge_start < surge_end < ticks:
        raise ValueError("need 0 < surge_start < surge_start+surge_len < ticks")
    policy = overload or OverloadPolicy(
        inbox_capacity=16,
        drain_per_tick=7,
        high_watermark=0.55,
        low_watermark=0.1,
        widen_factor=2.0,
        max_widen=8.0,
        cooldown_ticks=8,
    )
    tel = telemetry or Telemetry()
    tel.slo.install_defaults()
    tel.slo.add_rule(INBOX_PRESSURE_RULE)

    engine = StreamEngine(
        telemetry=tel,
        resilience=ResilienceConfig(overload=policy),
        autoscale=autoscale,
    )
    truth = _surge_truth(
        seed, ticks, sources, surge_start, surge_end,
        load_factor, calm_sigma=0.3,
    )
    for i, (source_id, values) in enumerate(sorted(truth.items())):
        engine.add_source(
            source_id,
            linear_model(dims=1, dt=1.0),
            stream_from_values(values, name=source_id),
            transport=TransportPolicy(ack_timeout_ticks=4),
            priority=i % 3,
        )
        engine.submit_query(
            ContinuousQuery(source_id, delta=1.0, query_id=f"q-{source_id}")
        )

    inbox = engine.inbox
    controller = engine.overload
    offered_prev = 0
    offered_per_tick: list[int] = []
    peak_depth = 0
    settle_ticks: int | None = None
    for _ in range(ticks):
        engine.step()
        offered = inbox.accepted + inbox.dropped
        offered_per_tick.append(offered - offered_prev)
        offered_prev = offered
        peak_depth = max(peak_depth, inbox.depth)
        tel.gauge("inbox_utilisation", inbox.depth / inbox.capacity)
        if (
            settle_ticks is None
            and engine.ticks > surge_end
            and controller.ledger()["balanced"]
        ):
            settle_ticks = engine.ticks - surge_end

    rates = np.asarray(offered_per_tick, dtype=float)
    # Skip the priming burst (every source transmits at tick 0) when
    # measuring the calm offered rate.
    calm = rates[max(8, surge_start // 4):surge_start]
    surge = rates[surge_start:surge_end]
    ledger = controller.ledger()
    ledger.pop("stack", None)
    alert = tel.slo.alerts[INBOX_PRESSURE_RULE.name]
    fired = alert.fired_between(surge_start, surge_end + 1)
    return SurgeDrillResult(
        seed=seed,
        autoscale_enabled=autoscale is not None,
        ticks=engine.ticks,
        surge_start=surge_start,
        surge_end=surge_end,
        calm_rate=float(calm.mean()),
        surge_rate=float(surge.mean()),
        inbox_dropped=inbox.dropped,
        peak_depth=peak_depth,
        shed_error_total=float(ledger["shed_error_total"]),
        ledger=ledger,
        settle_ticks=settle_ticks,
        slo=tel.slo.report(),
        slo_fired_in_surge=fired,
        slo_resolved_after_surge=alert.resolved_after(surge_start),
        slo_clean=not fired,
        autoscale=(
            {
                **engine.autoscaler.report(),
                "trace": engine.autoscaler.trace(),
            }
            if autoscale is not None
            else None
        ),
        overload=controller.report(),
        traffic=engine.report().to_dict(),
    )


def compare_surge_drill(
    seed: int = 7,
    *,
    ticks: int = 280,
    sources: int = 24,
    surge_start: int = 80,
    surge_len: int = 80,
    load_factor: float = 3.0,
    settle_window: int = 64,
    policy: AutoscalePolicy | None = None,
) -> dict:
    """Run the drill with and without the autoscaler; gate the claims.

    Returns a dict with both :class:`SurgeDrillResult` payloads and a
    ``gates`` section -- each gate is the pass/fail of one acceptance
    claim:

    * ``surge_offered``: the surge really multiplied offered load
      (surge rate >= 2x calm rate -- δ-suppression absorbs part of the
      nominal ``load_factor``).
    * ``slo_held``: with the autoscaler, the inbox-pressure SLO either
      never fired during the surge or resolved within
      ``settle_window`` ticks of the surge ending.
    * ``ledger_balanced``: every planned/reactive widen step was
      restored (shed == restored, nothing left widened).
    * ``shed_error_reduced``: the audited δ-shed error with the
      autoscaler is strictly lower than without it.
    * ``fewer_drops``: the predictive run tail-dropped no more inbox
      messages than the reactive run.
    """
    kwargs = dict(
        ticks=ticks,
        sources=sources,
        surge_start=surge_start,
        surge_len=surge_len,
        load_factor=load_factor,
    )
    enabled = run_surge_drill(
        seed, autoscale=policy or AutoscalePolicy(), **kwargs
    )
    disabled = run_surge_drill(seed, autoscale=None, **kwargs)
    surge_end = surge_start + surge_len
    slo_held = enabled.slo_clean or (
        enabled.slo_resolved_after_surge
        and enabled.settle_ticks is not None
        and enabled.settle_ticks <= settle_window
    )
    gates = {
        "surge_offered": enabled.surge_rate >= 2.0 * enabled.calm_rate,
        "slo_held": slo_held,
        "ledger_balanced": bool(enabled.ledger["balanced"]),
        "shed_error_reduced": (
            enabled.shed_error_total < disabled.shed_error_total
        ),
        "fewer_drops": enabled.inbox_dropped <= disabled.inbox_dropped,
    }
    return {
        "seed": seed,
        "load_factor": load_factor,
        "settle_window": settle_window,
        "enabled": enabled.as_dict(),
        "disabled": disabled.as_dict(),
        "gates": gates,
        "passed": all(gates.values()),
    }


def surge_drill(
    out: str | Path,
    *,
    seed: int = 7,
    ticks: int = 280,
    surge_start: int = 80,
    surge_len: int = 80,
    load_factor: float = 3.0,
    settle_window: int = 64,
) -> Drill:
    """The ``repro chaos --surge`` drill: :func:`compare_surge_drill`
    with its three artifacts under ``out``.

    * ``report.json`` -- both runs plus the gates;
    * ``slo-report.json`` -- the armed run's SLO/alert state;
    * ``autoscale-trace.json`` -- every control-interval decision the
      planner made, with the forecast inputs that produced it.

    All three are pure tick-indexed control flow, so two runs with the
    same ``seed`` produce byte-identical files.
    """
    out = Path(out)
    comparison = compare_surge_drill(
        seed,
        ticks=ticks,
        surge_start=surge_start,
        surge_len=surge_len,
        load_factor=load_factor,
        settle_window=settle_window,
    )
    enabled = comparison["enabled"]
    disabled = comparison["disabled"]
    gates = comparison["gates"]
    lines = [
        "=== surge drill (predictive vs reactive) ===",
        f"offered rate        : calm {enabled['calm_rate']:.2f}/tick -> "
        f"surge {enabled['surge_rate']:.2f}/tick "
        f"(x{enabled['surge_rate'] / max(enabled['calm_rate'], 1e-9):.1f})",
    ]
    for label, run in (("predictive", enabled), ("reactive  ", disabled)):
        lines.append(
            f"{label}          : shed error {run['shed_error_total']:8.1f}, "
            f"drops {run['inbox_dropped']:4d}, "
            f"widen steps {run['ledger']['widen_steps']:3d}, "
            f"settle {run['settle_ticks']} ticks"
        )
    saved = disabled["shed_error_total"] - enabled["shed_error_total"]
    lines += [
        f"prediction saved    : {saved:.1f} bounded error "
        f"({saved / max(disabled['shed_error_total'], 1e-9):.0%} of the "
        "reactive total)",
        f"artifacts           : {out}/",
    ]
    return Drill(
        report=comparison,
        gates=gates,
        lines=lines,
        artifacts={
            out / "report.json": comparison,
            out / "slo-report.json": {
                "seed": comparison["seed"],
                "slo": enabled["slo"],
                "gates": gates,
                "surge": {
                    "start": enabled["surge_start"],
                    "end": enabled["surge_end"],
                    "load_factor": comparison["load_factor"],
                },
            },
            out / "autoscale-trace.json": (
                (enabled["autoscale"] or {}).get("trace", [])
            ),
        },
    )
