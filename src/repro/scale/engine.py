"""Batch stream engine: the scalar engine's API over sharded filter banks.

:class:`BatchStreamEngine` presents the same surface as
:class:`~repro.dsms.engine.StreamEngine` -- ``add_source`` /
``submit_query`` / ``step`` / ``run`` / ``answers`` / ``report`` /
``checkpoint`` / ``crash_server`` / ``recover`` / ``obs_snapshot`` -- but
runs every stream inside a :class:`~repro.scale.shard.ShardRuntime`,
where the per-stream Kalman arithmetic and protocol bookkeeping are
batched numpy operations over all rows of a shard at once.

The contract is *report equality*: a seeded run produces the same
transmissions, the same traffic ledger and the same query answers (to
float accumulation noise) as the scalar engine.  What the batch engine
deliberately does not support raises
:class:`~repro.errors.ConfigurationError` up front rather than silently
diverging:

* time-varying models (callable matrices) -- cannot batch;
* source-side smoothing (``KF_c``), mirror digests, outlier gates --
  scalar per-row features the bank does not replicate;
* latent or ack-lossy links -- the batch transport is synchronous;
* overload shedding (bounded inbox) -- there is no inbox; deliveries
  apply inside the sending step.

Loss/corruption fault schedules, crash/restart faults, checkpoints, WAL
replay, the divergence watchdog and server crash/recovery are all
supported: faulty rows drop to a per-row slow path while the healthy
rest of the shard stays vectorized.

Scaling controls on top of the scalar API:

* ``max_shard_rows`` caps shard width (placement is by model
  signature, see :func:`~repro.scale.shard.model_signature`);
* ``latency_budget_us`` arms DRS-style rebalancing -- a shard whose
  per-step latency EMA exceeds the budget is split in half;
* ``workers`` runs independent shards through a
  :class:`~repro.scale.pool.WorkerPool` during :meth:`run` (process
  parallelism; falls back to inline stepping whenever cross-shard
  state -- faults, resilience, telemetry -- must stay coherent).
"""

from __future__ import annotations

import time

import numpy as np

from repro.autoscale.config import AutoscalePolicy
from repro.autoscale.controller import ShardAutoscaler
from repro.dkf.config import TransportPolicy
from repro.dsms.energy import EnergyModel
from repro.dsms.engine import EngineReport
from repro.dsms.faults import FaultSchedule
from repro.dsms.linkfaults import either
from repro.dsms.network import LinkConfig
from repro.dsms.query import ContinuousQuery, QueryAnswer
from repro.dsms.registry import SourceRegistry
from repro.errors import ConfigurationError, UnknownSourceError
from repro.filters.models import StateSpaceModel
from repro.resilience.config import ResilienceConfig
from repro.resilience.shell import ResilienceShell
from repro.scale.pool import WorkerPool
from repro.scale.shard import ShardRouter, ShardRuntime, model_signature
from repro.streams.base import MaterializedStream

__all__ = ["BatchStreamEngine"]

#: EMA smoothing for the per-shard step-latency estimate.
_EMA_ALPHA = 0.2


class BatchStreamEngine(ResilienceShell):
    """Sharded, vectorized drop-in for :class:`StreamEngine`.

    Args:
        energy_model: Cost model for the per-source energy report.
        telemetry: Observability handle (omit for the silent default).
        resilience: Optional guards -- checkpoints, watchdog, restart
            supervisor.  An ``overload`` policy is rejected: the batch
            engine has no server inbox to bound.
        max_shard_rows: Widest shard the router will build.
        workers: Process count for :meth:`run`'s shard parallelism
            (``0``/``1`` = inline).
        latency_budget_us: Per-step shard latency budget; when a shard's
            EMA exceeds it the shard splits in two (None disables).
        autoscale: Optional
            :class:`~repro.autoscale.config.AutoscalePolicy` arming the
            predictive control loop: Kalman forecasts of per-shard step
            latency drive shard splits, state-preserving merges and
            worker-pool resizes ahead of the budget, with the reactive
            EMA split as backstop.  Requires ``latency_budget_us`` (the
            SLO the planner sizes against).
    """

    def __init__(
        self,
        energy_model: EnergyModel | None = None,
        telemetry=None,
        resilience: ResilienceConfig | None = None,
        max_shard_rows: int = 4096,
        workers: int = 0,
        latency_budget_us: float | None = None,
        autoscale: AutoscalePolicy | None = None,
    ) -> None:
        if resilience is not None and resilience.overload is not None:
            raise ConfigurationError(
                "the batch engine applies deliveries synchronously and "
                "has no server inbox; overload shedding requires the "
                "scalar StreamEngine"
            )
        super().__init__(telemetry, resilience)
        self.registry = SourceRegistry()
        self._router = ShardRouter(
            max_shard_rows=max_shard_rows, track_health=self._track_health
        )
        self._pool = WorkerPool(workers)
        self._latency_budget_us = latency_budget_us
        self._shard_ema_us: dict[str, float] = {}
        self._rebalances = 0
        self._merges = 0
        self._autoscaler: ShardAutoscaler | None = None
        if autoscale is not None:
            autoscale.validate()
            if latency_budget_us is None:
                raise ConfigurationError(
                    "the shard autoscaler plans against the per-step "
                    "latency budget; pass latency_budget_us alongside "
                    "the autoscale policy"
                )
            self._autoscaler = ShardAutoscaler(
                autoscale, telemetry=self._tel
            )

        self._energy = energy_model or EnergyModel()
        self._where: dict[str, tuple[ShardRuntime, int]] = {}
        self._models: dict[str, StateSpaceModel] = {}
        self._streams: dict[str, MaterializedStream] = {}
        self._transports: dict[str, TransportPolicy] = {}
        self._priorities: dict[str, int] = {}
        self._server_clock = 0

    # ------------------------------------------------------------------
    # Introspection (scalar-parity properties)
    # ------------------------------------------------------------------

    @property
    def shards(self) -> list[ShardRuntime]:
        """Live shard runtimes (read-only view for tests and tooling)."""
        return list(self._router.shards)

    @property
    def autoscaler(self) -> ShardAutoscaler | None:
        """The predictive shard autoscaler, if armed."""
        return self._autoscaler

    @property
    def server(self):
        """Unavailable here: batched server state has no DKFServer object."""
        raise ConfigurationError(
            "the batch engine has no DKFServer object -- server state "
            "lives in the shard filter banks; use engine.stats(), "
            ".value(), .forecast() and .answers() instead"
        )

    @property
    def fabric(self):
        """Unavailable here: link counters live in the shard arrays."""
        raise ConfigurationError(
            "the batch engine has no NetworkFabric -- link counters live "
            "in the shard arrays; use engine.report() instead"
        )

    @property
    def sources(self):
        """Unavailable here: mirror state has no DKFSource objects."""
        raise ConfigurationError(
            "the batch engine has no DKFSource objects -- mirror state "
            "lives in the shard filter banks; use engine.stats() instead"
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def add_source(
        self,
        source_id: str,
        model: StateSpaceModel,
        stream: MaterializedStream,
        link: LinkConfig | None = None,
        default_smoothing_r: float = 1.0,
        transport: TransportPolicy | None = None,
        priority: int = 0,
    ) -> None:
        """Register a source, its model and its data stream.

        The batch transport is synchronous and lossless by construction
        (fault schedules layer loss back in per row), so only the default
        zero-latency :class:`LinkConfig` is accepted.
        """
        if link is not None and (
            link.latency_ticks != 0
            or link.ack_latency_ticks != 0
            or link.loss_fn is not None
            or link.ack_loss_fn is not None
            or link.corrupt_fn is not None
        ):
            raise ConfigurationError(
                "the batch engine supports only the default synchronous "
                "link; inject loss/corruption through a FaultSchedule, or "
                "use the scalar StreamEngine for latent links"
            )
        self.registry.register_source(
            source_id, model, default_smoothing_r=default_smoothing_r
        )
        self._models[source_id] = model
        self._streams[source_id] = stream
        self._transports[source_id] = transport or TransportPolicy()
        self._priorities[source_id] = priority

    def inject_faults(self, schedule: FaultSchedule) -> None:
        """Install a fault schedule; call after every ``add_source``."""
        if schedule.has_partitions() or schedule.asymmetric_links():
            raise ConfigurationError(
                "partition and asymmetric-link faults are scalar-only; "
                "the batch transport is synchronous and has no link "
                "pipeline to sever — use the scalar StreamEngine or a "
                "FederatedCluster"
            )
        schedule.reset()
        schedule.bind_telemetry(self._tel)
        self._faults = schedule
        for source_id, (shard, row) in self._where.items():
            self._bind_row_faults(shard, row, source_id)

    def _bind_row_faults(
        self, shard: ShardRuntime, row: int, source_id: str
    ) -> None:
        schedule = self._faults
        if schedule is None:
            return
        loss = schedule.loss_fn(source_id)
        corrupt = schedule.corrupt_fn(source_id)
        if loss is not None or corrupt is not None:
            shard.set_link_faults(
                row,
                either(shard.loss_fns.get(row), loss),
                either(shard.corrupt_fns.get(row), corrupt),
            )
        if source_id in schedule.crash_sources():
            shard.crash_rows.add(row)
        if source_id in schedule.sensor_sources():
            shard.sensor_rows.add(row)

    @staticmethod
    def _validate_config(config) -> None:
        if config.smoothed:
            raise ConfigurationError(
                "source-side smoothing (KF_c) is scalar-only; drop "
                "smoothing_f or use the scalar StreamEngine"
            )
        if config.check_mirror:
            raise ConfigurationError(
                "mirror digests are scalar-only; the batch transport "
                "never diverges silently (it is synchronous)"
            )
        if config.outlier_gate_factor is not None:
            raise ConfigurationError(
                "the outlier gate is scalar-only; use the scalar "
                "StreamEngine for glitch-gated sources"
            )

    def submit_query(self, query: ContinuousQuery) -> None:
        """Activate a continuous query, (re)installing the source's row."""
        descriptor = self.registry.add_query(query)
        config = descriptor.build_config()
        where = self._where.get(query.source_id)
        if where is not None and not where[0].retired[where[1]]:
            if where[0].configs[where[1]] == config:
                return
        self._install(query.source_id, config)

    def retire_query(self, query_id: str) -> None:
        """Deactivate a query; park the row when none remain."""
        descriptor = self.registry.remove_query(query_id)
        source_id = descriptor.source_id
        if not descriptor.queries:
            where = self._where.get(source_id)
            if where is not None:
                shard, row = where
                shard.retired[row] = True
                shard.exhausted[row] = False
                shard.restart_pending.discard(row)
                shard.resync_prime[row] = False
                if self._watchdog is not None:
                    self._watchdog.deregister(source_id)
            return
        config = descriptor.build_config()
        shard, row = self._where[source_id]
        if shard.configs[row] != config:
            self._install(source_id, config)

    def _install(self, source_id: str, config) -> None:
        self._validate_config(config)
        transport = self._transports.get(source_id) or TransportPolicy()
        where = self._where.get(source_id)
        if where is None:
            model = self._models[source_id]
            shard = self._router.place(model)
            stream = self._streams[source_id]
            row = shard.add_row(
                source_id,
                config,
                transport,
                stream.values(),
                stream.timestamps(),
                register_clock=self._server_clock,
            )
            self._where[source_id] = (shard, row)
            self._bind_row_faults(shard, row, source_id)
        else:
            shard, row = where
            shard.reconfigure_row(row, config, self._server_clock)
            shard.retired[row] = False
        if self._watchdog is not None:
            self._watchdog.register(source_id)

    # ------------------------------------------------------------------
    # Tick loop
    # ------------------------------------------------------------------

    def _wal(self):
        if self._ckpt is None:
            return None
        append = self._ckpt.wal_append
        tel = self._tel
        if not tel.enabled:
            return append

        def append_and_count(record: dict) -> None:
            append(record)
            tel.count("wal_records_total", record["source_id"])

        return append_and_count

    def step(self) -> int:
        """Advance every queried source one sampling instant."""
        tel = self._tel
        now = self._ticks
        tel.set_tick(now)
        with tel.timers.span("engine.step"):
            processed = 0
            wal = self._wal()
            for shard in self._router.shards:
                started = time.perf_counter()
                processed += shard.step(
                    now,
                    server_down=self._server_down,
                    faults=self._faults,
                    supervisor=self._supervisor,
                    wal=wal,
                )
                self._note_latency(
                    shard, (time.perf_counter() - started) * 1e6
                )
            self._ticks += 1
            if not self._server_down:
                self._server_clock = self._ticks
            for shard in self._router.shards:
                if self._server_down:
                    shard.core.take_acks()
                else:
                    shard.flush_acks()
            self._run_watchdog()
            self._maybe_checkpoint()
            self._maybe_rebalance()
            self._maybe_autoscale(now)
        return processed

    def _all_exhausted(self) -> bool:
        for shard in self._router.shards:
            if np.any(~shard.exhausted & ~shard.retired):
                return False
        return True

    def run(self, max_ticks: int | None = None) -> int:
        """Run until every stream is exhausted (or ``max_ticks``)."""
        if self._pool.parallel and self._pool_eligible():
            return self._run_pooled(max_ticks)
        executed = 0
        while max_ticks is None or executed < max_ticks:
            if self._all_exhausted():
                break
            processed = self.step()
            if processed == 0 and self._all_exhausted():
                break
            executed += 1
        return executed

    def _pool_eligible(self) -> bool:
        """Whether shards can step independently in worker processes.

        Anything that couples shards through engine-level state each tick
        -- fault schedules, resilience guards, live telemetry, lossy rows
        -- forces the inline path.
        """
        if self._faults is not None or self._resilience is not None:
            return False
        if getattr(self._tel, "enabled", False):
            return False
        return not any(s.lossy.any() for s in self._router.shards)

    def _run_pooled(self, max_ticks: int | None) -> int:
        remaining: list[int] = []
        for shard in self._router.shards:
            shard._ensure_padded()
            live = ~shard.exhausted & ~shard.retired
            if live.any():
                remaining.append(
                    int((shard.lengths[live] - shard.pos[live]).max())
                )
        if not remaining:
            return 0
        # One extra step: the scalar run loop only discovers exhaustion
        # by attempting (and failing) a read past the end.
        full = max(max(remaining), 0) + 1
        steps = full if max_ticks is None else min(full, max_ticks)
        if steps <= 0:
            return 0
        if self._autoscaler is None:
            self._pooled_chunk(steps)
        else:
            # The predictive control loop must keep running while the
            # pool does the stepping -- otherwise the autoscaler's own
            # pool resize would disarm it (run() takes this path as
            # soon as workers > 1).  Chunk the run so each chunk ends
            # on a control tick, note the workers' per-step timings,
            # then plan exactly as the inline loop would.
            interval = self._autoscaler.policy.control_interval
            executed = 0
            while executed < steps:
                # Next tick on which the inline loop would plan (the
                # control fires after stepping tick c, c % interval == 0).
                lag = self._ticks % interval
                control = self._ticks + (interval - lag if lag else 0)
                chunk = min(steps - executed, control + 1 - self._ticks)
                self._pooled_chunk(chunk)
                executed += chunk
                now = self._ticks - 1
                for shard in self._router.shards:
                    if shard.last_step_us is not None:
                        self._note_latency(shard, shard.last_step_us)
                self._maybe_autoscale(now)
        self._server_clock = self._ticks
        return steps if steps < full else full - 1

    def _pooled_chunk(self, steps: int) -> None:
        """One pooled dispatch: advance every shard ``steps`` ticks."""
        self._router.shards[:] = self._pool.run(
            self._router.shards, self._ticks, steps
        )
        self._where = {}
        for shard in self._router.shards:
            for source_id, row in shard.index.items():
                self._where[source_id] = (shard, row)
        self._ticks += steps

    def settle(self, max_ticks: int = 256) -> int:
        """Step until the transport goes quiet (no pending acks)."""
        executed = 0
        while executed < max_ticks:
            if sum(s.pending_acks() for s in self._router.shards) == 0:
                break
            self.step()
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # Watchdog (batched battery, scalar ladder)
    # ------------------------------------------------------------------

    def _run_watchdog(self) -> None:
        if self._watchdog is None or self._server_down:
            return
        policy = self._watchdog.policy
        for shard in self._router.shards:
            rows = np.flatnonzero(shard.server.primed & ~shard.retired)
            if rows.size == 0:
                continue
            battery = shard.server.health_battery(
                rows, policy.symmetry_tol, policy.psd_tol
            )
            staleness = np.maximum(
                0, self._server_clock - shard.core.last_contact[rows]
            )
            for i, row_i in enumerate(rows):
                row = int(row_i)
                faults: list[str] = []
                if battery["state_nonfinite"][i]:
                    faults.append("state_nonfinite")
                if battery["covariance_nonfinite"][i]:
                    faults.append("covariance_nonfinite")
                else:
                    if battery["asymmetric"][i]:
                        faults.append("covariance_asymmetric")
                    elif battery["not_psd"][i]:
                        faults.append("covariance_not_psd")
                    if battery["trace"][i] > policy.trace_ceiling:
                        faults.append("covariance_trace_ceiling")
                window = shard.core.nis_windows[row]
                if window:
                    if float(window[-1]) > policy.nis_hard_limit:
                        faults.append("nis_spike")
                    elif (
                        len(window) >= 4
                        and float(np.mean(window)) > policy.nis_threshold
                    ):
                        faults.append("nis_runaway")
                if staleness[i] > policy.staleness_limit:
                    faults.append("stale")
                if shard.consec_rejects[row] >= policy.reject_limit:
                    faults.append("rejected_readings")
                action = self._watchdog.apply_faults(
                    shard.ids[row], self._ticks, faults
                )
                if action is None:
                    continue
                if action == "resync":
                    if shard.mirror.is_primed(row):
                        shard.resync_requested[row] = True
                elif action == "reprime":
                    shard.core.reprime_row(row)
                    if shard.mirror.is_primed(row):
                        shard.resync_requested[row] = True
                # "quarantine": answers() reads the watchdog rung.

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    def _note_latency(self, shard: ShardRuntime, micros: float) -> None:
        prev = self._shard_ema_us.get(shard.shard_id)
        self._shard_ema_us[shard.shard_id] = (
            micros if prev is None
            else (1 - _EMA_ALPHA) * prev + _EMA_ALPHA * micros
        )
        if self._autoscaler is not None:
            self._autoscaler.note(self._ticks, shard.shard_id, micros)

    def _maybe_rebalance(self) -> None:
        if self._latency_budget_us is None:
            return
        for shard in list(self._router.shards):
            ema = self._shard_ema_us.get(shard.shard_id)
            if ema is None or ema <= self._latency_budget_us:
                continue
            if shard.rows < 2:
                continue
            self._split_shard(shard, ema)

    def _split_shard(
        self, shard: ShardRuntime, ema: float, **event_fields
    ) -> None:
        """Replace ``shard`` with its halves (shared split bookkeeping)."""
        low, high = shard.split()
        self._router.replace(shard, (low, high))
        self._shard_ema_us.pop(shard.shard_id, None)
        self._shard_ema_us[low.shard_id] = ema / 2
        self._shard_ema_us[high.shard_id] = ema / 2
        if self._autoscaler is not None:
            self._autoscaler.forget(shard.shard_id)
        for part in (low, high):
            for source_id, row in part.index.items():
                self._where[source_id] = (part, row)
        self._rebalances += 1
        if self._tel.enabled:
            self._tel.emit(
                "scale.rebalance",
                shard=shard.shard_id,
                rows=shard.rows,
                ema_us=ema,
                **event_fields,
            )
            self._tel.count("shard_splits_total")

    def _maybe_autoscale(self, now: int) -> None:
        """Run the predictive control loop (split/merge/pool resize)."""
        if self._autoscaler is None:
            return
        plan = self._autoscaler.control(
            now,
            budget_us=self._latency_budget_us,
            rows={s.shard_id: s.rows for s in self._router.shards},
            signatures={
                s.shard_id: model_signature(s.model)
                for s in self._router.shards
            },
            workers=self._pool.workers,
        )
        if plan is None:
            return
        by_id = {s.shard_id: s for s in self._router.shards}
        for shard_id in plan.split_shards:
            shard = by_id.get(shard_id)
            # A reactive rebalance may have raced the plan; stale ids
            # are skipped rather than actuated blind.
            if shard is None or shard.rows < 2:
                continue
            ema = self._shard_ema_us.get(shard_id) or 0.0
            self._split_shard(shard, ema, planned=True)
        by_id = {s.shard_id: s for s in self._router.shards}
        for first_id, second_id in plan.merge_pairs:
            first = by_id.get(first_id)
            second = by_id.get(second_id)
            if first is None or second is None or first is second:
                continue
            if first.rows + second.rows > self._router.max_shard_rows:
                continue
            merged = self._router.combine(first, second)
            by_id.pop(first_id, None)
            by_id.pop(second_id, None)
            by_id[merged.shard_id] = merged
            emas = [
                self._shard_ema_us.pop(sid, None)
                for sid in (first_id, second_id)
            ]
            known = [e for e in emas if e is not None]
            if known:
                self._shard_ema_us[merged.shard_id] = sum(known)
            self._autoscaler.forget(first_id)
            self._autoscaler.forget(second_id)
            for source_id, row in merged.index.items():
                self._where[source_id] = (merged, row)
            self._merges += 1
            if self._tel.enabled:
                self._tel.emit(
                    "scale.merge",
                    first=first_id,
                    second=second_id,
                    merged=merged.shard_id,
                    rows=merged.rows,
                )
                self._tel.count("shard_merges_total")
        if plan.workers is not None:
            self._pool.resize(plan.workers)
            if self._tel.enabled:
                self._tel.emit("scale.pool_resize", workers=plan.workers)
                self._tel.gauge("autoscale_workers", plan.workers)

    def scale_report(self) -> dict[str, object]:
        """Shard layout, latency estimates and rebalance count."""
        report: dict[str, object] = {
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "rows": s.rows,
                    "model": s.model.name,
                    "ema_us": self._shard_ema_us.get(s.shard_id),
                }
                for s in self._router.shards
            ],
            "rebalances": self._rebalances,
            "merges": self._merges,
            "workers": self._pool.workers,
        }
        if self._autoscaler is not None:
            report["autoscale"] = self._autoscaler.report()
        return report

    # ------------------------------------------------------------------
    # Answers and per-source lookups
    # ------------------------------------------------------------------

    def _locate(self, source_id: str) -> tuple[ShardRuntime, int]:
        where = self._where.get(source_id)
        if where is None or where[0].retired[where[1]]:
            raise UnknownSourceError(f"unknown source {source_id!r}")
        return where

    def stats(self, source_id: str) -> dict[str, int | bool]:
        """Per-source protocol counters (``DKFServer.stats`` shape)."""
        shard, _ = self._locate(source_id)
        return shard.core.stats(source_id)

    def value(self, source_id: str) -> np.ndarray:
        """The server's current best value for a source."""
        shard, _ = self._locate(source_id)
        return shard.core.value(source_id)

    def forecast(self, source_id: str, steps: int) -> np.ndarray:
        """Extrapolate a source's measurements ``steps`` instants ahead.

        Returns the same ``(steps, m)`` horizon as
        :meth:`repro.dkf.server.DKFServer.forecast`.
        """
        shard, _ = self._locate(source_id)
        return shard.core.forecast(source_id, steps)

    def confidence(self, source_id: str) -> float:
        """``delta / (delta + sigma)`` from the coasting covariance."""
        shard, _ = self._locate(source_id)
        return shard.core.confidence(source_id)

    def answers(self) -> list[QueryAnswer]:
        """Current answers for every active query (scalar semantics).

        One :meth:`ServerCore.answer_columns` read per shard over its
        unparked rows (a parked row has no active query), each column
        made a list once; the loop over the queries only looks them up.
        """
        reads = {
            shard: self._read(shard, np.flatnonzero(~shard.retired))
            for shard in self._router.shards
        }
        out = []
        for query in self.registry.active_queries:
            where = self._where.get(query.source_id)
            fields = None if where is None else reads[where[0]].get(where[1])
            if fields is not None:
                out.append(self._answer_at(query, fields))
        return out

    def _answer_for(self, query: ContinuousQuery) -> QueryAnswer | None:
        where = self._where.get(query.source_id)
        if where is None or where[0].retired[where[1]]:
            return None
        shard, row = where
        fields = self._read(shard, np.array([row])).get(row)
        return None if fields is None else self._answer_at(query, fields)

    def _read(self, shard: ShardRuntime, rows: np.ndarray) -> dict:
        """``{row: fields}`` for the primed ones of ``rows``.

        The fields are ``(precision, k, value, staleness, suspect,
        confidence)``; the precision is the core's copy of the row's
        ``config.min_delta``.
        """
        primed, *columns = shard.core.answer_columns(self._server_clock, rows)
        rows = rows[primed]
        lists = [shard.core.min_delta[rows].tolist()]
        lists += [column[primed].tolist() for column in columns]
        return dict(zip(rows.tolist(), zip(*lists)))

    def _answer_at(self, query, fields: tuple) -> QueryAnswer:
        """``query``'s answer from its row's :meth:`_read` fields."""
        precision, k, value, staleness, suspect, confidence = fields
        if self._tel.enabled:
            self._tel.observe(
                "staleness_at_answer_ticks",
                staleness,
                source_id=query.source_id,
            )
        # Positional, in field order: keywords cost a quarter of the build.
        return QueryAnswer(
            query.query_id,
            query.source_id,
            k,
            tuple(value),
            precision,
            staleness,
            confidence,
            suspect or self._server_down,
            self._watchdog is not None
            and self._watchdog.is_quarantined(query.source_id),
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def _live_rows(self):
        for shard in self._router.shards:
            for row in range(shard.rows):
                if not shard.retired[row]:
                    yield shard, row

    def _export_server(self) -> tuple[int, dict]:
        return self._server_clock, {
            shard.ids[row]: shard.core.export_row(row)
            for shard, row in self._live_rows()
        }

    @property
    def _dropped_while_down(self) -> int:
        return sum(s.dropped_while_down for s in self._router.shards)

    def _reset_server(self) -> None:
        self._server_clock = 0
        for shard in self._router.shards:
            shard.dropped_while_down = 0
            shard.core.take_acks()
            for row in range(shard.rows):
                if not shard.retired[row]:
                    shard.core.reset_row(row, last_contact=0)

    def _import_source(self, source_id: str, data: dict) -> bool:
        where = self._where.get(source_id)
        if where is None or where[0].retired[where[1]]:
            return False
        where[0].core.import_row(where[1], data)
        return True

    def _roll_forward(self) -> int:
        # The mirror predicted once per sampled instant while the server
        # was dead; the restored filter has not.
        for shard, row in self._live_rows():
            if not (
                shard.server.is_primed(row) and shard.mirror.is_primed(row)
            ):
                continue
            behind = shard.mirror.k_row(row) - shard.server.k_row(row)
            last_k = int(shard.core.last_k[row])
            for i in range(max(0, behind)):
                shard.server_tick_row(row, last_k + i + 1)
        self._server_clock = max(self._server_clock, self._ticks)
        for shard in self._router.shards:
            shard.core.take_acks()
        resyncs = 0
        for shard, row in self._live_rows():
            if not shard.mirror.is_primed(row):
                continue
            if int(shard.seq_next[row]) != int(shard.core.expected_seq[row]):
                shard.resync_requested[row] = True
                resyncs += 1
        return resyncs

    def _replay_wal(self) -> int:
        count = 0
        for record in self._ckpt.wal_records():
            where = self._where.get(record.get("source_id"))
            if where is None or where[0].retired[where[1]]:
                continue
            shard, row = where
            k = int(record["k"])
            last_k = int(shard.core.last_k[row])
            for t in range(last_k + 1, k + 1):
                shard.server_tick_row(row, t)
            self._server_clock = max(self._server_clock, k)
            shard.replay_apply(
                row,
                record["kind"],
                int(record["seq"]),
                k,
                record["value"],
                x=record.get("x"),
                p=record.get("p"),
            )
            count += 1
        return count

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> EngineReport:
        """System-wide traffic and energy summary (scalar shape)."""
        per_source_energy = {}
        readings = updates = retransmits = heartbeats = 0
        corrupted = acks = bytes_total = lost = 0
        for shard, row in self._live_rows():
            source_id = shard.ids[row]
            per_source_energy[source_id] = self._energy.report(
                bytes_sent=int(shard.bytes_delivered[row]),
                filter_steps=int(shard.samples_seen[row]),
                state_dim=shard.n,
                measurement_dim=shard.m,
                smoothing_steps=0,
            )
            readings += int(shard.samples_seen[row])
            updates += int(
                shard.offered[row]
                - shard.link_resyncs[row]
                - shard.link_heartbeats[row]
            )
            retransmits += int(shard.link_resyncs[row])
            heartbeats += int(shard.link_heartbeats[row])
            corrupted += int(shard.corrupted[row])
            acks += int(shard.acks_delivered[row])
            bytes_total += int(shard.bytes_delivered[row])
            lost += int(shard.lost[row])
        return EngineReport(
            ticks=self._ticks,
            readings=readings,
            updates_sent=updates,
            bytes_delivered=bytes_total,
            messages_lost=lost,
            in_flight=0,
            retransmits=retransmits,
            heartbeats=heartbeats,
            corrupted=corrupted,
            acks_delivered=acks,
            per_source_energy=per_source_energy,
        )

    def obs_snapshot(self, meta: dict | None = None) -> dict:
        """Telemetry snapshot of this run, with the shard layout added."""
        return super().obs_snapshot(
            {"scale": self.scale_report(), **(meta or {})}
        )
