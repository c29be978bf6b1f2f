"""The resilience shell both tick engines wear around their server state.

:class:`~repro.dsms.engine.StreamEngine` keeps its server half in a
:class:`~repro.dkf.server.DKFServer`,
:class:`~repro.scale.engine.BatchStreamEngine` in shard filter banks; the
guards around that state -- checkpoint cadence and snapshot writing, the
server crash flag, the recovery handshake, the guard reports -- are the
same code, held here once.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, QueryError, UnknownSourceError
from repro.obs.exporters import build_snapshot
from repro.obs.telemetry import NULL_TELEMETRY
from repro.resilience.checkpoint import CheckpointStore, build_checkpoint
from repro.resilience.config import ResilienceConfig
from repro.resilience.supervisor import StreamSupervisor
from repro.resilience.watchdog import DivergenceWatchdog

__all__ = ["ResilienceShell"]


class ResilienceShell:
    """Guards, crash/recovery skeleton and reports shared by the engines.

    Subclasses provide ``answers()``, ``_answer_for(query)`` (one
    query's answer, None when it has none) and ``report()`` plus how their
    server state is exported (:meth:`_export_server`), reset
    (:meth:`_reset_server`), restored (:meth:`_import_source`), replayed
    (:meth:`_replay_wal`) and rolled forward (:meth:`_roll_forward`), and
    the ``_dropped_while_down`` count.
    """

    def __init__(
        self, telemetry=None, resilience: ResilienceConfig | None = None
    ) -> None:
        self._tel = telemetry or NULL_TELEMETRY
        self._resilience = resilience
        if resilience is not None:
            resilience.validate()
        self._track_health = (
            resilience is not None and resilience.watchdog is not None
        )
        self._ticks = 0
        self._faults = None
        self._server_down = False
        self._recoveries = 0
        self._ckpt: CheckpointStore | None = None
        self._watchdog: DivergenceWatchdog | None = None
        self._supervisor: StreamSupervisor | None = None
        if resilience is not None:
            if resilience.checkpoint_dir is not None:
                self._ckpt = CheckpointStore(resilience.checkpoint_dir)
            if resilience.watchdog is not None:
                self._watchdog = DivergenceWatchdog(
                    resilience.watchdog, telemetry=self._tel
                )
            if resilience.restart is not None:
                self._supervisor = StreamSupervisor(
                    resilience.restart, telemetry=self._tel
                )

    @property
    def ticks(self) -> int:
        """Sampling instants processed so far."""
        return self._ticks

    @property
    def faults(self):
        """The injected fault schedule, if any."""
        return self._faults

    @property
    def telemetry(self):
        """The telemetry handle (the no-op singleton when unobserved)."""
        return self._tel

    @property
    def resilience(self) -> ResilienceConfig | None:
        """The installed resilience configuration, if any."""
        return self._resilience

    @property
    def server_down(self) -> bool:
        """Whether :meth:`crash_server` killed the server process."""
        return self._server_down

    @property
    def checkpoint_store(self) -> CheckpointStore | None:
        """The durable checkpoint + WAL pair (None when disabled)."""
        return self._ckpt

    @property
    def watchdog(self) -> DivergenceWatchdog | None:
        """The divergence watchdog (None when disabled)."""
        return self._watchdog

    @property
    def supervisor(self) -> StreamSupervisor | None:
        """The restart supervisor (None when disabled)."""
        return self._supervisor

    def answer(self, query_id: str):
        """The current answer for one query, built alone (no scan)."""
        try:
            found = self._answer_for(self.registry.query(query_id))
        except QueryError:
            found = None
        if found is None:
            raise UnknownSourceError(f"no answer available for query {query_id!r}")
        return found

    # Checkpoints ----------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        """Write a periodic snapshot when the cadence says so."""
        if (
            self._resilience is None
            or not self._resilience.checkpoint_every
            or self._ckpt is None
            or self._server_down
        ):
            return
        if self._ticks % self._resilience.checkpoint_every == 0:
            self.checkpoint()

    def checkpoint(self) -> int:
        """Snapshot the full server filter bank to durable storage.

        Writes one atomic ``repro.ckpt-v1`` snapshot (per-source state
        vector, covariance, clock and sequence expectations) and
        truncates the WAL it supersedes.  Returns the framed size in
        bytes.

        Raises:
            ConfigurationError: When no checkpoint directory is
                configured or the server is down.
        """
        if self._ckpt is None:
            raise ConfigurationError(
                "checkpointing requires a ResilienceConfig with a "
                "checkpoint_dir"
            )
        if self._server_down:
            raise ConfigurationError("cannot checkpoint a dead server")
        server_clock, sources = self._export_server()
        size = self._ckpt.save(
            build_checkpoint(
                self._ticks,
                server_clock,
                sources,
                meta={"recoveries": self._recoveries},
            )
        )
        if self._tel.enabled:
            self._tel.emit(
                "checkpoint.write", bytes=size, sources=len(sources)
            )
            self._tel.count("checkpoint_writes_total")
            self._tel.gauge("checkpoint_bytes", size)
        return size

    # Crash and recovery ---------------------------------------------------

    def crash_server(self) -> int:
        """Kill the central server process mid-run.

        Every in-memory filter dies with it; only the checkpoint and WAL
        survive.  Until :meth:`recover`, deliveries are dropped on the
        floor (the link still counts them delivered -- that is what
        happens to packets that reach a dead host), sources keep
        sampling and their un-acked messages age toward retransmission,
        and ``answers()`` serves the cached last-known values flagged
        ``degraded``.  Returns the number of queued inbox messages lost.

        Raises:
            ConfigurationError: When resilience is not enabled (the
                non-resilient engine has no recovery path, so a crash
                would just be a broken simulation).
        """
        if self._resilience is None:
            raise ConfigurationError(
                "crash_server requires a ResilienceConfig"
            )
        if self._server_down:
            return 0
        self._server_down = True
        lost = self._drop_queued()
        if self._tel.enabled:
            self._tel.emit("server.crash", inbox_lost=lost)
            self._tel.count("server_crashes_total")
        return lost

    def _drop_queued(self) -> int:
        """Discard deliveries queued ahead of a dead server (none here)."""
        return 0

    def recover(self) -> dict[str, int]:
        """Rebuild the server from the last checkpoint plus WAL replay.

        The recovery handshake:

        1. a fresh server side registers every installed source (configs
           live in the engine, not the dead process);
        2. the checkpoint restores each source's ``(x, P, k)``, counters
           and sequence expectations;
        3. the WAL tail replays every update/resync applied since the
           snapshot, interleaving the prediction steps the original run
           performed (the filter arithmetic is deterministic, so replay
           reconstructs the exact pre-crash estimates);
        4. each filter rolls forward to the present (it predicted
           nothing while dead, its mirror predicted every tick);
        5. sources whose sequence numbers advanced past what the
           restored server expects are asked for a resync snapshot --
           the same message that heals a lossy link heals a reborn
           server.

        Returns a summary dict (``restored_sources``, ``wal_replayed``,
        ``resync_requests``, ``dropped_while_down``).
        """
        if self._resilience is None:
            raise ConfigurationError("recover requires a ResilienceConfig")
        dropped = self._dropped_while_down
        self._reset_server()
        self._server_down = False
        snapshot = self._ckpt.load() if self._ckpt is not None else None
        restored = 0
        if snapshot is not None:
            for source_id, data in snapshot["sources"].items():
                restored += bool(self._import_source(source_id, data))
        replayed = self._replay_wal() if self._ckpt is not None else 0
        summary = {
            "restored_sources": restored,
            "wal_replayed": replayed,
            "resync_requests": self._roll_forward(),
            "dropped_while_down": dropped,
        }
        self._recoveries += 1
        if self._tel.enabled:
            self._tel.emit("recovery.replay", **summary)
            self._tel.count("recoveries_total")
        return summary

    # Reports --------------------------------------------------------------

    def resilience_report(self) -> dict[str, object]:
        """Summary of every resilience guard's activity this run."""
        report: dict[str, object] = {
            "enabled": self._resilience is not None,
            "recoveries": self._recoveries,
            "server_down": self._server_down,
            "dropped_while_down": self._dropped_while_down,
        }
        if self._watchdog is not None:
            report["watchdog"] = self._watchdog.report()
        if self._supervisor is not None:
            report["supervisor"] = self._supervisor.report()
        return report

    def obs_snapshot(self, meta: dict | None = None) -> dict:
        """Telemetry snapshot of this run (``repro.obs/v2`` schema).

        Merges the engine's traffic report into ``meta`` so a snapshot is
        self-describing even when telemetry was disabled (counters empty).
        Building the snapshot flushes the final tick into the metric
        history, so the exported series cover the whole run.
        """
        merged = {"ticks": self._ticks, "report": self.report().to_dict()}
        if self._resilience is not None:
            merged["resilience"] = self.resilience_report()
        if meta:
            merged.update(meta)
        return build_snapshot(self._tel, meta=merged)
