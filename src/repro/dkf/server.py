"""Central-server side of the DKF protocol (``KF_s`` per source).

The server runs one Kalman filter per registered source (Section 3.1: "at
the main server we have as many filters running as the number of remote
sources").  Every sampling instant the filter advances one prediction step;
when an update message arrives the filter is corrected with the transmitted
value.  Queries are answered from the filter's current estimate -- the
*dynamic procedure cache* the paper contrasts with static value caching.

Two delivery disciplines are supported:

* **strict** (default): any sequence gap or digest mismatch raises
  :class:`~repro.errors.MirrorDesyncError`.  This is the right mode for
  in-process sessions and tests, where a gap is a bug.
* **tolerant** (``strict=False``): gaps and duplicate retransmits are
  *expected* consequences of a lossy link.  The server records them,
  refuses to apply the unsafe correction, and requests a resync through
  its ack outbox instead of raising into the delivery loop.

With ``emit_acks=True`` the server queues a cumulative
:class:`~repro.dkf.protocol.AckMessage` for every applied update/resync
(and for ignored duplicates, so the sender can settle its pending buffer);
the transport layer drains the outbox with :meth:`DKFServer.take_outbox`.
The server also tracks per-source liveness: every received message
(including heartbeats) refreshes a last-contact clock, and a source silent
past its policy's ``suspect_after_ticks`` is marked suspect so query
answers can degrade honestly instead of serving stale estimates as fresh.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import (
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    UpdateMessage,
)
from repro.errors import (
    DuplicateSourceError,
    MirrorDesyncError,
    UnknownSourceError,
)
from repro.filters.kalman import KalmanFilter
from repro.obs.events import trace_id
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = ["DKFServer", "ServerSourceState", "NIS_WINDOW"]

#: Sliding-window length of the per-source NIS health signal.
NIS_WINDOW = 16


@dataclass
class ServerSourceState:
    """Per-source state held by the server.

    Attributes:
        config: The installed DKF configuration.
        transport: Liveness policy (silence deadline) for this source.
        filter: ``KF_s`` (None until the priming update arrives).
        answer: The server's current best value for the source.
        expected_seq: Next sequence number expected from the source.
        k: Last sampling instant the filter advanced to.
        updates_received: Number of update messages applied.
        resyncs_received: Number of resync snapshots applied.
        heartbeats_received: Liveness beacons received.
        gaps_detected: Sequence gaps observed (tolerant mode only).
        duplicates_ignored: Stale retransmits discarded.
        rejected_nonfinite: Messages refused because their payload
            carried NaN/Inf values (never applied to the filter).
        last_contact: Server clock at the last received message.
        desynced: True between a detected gap/digest mismatch and the
            healing resync.
        last_nis: Normalised innovation squared of the last applied
            update (health tracking only; None otherwise).
        nis_window: Sliding window of recent NIS values feeding the
            divergence watchdog (None unless health tracking is on).
    """

    config: DKFConfig
    transport: TransportPolicy = field(default_factory=TransportPolicy)
    filter: KalmanFilter | None = None
    answer: np.ndarray | None = None
    expected_seq: int = 0
    k: int = -1
    updates_received: int = 0
    resyncs_received: int = 0
    heartbeats_received: int = 0
    gaps_detected: int = 0
    duplicates_ignored: int = 0
    rejected_nonfinite: int = 0
    last_contact: int = 0
    desynced: bool = field(default=False)
    last_nis: float | None = None
    nis_window: deque[float] | None = None


class DKFServer:
    """Central server holding one ``KF_s`` per registered source.

    Args:
        strict: When True (default) sequence gaps and digest mismatches
            raise :class:`~repro.errors.MirrorDesyncError`; when False
            they are tolerated and a resync is requested via the ack
            outbox.
        emit_acks: When True, every received update/resync (and ignored
            duplicate) queues a cumulative ack in the outbox for the
            transport layer to deliver back to the source.
        telemetry: Optional :class:`~repro.obs.telemetry.Telemetry`; the
            default no-op handle leaves apply/ack behaviour untouched.
        track_health: When True, every applied update additionally
            records its normalised innovation squared (NIS) in a bounded
            per-source window for the divergence watchdog.  Off by
            default so unwatched servers pay nothing.
    """

    def __init__(
        self,
        strict: bool = True,
        emit_acks: bool = False,
        telemetry=None,
        track_health: bool = False,
    ) -> None:
        self._sources: dict[str, ServerSourceState] = {}
        self._strict = strict
        self._emit_acks = emit_acks
        self._tel = telemetry or NULL_TELEMETRY
        self._outbox: list[AckMessage] = []
        self._clock = 0
        self._track_health = track_health

    def register(
        self,
        source_id: str,
        config: DKFConfig,
        transport: TransportPolicy | None = None,
    ) -> None:
        """Install a DKF for a new source (done when a query arrives)."""
        if source_id in self._sources:
            raise DuplicateSourceError(f"source {source_id!r} already registered")
        self._sources[source_id] = ServerSourceState(
            config=config,
            transport=transport or TransportPolicy(),
            last_contact=self._clock,
            nis_window=(
                deque(maxlen=NIS_WINDOW) if self._track_health else None
            ),
        )

    def deregister(self, source_id: str) -> None:
        """Tear down the filter for a source whose queries ended.

        Every trace of the source is purged: its filter state, any of
        its acks still queued in the outbox (a late-delivered ack for a
        dead stream would confuse a reused source id), and its telemetry
        gauges (a point-in-time gauge for a gone stream is stale
        telemetry; lifetime counters and histograms are kept -- they
        remain true).
        """
        self._state(source_id)
        del self._sources[source_id]
        self._outbox = [a for a in self._outbox if a.source_id != source_id]
        if self._tel.enabled:
            self._tel.clear_source(source_id)

    def _state(self, source_id: str) -> ServerSourceState:
        try:
            return self._sources[source_id]
        except KeyError:
            raise UnknownSourceError(f"source {source_id!r} not registered") from None

    @property
    def source_ids(self) -> list[str]:
        """Identifiers of all registered sources."""
        return list(self._sources)

    def __contains__(self, source_id: str) -> bool:
        """Whether a source is registered (without building the id list)."""
        return source_id in self._sources

    @property
    def clock(self) -> int:
        """The server's wall clock (engine ticks); drives liveness."""
        return self._clock

    def advance_clock(self, tick: int) -> None:
        """Move the liveness clock forward (monotonic; called per tick)."""
        if tick > self._clock:
            self._clock = tick

    def is_primed(self, source_id: str) -> bool:
        """Whether the priming update for ``source_id`` has arrived."""
        return self._state(source_id).filter is not None

    def tick(self, source_id: str, k: int) -> np.ndarray | None:
        """Advance the source's filter one prediction step for instant ``k``.

        Returns the new predicted value (the server's answer if no update
        arrives for this instant), or None when the source is not yet
        primed.
        """
        state = self._state(source_id)
        state.k = k
        if state.filter is None:
            return None
        state.filter.predict()
        state.answer = state.filter.predict_measurement()
        return state.answer.copy()

    def receive(
        self, message: UpdateMessage | ResyncMessage | HeartbeatMessage
    ) -> np.ndarray | None:
        """Apply an incoming message; returns the refreshed answer.

        Heartbeats only refresh the liveness clock and return the current
        answer (None before priming).  In tolerant mode an out-of-sequence
        update is *not* applied; the return value is then the unchanged
        answer.
        """
        if isinstance(message, HeartbeatMessage):
            return self._receive_heartbeat(message)
        if isinstance(message, ResyncMessage):
            return self._receive_resync(message)
        return self._receive_update(message)

    def _touch(self, state: ServerSourceState) -> None:
        state.last_contact = self._clock

    def _enqueue_ack(
        self, state: ServerSourceState, source_id: str, resync_requested: bool = False
    ) -> None:
        if not self._emit_acks:
            return
        self._outbox.append(
            AckMessage(
                source_id=source_id,
                seq=state.expected_seq,
                k=self._clock,
                resync_requested=resync_requested,
            )
        )

    def _receive_heartbeat(self, message: HeartbeatMessage) -> np.ndarray | None:
        state = self._state(message.source_id)
        self._touch(state)
        state.heartbeats_received += 1
        if self._tel.enabled:
            self._tel.emit(
                "server.heartbeat", source_id=message.source_id, k=message.k
            )
        return None if state.answer is None else state.answer.copy()

    def _reject_nonfinite(
        self, state: ServerSourceState, message: UpdateMessage | ResyncMessage
    ) -> np.ndarray | None:
        """Refuse a message whose payload carries NaN/Inf.

        The frame is treated as if it never arrived -- ``expected_seq``
        does not advance -- and the ack carries a resync request so the
        (sane) mirror state overwrites whatever the sender thought it
        was reporting.  No non-finite value ever reaches the filter or
        the cached answer.
        """
        state.rejected_nonfinite += 1
        if self._tel.enabled:
            self._tel.emit(
                "server.rejected",
                source_id=message.source_id,
                trace=trace_id(message.source_id, message.seq),
                k=message.k,
            )
            self._tel.count("server_rejected_total", message.source_id)
        self._enqueue_ack(state, message.source_id, resync_requested=True)
        return None if state.answer is None else state.answer.copy()

    def _observe_nis(
        self, state: ServerSourceState, value: np.ndarray
    ) -> None:
        """Record the normalised innovation squared of an incoming update.

        Computed against the *pre-correction* filter (the textbook NIS:
        ``y^T S^-1 y`` with ``y = z - H x^-``), whose expectation under a
        healthy filter is the measurement dimension.  A runaway NIS is
        the watchdog's earliest divergence signal.
        """
        if not self._track_health or state.filter is None:
            return
        innovation = value - state.filter.predict_measurement()
        s = state.filter.innovation_covariance()
        try:
            nis = float(innovation @ np.linalg.solve(s, innovation))
        except np.linalg.LinAlgError:
            nis = float("inf")
        state.last_nis = nis
        state.nis_window.append(nis)

    def _receive_update(self, message: UpdateMessage) -> np.ndarray | None:
        state = self._state(message.source_id)
        self._touch(state)
        if not np.isfinite(message.value).all():
            return self._reject_nonfinite(state, message)
        if message.seq < state.expected_seq:
            if self._strict:
                raise MirrorDesyncError(
                    f"source {message.source_id!r}: expected seq "
                    f"{state.expected_seq}, got stale seq {message.seq}"
                )
            # A stale retransmit that crossed with its ack: ignore, but
            # re-ack so the sender can settle its pending buffer.
            state.duplicates_ignored += 1
            if self._tel.enabled:
                self._tel.emit(
                    "server.duplicate",
                    source_id=message.source_id,
                    trace=trace_id(message.source_id, message.seq),
                    expected_seq=state.expected_seq,
                )
                self._tel.count("server_duplicates_total", message.source_id)
            self._enqueue_ack(state, message.source_id)
            return None if state.answer is None else state.answer.copy()
        if message.seq > state.expected_seq:
            # A gap: an earlier update is missing, so applying this
            # correction would desync the filters.  Record the gap and ask
            # for a full snapshot instead of raising into delivery.
            state.desynced = True
            state.gaps_detected += 1
            if self._strict:
                raise MirrorDesyncError(
                    f"source {message.source_id!r}: expected seq "
                    f"{state.expected_seq}, got {message.seq} -- an update "
                    "was lost and no resync arrived"
                )
            if self._tel.enabled:
                self._tel.emit(
                    "server.gap",
                    source_id=message.source_id,
                    trace=trace_id(message.source_id, message.seq),
                    expected_seq=state.expected_seq,
                    got_seq=message.seq,
                )
                self._tel.count("server_gaps_total", message.source_id)
            self._enqueue_ack(state, message.source_id, resync_requested=True)
            return None if state.answer is None else state.answer.copy()
        state.expected_seq = message.seq + 1
        if state.filter is None:
            state.filter = state.config.model.build_filter(
                message.value, p0_scale=state.config.p0_scale
            )
            if self._tel.enabled:
                state.filter.instrument(self._tel.timers)
        else:
            self._observe_nis(state, message.value)
            state.filter.update(message.value)
        # The server now holds the true (possibly smoothed) reading, which
        # is a strictly better answer for this instant than the blended
        # posterior; the filter keeps the posterior for future prediction.
        state.answer = message.value.copy()
        state.updates_received += 1
        state.k = message.k
        if self._tel.enabled:
            self._tel.emit(
                "server.apply",
                source_id=message.source_id,
                trace=trace_id(message.source_id, message.seq),
                k=message.k,
            )
            self._tel.count("server_applies_total", message.source_id)
        if message.digest is not None:
            local = state.filter.state_digest()[1][:8]
            if local != message.digest:
                state.desynced = True
                if self._strict:
                    raise MirrorDesyncError(
                        f"source {message.source_id!r}: state digest mismatch "
                        f"at k={message.k}"
                    )
                if self._tel.enabled:
                    self._tel.emit(
                        "server.desync",
                        source_id=message.source_id,
                        trace=trace_id(message.source_id, message.seq),
                        k=message.k,
                    )
                self._enqueue_ack(state, message.source_id, resync_requested=True)
                return state.answer.copy()
        self._enqueue_ack(state, message.source_id)
        return state.answer.copy()

    def _receive_resync(self, message: ResyncMessage) -> np.ndarray | None:
        state = self._state(message.source_id)
        self._touch(state)
        if not (
            np.isfinite(message.x).all()
            and np.isfinite(message.p).all()
            and np.isfinite(message.value).all()
        ):
            return self._reject_nonfinite(state, message)
        healed = state.desynced
        if state.filter is None:
            state.filter = state.config.model.build_filter(
                message.value, p0_scale=state.config.p0_scale
            )
            if self._tel.enabled:
                state.filter.instrument(self._tel.timers)
        state.filter.set_state(message.x, message.p)
        state.answer = message.value.copy()
        state.expected_seq = message.seq + 1
        state.resyncs_received += 1
        state.desynced = False
        state.k = message.k
        if state.nis_window is not None:
            # The snapshot replaced the filter state wholesale; stale NIS
            # samples would describe a filter that no longer exists.
            state.nis_window.clear()
            state.last_nis = None
        if self._tel.enabled:
            self._tel.emit(
                "server.resync_applied",
                source_id=message.source_id,
                trace=trace_id(message.source_id, message.seq),
                k=message.k,
                healed_desync=healed,
            )
            self._tel.count("server_resyncs_total", message.source_id)
        self._enqueue_ack(state, message.source_id)
        return state.answer.copy()

    def take_outbox(self) -> list[AckMessage]:
        """Drain and return the queued acks (transport layer hook)."""
        out, self._outbox = self._outbox, []
        return out

    def liveness(self, source_id: str) -> dict[str, int | bool]:
        """Liveness verdict for one source.

        Returns a dict with ``staleness_ticks`` (server-clock ticks since
        the last received message of any kind), ``suspect`` (True once the
        silence exceeds the source's ``suspect_after_ticks`` deadline) and
        ``last_contact``.
        """
        state = self._state(source_id)
        staleness = max(0, self._clock - state.last_contact)
        return {
            "staleness_ticks": staleness,
            "suspect": staleness > state.transport.suspect_after_ticks,
            "last_contact": state.last_contact,
        }

    def confidence(self, source_id: str) -> float:
        """Answer confidence in ``(0, 1]`` from the coasting covariance.

        While a source is silent the filter coasts on predictions and its
        a-priori covariance inflates; this maps the predicted-measurement
        standard deviation onto ``delta / (delta + sigma)`` so a freshly
        corrected filter scores near 1 and a long-coasting one decays
        toward 0.  Returns 0.0 before priming.
        """
        state = self._state(source_id)
        if state.filter is None:
            return 0.0
        innovation_cov = state.filter.innovation_covariance()
        sigma = math.sqrt(max(innovation_cov.diagonal().max(), 0.0))
        delta = state.config.min_delta
        return delta / (delta + sigma)

    def answer_fields(self, source_id: str) -> tuple | None:
        """``(value, k, staleness_ticks, suspect, confidence)``; None unprimed."""
        state = self._state(source_id)
        if state.filter is None:
            return None
        staleness = max(0, self._clock - state.last_contact)
        return (
            tuple(state.answer.tolist()),
            state.k,
            staleness,
            staleness > state.transport.suspect_after_ticks,
            self.confidence(source_id),
        )

    def value(self, source_id: str) -> np.ndarray:
        """The server's current best value for a source (query answer)."""
        state = self._state(source_id)
        if state.answer is None:
            raise UnknownSourceError(
                f"source {source_id!r} has not delivered its priming update"
            )
        return state.answer.copy()

    def forecast(self, source_id: str, steps: int) -> np.ndarray:
        """Extrapolate a source's value ``steps`` instants ahead.

        This is the capability static caching fundamentally lacks: the
        server can answer questions about the *future* of the stream from
        the cached procedure alone.
        """
        state = self._state(source_id)
        if state.filter is None:
            raise UnknownSourceError(
                f"source {source_id!r} has not delivered its priming update"
            )
        return state.filter.forecast(steps)

    def predict_k(self, source_id: str, steps: int) -> np.ndarray:
        """Measurement prediction ``steps`` instants ahead (endpoint only).

        The cheap form of :meth:`forecast` for δ checks: constant-model
        filters jump straight to ``H phi^steps x`` through the memoised
        power cache instead of looping the whole horizon.
        """
        state = self._state(source_id)
        if state.filter is None:
            raise UnknownSourceError(
                f"source {source_id!r} has not delivered its priming update"
            )
        return state.filter.predict_k(steps)

    def stats(self, source_id: str) -> dict[str, int | bool]:
        """Per-source protocol counters (for the engine's reporting)."""
        state = self._state(source_id)
        return {
            "updates_received": state.updates_received,
            "resyncs_received": state.resyncs_received,
            "heartbeats_received": state.heartbeats_received,
            "gaps_detected": state.gaps_detected,
            "duplicates_ignored": state.duplicates_ignored,
            "rejected_nonfinite": state.rejected_nonfinite,
            "desynced": state.desynced,
            "last_k": state.k,
            "last_contact": state.last_contact,
            "expected_seq": state.expected_seq,
        }

    # Health and recovery hooks -------------------------------------------

    def health_view(self, source_id: str) -> dict[str, object]:
        """Raw material for a watchdog health check (live references).

        Returns ``x``/``p`` (copies; None before priming), the NIS
        window as a list, and ``staleness_ticks``.
        """
        state = self._state(source_id)
        return {
            "x": None if state.filter is None else state.filter.x,
            "p": None if state.filter is None else state.filter.p,
            "nis_window": list(state.nis_window or ()),
            "staleness_ticks": max(0, self._clock - state.last_contact),
        }

    def filter_clock(self, source_id: str) -> int:
        """The source filter's discrete clock (-1 before priming).

        Recovery compares this against the mirror's clock to decide how
        many catch-up prediction steps a restored filter needs.
        """
        state = self._state(source_id)
        return -1 if state.filter is None else state.filter.k

    def reprime(self, source_id: str) -> None:
        """Re-prime a suspect filter: fresh covariance, sane state.

        The watchdog's second escalation rung.  When the state vector is
        still finite the covariance is reset to the configured ``P0``
        (the estimate survives, but its confidence restarts from scratch
        so the next updates dominate).  A non-finite state is rebuilt
        from the last finite answer (or zeros) -- the subsequent forced
        resync then overwrites it with the mirror's truth.
        """
        state = self._state(source_id)
        if state.filter is None:
            return
        model = state.config.model
        p0 = np.eye(model.state_dim) * state.config.p0_scale
        x = state.filter.x
        if np.isfinite(x).all():
            state.filter.set_state(x, p0)
        else:
            if state.answer is not None and np.isfinite(state.answer).all():
                z0 = np.asarray(state.answer, dtype=float)
            else:
                z0 = np.zeros(model.measurement_dim)
            clock = state.filter.k
            state.filter = model.build_filter(
                z0, p0_scale=state.config.p0_scale
            )
            state.filter.set_clock(clock)
            if self._tel.enabled:
                state.filter.instrument(self._tel.timers)
            if state.answer is None or not np.isfinite(state.answer).all():
                state.answer = state.filter.predict_measurement()
        if state.nis_window is not None:
            state.nis_window.clear()
            state.last_nis = None

    def export_source_state(self, source_id: str) -> dict[str, object]:
        """Checkpoint-friendly snapshot of one source's full state.

        Everything :meth:`import_source_state` needs to rebuild the
        ``ServerSourceState`` bit-for-bit: protocol counters, sequence
        expectations, the cached answer, and the filter's ``(x, P, k)``.
        JSON-serialisable (ndarrays become nested lists).
        """
        state = self._state(source_id)
        return {
            "expected_seq": state.expected_seq,
            "k": state.k,
            "last_contact": state.last_contact,
            "updates_received": state.updates_received,
            "resyncs_received": state.resyncs_received,
            "heartbeats_received": state.heartbeats_received,
            "gaps_detected": state.gaps_detected,
            "duplicates_ignored": state.duplicates_ignored,
            "rejected_nonfinite": state.rejected_nonfinite,
            "desynced": bool(state.desynced),
            "answer": (
                None if state.answer is None else state.answer.tolist()
            ),
            "filter": (
                None
                if state.filter is None
                else {
                    "x": state.filter.x.tolist(),
                    "p": state.filter.p.tolist(),
                    "k": state.filter.k,
                }
            ),
        }

    def import_source_state(
        self, source_id: str, data: dict[str, object]
    ) -> None:
        """Restore a source's state from :meth:`export_source_state` output.

        The source must already be registered (recovery re-registers
        from the engine's configs first); this overwrites the fresh
        state with the checkpointed one, rebuilding the filter at its
        checkpointed clock so time-varying models resume exactly.
        """
        state = self._state(source_id)
        try:
            state.expected_seq = int(data["expected_seq"])
            state.k = int(data["k"])
            state.last_contact = int(data["last_contact"])
            state.updates_received = int(data["updates_received"])
            state.resyncs_received = int(data["resyncs_received"])
            state.heartbeats_received = int(data["heartbeats_received"])
            state.gaps_detected = int(data["gaps_detected"])
            state.duplicates_ignored = int(data["duplicates_ignored"])
            state.rejected_nonfinite = int(data.get("rejected_nonfinite", 0))
            state.desynced = bool(data["desynced"])
            answer = data["answer"]
            state.answer = (
                None if answer is None else np.asarray(answer, dtype=float)
            )
            filter_state = data["filter"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MirrorDesyncError(
                f"malformed checkpoint state for source {source_id!r}: {exc}"
            ) from None
        if filter_state is None:
            state.filter = None
            return
        model = state.config.model
        flt = model.build_filter(
            np.zeros(model.measurement_dim), p0_scale=state.config.p0_scale
        )
        flt.set_state(
            np.asarray(filter_state["x"], dtype=float),
            np.asarray(filter_state["p"], dtype=float),
        )
        flt.set_clock(int(filter_state["k"]))
        if self._tel.enabled:
            flt.instrument(self._tel.timers)
        state.filter = flt
