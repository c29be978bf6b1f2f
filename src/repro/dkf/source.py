"""Remote-source side of the DKF protocol (``KF_m`` and optional ``KF_c``).

The source runs a *mirror* of the server's filter.  Because the filter
arithmetic is deterministic and both sides apply exactly the same predict /
correct operations, the mirror tells the source what the server will
predict at every instant *without any communication* -- "this does not
require any extra memory except for the usual matrices of the KF"
(Section 1.1).  The source transmits only when that prediction errs by more
than δ on some measured component.

The source also owns the sender half of the fault-tolerant transport: a
pending-ack buffer with timeout-driven, exponentially backed-off
retransmission (a retransmission is always a full
:class:`~repro.dkf.protocol.ResyncMessage`, because the mirror has moved on
since the lost update was cut), plus heartbeat emission during long
suppression silences.  The source never learns of a loss synchronously --
only a missing ack reveals it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dkf.config import DKFConfig, TransportPolicy
from repro.dkf.protocol import (
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    UpdateMessage,
)
from repro.errors import ConfigurationError, DimensionError
from repro.filters.kalman import KalmanFilter
from repro.filters.smoothing import VectorSmoother
from repro.obs.events import trace_id
from repro.obs.telemetry import NULL_TELEMETRY
from repro.streams.base import StreamRecord

__all__ = ["DKFSource", "SourceStep"]


@dataclass(frozen=True)
class SourceStep:
    """What happened at the source during one sampling instant.

    Attributes:
        k: Sampling instant.
        raw_value: The raw sensor reading.
        value: The value the protocol operated on (smoothed when ``KF_c``
            is configured, else the raw reading).
        prediction: The mirror's prediction of the server value, or None
            on the priming step.
        error: Max per-component absolute prediction error, or None on
            the priming step.
        message: The update message produced, or None when suppressed.
        gated: True when the reading escaped δ but was classified as a
            sensor glitch by the innovation gate and deliberately not
            transmitted.
        rejected: True when the reading was non-finite (NaN/inf sensor
            fault) and discarded before touching either filter; the mirror
            still advanced its prediction so lock-step is preserved.
    """

    k: int
    raw_value: np.ndarray
    value: np.ndarray
    prediction: np.ndarray | None
    error: float | None
    message: UpdateMessage | None
    gated: bool = False
    rejected: bool = False


class DKFSource:
    """Sensor-side half of a DKF pair.

    Args:
        source_id: Identifier shared with the server registration.
        config: The DKF configuration (model, δ, optional ``F``).

    Args (continued):
        transport: Retransmission/heartbeat policy.  Defaults to
            :class:`~repro.dkf.config.TransportPolicy`'s defaults.
        telemetry: Optional :class:`~repro.obs.telemetry.Telemetry`; the
            default no-op handle keeps every decision byte-identical to
            an unobserved source.

    Call :meth:`sample` once per sampling instant with the sensor reading.
    If the returned step carries a message, hand it to the link and tell
    the transport via :meth:`note_sent`; each tick, call
    :meth:`poll_transport` and send whatever it returns (timeout
    retransmissions and heartbeats).  Deliver incoming acks to
    :meth:`on_ack`.  The source only ever learns of a loss through a
    missing ack.
    """

    def __init__(
        self,
        source_id: str,
        config: DKFConfig,
        transport: TransportPolicy | None = None,
        telemetry=None,
    ) -> None:
        self._source_id = source_id
        self._config = config
        self._transport = transport or TransportPolicy()
        self._tel = telemetry or NULL_TELEMETRY
        self._mirror: KalmanFilter | None = None
        self._smoother = (
            VectorSmoother(
                f=config.smoothing_f,
                dims=config.model.measurement_dim,
                r=config.smoothing_r,
            )
            if config.smoothed
            else None
        )
        self._seq = 0
        self._k = -1
        self._updates_sent = 0
        self._samples_seen = 0
        self._consecutive_gated = 0
        self._readings_gated = 0
        self._readings_rejected = 0
        self._last_value: np.ndarray | None = None
        self._last_update_k: int | None = None
        # Transport state: seq -> (ack deadline, retransmit attempt, sent
        # tick).  The sent tick exists purely for ack-RTT telemetry.
        self._pending: dict[int, tuple[int, int, int]] = {}
        self._resync_requested = False
        # Seqs a server-requested resync supersedes: the cumulative ack
        # that carried the request sweeps the pending buffer (including
        # the frame the server never saw), so they are stashed here for
        # the retransmit event's ``recovers`` field.
        self._resync_gap_seqs: list[int] = []
        self._last_send_tick = 0
        self._retransmits = 0
        self._heartbeats_sent = 0
        # Overload-shedding hook: a scale > 1 widens the effective δ so
        # the source transmits less under server pressure.  1.0 keeps the
        # arithmetic byte-identical to an unscaled source.
        self._delta_scale = 1.0
        self._delta = config.delta_vector()  # DKFConfig is frozen
        self._delta.flags.writeable = False

    @property
    def source_id(self) -> str:
        """Identifier shared with the server registration."""
        return self._source_id

    @property
    def config(self) -> DKFConfig:
        """The installed configuration."""
        return self._config

    @property
    def primed(self) -> bool:
        """Whether the first (always transmitted) reading has been taken."""
        return self._mirror is not None

    @property
    def mirror(self) -> KalmanFilter:
        """The mirror filter ``KF_m`` (live object; tests inspect it)."""
        if self._mirror is None:
            raise DimensionError("source not primed yet")
        return self._mirror

    @property
    def next_seq(self) -> int:
        """Sequence number the next transmitted message will carry.

        The recovery path compares this against the server's expected
        sequence to decide whether a post-restore resync is needed.
        """
        return self._seq

    @property
    def updates_sent(self) -> int:
        """Update messages transmitted so far."""
        return self._updates_sent

    @property
    def samples_seen(self) -> int:
        """Sensor readings processed so far."""
        return self._samples_seen

    @property
    def readings_gated(self) -> int:
        """Readings classified as glitches by the innovation gate."""
        return self._readings_gated

    @property
    def readings_rejected(self) -> int:
        """Non-finite readings discarded before touching the filters."""
        return self._readings_rejected

    @property
    def transport(self) -> TransportPolicy:
        """The installed retransmission/heartbeat policy."""
        return self._transport

    @property
    def pending_acks(self) -> int:
        """Transmitted messages still awaiting an acknowledgement."""
        return len(self._pending)

    @property
    def retransmits(self) -> int:
        """Resync retransmissions triggered (timeouts + server requests)."""
        return self._retransmits

    @property
    def heartbeats_sent(self) -> int:
        """Liveness beacons emitted during suppression silences."""
        return self._heartbeats_sent

    @property
    def delta_scale(self) -> float:
        """Current overload widening factor on the effective δ (>= 1)."""
        return self._delta_scale

    @property
    def effective_min_delta(self) -> float:
        """Tightest per-component width after overload widening."""
        return self._config.min_delta * self._delta_scale

    def set_delta_scale(self, scale: float) -> None:
        """Widen (or restore) the effective δ by ``scale``.

        The supervisor's overload controller calls this to shed load:
        with a wider δ the suppression test passes more often and the
        source transmits less.  The mirror/server lock-step is untouched
        -- δ only gates the *transmission decision*, never the filter
        arithmetic -- so scaling up and back down is always safe.
        """
        if scale < 1.0:
            raise ConfigurationError(
                f"delta scale must be at least 1, got {scale}"
            )
        self._delta_scale = float(scale)

    def _effective_delta_vector(self) -> np.ndarray:
        """Per-component widths after overload widening."""
        widths = self._delta
        if self._delta_scale != 1.0:
            widths = widths * self._delta_scale
        return widths

    def _smooth(self, value: np.ndarray) -> np.ndarray:
        """Run the reading through ``KF_c`` when smoothing is configured.

        Scalar streams use the paper's single smoothing filter; vector
        streams smooth each measured component independently.
        """
        if self._smoother is None:
            return value
        return self._smoother.smooth(value)

    def _next_message(self, k: int, value: np.ndarray) -> UpdateMessage:
        digest = None
        if self._config.check_mirror and self._mirror is not None:
            digest = self._mirror.state_digest()[1][:8]
        message = UpdateMessage(
            source_id=self._source_id,
            seq=self._seq,
            k=k,
            value=value,
            digest=digest,
        )
        self._seq += 1
        self._updates_sent += 1
        return message

    def sample(self, record: StreamRecord) -> SourceStep:
        """Process one sensor reading; decide whether to transmit.

        The first reading always transmits (it primes both filters).  On
        later readings the mirror advances one prediction step; if its
        measurement prediction errs by more than δ on any component the
        reading is transmitted and the mirror corrected -- exactly the
        operations the server will apply on receipt, keeping the pair in
        lock-step.
        """
        # One read-only copy of the caller's array, shared by the step,
        # the message and the resync buffer wherever the values are equal.
        raw = record.value.copy()
        raw.flags.writeable = False
        self._samples_seen += 1
        self._k = record.k

        if not np.isfinite(raw).all():
            # Sensor fault (NaN/inf): discard the reading before it can
            # poison the smoother or the filters.  The mirror still
            # advances one prediction step so it stays in lock-step with
            # the server, which predicts every instant regardless.
            self._readings_rejected += 1
            prediction = None
            if self._mirror is not None:
                self._mirror.predict()
                prediction = self._mirror.predict_measurement()
            if self._tel.enabled:
                self._tel.emit(
                    "source.rejected", source_id=self._source_id, k=record.k
                )
                self._tel.count("readings_rejected_total", self._source_id)
            return SourceStep(
                k=record.k,
                raw_value=raw,
                value=raw,
                prediction=prediction,
                error=None,
                message=None,
                rejected=True,
            )

        value = self._smooth(raw)
        value.flags.writeable = False
        self._last_value = value

        if self._mirror is None:
            self._mirror = self._config.model.build_filter(
                value, p0_scale=self._config.p0_scale
            )
            message = self._next_message(record.k, value)
            if self._tel.enabled:
                self._mirror.instrument(self._tel.timers)
                self._last_update_k = record.k
                self._tel.emit(
                    "source.update",
                    source_id=self._source_id,
                    trace=trace_id(self._source_id, message.seq),
                    k=record.k,
                    priming=True,
                )
                self._tel.count("updates_sent_total", self._source_id)
            return SourceStep(
                k=record.k,
                raw_value=raw,
                value=value,
                prediction=None,
                error=None,
                message=message,
            )

        self._mirror.predict()
        prediction = self._mirror.predict_measurement()
        abs_errors = np.abs(prediction - value)
        error = float(abs_errors.max())
        gated = False
        if (abs_errors > self._effective_delta_vector()).any():
            if self._should_gate(value, prediction):
                # Glitch: skip both the transmission and the correction,
                # so the mirror and the server coast identically.
                gated = True
                message = None
            else:
                # The server's prediction is out of tolerance: transmit,
                # and apply the same correction the server will apply.
                self._mirror.update(value)
                message = self._next_message(record.k, value)
        else:
            self._consecutive_gated = 0
            message = None
        if self._tel.enabled:
            self._observe_decision(record.k, error, message, gated)
        return SourceStep(
            k=record.k,
            raw_value=raw,
            value=value,
            prediction=prediction,
            error=error,
            message=message,
            gated=gated,
        )

    def _observe_decision(
        self,
        k: int,
        error: float,
        message: UpdateMessage | None,
        gated: bool,
    ) -> None:
        """Record the suppression decision (telemetry-enabled runs only)."""
        tel = self._tel
        tel.observe("innovation_abs", error, self._source_id)
        if message is not None:
            if self._last_update_k is not None:
                tel.observe(
                    "inter_update_gap_ticks",
                    k - self._last_update_k - 1,
                    self._source_id,
                )
            self._last_update_k = k
            tel.emit(
                "source.update",
                source_id=self._source_id,
                trace=trace_id(self._source_id, message.seq),
                k=k,
                error=error,
            )
            tel.count("updates_sent_total", self._source_id)
        elif gated:
            tel.emit(
                "source.gated", source_id=self._source_id, k=k, error=error
            )
            tel.count("readings_gated_total", self._source_id)
        else:
            tel.emit(
                "source.suppressed", source_id=self._source_id, k=k, error=error
            )
            tel.count("readings_suppressed_total", self._source_id)

    def _should_gate(self, value: np.ndarray, prediction: np.ndarray) -> bool:
        """Glitch gate: classify an escaping reading as a sensor glitch.

        Applies only when the config enables gating.  A reading is gated
        when its prediction error exceeds ``factor * delta`` on some
        component -- far outside what a genuine trend change produces in
        one step -- unless the consecutive-gate limit is reached (a
        sustained outlier is a regime change and must be transmitted).
        """
        factor = self._config.outlier_gate_factor
        if factor is None:
            self._consecutive_gated = 0
            return False
        if self._consecutive_gated >= self._config.outlier_gate_limit:
            self._consecutive_gated = 0
            return False
        abs_errors = np.abs(value - prediction)
        if (abs_errors > factor * self._effective_delta_vector()).any():
            self._consecutive_gated += 1
            self._readings_gated += 1
            return True
        self._consecutive_gated = 0
        return False

    def resync_message(self, k: int, value: np.ndarray) -> ResyncMessage:
        """Snapshot of the mirror state for loss recovery.

        Sent (reliably) when the source learns an update was lost, so the
        server can overwrite ``KF_s`` with the mirror's exact state.
        """
        mirror = self.mirror
        message = ResyncMessage(
            source_id=self._source_id,
            seq=self._seq,
            k=k,
            x=mirror.x,
            p=mirror.p,
            value=np.asarray(value, dtype=float).copy(),
        )
        self._seq += 1
        return message

    # Transport state machine ---------------------------------------------

    def note_sent(self, message: UpdateMessage | ResyncMessage, now: int) -> None:
        """Record a transmitted message in the pending-ack buffer.

        Call this immediately after offering ``message`` to the link.  The
        entry stays pending until an ack covering its sequence number
        arrives (:meth:`on_ack`) or its deadline expires, at which point
        :meth:`poll_transport` cuts a resync retransmission.
        """
        self._pending[message.seq] = (
            now + self._transport.retry_timeout(0),
            0,
            now,
        )
        self._last_send_tick = now

    def on_ack(self, ack: AckMessage, now: int) -> None:
        """Apply a cumulative acknowledgement from the server.

        Every pending entry with a sequence number below ``ack.seq`` (the
        server's next expected seq) is settled.  A ``resync_requested``
        flag schedules an immediate snapshot on the next
        :meth:`poll_transport`.
        """
        if self._tel.enabled:
            settled = [
                (seq, entry[2])
                for seq, entry in self._pending.items()
                if seq < ack.seq
            ]
            for seq, sent_tick in settled:
                self._tel.observe(
                    "ack_rtt_ticks", max(0, now - sent_tick), self._source_id
                )
            self._tel.emit(
                "source.ack",
                source_id=self._source_id,
                ack_seq=ack.seq,
                settled=[trace_id(self._source_id, seq) for seq, _ in settled],
                resync_requested=ack.resync_requested,
            )
        if ack.resync_requested and self._tel.enabled:
            self._resync_gap_seqs.extend(
                seq for seq in self._pending if seq < ack.seq
            )
        self._pending = {
            seq: entry for seq, entry in self._pending.items() if seq >= ack.seq
        }
        if ack.resync_requested:
            self._resync_requested = True

    def request_resync(self) -> None:
        """Schedule an immediate mirror-state snapshot.

        The next :meth:`poll_transport` cuts a
        :class:`~repro.dkf.protocol.ResyncMessage` regardless of pending
        timeouts.  The server-side divergence watchdog and the engine's
        recovery path use this to overwrite a suspect ``KF_s`` with the
        mirror's exact state.
        """
        self._resync_requested = True

    def poll_transport(
        self, now: int
    ) -> list[ResyncMessage | HeartbeatMessage]:
        """Run one tick of the transport state machine.

        Returns the messages the caller must offer to the link this tick:

        * a :class:`~repro.dkf.protocol.ResyncMessage` when the oldest
          pending-ack entry timed out (exponential backoff grows the next
          deadline) or the server explicitly requested one -- the snapshot
          supersedes every older pending message, so the buffer collapses
          to the single resync entry;
        * a :class:`~repro.dkf.protocol.HeartbeatMessage` when nothing is
          pending and the source has been silent past the heartbeat
          interval.
        """
        if self._mirror is None or self._last_value is None:
            return []
        retry_attempt = None
        timed_out = False
        if self._pending:
            oldest_deadline = min(d for d, _, _ in self._pending.values())
            if oldest_deadline <= now:
                timed_out = True
                retry_attempt = 1 + max(
                    attempt for _, attempt, _ in self._pending.values()
                )
        if self._resync_requested and retry_attempt is None:
            retry_attempt = 0
        if retry_attempt is not None:
            recovers = sorted({*self._resync_gap_seqs, *self._pending})
            self._resync_gap_seqs = []
            message = self.resync_message(self._k, self._last_value)
            self._pending.clear()
            self._pending[message.seq] = (
                now + self._transport.retry_timeout(retry_attempt),
                retry_attempt,
                now,
            )
            self._resync_requested = False
            self._retransmits += 1
            self._last_send_tick = now
            if self._tel.enabled:
                self._tel.emit(
                    "source.retransmit",
                    source_id=self._source_id,
                    trace=trace_id(self._source_id, message.seq),
                    k=self._k,
                    attempt=retry_attempt,
                    reason="timeout" if timed_out else "resync_requested",
                    recovers=[
                        trace_id(self._source_id, seq) for seq in recovers
                    ],
                )
                self._tel.count("retransmits_total", self._source_id)
            return [message]
        if (
            not self._pending
            and now - self._last_send_tick
            >= self._transport.heartbeat_interval_ticks
        ):
            heartbeat = HeartbeatMessage(
                source_id=self._source_id, seq=self._seq, k=self._k
            )
            self._last_send_tick = now
            self._heartbeats_sent += 1
            if self._tel.enabled:
                self._tel.emit(
                    "source.heartbeat", source_id=self._source_id, k=self._k
                )
                self._tel.count("heartbeats_total", self._source_id)
            return [heartbeat]
        return []

    def reset(self, now: int = 0) -> None:
        """Forget all filter and transport state.

        The next sample re-primes the pair.  After a crash/restart the
        caller should prime the server with a resync snapshot (not a plain
        update), because the server's expected sequence number survives
        the source's death -- see ``StreamEngine``'s restart handling.
        """
        self._mirror = None
        if self._smoother is not None:
            self._smoother.reset()
        self._seq = 0
        self._k = -1
        self._updates_sent = 0
        self._samples_seen = 0
        self._consecutive_gated = 0
        self._readings_gated = 0
        self._readings_rejected = 0
        self._last_value = None
        self._last_update_k = None
        self._pending = {}
        self._resync_requested = False
        self._resync_gap_seqs = []
        self._last_send_tick = now
        self._retransmits = 0
        self._heartbeats_sent = 0
