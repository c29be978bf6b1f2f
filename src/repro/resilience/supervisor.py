"""Stream supervision: crash-loop budgets and overload shedding.

Two independent guards live here.

:class:`StreamSupervisor` meters *restarts*.  A source that crashes and
restarts in a tight loop burns priming traffic (every restart costs a
resync snapshot) without ever delivering useful readings.  The
supervisor grants each restart only when (a) the per-window restart
budget has room and (b) the exponential backoff since the previous
restart has elapsed; denied restarts stay pending and are retried every
tick, so a stream is delayed -- never abandoned.

:class:`OverloadController` meters *inbound pressure*.  The server
drains its inbox at a bounded rate; when a burst (storm, post-outage
retransmit flood) backs the inbox up past the high watermark, the
controller widens the effective δ of the lowest-priority streams first
-- the knob the paper itself offers: a wider tolerance means fewer
transmissions, with a *known* bound on the extra answer error.  Every
widened tick is charged to an exact shed-error account
(``(scale - 1) · δ_base`` per stream per tick), so the report states
precisely how much precision was traded for survival.  When pressure
falls below the low watermark the widenings unwind LIFO -- the least
important stream widened first is restored last.

:class:`BoundedInbox` is the pressure sensor itself: a FIFO with a hard
capacity that tail-drops (and counts) what it cannot hold.  Dropping
*after* the fabric counted delivery keeps the traffic conservation law
intact -- a shed message was delivered and then discarded by an
overloaded server, which is exactly what happens on real hardware.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = [
    "RestartPolicy",
    "StreamSupervisor",
    "OverloadPolicy",
    "OverloadController",
    "BoundedInbox",
]


@dataclass(frozen=True)
class RestartPolicy:
    """Budget and pacing for source restarts.

    Attributes:
        max_restarts: Restarts allowed inside any sliding window.
        window_ticks: Width of the sliding budget window.
        base_backoff_ticks: Backoff after the first restart in a window.
        backoff_factor: Growth factor per additional recent restart.
        max_backoff_ticks: Backoff ceiling.
    """

    max_restarts: int = 5
    window_ticks: int = 200
    base_backoff_ticks: int = 4
    backoff_factor: float = 2.0
    max_backoff_ticks: int = 64

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on bad values."""
        if self.max_restarts < 1:
            raise ConfigurationError("restart budget must allow at least 1")
        if self.window_ticks < 1:
            raise ConfigurationError("restart window must be at least 1 tick")
        if self.base_backoff_ticks < 0 or self.max_backoff_ticks < 0:
            raise ConfigurationError("backoff ticks must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff factor must be at least 1")


@dataclass
class _RestartState:
    recent: deque = field(default_factory=deque)
    next_allowed_tick: int = 0
    denied: int = 0
    granted: int = 0


class StreamSupervisor:
    """Grant or defer source restarts under a budget with backoff."""

    def __init__(
        self, policy: RestartPolicy | None = None, telemetry=None
    ) -> None:
        self._policy = policy or RestartPolicy()
        self._policy.validate()
        self._tel = telemetry or NULL_TELEMETRY
        self._streams: dict[str, _RestartState] = {}

    @property
    def policy(self) -> RestartPolicy:
        """The installed policy."""
        return self._policy

    def _state(self, source_id: str) -> _RestartState:
        return self._streams.setdefault(source_id, _RestartState())

    def request_restart(self, source_id: str, tick: int) -> bool:
        """Ask to restart ``source_id`` now; True when granted.

        A denial is not final -- the engine keeps the source down and
        asks again next tick.  Denials are paced by exponential backoff
        (per consecutive recent restart) and capped by the sliding
        window budget.
        """
        policy = self._policy
        state = self._state(source_id)
        while state.recent and tick - state.recent[0] >= policy.window_ticks:
            state.recent.popleft()
        if tick < state.next_allowed_tick:
            reason = "backoff"
        elif len(state.recent) >= policy.max_restarts:
            reason = "budget"
        else:
            state.granted += 1
            backoff = min(
                policy.base_backoff_ticks
                * policy.backoff_factor ** len(state.recent),
                float(policy.max_backoff_ticks),
            )
            state.recent.append(tick)
            state.next_allowed_tick = tick + int(backoff)
            if self._tel.enabled:
                self._tel.emit(
                    "supervisor.restart_allowed",
                    source_id=source_id,
                    recent=len(state.recent),
                    next_backoff_ticks=int(backoff),
                )
                self._tel.count("supervisor_restarts_total", source_id)
            return True
        state.denied += 1
        if self._tel.enabled:
            self._tel.emit(
                "supervisor.restart_deferred",
                source_id=source_id,
                reason=reason,
            )
            self._tel.count("supervisor_deferrals_total", source_id)
        return False

    def report(self) -> dict[str, dict[str, int]]:
        """Per-stream grant/denial counters."""
        return {
            source_id: {
                "granted": state.granted,
                "denied": state.denied,
                "recent": len(state.recent),
            }
            for source_id, state in self._streams.items()
        }


@dataclass(frozen=True)
class OverloadPolicy:
    """Inbox bounds and δ-widening schedule for load shedding.

    Attributes:
        inbox_capacity: Hard message cap; beyond it the inbox tail-drops.
        drain_per_tick: Messages the server processes per tick.
        high_watermark: Inbox fill fraction that triggers widening.
        low_watermark: Fill fraction below which widenings unwind.
        widen_factor: Multiplier applied to a stream's δ scale per
            widening step.
        max_widen: Ceiling on any stream's δ scale.
        cooldown_ticks: Minimum ticks between shedding adjustments.
    """

    inbox_capacity: int = 256
    drain_per_tick: int = 64
    high_watermark: float = 0.5
    low_watermark: float = 0.1
    widen_factor: float = 2.0
    max_widen: float = 8.0
    cooldown_ticks: int = 16

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on bad values."""
        if self.inbox_capacity < 1 or self.drain_per_tick < 1:
            raise ConfigurationError(
                "inbox capacity and drain rate must be at least 1"
            )
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ConfigurationError(
                "watermarks must satisfy 0 < low < high <= 1"
            )
        if self.widen_factor <= 1.0:
            raise ConfigurationError("widen factor must exceed 1")
        if self.max_widen < self.widen_factor:
            raise ConfigurationError("max widen must cover one widening step")
        if self.cooldown_ticks < 1:
            raise ConfigurationError("cooldown must be at least 1 tick")


class BoundedInbox:
    """FIFO message buffer with a hard capacity and drop accounting."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("inbox capacity must be at least 1")
        self._capacity = capacity
        self._queue: deque = deque()
        self._dropped = 0
        self._accepted = 0

    @property
    def capacity(self) -> int:
        """Hard message cap."""
        return self._capacity

    @property
    def depth(self) -> int:
        """Messages currently queued."""
        return len(self._queue)

    @property
    def dropped(self) -> int:
        """Messages tail-dropped over capacity so far."""
        return self._dropped

    @property
    def accepted(self) -> int:
        """Messages accepted so far."""
        return self._accepted

    def offer(self, message) -> bool:
        """Enqueue a message; False when it was dropped at capacity."""
        if len(self._queue) >= self._capacity:
            self._dropped += 1
            return False
        self._queue.append(message)
        self._accepted += 1
        return True

    def drain(self, limit: int) -> list:
        """Dequeue up to ``limit`` messages in arrival order."""
        out = []
        while self._queue and len(out) < limit:
            out.append(self._queue.popleft())
        return out

    def clear(self) -> int:
        """Discard everything queued (server crash); returns the count."""
        count = len(self._queue)
        self._queue.clear()
        return count


@dataclass(slots=True)
class _ShedState:
    priority: int
    base_min_delta: float
    scale: float = 1.0
    shed_error: float = 0.0
    widened_ticks: int = 0
    widen_steps: int = 0
    restore_steps: int = 0
    dropped_updates: int = 0


class OverloadController:
    """Adaptive δ widening driven by inbox pressure.

    Args:
        policy: Watermarks and widening schedule.
        telemetry: Observability handle.

    The engine registers each stream with its priority (higher = more
    important) and base δ, feeds :meth:`step` the inbox depth once per
    tick, and applies the returned ``{source_id: scale}`` adjustments to
    the sources.  The controller keeps the exact shed-error account.
    """

    def __init__(
        self, policy: OverloadPolicy | None = None, telemetry=None
    ) -> None:
        self._policy = policy or OverloadPolicy()
        self._policy.validate()
        self._tel = telemetry or NULL_TELEMETRY
        self._streams: dict[str, _ShedState] = {}
        self._widen_stack: list[str] = []
        self._last_change_tick: int | None = None

    @property
    def policy(self) -> OverloadPolicy:
        """The installed policy."""
        return self._policy

    def register(
        self, source_id: str, priority: int, base_min_delta: float
    ) -> None:
        """Track a stream (re-registering updates priority and base δ)."""
        existing = self._streams.get(source_id)
        if existing is not None:
            existing.priority = priority
            existing.base_min_delta = base_min_delta
            return
        self._streams[source_id] = _ShedState(
            priority=priority, base_min_delta=base_min_delta
        )

    def deregister(self, source_id: str) -> None:
        """Forget a stream whose queries ended."""
        self._streams.pop(source_id, None)
        self._widen_stack = [s for s in self._widen_stack if s != source_id]

    def scale(self, source_id: str) -> float:
        """Current δ scale for a stream (1.0 when untracked)."""
        state = self._streams.get(source_id)
        return 1.0 if state is None else state.scale

    def _widen_candidate(self) -> str | None:
        """Least-widened stream with headroom, lowest priority first.

        Widening spreads breadth-first across the whole fleet (lowest
        current scale first): doubling a fresh stream's δ costs ``δ``
        per tick and sheds about half that stream's traffic, while
        re-doubling an already widened one charges twice as much for
        half the shed.  Priority orders streams *within* a scale band
        -- the low-priority streams take each round of pain first --
        but never forces a band to max widening while fresh streams
        idle.  Remaining ties break on the stream id, never on
        registration order, so the widen sequence -- and therefore the
        LIFO restore sequence -- is identical across runs that register
        the same streams in any order.
        """
        candidates = [
            (state.scale, state.priority, source_id)
            for source_id, state in self._streams.items()
            if state.scale < self._policy.max_widen
        ]
        if not candidates:
            return None
        return min(candidates)[2]

    def _widen_one(self, tick: int, pressure: float, planned: bool):
        """Widen the best candidate one step; returns (id, scale) or None."""
        source_id = self._widen_candidate()
        if source_id is None:
            return None
        state = self._streams[source_id]
        state.scale = min(
            state.scale * self._policy.widen_factor, self._policy.max_widen
        )
        state.widen_steps += 1
        if source_id not in self._widen_stack:
            self._widen_stack.append(source_id)
        self._last_change_tick = tick
        if self._tel.enabled:
            self._tel.emit(
                "shed.widen",
                source_id=source_id,
                scale=state.scale,
                pressure=round(pressure, 4),
                planned=planned,
            )
            self._tel.count("shed_widenings_total", source_id)
        return source_id, state.scale

    def _restore_one(self, tick: int, pressure: float, planned: bool):
        """Unwind the newest widening one step; returns (id, scale) or None.

        LIFO over the widen stack: the stream widened most recently is
        the first restored, and because widening order is deterministic
        (priority, then stream id), so is the restore order.
        """
        if not self._widen_stack:
            return None
        source_id = self._widen_stack[-1]
        state = self._streams[source_id]
        state.scale = max(1.0, state.scale / self._policy.widen_factor)
        state.restore_steps += 1
        if state.scale <= 1.0 + 1e-12:
            state.scale = 1.0
            self._widen_stack.pop()
        self._last_change_tick = tick
        if self._tel.enabled:
            self._tel.emit(
                "shed.restore",
                source_id=source_id,
                scale=state.scale,
                pressure=round(pressure, 4),
                planned=planned,
            )
            self._tel.count("shed_restores_total", source_id)
        return source_id, state.scale

    def charge_drop(self, source_id: str) -> None:
        """Charge one tail-dropped update to the shed account.

        Widening is *planned* shedding: the server coasts inside a
        known ``scale·δ`` envelope and the per-tick charge is exact.  A
        tail-drop is *unplanned* shedding -- the source only sent the
        update because its reading escaped that envelope, and until gap
        detection and retransmission repair the loss the server serves
        answers with **no** valid precision bound at all.  That is
        strictly worse than the worst degradation this controller would
        ever plan, so each drop is charged at the planned worst case,
        ``max_widen · δ_base``.  Keeping both kinds of shedding in one
        ledger is what makes "total δ-shed error" comparable across
        control strategies: a controller that never widens but lets the
        inbox drop is not error-free, it is unaudited.
        """
        state = self._streams.get(source_id)
        if state is None:
            return
        state.dropped_updates += 1
        state.shed_error += self._policy.max_widen * state.base_min_delta

    def _charge(self) -> None:
        """Charge every widened stream one tick of exact shed error."""
        for source_id, state in self._streams.items():
            if state.scale > 1.0:
                state.shed_error += (state.scale - 1.0) * state.base_min_delta
                state.widened_ticks += 1
                if self._tel.enabled:
                    self._tel.gauge(
                        "shed_delta_scale", state.scale, source_id
                    )
                    # Cumulative shed error as a gauge: the health
                    # watcher tracks its level, so a shedding episode
                    # registers as a ramp against a flat prediction.
                    self._tel.gauge(
                        "shed_error", state.shed_error, source_id
                    )

    def step(self, tick: int, depth: int) -> dict[str, float]:
        """Run one pressure evaluation; returns δ-scale changes to apply.

        Widens one stream per call at the high watermark, restores one at
        the low watermark (LIFO), both paced by the cooldown.  Also
        charges every currently-widened stream one tick of shed error.
        """
        policy = self._policy
        changes: dict[str, float] = {}
        pressure = depth / policy.inbox_capacity
        cooled = (
            self._last_change_tick is None
            or tick - self._last_change_tick >= policy.cooldown_ticks
        )
        if pressure >= policy.high_watermark and cooled:
            changed = self._widen_one(tick, pressure, planned=False)
            if changed is not None:
                changes[changed[0]] = changed[1]
        elif pressure <= policy.low_watermark and cooled and self._widen_stack:
            changed = self._restore_one(tick, pressure, planned=False)
            if changed is not None:
                changes[changed[0]] = changed[1]
        self._charge()
        return changes

    def plan_widen(self, tick: int, steps: int) -> dict[str, float]:
        """Apply up to ``steps`` planner-ordered widening steps *now*.

        The autoscaler's handoff: planned widening is not gated by the
        reactive cooldown (the planner paces itself by control
        interval), but it stamps the cooldown clock so the reactive
        loop does not immediately pile a second adjustment on top.
        Accounting is identical to reactive widening -- same stack,
        same shed-error charge, same events (flagged ``planned``).
        """
        changes: dict[str, float] = {}
        for _ in range(max(0, steps)):
            changed = self._widen_one(tick, 0.0, planned=True)
            if changed is None:
                break
            changes[changed[0]] = changed[1]
        return changes

    def plan_restore(self, tick: int, steps: int) -> dict[str, float]:
        """Apply up to ``steps`` planner-ordered LIFO restore steps now."""
        changes: dict[str, float] = {}
        for _ in range(max(0, steps)):
            changed = self._restore_one(tick, 0.0, planned=True)
            if changed is None:
                break
            changes[changed[0]] = changed[1]
        return changes

    def ledger(self) -> dict[str, object]:
        """Conservation view of the shed account.

        ``balanced`` is True exactly when every widening step has been
        matched by a restore step and no stream is left widened -- the
        surge-drill invariant (shed == restored after the surge).
        """
        widen_steps = sum(s.widen_steps for s in self._streams.values())
        restore_steps = sum(s.restore_steps for s in self._streams.values())
        outstanding = sum(
            1 for s in self._streams.values() if s.scale > 1.0
        )
        return {
            "widen_steps": widen_steps,
            "restore_steps": restore_steps,
            "outstanding": outstanding,
            "stack": list(self._widen_stack),
            "dropped_updates": sum(
                s.dropped_updates for s in self._streams.values()
            ),
            "shed_error_total": sum(
                s.shed_error for s in self._streams.values()
            ),
            "balanced": widen_steps == restore_steps and outstanding == 0,
        }

    def report(self) -> dict[str, dict[str, float]]:
        """Per-stream shedding account (scale, ticks widened, error)."""
        return {
            source_id: {
                "scale": state.scale,
                "widened_ticks": state.widened_ticks,
                "shed_error": state.shed_error,
                "dropped_updates": state.dropped_updates,
                "priority": state.priority,
            }
            for source_id, state in self._streams.items()
        }
