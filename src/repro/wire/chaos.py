"""Chaos engineering for the real-wire runtime (PROTOCOL.md §9).

``repro wire --chaos`` runs the ordinary soak loop with four layers of
deliberate hostility stacked on top, all seeded so the *decisions* --
never the wall-clock outcomes -- replay exactly:

1. **Socket-level fault injection.**  A :class:`ChannelShaper` sits on
   each direction's send seam (:meth:`~repro.wire.fleet.LiteFleet.
   install_send_shaper`, :meth:`~repro.wire.server.WireServer.
   install_send_shaper`) and drops, duplicates, reorders, delays and
   bit-corrupts datagrams.  Loss runs on the PR-1
   :class:`~repro.dsms.faults.GilbertElliottLoss` burst chain; scheduled
   partitions of a seeded source subset reuse the PR-5
   :class:`~repro.dsms.faults.FaultSchedule` partition machinery (the
   shaper peeks the §5 header's source hash to route the cut); a
   mid-run server socket rebind exercises the re-open path.
2. **Adversarial input.**  A :class:`FuzzBarrage` fires seeded garbage
   at both ports every tick -- random bytes, truncated and oversized
   datagrams, valid-CRC frames from unregistered sources, replayed and
   future-epoch frames, malformed/non-object/deeply-nested/huge JSON,
   one slow-loris connection -- and asserts that every refusal is a
   *typed* rejection in the poison ledger and that nothing raises past
   a handler (the event loop's exception handler is the tripwire).
3. **Stall injection.**  Scheduled synchronous sleeps block the event
   loop so the :class:`~repro.wire.runtime.StallWatchdog` must detect
   real lag, emit ``wire.stall`` and escalate.
4. **The drain/restart drill.**  Mid-run, the coordinator captures the
   fleet's highest received cumulative acks, drains the runtime through
   the PR-3 checkpoint machinery, restarts it on the same endpoints and
   proves (a) recovery is bit-identical (canonical-JSON CRC of the
   re-exported state equals the snapshot's) and (b) **no acknowledged
   update was lost**: every source's restored ``expected_seq`` is at
   least the highest ack the fleet ever received.

The run writes two artifacts.  ``chaos-report.json`` contains only
deterministic content -- the profile, the workload fields, schedule
digests of the seeded fault decisions, and the gate booleans -- and is
byte-identical across same-seed runs (CI ``cmp``-asserts this).  The
measured side (latencies, counts, residuals) goes in the ordinary soak
summary, which is never compared byte-wise.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.dkf.protocol import SourceHashIndex, UpdateMessage, encode_message
from repro.drill import Drill, bench_snapshot
from repro.dsms.faults import FaultSchedule, GilbertElliottLoss
from repro.errors import ConfigurationError
from repro.wire.config import WireConfig
from repro.wire.datagram import MAX_DATAGRAM_BYTES, corrupt_datagram
from repro.wire.runtime import AsyncRuntime
from repro.wire.soak import (
    _build_fleet,
    _conservation,
    _wire_telemetry,
    _workload,
)

__all__ = [
    "CHAOS_SCHEMA",
    "ChaosProfile",
    "ChannelShaper",
    "FuzzBarrage",
    "ChaosCoordinator",
    "chaos_drill",
    "run_chaos",
]

#: Schema tag carried by every chaos report artifact.
CHAOS_SCHEMA = "repro.wire-chaos/v1"

#: Uniform draws materialised per block (lazy, memoised -- replay-exact
#: regardless of query order, the GilbertElliottLoss discipline).
_DRAW_BLOCK = 4096

#: Decision-schedule prefix length digested into the report.
_DIGEST_PREFIX = 2048

#: Fraction of the fleet that must be primed after the re-prime.
_PRIMED_FLOOR = 0.99


@dataclass(frozen=True)
class ChaosProfile:
    """Seeded fault mix for one chaos run (deterministic by content).

    Rates are per-datagram on each shaped direction; ticks are runtime
    ticks.  A tick field of 0 disables that injection.

    Attributes:
        ge_p_enter: Gilbert-Elliott good-to-bad transition probability.
        ge_p_exit: Bad-to-good transition probability.
        ge_loss_good: Loss probability in the good state.
        ge_loss_bad: Loss probability in the bad state.
        corrupt_prob: Per-datagram single-bit-flip probability.
        duplicate_prob: Per-datagram duplication probability.
        reorder_prob: Probability a datagram is held back and released
            after up to ``reorder_window`` later sends (or at the next
            tick pump, whichever comes first).
        reorder_window: Held datagrams a direction may accumulate.
        delay_prob: Probability a datagram is released via a wall-clock
            timer instead of inline.
        delay_max_s: Upper bound of the seeded delay draw.
        partition_fraction: Fraction of sources cut from the server.
        partition_at: Tick the partition starts (0 = none).
        partition_heal_at: Tick the partition heals.
        rebind_tick: Tick the server's UDP socket is torn down and
            re-bound on the same endpoint (0 = never).
        drain_tick: Tick the drain/restart drill fires (0 = never).
        stall_ticks: Ticks at which a synchronous sleep blocks the loop.
        stall_sleep_scale: Sleep length as a multiple of the stall
            budget (must exceed 1.0 to be detectable).
        fuzz_from_tick: First tick of the adversarial barrage (0 = no
            fuzzing).
        fuzz_per_tick: UDP fuzz datagrams per tick.
    """

    ge_p_enter: float = 0.02
    ge_p_exit: float = 0.4
    ge_loss_good: float = 0.005
    ge_loss_bad: float = 0.9
    corrupt_prob: float = 0.01
    duplicate_prob: float = 0.01
    reorder_prob: float = 0.05
    reorder_window: int = 4
    delay_prob: float = 0.02
    delay_max_s: float = 0.05
    partition_fraction: float = 0.1
    partition_at: int = 0
    partition_heal_at: int = 0
    rebind_tick: int = 0
    drain_tick: int = 0
    stall_ticks: tuple[int, ...] = ()
    stall_sleep_scale: float = 1.5
    fuzz_from_tick: int = 0
    fuzz_per_tick: int = 8

    @classmethod
    def reference(cls, ticks: int) -> "ChaosProfile":
        """The acceptance profile: ~5% GE loss, 1% corrupt, reorder
        window 4, a sixth of the run partitioned, one stall, one socket
        rebind and one mid-run drain/restart, fuzzing throughout."""
        return cls(
            partition_at=max(2, ticks // 5),
            partition_heal_at=max(3, (2 * ticks) // 5),
            rebind_tick=max(3, ticks // 2),
            drain_tick=max(4, (2 * ticks) // 3),
            stall_ticks=(max(2, ticks // 4),),
            fuzz_from_tick=2,
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (tuples become lists)."""
        out = asdict(self)
        out["stall_ticks"] = list(self.stall_ticks)
        return out


class ChannelShaper:
    """Seeded fault shaping on one direction's send seam.

    Installed via ``install_send_shaper``; called as
    ``shaper(payload, addr, raw_send)`` and invokes ``raw_send`` for
    every datagram that genuinely reaches the socket, so the endpoint's
    sent counters stay truthful under shaping.  All decisions derive
    from ``(seed, channel, index)`` -- drop from the Gilbert-Elliott
    chain, the rest from memoised per-index uniform draws -- so any
    interleaving replays the same schedule.

    Args:
        name: Channel label (``data`` or ``ack``), part of the seed.
        profile: The fault mix.
        seed: Root seed (the run's config seed).
        schedule: Optional :class:`FaultSchedule` whose partitions sever
            this channel; requires ``index_lookup``.
        index_lookup: ``source-hash -> source-id`` map for header peeks
            (partition routing): a dict or a
            :class:`~repro.dkf.protocol.SourceHashIndex`.
    """

    def __init__(
        self,
        name: str,
        profile: ChaosProfile,
        seed: int,
        schedule: FaultSchedule | None = None,
        index_lookup: dict[int, str] | SourceHashIndex | None = None,
    ) -> None:
        self.name = name
        self._profile = profile
        self._channel_id = zlib.crc32(f"chaos:{name}".encode())
        self._seed = seed
        self._loss = GilbertElliottLoss(
            profile.ge_p_enter,
            profile.ge_p_exit,
            loss_good=profile.ge_loss_good,
            loss_bad=profile.ge_loss_bad,
            seed=seed ^ self._channel_id,
        )
        self._schedule = schedule
        self._index_lookup = index_lookup or {}
        self._blocks: dict[int, np.ndarray] = {}
        self._loop = None
        self._held: list[tuple[bytes, tuple, object]] = []
        self._next = 0
        self.dropped = 0
        self.partition_dropped = 0
        self.corrupted = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.passed = 0

    def bind_loop(self, loop) -> None:
        """Attach the event loop used for delayed releases."""
        self._loop = loop

    def _draws(self, index: int) -> np.ndarray:
        """Five independent uniforms for datagram ``index``: corrupt,
        duplicate, delay, delay-amount, reorder (memoised per block)."""
        block, offset = divmod(index, _DRAW_BLOCK)
        rows = self._blocks.get(block)
        if rows is None:
            rng = np.random.default_rng(
                [self._seed, self._channel_id, block]
            )
            rows = rng.random((_DRAW_BLOCK, 5))
            self._blocks[block] = rows
        return rows[offset]

    def _peek_source(self, payload: bytes) -> str | None:
        if len(payload) < 5:
            return None
        (source_hash,) = struct.unpack("!I", payload[1:5])
        return self._index_lookup.get(source_hash)

    def __call__(self, payload: bytes, addr: tuple, raw_send) -> None:
        index = self._next
        self._next += 1
        profile = self._profile
        if self._schedule is not None:
            source_id = self._peek_source(payload)
            if source_id is not None and self._schedule.link_severed(
                source_id, "server"
            ):
                self.partition_dropped += 1
                return
        if self._loss(index):
            self.dropped += 1
            return
        draws = self._draws(index)
        if draws[0] < profile.corrupt_prob:
            payload = corrupt_datagram(payload, index)
            self.corrupted += 1
        copies = 1
        if draws[1] < profile.duplicate_prob:
            copies = 2
            self.duplicated += 1
        if (
            draws[2] < profile.delay_prob
            and profile.delay_max_s > 0
            and self._loop is not None
        ):
            delay_s = float(draws[3]) * profile.delay_max_s
            self.delayed += 1
            for _ in range(copies):
                self._loop.call_later(delay_s, raw_send, payload, addr)
            return
        if (
            draws[4] < profile.reorder_prob
            and profile.reorder_window > 0
        ):
            self.reordered += 1
            for _ in range(copies):
                self._held.append((payload, addr, raw_send))
            while len(self._held) > profile.reorder_window:
                held_payload, held_addr, held_send = self._held.pop(0)
                held_send(held_payload, held_addr)
            return
        self.passed += 1
        for _ in range(copies):
            raw_send(payload, addr)

    def pump(self) -> None:
        """Release every held datagram (called once per tick)."""
        held, self._held = self._held, []
        for payload, addr, raw_send in held:
            raw_send(payload, addr)

    def schedule_digest(self, prefix: int = _DIGEST_PREFIX) -> int:
        """CRC-32 over the decision schedule's prefix.

        A pure function of ``(seed, channel)``: the first ``prefix``
        loss decisions plus the first uniform-draw block.  Two runs
        with the same seed agree on this before any traffic flows --
        the determinism pin the chaos report carries.
        """
        digest = 0
        for index in range(prefix):
            digest = zlib.crc32(
                b"1" if self._loss(index) else b"0", digest
            )
        return zlib.crc32(self._draws(0).tobytes(), digest)

    def summary(self) -> dict[str, int]:
        """Applied-decision counts (measured; not in the report)."""
        return {
            "offered": self._next,
            "passed": self.passed,
            "dropped": self.dropped,
            "partition_dropped": self.partition_dropped,
            "corrupted": self.corrupted,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
        }


class FuzzBarrage:
    """Seeded adversarial input against both live ports.

    Every tick from ``fuzz_from_tick`` on, the barrage sends a seeded
    mix of hostile datagrams at the UDP port and hostile request lines
    at the TCP port, reading every TCP reply and recording any that is
    not a JSON object (the "nothing raises past the handler" probe is
    the event loop's exception handler, owned by the coordinator).  One
    slow-loris connection is opened at the first fuzz tick and must be
    forcibly closed by the server's idle deadline before teardown.
    """

    def __init__(
        self, config: WireConfig, real_source: str, per_tick: int = 8
    ) -> None:
        self._config = config
        self._real_source = real_source
        self._per_tick = max(1, per_tick)
        self._sock = None
        self._loris: tuple | None = None
        self._loris_started_s: float | None = None
        self._loris_allowed = False
        self.datagrams_sent = 0
        self.lines_sent = 0
        self.bad_responses: list[str] = []
        self.loris_started = False
        self.loris_closed = False

    def open(self, loop) -> None:
        """Create the non-blocking UDP socket the barrage fires from."""
        import socket as socket_mod

        self._sock = socket_mod.socket(
            socket_mod.AF_INET, socket_mod.SOCK_DGRAM
        )
        self._sock.setblocking(False)

    def _payloads(self, tick: int) -> list[bytes]:
        """The tick's seeded UDP barrage (pure function of seed+tick)."""
        config = self._config
        rng = np.random.default_rng([config.seed, 5, tick])
        kinds = rng.integers(0, 6, self._per_tick)
        payloads: list[bytes] = []
        for kind in kinds:
            if kind == 0:  # random bytes (CRC rejects)
                size = int(rng.integers(1, 200))
                payloads.append(rng.bytes(size))
            elif kind == 1:  # oversize (dropped before decode)
                payloads.append(
                    rng.bytes(MAX_DATAGRAM_BYTES + 1 + int(rng.integers(0, 64)))
                )
            elif kind == 2:  # truncated valid frame (CRC rejects)
                frame = encode_message(
                    UpdateMessage(
                        source_id=self._real_source,
                        seq=1,
                        k=tick,
                        value=np.array([0.0]),
                    )
                )
                payloads.append(frame[: max(1, len(frame) - 3)])
            elif kind == 3:  # intact CRC, unregistered source hash
                payloads.append(
                    encode_message(
                        UpdateMessage(
                            source_id=f"fuzz-ghost-{int(rng.integers(0, 8))}",
                            seq=0,
                            k=tick,
                            value=np.array([1.0]),
                        )
                    )
                )
            elif kind == 4:  # future epoch (forged timestamp)
                payloads.append(
                    encode_message(
                        UpdateMessage(
                            source_id=self._real_source,
                            seq=0,
                            k=2_000_000 + tick,
                            value=np.array([2.0]),
                        )
                    )
                )
            else:  # replayed priming frame (duplicate; tolerated)
                payloads.append(
                    encode_message(
                        UpdateMessage(
                            source_id=self._real_source,
                            seq=0,
                            k=1,
                            value=np.array([3.0]),
                        )
                    )
                )
        return payloads

    def plan_digest(self, ticks: int) -> int:
        """CRC-32 over the full seeded barrage (deterministic)."""
        digest = 0
        for tick in range(1, ticks + 1):
            for payload in self._payloads(tick):
                digest = zlib.crc32(payload, digest)
        return digest

    async def tick(
        self, tick: int, runtime: AsyncRuntime, loris_ok: bool = True
    ) -> None:
        """Fire one tick of the barrage at the live runtime."""
        self._loris_allowed = loris_ok
        udp = runtime.udp_endpoint
        if self._sock is not None and udp is not None:
            for payload in self._payloads(tick):
                try:
                    self._sock.sendto(payload, udp)
                    self.datagrams_sent += 1
                except (BlockingIOError, OSError):
                    pass
        await self._fuzz_tcp(tick, runtime)

    async def _fuzz_tcp(self, tick: int, runtime: AsyncRuntime) -> None:
        tcp = runtime.tcp_endpoint
        if tcp is None or runtime.query is None:
            return
        lines = [
            b'{"op": "ping"',  # bad JSON
            b"[1,2,3]",  # valid JSON, not an object
            b'"just a string"',
            b'{"op": "no-such-op"}',
            b'{"op": "answer", "source_id": 5}',
            b'{"op": "answers", "limit": "all"}',
            b'{"op": "forecast", "source_id": "%b", "steps": -2}'
            % self._real_source.encode(),
        ]
        if tick % 5 == 0:
            lines.append(b"[" * 5000 + b"]" * 5000)  # nesting bomb
        try:
            reader, writer = await asyncio.open_connection(*tcp)
        except OSError:
            return
        try:
            for line in lines:
                writer.write(line + b"\n")
                await writer.drain()
                reply = await asyncio.wait_for(reader.readline(), 5.0)
                self.lines_sent += 1
                if not reply:
                    break
                try:
                    decoded = json.loads(reply)
                except json.JSONDecodeError:
                    decoded = None
                if not isinstance(decoded, dict):
                    self.bad_responses.append(reply.decode(errors="replace"))
        except (asyncio.TimeoutError, ConnectionResetError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if tick % 7 == 0:
            await self._fuzz_huge_line(tcp)
        if self._loris is None and self._loris_allowed:
            # The loris must be evicted by the *idle deadline*, not by a
            # scheduled drain tearing the listener down -- so it only
            # starts once the drill (if any) is behind us.
            await self._start_loris(tcp)

    async def _fuzz_huge_line(self, tcp: tuple) -> None:
        """A line past the 64 KiB cap on its own connection."""
        try:
            reader, writer = await asyncio.open_connection(*tcp)
        except OSError:
            return
        try:
            writer.write(b"a" * 70_000 + b"\n")
            await writer.drain()
            self.lines_sent += 1
            await asyncio.wait_for(reader.readline(), 5.0)
        except (asyncio.TimeoutError, ConnectionResetError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _start_loris(self, tcp: tuple) -> None:
        """Connect, write half a request, go silent."""
        try:
            reader, writer = await asyncio.open_connection(*tcp)
        except OSError:
            return
        writer.write(b'{"op": "ans')  # never finishes the line
        try:
            await writer.drain()
        except (ConnectionResetError, OSError):
            return
        self._loris = (reader, writer)
        self._loris_started_s = time.monotonic()
        self.loris_started = True

    async def teardown(self) -> None:
        """Verify the loris was evicted; close everything."""
        if self._loris is not None:
            reader, writer = self._loris
            # The server owes us an eviction by its idle deadline.  Wait
            # out whatever remains of that deadline, then expect EOF.
            waited = time.monotonic() - (self._loris_started_s or 0.0)
            remaining = max(
                0.5, self._config.query_idle_timeout_s - waited + 2.0
            )
            try:
                await asyncio.wait_for(reader.read(), remaining)
                self.loris_closed = True
            except (asyncio.TimeoutError, ConnectionResetError, OSError):
                self.loris_closed = False
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._loris = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class ChaosCoordinator:
    """Orchestrates one chaos run against a live :class:`AsyncRuntime`.

    The runtime calls :meth:`install` once the sockets are open,
    :meth:`on_tick` after every tick and :meth:`teardown` on the way
    out.  All scheduling is tick-driven and seeded; the coordinator
    owns the shapers, the fuzz barrage, the partition schedule, the
    stall injections and the drain/restart drill, and accumulates the
    drill verdicts the gates read.
    """

    def __init__(
        self,
        profile: ChaosProfile,
        config: WireConfig,
        telemetry=None,
    ) -> None:
        self.profile = profile
        self._config = config
        self._tel = telemetry
        self.schedule = FaultSchedule(seed=config.seed)
        self.data_shaper: ChannelShaper | None = None
        self.ack_shaper: ChannelShaper | None = None
        self.fuzz: FuzzBarrage | None = None
        self.partitioned: list[str] = []
        self.loop_errors: list[str] = []
        self.rebinds = 0
        self.stalls_injected = 0
        self._pending_snapshot: dict | None = None
        self.drill: dict[str, object] = {}
        self._loop = None

    # Wiring ---------------------------------------------------------------

    def partition_subset(self, source_ids: list[str]) -> list[str]:
        """The seeded source subset the partition severs."""
        fraction = self.profile.partition_fraction
        if self.profile.partition_at <= 0 or fraction <= 0:
            return []
        count = max(1, int(fraction * len(source_ids)))
        rng = np.random.default_rng([self._config.seed, 7])
        picks = rng.choice(len(source_ids), size=count, replace=False)
        return [source_ids[i] for i in sorted(picks)]

    def install(self, runtime: AsyncRuntime, loop) -> None:
        """Arm every chaos layer on the freshly opened runtime."""
        self._loop = loop
        profile = self.profile
        source_ids = list(runtime.fleet.source_ids)
        self.partitioned = self.partition_subset(source_ids)
        if self.partitioned:
            self.schedule.partition(
                self.partitioned,
                ["server"],
                at=profile.partition_at,
                heal_at=profile.partition_heal_at or None,
            )
        index_lookup = runtime.server._index
        self.data_shaper = ChannelShaper(
            "data",
            profile,
            self._config.seed,
            schedule=self.schedule if self.partitioned else None,
            index_lookup=index_lookup,
        )
        self.ack_shaper = ChannelShaper(
            "ack",
            profile,
            self._config.seed,
            schedule=self.schedule if self.partitioned else None,
            index_lookup=index_lookup,
        )
        self.data_shaper.bind_loop(loop)
        self.ack_shaper.bind_loop(loop)
        runtime.fleet.install_send_shaper(self.data_shaper)
        runtime.server.install_send_shaper(self.ack_shaper)
        if profile.fuzz_from_tick > 0:
            self.fuzz = FuzzBarrage(
                self._config,
                source_ids[0],
                per_tick=profile.fuzz_per_tick,
            )
            self.fuzz.open(loop)
        loop.set_exception_handler(self._capture_loop_error)

    def _capture_loop_error(self, loop, context) -> None:
        exception = context.get("exception")
        self.loop_errors.append(
            f"{context.get('message', 'unhandled error')}: {exception!r}"
        )

    # Per-tick drive -------------------------------------------------------

    async def on_tick(self, tick: int, runtime: AsyncRuntime) -> None:
        """One tick of scheduled hostility."""
        profile = self.profile
        self.schedule.observe_tick(tick)
        if self.data_shaper is not None:
            self.data_shaper.pump()
        if self.ack_shaper is not None:
            self.ack_shaper.pump()
        if (
            self.fuzz is not None
            and profile.fuzz_from_tick > 0
            and tick >= profile.fuzz_from_tick
            and runtime.query is not None
        ):
            loris_ok = (
                profile.drain_tick == 0 or tick > profile.drain_tick
            )
            await self.fuzz.tick(tick, runtime, loris_ok=loris_ok)
        if profile.rebind_tick and tick == profile.rebind_tick:
            runtime.server.rebind(self._loop)
            self.rebinds += 1
        if tick in profile.stall_ticks:
            budget_ms = (
                runtime.stall_watchdog.budget_ms
                if runtime.stall_watchdog is not None
                else self._config.tick_ms
            )
            time.sleep(
                profile.stall_sleep_scale * budget_ms / 1000.0
            )
            self.stalls_injected += 1
        if profile.drain_tick and tick == profile.drain_tick:
            await self._drill_drain(tick, runtime)
        elif self._pending_snapshot is not None:
            await self._drill_restart(runtime)

    # The drain/restart drill ----------------------------------------------

    @staticmethod
    def _state_digest(sources: dict) -> int:
        canonical = json.dumps(
            sources, sort_keys=True, separators=(",", ":")
        )
        return zlib.crc32(canonical.encode())

    async def _drill_drain(
        self, tick: int, runtime: AsyncRuntime
    ) -> None:
        """Kill the server mid-soak: capture acks, drain, checkpoint."""
        acked_before = runtime.fleet.acked_high()
        snapshot = await runtime.drain()
        self._pending_snapshot = snapshot
        self.drill = {
            "drain_tick": tick,
            "acked_sources": len(acked_before),
            "acked_before": acked_before,
            "snapshot_digest": self._state_digest(snapshot["sources"]),
        }

    async def _drill_restart(self, runtime: AsyncRuntime) -> None:
        """Bring the server back one tick later; verify the two gates."""
        snapshot, self._pending_snapshot = self._pending_snapshot, None
        await runtime.restart(snapshot)
        reexported = {
            source_id: runtime.server.dkf.export_source_state(source_id)
            for source_id in runtime.server.dkf.source_ids
        }
        bit_identical = (
            self._state_digest(reexported)
            == self.drill["snapshot_digest"]
        )
        acked_before: dict = self.drill.pop("acked_before")
        lost = {
            source_id: acked
            for source_id, acked in acked_before.items()
            if int(
                snapshot["sources"]
                .get(source_id, {"expected_seq": -1})["expected_seq"]
            )
            < acked
        }
        self.drill.update(
            {
                "restart_tick": runtime.ticks_run,
                "bit_identical": bit_identical,
                "acked_updates_lost": len(lost),
                "lost_examples": dict(list(lost.items())[:5]),
            }
        )

    # Teardown / verdicts --------------------------------------------------

    async def teardown(self, runtime: AsyncRuntime) -> None:
        """Flush held datagrams, reap the fuzzers, restore the loop."""
        if self.data_shaper is not None:
            self.data_shaper.pump()
        if self.ack_shaper is not None:
            self.ack_shaper.pump()
        if self._pending_snapshot is not None:
            # Drain fired on the final tick; finish the drill so the
            # books close on a living server.
            await self._drill_restart(runtime)
        if self.fuzz is not None:
            await self.fuzz.teardown()
        if self._loop is not None:
            self._loop.set_exception_handler(None)

    def summary(self) -> dict[str, object]:
        """Measured chaos account (for the non-compared soak summary)."""
        return {
            "data_shaper": (
                self.data_shaper.summary()
                if self.data_shaper is not None
                else {}
            ),
            "ack_shaper": (
                self.ack_shaper.summary()
                if self.ack_shaper is not None
                else {}
            ),
            "partitioned_sources": len(self.partitioned),
            "rebinds": self.rebinds,
            "stalls_injected": self.stalls_injected,
            "fuzz_datagrams": (
                self.fuzz.datagrams_sent if self.fuzz is not None else 0
            ),
            "fuzz_lines": (
                self.fuzz.lines_sent if self.fuzz is not None else 0
            ),
            "loop_errors": list(self.loop_errors),
            "drill": {
                key: value
                for key, value in self.drill.items()
                if key != "acked_before"
            },
        }


def _chaos_gates(
    config: WireConfig,
    runtime: AsyncRuntime,
    coordinator: ChaosCoordinator,
    conservation: dict,
    p99: float | None,
) -> dict[str, object]:
    """The pass/fail verdicts (booleans only; deterministic when green)."""
    profile = coordinator.profile
    drill = coordinator.drill
    fuzz = coordinator.fuzz
    primed_floor = math.ceil(_PRIMED_FLOOR * config.sources)
    gates: dict[str, object] = {
        "conservation_ok": bool(conservation["holds"]),
        "primed_ok": runtime.primed >= primed_floor,
        "query_p99_ok": (
            p99 is not None and p99 <= config.query_p99_gate_ms
        ),
        "no_acked_update_lost": (
            profile.drain_tick == 0
            or drill.get("acked_updates_lost") == 0
        ),
        "recovery_bit_identical": (
            profile.drain_tick == 0 or bool(drill.get("bit_identical"))
        ),
        "no_unhandled_errors": not coordinator.loop_errors,
        "fuzz_responses_typed": (
            fuzz is None or not fuzz.bad_responses
        ),
        "loris_evicted": (
            fuzz is None or not fuzz.loris_started or fuzz.loris_closed
        ),
        "stall_detected": (
            not profile.stall_ticks
            or (
                runtime.stall_watchdog is not None
                and runtime.stall_watchdog.stalls > 0
            )
        ),
        "rebind_done": (
            profile.rebind_tick == 0 or coordinator.rebinds > 0
        ),
        "drained_once": profile.drain_tick == 0 or runtime.drains == 1,
        "restarted_once": profile.drain_tick == 0 or runtime.restarts == 1,
    }
    gates["ok"] = all(bool(v) for v in gates.values())
    return gates


def chaos_drill(
    config: WireConfig,
    profile: ChaosProfile | None = None,
    fleet_kind: str = "lite",
    out: str | Path | None = None,
    report_out: str | Path | None = None,
    bench_out: str | Path | None = None,
) -> Drill:
    """Run one chaos soak: its summary, gates, summary lines and
    artifacts.

    Up to three artifacts: ``out`` (the measured summary, like the
    soak's), ``report_out`` (``chaos-report.json`` -- deterministic
    content only, byte-identical per seed) and ``bench_out`` (a
    ``repro.obs`` snapshot with the degraded-mode bench gauges).
    """
    if profile is None:
        profile = ChaosProfile.reference(config.ticks)
    if profile.drain_tick >= config.ticks:
        raise ConfigurationError(
            "drain_tick must leave ticks for the restart and re-prime"
        )
    telemetry = _wire_telemetry(config)
    telemetry.health.install_wire_defaults()
    coordinator = ChaosCoordinator(profile, config, telemetry)
    runtime = AsyncRuntime(
        config,
        fleet=_build_fleet(config, fleet_kind),
        telemetry=telemetry,
        chaos=coordinator,
    )
    runtime.run()

    fuzz_sent = (
        coordinator.fuzz.datagrams_sent
        if coordinator.fuzz is not None
        else 0
    )
    conservation = _conservation(runtime, extra_data_sent=fuzz_sent)
    report = runtime.report()
    p99 = report["query_p99_ms"]
    gates = _chaos_gates(
        config, runtime, coordinator, conservation, p99
    )

    workload = _workload(config, runtime)
    chaos = coordinator.summary()
    rejections = runtime.server.poison.as_dict()
    summary = {
        "schema": CHAOS_SCHEMA,
        "workload": workload,
        "profile": profile.as_dict(),
        "chaos": chaos,
        "wire": {
            "server": runtime.server.counters.as_dict(),
            "fleet": runtime.fleet.counters.as_dict(),
            "conservation": conservation,
            "rejections": rejections,
        },
        "fleet": runtime.fleet.summary(),
        "measured": {
            "ticks": report["ticks"],
            "wall_seconds": report["wall_seconds"],
            "overruns": report["overruns"],
            "primed": runtime.primed,
            "suspects": runtime.suspects,
            "drains": runtime.drains,
            "restarts": runtime.restarts,
            "stall_watchdog": report["stall_watchdog"],
            "queries": report["queries"],
            "query_failures": report["query_failures"],
            "query_p50_ms": report["query_p50_ms"],
            "query_p99_ms": report["query_p99_ms"],
        },
        "gates": gates,
    }

    data = chaos["data_shaper"]
    rejected = ", ".join(
        f"{reason}={count}" for reason, count in rejections.items()
    )
    lines = [
        f"wire chaos: {config.sources} sources, "
        f"{report['ticks']} ticks x {config.tick_seconds:g}s "
        f"({report['wall_seconds']:.1f}s wall, seed {config.seed})",
        f"  data shaper: {data.get('offered', 0)} offered, "
        f"{data.get('dropped', 0)} dropped, "
        f"{data.get('partition_dropped', 0)} partitioned, "
        f"{data.get('corrupted', 0)} corrupted, "
        f"{data.get('duplicated', 0)} duplicated, "
        f"{data.get('reordered', 0)} reordered, "
        f"{data.get('delayed', 0)} delayed",
        f"  fuzz: {chaos['fuzz_datagrams']} datagrams + "
        f"{chaos['fuzz_lines']} lines; poison ledger: "
        f"{rejected if rejected else 'empty'}",
    ]
    drain = chaos["drill"]
    if drain:
        lines.append(
            f"  drill: drained at tick {drain.get('drain_tick')}, "
            f"restarted, bit_identical={drain.get('bit_identical')}, "
            f"acked_updates_lost={drain.get('acked_updates_lost')}"
        )
    lines.append(
        f"  primed {runtime.primed}/{config.sources}, "
        f"queries {report['queries']}, "
        f"p99 {p99 if p99 is not None else '-'} ms "
        f"(gate {config.query_p99_gate_ms:g} ms)"
    )
    result = Drill(
        report=summary,
        gates={name: ok for name, ok in gates.items() if name != "ok"},
        lines=lines,
    )
    if out is not None:
        result.artifacts[out] = summary
        lines.append(f"summary written to {out}")
    if report_out is not None:
        # The replayable report: nothing measured, nothing wall-clock.
        # Two same-seed runs must produce byte-identical files; gate
        # booleans are included because a green run is green
        # deterministically.
        result.artifacts[report_out] = {
            "schema": CHAOS_SCHEMA,
            "seed": config.seed,
            "workload": workload,
            "profile": profile.as_dict(),
            "schedule": {
                "partition_subset_digest": zlib.crc32(
                    ",".join(coordinator.partitioned).encode()
                ),
                "partitioned_sources": len(coordinator.partitioned),
                "data_decisions_digest": (
                    coordinator.data_shaper.schedule_digest()
                    if coordinator.data_shaper is not None
                    else 0
                ),
                "ack_decisions_digest": (
                    coordinator.ack_shaper.schedule_digest()
                    if coordinator.ack_shaper is not None
                    else 0
                ),
                "fuzz_plan_digest": (
                    coordinator.fuzz.plan_digest(config.ticks)
                    if coordinator.fuzz is not None
                    else 0
                ),
            },
            "gates": gates,
        }
        lines.append(f"chaos report written to {report_out}")
    if bench_out is not None:
        result.snapshots[bench_out] = bench_snapshot(
            telemetry,
            {
                "wire_chaos_query_p99_ms": p99,
                "wire_chaos_primed_pct": (
                    100.0 * runtime.primed / config.sources
                ),
            },
            meta={
                "bench": "wire-chaos",
                "seed": config.seed,
                "sources": config.sources,
                "ticks": config.ticks,
                "tick_seconds": config.tick_seconds,
            },
        )
        lines.append(f"bench snapshot written to {bench_out}")
    return result


def run_chaos(
    config: WireConfig,
    profile: ChaosProfile | None = None,
    fleet_kind: str = "lite",
    out: str | Path | None = None,
    report_out: str | Path | None = None,
    bench_out: str | Path | None = None,
) -> dict:
    """Run one chaos soak, write its artifacts and return the measured
    summary (gates included); arguments as for :func:`chaos_drill`."""
    drill = chaos_drill(
        config, profile, fleet_kind, out, report_out, bench_out
    )
    drill.write()
    return drill.report
