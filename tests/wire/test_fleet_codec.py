"""The fleets' array codec against the per-message code it replaced.

``LiteFleet.step_tick`` packs a tick's plain updates with one
``encode_update_frames`` call and both fleets read acks as columns
through ``_FleetSocket.drain_acks``.  The oracle here is the code they
shipped with before: a per-slot ``encode_message`` loop and a per-datagram
``decode_message`` / ``_on_ack`` drain, copied into this file.  Over
seeded ticks, with no socket, both get the same ack buffer -- cumulative
and partial acks, two acks for one source in one drain, resync requests,
a corrupt frame, an unknown hash, an intact frame that is not an ack and
an ack-sized frame of another tag -- and must emit the same frames and
end in the same protocol state and counters.
"""

import asyncio
import struct
import zlib

import numpy as np
import pytest

from repro.dkf.protocol import (
    AckMessage,
    HeartbeatMessage,
    ResyncMessage,
    UpdateMessage,
    decode_message,
    encode_message,
)
from repro.errors import ConfigurationError, CorruptMessageError
from repro.wire.config import WireConfig
from repro.wire.fleet import LiteFleet, StepperFleet

TICKS = 40


def _take(fleet) -> list[bytes]:
    received, fleet._net._ack_buf = fleet._net._ack_buf, []
    return received


class _PerMessageLiteFleet(LiteFleet):
    """``LiteFleet`` with its per-message encode loop and ack drain."""

    def _on_ack(self, ack: AckMessage, tick: int) -> None:
        slot = self._index.row_of_id(ack.source_id)
        if slot is None:
            return
        self.acks_received += 1
        if ack.resync_requested:
            self.needs_resync[slot] = True
            self.resyncs_requested += 1
        if ack.seq > self.acked_seq[slot]:
            self.acked_seq[slot] = ack.seq
        acked = ack.seq  # cumulative: everything below this is settled
        if acked >= self.next_seq[slot]:
            self.pending[slot] = -1
            self.pending_attempt[slot] = 0
        elif self.pending[slot] != -1 and acked > self.pending[slot]:
            self.pending[slot] = acked
            self.pending_attempt[slot] = 0
            self.pending_deadline[slot] = (
                tick + self._transport.retry_timeout(0)
            )

    def _drain_acks(self, tick: int) -> None:
        for data in _take(self):
            try:
                message = decode_message(
                    data, self._index, state_dim=self._config.state_dim
                )
            except CorruptMessageError:
                self._net.counters.frames_corrupt += 1
                continue
            except (ConfigurationError, ValueError, struct.error):
                self._net.counters.frames_unknown += 1
                continue
            self._net.counters.frames_decoded += 1
            if isinstance(message, AckMessage):
                self._on_ack(message, tick)

    async def step_tick(self, tick: int) -> int:
        config = self._config
        rng = np.random.default_rng([config.seed, 2, tick])
        self.value += rng.normal(0.0, 0.5, config.sources)
        escape = rng.random(config.sources)
        self._drain_acks(tick)

        started = self.first_tick <= tick
        priming = started & (self.next_seq == 0) & (self.pending == -1)
        resync_due = started & (
            self.needs_resync
            | ((self.pending != -1) & (self.pending_deadline <= tick))
        )
        update_due = (
            started
            & ~priming
            & ~resync_due
            & (escape * self.delta_scale < config.update_prob)
        )
        update_due |= priming
        heartbeat_due = (
            started
            & ~update_due
            & ~resync_due
            & (
                tick - self.last_send
                >= config.heartbeat_interval_ticks
            )
        )

        frames: list[bytes] = []
        for slot in np.flatnonzero(resync_due):
            seq = int(self.next_seq[slot])
            snapshot = np.array([self.value[slot]])
            frames.append(
                encode_message(
                    ResyncMessage(
                        source_id=self.source_ids[slot],
                        seq=seq,
                        k=tick,
                        x=snapshot,
                        p=np.eye(1),
                        value=snapshot,
                    )
                )
            )
            self.next_seq[slot] = seq + 1
            self.needs_resync[slot] = False
            attempt = int(self.pending_attempt[slot]) + 1
            self.pending[slot] = seq
            self.pending_attempt[slot] = attempt
            self.pending_deadline[slot] = (
                tick + self._transport.retry_timeout(attempt)
            )
            self.resyncs_sent += 1
        for slot in np.flatnonzero(update_due):
            seq = int(self.next_seq[slot])
            frames.append(
                encode_message(
                    UpdateMessage(
                        source_id=self.source_ids[slot],
                        seq=seq,
                        k=tick,
                        value=np.array([self.value[slot]]),
                    )
                )
            )
            self.next_seq[slot] = seq + 1
            if self.pending[slot] == -1:
                self.pending[slot] = seq
                self.pending_attempt[slot] = 0
                self.pending_deadline[slot] = (
                    tick + self._transport.retry_timeout(0)
                )
            self.updates_sent += 1
        for slot in np.flatnonzero(heartbeat_due):
            frames.append(
                encode_message(
                    HeartbeatMessage(
                        source_id=self.source_ids[slot],
                        seq=int(self.next_seq[slot]),
                        k=tick,
                    )
                )
            )
            self.heartbeats_sent += 1
        sent_any = resync_due | update_due | heartbeat_due
        self.last_send[sent_any] = tick

        await self._net.transmit(frames, rng)
        return len(frames)


class _PerMessageStepperFleet(StepperFleet):
    """``StepperFleet`` with its per-datagram ack drain."""

    def _drain_acks(self, tick: int) -> None:
        for data in _take(self):
            try:
                message = decode_message(
                    data, self._index, state_dim=self._config.state_dim
                )
            except CorruptMessageError:
                self._net.counters.frames_corrupt += 1
                continue
            except (ConfigurationError, ValueError, struct.error):
                self._net.counters.frames_unknown += 1
                continue
            self._net.counters.frames_decoded += 1
            if isinstance(message, AckMessage):
                slot = self._index.row_of_id(message.source_id)
                if slot is not None:
                    self.acks_received += 1
                    if message.seq > self.acked_seq[slot]:
                        self.acked_seq[slot] = message.seq
                    self._steppers[slot].on_ack(message, tick)


def _captured(fleet) -> list[list[bytes]]:
    """Replace the fleet's socket transmit with a recorder."""
    sent: list[list[bytes]] = []

    async def transmit(frames, rng):
        sent.append(list(frames))

    fleet._net.transmit = transmit
    return sent


def _ack_sized(tag: int, source_id: str) -> bytes:
    """An intact 18-byte frame with another tag: not an ack."""
    body = struct.pack("!BIIIB", tag, zlib.crc32(source_id.encode()), 0, 0, 0)
    return body + struct.pack("!I", zlib.crc32(body))


def _flip(frame: bytes, bit: int) -> bytes:
    data = bytearray(frame)
    data[bit // 8 % len(data)] ^= 1 << (bit % 8)
    return bytes(data)


def _acks_for(frames, fleet, rng, tally) -> list[bytes]:
    """The ack buffer a lossy, reordering server might send back.

    Each update or resync is acked in full, acked partially (its own seq:
    everything *below* it settled), acked twice in one drain, or not at
    all; some acks carry ``resync_requested``.  Then one frame each of
    the kinds no ack drain may apply.
    """
    out = []
    for frame in frames:
        message = decode_message(frame, fleet._index, state_dim=1)
        if isinstance(message, HeartbeatMessage):
            continue
        slot = fleet._index.row_of_id(message.source_id)
        roll = rng.random()
        if roll < 0.2:
            continue  # lost: the deadline will resync it
        seqs = [message.seq + 1]
        if roll < 0.35:
            seqs = [message.seq]  # partial
            if fleet.pending[slot] < message.seq < fleet.next_seq[slot]:
                tally["partial"] += 1
        elif roll < 0.5:
            seqs = [message.seq, message.seq + 1][:: rng.choice([1, -1])]
            tally["twice"] += 1
        for seq in seqs:
            out.append(
                encode_message(
                    AckMessage(
                        message.source_id, seq, int(message.k),
                        bool(rng.random() < 0.1),
                    )
                )
            )
    some = fleet.source_ids[int(rng.integers(len(fleet.source_ids)))]
    out += [
        _flip(encode_message(AckMessage(some, 3, 1)), int(rng.integers(144))),
        encode_message(AckMessage("ghost-source", 1, 1)),
        encode_message(HeartbeatMessage(some, 0, 1)),
        _ack_sized(0x01, some),
    ]
    order = rng.permutation(len(out))
    return [out[i] for i in order]


_STATE = (
    "value", "next_seq", "pending", "pending_deadline", "pending_attempt",
    "last_send", "needs_resync", "acked_seq", "delta_scale",
)
_COUNTS = (
    "updates_sent", "resyncs_sent", "heartbeats_sent", "acks_received",
    "resyncs_requested",
)


def _books(fleet, names=_COUNTS) -> dict:
    counters = fleet.counters
    return {
        "decoded": counters.frames_decoded,
        "corrupt": counters.frames_corrupt,
        "unknown": counters.frames_unknown,
    } | {name: getattr(fleet, name) for name in names}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lite_fleet_frames_and_state_equal_the_per_message_code(seed):
    config = WireConfig(
        sources=48, ticks=TICKS + 2, ramp_ticks=4, seed=seed,
        update_prob=0.3, ack_timeout_ticks=3, heartbeat_interval_ticks=4,
    )
    fleet, oracle = LiteFleet(config), _PerMessageLiteFleet(config)
    sent, expected = _captured(fleet), _captured(oracle)
    rng = np.random.default_rng([seed, 99])
    tally = {"partial": 0, "twice": 0}

    async def run():
        acks: list[bytes] = []
        for tick in range(1, TICKS + 1):
            fleet._net._ack_buf = list(acks)
            oracle._net._ack_buf = list(acks)
            if tick % 7 == 0:  # backpressure thins one source's updates
                for each in (fleet, oracle):
                    each.apply_scales({fleet.source_ids[tick]: 3.0})
            assert await fleet.step_tick(tick) == await oracle.step_tick(tick)
            assert sent[-1] == expected[-1], tick
            for name in _STATE:
                assert np.array_equal(
                    getattr(fleet, name), getattr(oracle, name)
                ), (tick, name)
            assert _books(fleet) == _books(oracle), tick
            acks = _acks_for(sent[-1], oracle, rng, tally)
        fleet._net._ack_buf = list(acks)
        oracle._net._ack_buf = list(acks)
        fleet.settle(TICKS + 1)
        oracle.settle(TICKS + 1)

    asyncio.run(run())
    for name in _STATE:
        assert np.array_equal(getattr(fleet, name), getattr(oracle, name))
    books = _books(fleet)
    assert books == _books(oracle)
    # Every scenario the drain must get right was exercised.
    assert tally["partial"] and tally["twice"]
    assert books["resyncs_requested"] and books["resyncs_sent"]
    assert books["heartbeats_sent"]
    assert books["corrupt"] == TICKS
    assert books["unknown"] == 2 * TICKS  # the ghost and the ack-sized update
    assert books["decoded"] == books["acks_received"] + TICKS


def test_stepper_fleet_gets_the_same_acks_as_the_per_message_drain():
    config = WireConfig(sources=12, ticks=8, ramp_ticks=1, seed=4)
    fleet, oracle = StepperFleet(config), _PerMessageStepperFleet(config)
    calls = {id(fleet): [], id(oracle): []}
    for each in (fleet, oracle):
        for stepper in each._steppers:
            stepper.on_ack = lambda ack, tick, log=calls[id(each)]: (
                log.append((ack, tick))
            )
    rng = np.random.default_rng(5)
    ids = fleet.source_ids
    buffer = [
        encode_message(
            AckMessage(
                ids[int(rng.integers(len(ids)))],
                int(rng.integers(0, 6)),
                int(rng.integers(0, 2**32)),
                bool(rng.random() < 0.3),
            )
        )
        for _ in range(40)
    ]
    buffer += [
        _flip(buffer[0], 77),
        encode_message(AckMessage("ghost-source", 1, 1)),
        encode_message(HeartbeatMessage(ids[0], 0, 1)),
        _ack_sized(0x05, ids[1]),
    ]
    for each in (fleet, oracle):
        each._net._ack_buf = list(buffer)
        each.settle(3)
    assert calls[id(fleet)] == calls[id(oracle)]
    assert len(calls[id(fleet)]) == 40
    assert np.array_equal(fleet.acked_seq, oracle.acked_seq)
    names = ("acks_received",)
    assert _books(fleet, names) == _books(oracle, names) == {
        "decoded": 41, "corrupt": 1, "unknown": 2, "acks_received": 40,
    }
