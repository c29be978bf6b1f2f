"""Seeded adversarial-input fuzzing: nothing raises past a handler.

Both attack surfaces are driven directly, no sockets: the UDP decode
path through :meth:`WireServer._apply_datagram` and the TCP dispatch
table through :meth:`QueryServer.dispatch_line`.  The contract under
test is *totality* -- every hostile input maps to a typed rejection in
the :class:`~repro.wire.datagram.PoisonLedger` (or a valid response),
and the books still balance afterwards.
"""

import json
import zlib

import numpy as np

from repro.dkf.config import DKFConfig
from repro.dkf.protocol import UpdateMessage, encode_message
from repro.filters.models import constant_model
from repro.obs import Telemetry
from repro.wire.config import WireConfig
from repro.wire.datagram import PoisonLedger
from repro.wire.query import QueryServer
from repro.wire.server import WireServer

SOURCES = ("s0", "s1", "s2")
ADDR = ("127.0.0.1", 49152)


def _server(**overrides) -> tuple[WireConfig, WireServer]:
    defaults = dict(
        sources=len(SOURCES), ticks=8, ramp_ticks=1, tick_seconds=0.5
    )
    defaults.update(overrides)
    config = WireConfig(**defaults)
    server = WireServer(config)
    server.register_fleet(
        SOURCES, DKFConfig(model=constant_model(dims=1), delta=1.0)
    )
    return config, server


def test_poison_ledger_counts_and_exports():
    telemetry = Telemetry()
    ledger = PoisonLedger(telemetry)
    for reason in ("corrupt", "corrupt", "bad_json"):
        ledger.reject(reason)
    assert ledger.total == 3
    assert ledger.reasons == {"corrupt": 2, "bad_json": 1}
    assert list(ledger.as_dict()) == ["bad_json", "corrupt"]
    # The labelled counter family reached the registry.
    assert (
        telemetry.metrics.counter(
            "frames_rejected_total", {"reason": "corrupt"}
        ).value
        == 2
    )


def test_datagram_fuzz_never_escapes_and_books_balance():
    _, server = _server()
    rng = np.random.default_rng(1234)
    offered = 0
    for _ in range(400):
        kind = int(rng.integers(0, 4))
        if kind == 0:  # random bytes: CRC rejects
            payload = rng.bytes(int(rng.integers(1, 120)))
        elif kind == 1:  # truncated valid frame: CRC rejects
            frame = encode_message(
                UpdateMessage(
                    source_id="s0", seq=1, k=1, value=np.array([0.0])
                )
            )
            payload = frame[: int(rng.integers(1, len(frame)))]
        elif kind == 2:  # intact CRC, unregistered source
            payload = encode_message(
                UpdateMessage(
                    source_id=f"ghost-{int(rng.integers(0, 5))}",
                    seq=0,
                    k=1,
                    value=np.array([1.0]),
                )
            )
        else:  # intact CRC, forged far-future sampling instant
            payload = encode_message(
                UpdateMessage(
                    source_id="s1",
                    seq=0,
                    k=server.dkf.clock
                    + server._config.max_future_ticks
                    + 1000,
                    value=np.array([2.0]),
                )
            )
        server._apply_datagram(payload, ADDR)  # must never raise
        offered += 1
    counters = server.counters
    assert (
        counters.frames_decoded
        + counters.frames_corrupt
        + counters.frames_unknown
        == offered
    )
    # Every refusal is typed; future-epoch gets the sharper reason even
    # though it shares the unknown conservation bucket.
    reasons = server.poison.reasons
    assert reasons["corrupt"] > 0
    assert reasons["unknown"] > 0
    assert reasons["future_epoch"] > 0
    assert (
        reasons["unknown"] + reasons["future_epoch"]
        == counters.frames_unknown
    )
    # A legitimate frame still lands afterwards.
    before = counters.frames_decoded
    server._apply_datagram(
        encode_message(
            UpdateMessage(
                source_id="s2", seq=0, k=1, value=np.array([3.0])
            )
        ),
        ADDR,
    )
    assert counters.frames_decoded == before + 1


def test_future_epoch_frames_do_not_reach_the_filter():
    _, server = _server()
    server.dkf.advance_clock(5)
    server._apply_datagram(
        encode_message(
            UpdateMessage(
                source_id="s0",
                seq=0,
                k=2_000_000,
                value=np.array([9.0]),
            )
        ),
        ADDR,
    )
    assert server.poison.reasons == {"future_epoch": 1}
    assert not server.dkf.is_primed("s0")
    # A plausible straggler (within the future window) still applies.
    server._apply_datagram(
        encode_message(
            UpdateMessage(
                source_id="s0", seq=0, k=7, value=np.array([9.0])
            )
        ),
        ADDR,
    )
    assert server.dkf.is_primed("s0")


def test_dispatch_line_fuzz_total_over_seeded_garbage():
    config, server = _server()
    query = QueryServer(server, config)
    rng = np.random.default_rng(99)
    ops = ("answer", "answers", "forecast", "stats", "ping", "warp", 7)
    lines: list[bytes] = [
        rng.bytes(40),
        b"\xff\xfe\x00",
        b"{" * 2000,
        b"[" * 30_000 + b"]" * 30_000,
        b'{"op": "answer", "source_id": ' + b'"x"' * 1 + b"}",
        json.dumps({"op": "forecast", "source_id": "s0",
                    "steps": 10**9}).encode(),
    ]
    for _ in range(200):
        request = {
            "op": ops[int(rng.integers(0, len(ops)))],
            "source_id": ["s0", 5, None, ["a"]][int(rng.integers(0, 4))],
            "steps": int(rng.integers(-3, 4)),
            "limit": [1, -1, "all", 2**40][int(rng.integers(0, 4))],
        }
        lines.append(json.dumps(request).encode())
    for line in lines:
        out = query.dispatch_line(line)  # must never raise
        assert isinstance(out, dict)
        assert out.keys() & {"error", "ok", "answers", "forecast",
                             "source_id", "tick"}
    assert query.poison.reasons["bad_json"] >= 2


def test_dispatch_handler_error_is_caught_and_typed():
    config, server = _server()
    query = QueryServer(server, config)
    server.dkf.answer_fields = None  # sabotage: handler bug, not input error
    out = query.dispatch_line(
        b'{"op": "answer", "source_id": "s0"}'
    )
    assert out == {"error": "internal error"}
    assert query.poison.reasons["handler_error"] == 1


def test_fuzz_replay_is_deterministic_per_seed():
    # The same seed must offer byte-identical garbage: the chaos
    # report's fuzz_plan_digest depends on it.
    def run(seed: int) -> int:
        rng = np.random.default_rng(seed)
        digest = 0
        for _ in range(100):
            digest = zlib.crc32(
                rng.bytes(int(rng.integers(1, 64))), digest
            )
        return digest

    assert run(7) == run(7)
    assert run(7) != run(8)
