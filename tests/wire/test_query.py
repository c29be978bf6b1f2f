"""The TCP query API: dispatch semantics and a live socket round trip.

Most cases drive :meth:`QueryServer.dispatch_line` directly -- the
protocol is line-in, JSON-out, so the dispatch table is testable
without a socket.  One test runs the full stack: a real listener, a
real client connection, malformed lines mixed with good ones, and the
staleness/quarantine honesty flags served over the wire.  The socket
tests at the bottom pin the connection layer's contract: pipelining,
partial lines, the per-line idle deadline, EOF, backpressure and the
line cap.
"""

import asyncio
import json
import socket

import numpy as np

from repro.dkf.config import DKFConfig
from repro.dkf.protocol import UpdateMessage
from repro.filters.models import constant_model
from repro.resilience import DivergenceWatchdog, WatchdogPolicy
from repro.wire.config import WireConfig
from repro.wire.query import QueryServer, query_line
from repro.wire.server import WireServer

SOURCE = "s0"


def _served_server(watchdog=None):
    config = WireConfig(
        sources=1, ticks=8, ramp_ticks=1, tick_seconds=0.5
    )
    server = WireServer(config, watchdog=watchdog)
    dkf_config = DKFConfig(model=constant_model(dims=1), delta=1.0)
    server.register(SOURCE, dkf_config)
    return config, server


def _prime(server, value=4.0, k=1):
    server.dkf.receive(
        UpdateMessage(
            source_id=SOURCE, seq=0, k=k, value=np.array([value])
        )
    )
    server.dkf.take_outbox()


def test_dispatch_answer_carries_honesty_flags():
    config, server = _served_server()
    query = QueryServer(server, config)
    before = query.dispatch_line(
        json.dumps({"op": "answer", "source_id": SOURCE}).encode()
    )
    assert before["primed"] is False
    assert before["degraded"] is True
    assert "value" not in before

    _prime(server, value=4.0, k=1)
    server.dkf.advance_clock(3)
    after = query.dispatch_line(
        json.dumps({"op": "answer", "source_id": SOURCE}).encode()
    )
    assert after["primed"] is True
    assert after["value"] == [4.0]
    # Contact landed at clock 0; 3 ticks of silence at 0.5 s/tick.
    assert after["staleness_ms"] == 1500.0
    assert after["suspect"] is False
    assert after["quarantined"] is False
    assert after["confidence"] > 0


def test_dispatch_quarantine_flag_reads_watchdog():
    watchdog = DivergenceWatchdog(WatchdogPolicy())
    config, server = _served_server(watchdog=watchdog)
    watchdog.register(SOURCE)
    _prime(server)
    query = QueryServer(server, config)
    # Walk the escalation ladder to the quarantine rung: resync ->
    # reprime -> quarantine, one rung per elapsed grace window.
    grace = watchdog.policy.escalation_grace_ticks
    tick = 1
    while not watchdog.is_quarantined(SOURCE):
        watchdog.apply_faults(SOURCE, tick, ["nis_spike"])
        tick += grace
        assert tick < 100, "watchdog never reached quarantine"
    out = query.dispatch_line(
        json.dumps({"op": "answer", "source_id": SOURCE}).encode()
    )
    assert out["quarantined"] is True


def test_dispatch_forecast_and_stats():
    config, server = _served_server()
    _prime(server, value=7.5)
    query = QueryServer(server, config)
    forecast = query.dispatch_line(
        json.dumps(
            {"op": "forecast", "source_id": SOURCE, "steps": 3}
        ).encode()
    )
    assert forecast["steps"] == 3
    assert len(forecast["forecast"]) == 3
    # Constant model: the forecast holds the last estimate.
    assert all(
        abs(row[0] - 7.5) < 1.0 for row in forecast["forecast"]
    )
    stats = query.dispatch_line(b'{"op": "stats"}')
    assert stats["queries_served"] >= 1
    assert "wire" in stats and "inbox_depth" in stats


def test_dispatch_answers_equals_the_per_source_answers_in_row_order():
    config = WireConfig(sources=6, ticks=8, ramp_ticks=1, tick_seconds=0.5)
    server = WireServer(config)
    query = QueryServer(server, config)
    assert query.dispatch_line(b'{"op": "answers"}') == {
        "answers": [], "count": 0
    }
    ids = [f"s{i}" for i in range(6)]
    for source_id in ids:
        server.register(
            source_id, DKFConfig(model=constant_model(dims=1), delta=1.0)
        )
    primed = ["s1", "s2", "s4", "s5"]
    for i, source_id in enumerate(primed):
        server.dkf.advance_clock(i)
        server.dkf.receive(
            UpdateMessage(source_id, 0, i, np.array([1.5 * i - 2.0]))
        )
    server.dkf.take_outbox()
    server.dkf.advance_clock(9)
    for limit in (1, 3, 4, 50):
        got = query.dispatch_line(
            json.dumps({"op": "answers", "limit": limit}).encode()
        )
        expected = [
            query.dispatch_line(
                json.dumps({"op": "answer", "source_id": sid}).encode()
            )
            for sid in primed[:limit]
        ]
        assert json.dumps(got) == json.dumps(
            {"answers": expected, "count": len(expected)}
        )


def test_dispatch_refuses_boolean_counts():
    config, server = _served_server()
    _prime(server)
    query = QueryServer(server, config)
    assert query.dispatch_line(b'{"op": "answers", "limit": true}') == {
        "error": "limit must be a positive integer"
    }
    assert query.dispatch_line(
        b'{"op": "forecast", "source_id": "s0", "steps": true}'
    ) == {"error": "steps must be a positive integer"}


def test_dispatch_rejects_garbage_without_dropping_state():
    config, server = _served_server()
    query = QueryServer(server, config)
    assert "error" in query.dispatch_line(b"not json at all")
    assert "error" in query.dispatch_line(b"[1, 2, 3]")
    assert "error" in query.dispatch_line(b'{"op": "warp"}')
    assert "error" in query.dispatch_line(b'{"op": "answer"}')
    assert "error" in query.dispatch_line(
        b'{"op": "answer", "source_id": "nope"}'
    )
    assert "error" in query.dispatch_line(
        b'{"op": "forecast", "source_id": "s0", "steps": 0}'
    )
    assert "error" in query.dispatch_line(
        b'{"op": "answers", "limit": -2}'
    )
    # The server still answers a good request afterwards.
    assert query.dispatch_line(b'{"op": "ping"}')["ok"] is True


def test_dispatch_non_object_json_is_typed_rejection():
    # Valid JSON that is not an object must answer with an error and a
    # typed not_object ledger entry -- never raise, never be treated as
    # a request (pins the adversarial-input contract).
    config, server = _served_server()
    query = QueryServer(server, config)
    for line in (b"[1, 2, 3]", b'"just a string"', b"42", b"null"):
        out = query.dispatch_line(line)
        assert out == {"error": "request must be a JSON object"}
    assert query.poison.reasons["not_object"] == 4
    # Malformed and pathologically nested JSON land under bad_json.
    assert "error" in query.dispatch_line(b'{"op": "ping"')
    assert "nested" in query.dispatch_line(
        b"[" * 50_000 + b"]" * 50_000
    )["error"]
    assert query.poison.reasons["bad_json"] == 2


def test_idle_timeout_evicts_slow_loris():
    asyncio.run(_idle_timeout_case())


async def _idle_timeout_case():
    config, server = _served_server()
    config = WireConfig(
        sources=1, ticks=8, ramp_ticks=1, tick_seconds=0.5,
        query_idle_timeout_s=0.2,
    )
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "ans')  # half a request, then silence
        await writer.drain()
        # The server owes us one error line and then EOF, well before a
        # 30 s default would allow.
        line = await asyncio.wait_for(reader.readline(), 5.0)
        assert json.loads(line) == {"error": "idle timeout"}
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        await writer.wait_closed()
        assert query.poison.reasons["idle_timeout"] == 1
    finally:
        await query.close()


def test_an_overlong_line_is_refused_and_the_connection_closed():
    asyncio.run(_line_too_long_case())


async def _line_too_long_case():
    config, server = _served_server()
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        # One good request, then 70 000 bytes with no newline: past the
        # stream's line limit, so the reader gives up on the line.
        writer.write(b'{"op": "ping"}\n' + b"x" * 70_000)
        await writer.drain()
        assert json.loads(await asyncio.wait_for(reader.readline(), 5.0))[
            "ok"
        ] is True
        line = await asyncio.wait_for(reader.readline(), 5.0)
        assert json.loads(line) == {"error": "line too long"}
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        await writer.wait_closed()
        assert query.poison.reasons["line_too_long"] == 1
    finally:
        await query.close()


def test_connection_cap_rejects_excess_admissions():
    asyncio.run(_connection_cap_case())


async def _connection_cap_case():
    config, server = _served_server()
    config = WireConfig(
        sources=1, ticks=8, ramp_ticks=1, tick_seconds=0.5,
        query_max_connections=1,
    )
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        r1, w1 = await asyncio.open_connection(host, port)
        w1.write(b'{"op": "ping"}\n')
        await w1.drain()
        assert json.loads(await r1.readline())["ok"] is True
        # Second concurrent connection: one error line, then close.
        r2, w2 = await asyncio.open_connection(host, port)
        line = await asyncio.wait_for(r2.readline(), 5.0)
        assert json.loads(line) == {"error": "too many connections"}
        assert await asyncio.wait_for(r2.read(), 5.0) == b""
        for writer in (w1, w2):
            writer.close()
            await writer.wait_closed()
        assert query.poison.reasons["too_many_connections"] == 1
        # The capped peer did not poison service for the survivor: a
        # fresh connection after w2 closes is admitted again.
        pong = await query_line(host, port, {"op": "ping"})
        assert pong["ok"] is True
    finally:
        await query.close()


def test_rate_limit_token_bucket_per_peer():
    asyncio.run(_rate_limit_case())


async def _rate_limit_case():
    config, server = _served_server()
    config = WireConfig(
        sources=1, ticks=8, ramp_ticks=1, tick_seconds=0.5,
        query_rate_limit_per_s=0.001, query_rate_burst=2.0,
    )
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        replies = []
        for _ in range(4):
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        # Burst of 2 admitted, refill is negligible: the rest are typed
        # refusals on a connection that stays open.
        assert [r.get("ok") for r in replies[:2]] == [True, True]
        assert all(
            r == {"error": "rate limited"} for r in replies[2:]
        )
        assert query.poison.reasons["rate_limited"] == 2
        writer.close()
        await writer.wait_closed()
    finally:
        await query.close()


def test_query_over_real_tcp_socket():
    asyncio.run(_tcp_roundtrip())


async def _tcp_roundtrip():
    config, server = _served_server()
    _prime(server, value=2.5)
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        pong = await query_line(host, port, {"op": "ping"})
        assert pong["ok"] is True
        answer = await query_line(
            host, port, {"op": "answer", "source_id": SOURCE}
        )
        assert answer["value"] == [2.5]
        # A malformed line on a persistent connection must not poison
        # the next request.
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"garbage\n")
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            assert "error" in first
            assert second["ok"] is True
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await query.close()


def test_close_with_a_request_in_flight_does_not_hang():
    # wait_for returns the line, not the cancellation, when both reach
    # the handler in one loop pass; which pass that is depends on where
    # the request is on its way in, so sweep them.
    for passes in range(6):
        asyncio.run(_close_in_flight_case(passes))


async def _close_in_flight_case(passes):
    config, server = _served_server()
    query = QueryServer(server, config)
    host, port = await query.start()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b'{"op": "ping"}\n')
        line = await asyncio.wait_for(reader.readline(), 5.0)
        assert json.loads(line)["ok"] is True
        writer.write(b'{"op": "ping"}\n')
        for _ in range(passes):
            await asyncio.sleep(0)
        await asyncio.wait_for(query.close(), 5.0)
        # Served or not, the connection ends: a reply at most, then EOF.
        rest = await asyncio.wait_for(reader.read(), 5.0)
        assert rest == b"" or json.loads(rest)["ok"] is True
    finally:
        writer.close()


# Socket contract of the connection layer ---------------------------------


def _reply_bytes(query, line: bytes) -> bytes:
    return (
        json.dumps(query.dispatch_line(line), separators=(",", ":")) + "\n"
    ).encode()


async def _closed_by_server(reader, writer) -> None:
    assert await asyncio.wait_for(reader.read(), 5.0) == b""
    writer.close()
    await writer.wait_closed()


def test_pipelined_lines_in_one_write_get_replies_in_order():
    asyncio.run(_pipelined_case())


async def _pipelined_case():
    config, server = _served_server()
    _prime(server, value=3.0)
    query = QueryServer(server, config)
    host, port = await query.start()
    kinds = [
        b'{"op": "ping"}',
        b'{"op": "answer", "source_id": "s0"}',
        b'{"op": "answer", "source_id": "ghost"}',
        b"garbage",
        b'{"op": "forecast", "source_id": "s0", "steps": 2}',
        b'{"op": "answers", "limit": 1}',
        b"",
    ]
    lines = [kinds[i % len(kinds)] + b"\n" for i in range(200)]
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"".join(lines))
        await writer.drain()
        got = [
            await asyncio.wait_for(reader.readline(), 5.0) for _ in lines
        ]
        writer.write_eof()
        await _closed_by_server(reader, writer)
        assert got == [_reply_bytes(query, line) for line in lines]
    finally:
        await query.close()


def test_a_request_written_byte_by_byte_is_answered_once_complete():
    asyncio.run(_byte_by_byte_case())


async def _byte_by_byte_case():
    config, server = _served_server()
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        request = b'{"op": "ping"}\n'
        for byte in request[:-1]:
            writer.write(bytes([byte]))
            await writer.drain()
            await asyncio.sleep(0.001)
        await asyncio.sleep(0.05)
        assert query.queries_served == 0
        writer.write(request[-1:])
        line = await asyncio.wait_for(reader.readline(), 5.0)
        assert json.loads(line)["ok"] is True
        writer.write_eof()
        await _closed_by_server(reader, writer)
        assert query.queries_served == 1
    finally:
        await query.close()


def test_a_dribbling_loris_is_still_evicted_at_the_idle_deadline():
    asyncio.run(_dribbling_loris_case())


async def _dribbling_loris_case():
    _, server = _served_server()
    config = WireConfig(
        sources=1, ticks=8, ramp_ticks=1, tick_seconds=0.5,
        query_idle_timeout_s=0.3,
    )
    query = QueryServer(server, config)
    host, port = await query.start()

    async def dribble(writer):
        # A byte every 50 ms, never a newline: bytes are not lines.
        for _ in range(200):
            writer.write(b" ")
            await asyncio.sleep(0.05)

    try:
        reader, writer = await asyncio.open_connection(host, port)
        started = asyncio.get_running_loop().time()
        dribbler = asyncio.ensure_future(dribble(writer))
        line = await asyncio.wait_for(reader.readline(), 5.0)
        waited = asyncio.get_running_loop().time() - started
        dribbler.cancel()
        await asyncio.gather(dribbler, return_exceptions=True)
        assert json.loads(line) == {"error": "idle timeout"}
        assert 0.25 <= waited < 2.0
        await _closed_by_server(reader, writer)
        assert query.poison.reasons["idle_timeout"] == 1
    finally:
        await query.close()


def test_an_unterminated_last_line_before_eof_is_served():
    asyncio.run(_unterminated_case())


async def _unterminated_case():
    config, server = _served_server()
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "ping"}\n{"op": "ping"}')
        writer.write_eof()
        replies = await asyncio.wait_for(reader.read(), 5.0)
        assert replies == _reply_bytes(query, b'{"op": "ping"}') * 2
        writer.close()
        await writer.wait_closed()
    finally:
        await query.close()


def test_a_client_that_never_reads_pauses_the_server_reading():
    asyncio.run(_never_reads_case())


async def _never_reads_case():
    config, server = _served_server()
    _prime(server)
    query = QueryServer(server, config)
    host, port = await query.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        (connection,) = query._connections
        # A small, fixed kernel send buffer on the server's side, so the
        # kernel absorbs few replies and the server's own buffer fills.
        # (Tiny *receive* windows would stall loopback TCP instead.)
        connection.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
        )
        line = b'{"op": "forecast", "source_id": "s0", "steps": 500}\n'
        count = 400  # 1.4 MB of replies, were they all buffered
        for _ in range(count):
            writer.write(line)
            await asyncio.sleep(0)
        for _ in range(500):
            if not connection.transport.is_reading():
                break
            await asyncio.sleep(0.01)
        assert not connection.transport.is_reading()
        served = query.queries_served
        buffered = connection.transport.get_write_buffer_size()
        await asyncio.sleep(0.1)
        assert query.queries_served == served < count
        assert connection.transport.get_write_buffer_size() == buffered
        assert buffered < 512 * 1024
        # Reading resumes the server; every request is answered.
        expected = _reply_bytes(query, line)
        assert b'"forecast"' in expected
        for _ in range(count):
            assert await asyncio.wait_for(reader.readline(), 5.0) == expected
        writer.write_eof()
        await _closed_by_server(reader, writer)
    finally:
        await query.close()


def test_a_line_over_the_cap_inside_a_chunk_is_refused_after_the_rest():
    asyncio.run(_overlong_in_chunk_case())


async def _overlong_in_chunk_case():
    config, server = _served_server()
    query = QueryServer(server, config)
    host, port = await query.start()
    ping = b'{"op": "ping"}\n'
    at_cap = b"x" * 65536 + b"\n"  # served: a bad_json reply
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(ping * 3 + at_cap + b"x" * 65537 + b"\n" + ping)
        await writer.drain()
        got = [
            await asyncio.wait_for(reader.readline(), 5.0) for _ in range(5)
        ]
        await _closed_by_server(reader, writer)
        assert got[:4] == [_reply_bytes(query, ping)] * 3 + [
            _reply_bytes(query, at_cap)
        ]
        assert json.loads(got[4]) == {"error": "line too long"}
        assert query.poison.reasons["line_too_long"] == 1
    finally:
        await query.close()
