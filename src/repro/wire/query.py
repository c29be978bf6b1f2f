"""TCP query API: line-delimited JSON over a real socket.

One request per line, one JSON object per response line.  Operations:

* ``{"op": "answer", "source_id": "s12"}`` -- the server's current best
  value with the same honesty flags the tick engine's ``answers()``
  carries: ``staleness_ms`` (wall-clock silence), ``suspect`` (past the
  liveness deadline), ``quarantined`` (divergence-watchdog rung, when a
  watchdog is installed), ``confidence`` and the precision width.
* ``{"op": "answers", "limit": 10}`` -- up to ``limit`` primed sources.
* ``{"op": "forecast", "source_id": "s12", "steps": 5}`` -- the filter's
  forecast trajectory (the capability static caching lacks).
* ``{"op": "stats"}`` -- wire counters, inbox depth and the clock.
* ``{"op": "ping"}`` -- liveness probe (used by latency measurement).

Unknown ops and unknown sources answer with an ``error`` field rather
than dropping the connection; protocol errors on one line never poison
the next.

Adversarial-input posture (PROTOCOL.md §9): every connection carries a
per-line idle deadline (the slow-loris guard), admissions past
``query_max_connections`` get one error line and an immediate close,
each peer address is governed by a token bucket when
``query_rate_limit_per_s`` is set, and *no* request -- malformed,
hostile or merely unlucky -- may raise past :meth:`QueryServer.
dispatch_line`.  Every refusal lands in the shared
:class:`~repro.wire.datagram.PoisonLedger` under a typed reason.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.errors import UnknownSourceError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.wire.config import WireConfig
from repro.wire.datagram import PoisonLedger
from repro.wire.server import WireServer

__all__ = ["QueryServer", "query_line"]

#: Hard cap on one request line; anything longer is a protocol error.
_MAX_LINE_BYTES = 65536

#: One compact encoder for every reply; ``json.dumps(..., separators=...)``
#: would build a new one per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _Connection(asyncio.Protocol):
    """One query connection, served from loop callbacks.

    Every complete line in a received chunk is answered synchronously
    and the chunk's replies leave in one ``transport.write``.  The idle
    deadline moves only when a complete line arrives and the one timer
    re-arms itself lazily; a full write buffer pauses reading.
    """

    def __init__(self, query: QueryServer) -> None:
        self._query = query
        self._buffer = b""
        self._timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        query = self._query
        if len(query._connections) >= query._config.query_max_connections:
            query.poison.reject("too_many_connections")
            transport.write(b'{"error": "too many connections"}\n')
            transport.close()
            return
        query._connections.add(self)
        peername = transport.get_extra_info("peername")
        self._peer = peername[0] if peername else "?"
        self._loop = asyncio.get_running_loop()
        self._idle_s = query._config.query_idle_timeout_s
        self._deadline = self._loop.time() + self._idle_s
        self._timer = self._loop.call_at(self._deadline, self._idle)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer + data if self._buffer else data
        reply, peer = self._query._reply, self._peer
        replies = []
        start, end = 0, buffer.find(b"\n")
        while end >= 0 and end - start <= _MAX_LINE_BYTES:
            replies.append(reply(buffer[start:end + 1], peer))
            start, end = end + 1, buffer.find(b"\n", end + 1)
        self._buffer = buffer[start:]
        if replies:
            self._deadline = self._loop.time() + self._idle_s
        if end >= 0 or len(self._buffer) > _MAX_LINE_BYTES:
            replies.append('{"error": "line too long"}')
            self._refuse("line_too_long", replies)
        elif replies:
            self.transport.write(("\n".join(replies) + "\n").encode())

    def eof_received(self) -> None:
        # An unterminated last line is served, as ``readline`` returns it.
        if self._buffer:
            reply = self._query._reply(self._buffer, self._peer)
            self.transport.write(reply.encode() + b"\n")
        # Returning None closes the transport once the replies are out.

    def _idle(self) -> None:
        if self.transport.is_closing():
            return
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._idle)
        else:
            self._refuse("idle_timeout", ['{"error": "idle timeout"}'])

    def _refuse(self, reason: str, replies: list[str]) -> None:
        self._query.poison.reject(reason)
        self.transport.write(("\n".join(replies) + "\n").encode())
        self.transport.close()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._query._connections.discard(self)


class QueryServer:
    """Line-delimited JSON query endpoint over one :class:`WireServer`.

    Args:
        wire: The UDP-facing server whose answers this endpoint serves.
        config: The wire runtime configuration (tick-to-ms mapping).
        telemetry: Observability handle; every served answer records its
            wall-clock staleness (``unit="ms"``).
        poison: Shared typed-rejection ledger.  Defaults to a private
            one; the runtime passes the wire server's so UDP and TCP
            refusals land in one ``frames_rejected_total`` family.
    """

    def __init__(
        self,
        wire: WireServer,
        config: WireConfig,
        telemetry=None,
        poison: PoisonLedger | None = None,
    ) -> None:
        self._wire = wire
        self._config = config
        self._tel = telemetry or NULL_TELEMETRY
        self.poison = (
            poison if poison is not None else PoisonLedger(telemetry)
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._buckets: dict[str, tuple[float, float]] = {}
        self.queries_served = 0

    async def start(self, port: int | None = None) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        ``port`` overrides the configured TCP port -- the hot-restart
        path uses it to come back on the exact endpoint clients hold.
        """
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self),
            self._config.host,
            self._config.tcp_port if port is None else port,
        )
        return self._server.sockets[0].getsockname()

    async def close(self) -> None:
        """Stop accepting, close open connections, close the listener.

        A closed transport still sends the replies already written to
        it, then EOF.
        """
        if self._server is not None:
            self._server.close()
            # Two loop passes, one to poll and one to run the read
            # callbacks: lines already in the kernel are served, and the
            # close sends FIN after their replies, not a reset over
            # unread input.
            for _ in range(2):
                await asyncio.sleep(0)
            for connection in list(self._connections):
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None

    def _reply(self, line: bytes, peer: str) -> str:
        """One request line's JSON reply, admission first."""
        if self._admit(peer):
            # Looked up per call, so a wrapper set on the instance sees
            # every line.
            return _encode(self.dispatch_line(line))
        self.poison.reject("rate_limited")
        return '{"error":"rate limited"}'

    # Admission ------------------------------------------------------------

    def _admit(self, peer: str) -> bool:
        """Per-peer token bucket; always admits when rate limiting is off."""
        rate = self._config.query_rate_limit_per_s
        if rate <= 0:
            return True
        burst = self._config.query_rate_burst
        now = asyncio.get_running_loop().time()
        tokens, last = self._buckets.get(peer, (burst, now))
        tokens = min(burst, tokens + (now - last) * rate)
        if tokens < 1.0:
            self._buckets[peer] = (tokens, now)
            return False
        self._buckets[peer] = (tokens - 1.0, now)
        return True

    # Dispatch -------------------------------------------------------------

    def dispatch_line(self, line: bytes) -> dict:
        """Parse and serve one request line (exposed for direct tests).

        Total: every failure mode maps to an ``error`` response and a
        poison-ledger entry.  ``RecursionError`` is a real input class
        here -- a deeply nested JSON array overflows the parser's stack
        long before it overflows memory -- and the final catch-all keeps
        an unforeseen handler bug on *this* line from poisoning the
        connection or the event loop.
        """
        try:
            request = json.loads(line)
        except RecursionError:
            self.poison.reject("bad_json")
            return {"error": "request is too deeply nested"}
        except (json.JSONDecodeError, ValueError):
            self.poison.reject("bad_json")
            return {"error": "request is not valid JSON"}
        if not isinstance(request, dict):
            self.poison.reject("not_object")
            return {"error": "request must be a JSON object"}
        op = request.get("op")
        self.queries_served += 1
        try:
            if op == "ping":
                return {"ok": True, "tick": self._wire.dkf.clock}
            if op == "answer":
                return self._answer(request)
            if op == "answers":
                return self._answers(request)
            if op == "forecast":
                return self._forecast(request)
            if op == "stats":
                return self._stats()
            return {"error": f"unknown op {op!r}"}
        except Exception:
            self.poison.reject("handler_error")
            return {"error": "internal error"}

    def _answer(self, request: dict) -> dict:
        source_id = request.get("source_id")
        if not isinstance(source_id, str):
            return {"error": "answer needs a source_id"}
        dkf = self._wire.dkf
        try:
            fields = dkf.answer_fields(source_id)
        except UnknownSourceError:
            return {"error": f"unknown source {source_id!r}"}
        primed = fields is not None
        if primed:
            value, _, staleness_ticks, suspect, confidence = fields
        else:
            staleness_ticks, suspect = dkf.row_liveness(dkf.index[source_id])
        staleness_ms = staleness_ticks * self._config.tick_ms
        quarantined = (
            self._wire.watchdog is not None
            and self._wire.watchdog.is_quarantined(source_id)
        )
        out: dict[str, object] = {
            "source_id": source_id,
            "primed": primed,
            "staleness_ms": staleness_ms,
            "suspect": suspect,
            "degraded": suspect or not primed,
            "quarantined": quarantined,
        }
        if primed:
            out["value"] = list(value)
            out["confidence"] = confidence
        if self._tel.enabled:
            self._tel.observe(
                "staleness_at_answer_ticks", staleness_ms, unit="ms"
            )
        return out

    def _answers(self, request: dict) -> dict:
        limit = request.get("limit", 10)
        # bool is an int subclass: ``true`` is not a count.
        if type(limit) is not int or limit < 1:
            return {"error": "limit must be a positive integer"}
        dkf = self._wire.dkf
        mask = () if dkf.bank is None else dkf.bank.primed
        primed = np.flatnonzero(mask)[:limit]
        rows = [
            self._answer({"source_id": dkf.ids[row]})
            for row in primed.tolist()
        ]
        return {"answers": rows, "count": len(rows)}

    def _forecast(self, request: dict) -> dict:
        source_id = request.get("source_id")
        steps = request.get("steps", 1)
        if not isinstance(source_id, str):
            return {"error": "forecast needs a source_id"}
        if type(steps) is not int or steps < 1:
            return {"error": "steps must be a positive integer"}
        try:
            trajectory = self._wire.dkf.forecast(source_id, steps)
        except UnknownSourceError:
            return {"error": f"source {source_id!r} is not primed"}
        return {
            "source_id": source_id,
            "steps": steps,
            "forecast": [
                [float(v) for v in row] for row in trajectory
            ],
        }

    def _stats(self) -> dict:
        return {
            "tick": self._wire.dkf.clock,
            "inbox_depth": self._wire.inbox_depth,
            "queries_served": self.queries_served,
            "wire": self._wire.counters.as_dict(),
            "apply": self._wire.apply_stats(),
        }


async def query_line(
    host: str, port: int, request: dict, timeout: float = 5.0
) -> dict:
    """One-shot client helper: connect, send one request, read one reply."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            json.dumps(request, separators=(",", ":")).encode() + b"\n"
        )
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
