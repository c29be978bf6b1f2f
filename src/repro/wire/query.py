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
per-read idle deadline (the slow-loris guard), admissions past
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

from repro.errors import UnknownSourceError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.wire.config import WireConfig
from repro.wire.datagram import PoisonLedger
from repro.wire.server import WireServer

__all__ = ["QueryServer", "query_line"]

#: Hard cap on one request line; anything longer is a protocol error.
_MAX_LINE_BYTES = 65536


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
        self._handlers: set[asyncio.Task] = set()
        self._closing = False
        self._buckets: dict[str, tuple[float, float]] = {}
        self.queries_served = 0

    async def start(self, port: int | None = None) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        ``port`` overrides the configured TCP port -- the hot-restart
        path uses it to come back on the exact endpoint clients hold.
        """
        self._server = await asyncio.start_server(
            self._handle,
            self._config.host,
            self._config.tcp_port if port is None else port,
            limit=_MAX_LINE_BYTES,
        )
        return self._server.sockets[0].getsockname()

    async def close(self) -> None:
        """Stop accepting, reap open connections, close the listener.

        Open handler tasks are cancelled and awaited here; leaving them
        pending would push the cancellation into loop teardown, where
        asyncio logs it as an unretrieved exception.  ``wait_for`` hands
        a handler its line instead of the cancellation when both land in
        one loop pass; the flag ends that handler after the reply.
        """
        if self._server is not None:
            self._closing = True
            self._server.close()
            for task in list(self._handlers):
                task.cancel()
            if self._handlers:
                await asyncio.gather(
                    *self._handlers, return_exceptions=True
                )
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            if len(self._handlers) > self._config.query_max_connections:
                self.poison.reject("too_many_connections")
                writer.write(b'{"error": "too many connections"}\n')
                await writer.drain()
                return
            peername = writer.get_extra_info("peername")
            peer = peername[0] if peername else "?"
            while not self._closing:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(),
                        self._config.query_idle_timeout_s,
                    )
                except asyncio.TimeoutError:
                    self.poison.reject("idle_timeout")
                    writer.write(b'{"error": "idle timeout"}\n')
                    await writer.drain()
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    self.poison.reject("line_too_long")
                    writer.write(b'{"error": "line too long"}\n')
                    await writer.drain()
                    break
                if not line:
                    break
                if self._admit(peer):
                    response = self.dispatch_line(line)
                else:
                    self.poison.reject("rate_limited")
                    response = {"error": "rate limited"}
                writer.write(
                    json.dumps(response, separators=(",", ":")).encode()
                    + b"\n"
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Orderly shutdown from close().  Finishing the task instead
            # of dying cancelled matters: asyncio's stream protocol
            # retrieves task.exception() in a loop callback, which
            # *raises* for a cancelled task and logs a spurious error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

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
            liveness = dkf.liveness(source_id)
        except UnknownSourceError:
            return {"error": f"unknown source {source_id!r}"}
        staleness_ms = liveness["staleness_ticks"] * self._config.tick_ms
        primed = dkf.is_primed(source_id)
        quarantined = (
            self._wire.watchdog is not None
            and self._wire.watchdog.is_quarantined(source_id)
        )
        out: dict[str, object] = {
            "source_id": source_id,
            "primed": primed,
            "staleness_ms": staleness_ms,
            "suspect": bool(liveness["suspect"]),
            "degraded": bool(liveness["suspect"]) or not primed,
            "quarantined": quarantined,
        }
        if primed:
            out["value"] = [float(v) for v in dkf.value(source_id)]
            out["confidence"] = dkf.confidence(source_id)
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
        rows = []
        for source_id in self._wire.dkf.source_ids:
            if len(rows) >= limit:
                break
            if self._wire.dkf.is_primed(source_id):
                rows.append(self._answer({"source_id": source_id}))
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
