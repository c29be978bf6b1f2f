"""UDP encapsulation of the PROTOCOL.md §5 frames (one frame, one datagram).

The wire layer adds **no** framing of its own: every datagram payload is
exactly one CRC-32-sealed frame from :mod:`repro.dkf.protocol`, unchanged
(PROTOCOL.md §9).  The codec's trailer already gives per-datagram
integrity, UDP gives per-datagram boundaries, and datagram loss maps
onto the protocol's existing loss story -- a missing ack triggers the
source's resync retransmission exactly as it does on the simulated
fabric.

What this module owns is the *mechanics* of moving those datagrams fast
on one box:

* :func:`open_udp_socket` -- a non-blocking socket with enlarged kernel
  buffers (loopback bursts overflow the default buffers long before the
  CPU saturates).
* :class:`BatchDatagramReceiver` -- a ``loop.add_reader`` callback that
  drains *many* datagrams per wakeup.  asyncio's DatagramProtocol reads
  one datagram per event-loop pass, which measures out at a few thousand
  datagrams/second; batch-draining the same socket sustains several
  hundred thousand.
* :func:`corrupt_datagram` -- the deterministic single-bit flip the
  in-process :class:`~repro.dsms.network.NetworkFabric` uses, applied to
  a real payload so CRC rejection can be exercised over real sockets.
* :class:`WireCounters` -- receiver-side traffic ledger with the exact
  conservation law the soak harness asserts.
* :class:`PoisonLedger` -- the typed rejection ledger behind
  ``frames_rejected_total{reason=...}`` (PROTOCOL.md §9): every datagram
  or query line the runtime refuses lands here under a stable reason
  label, so adversarial input is *observable*, never merely swallowed.
"""

from __future__ import annotations

import socket
import zlib
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.telemetry import NULL_TELEMETRY

__all__ = [
    "MAX_DATAGRAM_BYTES",
    "SLICE_BUDGET_S",
    "WireCounters",
    "PoisonLedger",
    "BatchDatagramReceiver",
    "open_udp_socket",
    "corrupt_datagram",
]

#: Largest frame the receiver accepts; a resync for a 4-state filter is
#: ~150 bytes, so anything near this bound is garbage, not protocol.
MAX_DATAGRAM_BYTES = 4096

#: Wall time one apply slice (server) or send burst (fleet) may hold the
#: event loop before it yields: the longest a TCP query waits behind one.
SLICE_BUDGET_S = 0.002


def open_udp_socket(
    host: str, port: int, buffer_bytes: int = 4 << 20
) -> socket.socket:
    """A bound, non-blocking UDP socket with enlarged kernel buffers.

    The kernel grants at most ``rmem_max``/``wmem_max``; the request is
    best-effort and the granted size is whatever ``getsockopt`` then
    reports (callers can read it back for diagnostics).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
    sock.bind((host, port))
    sock.setblocking(False)
    return sock


def corrupt_datagram(data: bytes, index: int) -> bytes:
    """Flip one deterministically chosen bit of a datagram payload.

    Same derivation as the in-process fabric's ``_corrupt`` (the flipped
    bit position is ``crc32("corrupt:<index>") mod bits``), so a wire
    test and a fabric test corrupt the same frame the same way and their
    accounting can be compared one-to-one.
    """
    flipped = bytearray(data)
    bit = zlib.crc32(f"corrupt:{index}".encode()) % (len(flipped) * 8)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@dataclass
class WireCounters:
    """Receiver-side traffic ledger for one UDP endpoint.

    Every datagram handed up by the kernel lands in exactly one bucket:
    decoded (a valid frame from a registered source), corrupt (CRC
    trailer mismatch), unknown (intact CRC but an unresolvable source
    hash or malformed body) or oversize (dropped before decode).  Tail
    drops at the bounded inbox are counted separately -- those datagrams
    *were* received.  Kernel-level drops (socket buffer overflow) are
    invisible here by nature; the soak harness surfaces them as the
    non-negative residual ``sent - received`` across both endpoints.
    """

    datagrams_received: int = 0
    bytes_received: int = 0
    frames_decoded: int = 0
    frames_corrupt: int = 0
    frames_unknown: int = 0
    frames_oversize: int = 0
    inbox_dropped: int = 0
    datagrams_sent: int = 0
    bytes_sent: int = 0
    send_failures: int = 0

    def conservation_holds(self) -> bool:
        """Receiver-side conservation: every datagram is accounted once.

        ``received == decoded + corrupt + unknown + oversize + inbox
        dropped + still queued`` is asserted by the caller, who knows the
        live queue depth; this form checks the processed prefix.
        """
        processed = (
            self.frames_decoded
            + self.frames_corrupt
            + self.frames_unknown
            + self.frames_oversize
            + self.inbox_dropped
        )
        return processed <= self.datagrams_received

    def as_dict(self) -> dict[str, int]:
        """The ledger as a plain dict (summaries/telemetry)."""
        return {
            "datagrams_received": self.datagrams_received,
            "bytes_received": self.bytes_received,
            "frames_decoded": self.frames_decoded,
            "frames_corrupt": self.frames_corrupt,
            "frames_unknown": self.frames_unknown,
            "frames_oversize": self.frames_oversize,
            "inbox_dropped": self.inbox_dropped,
            "datagrams_sent": self.datagrams_sent,
            "bytes_sent": self.bytes_sent,
            "send_failures": self.send_failures,
        }


class PoisonLedger:
    """Typed ledger of rejected input: ``frames_rejected_total{reason=}``.

    One instance is shared by everything that refuses input -- the UDP
    decode path, the TCP query parser, the connection-admission guards.
    Each rejection lands under a stable, lowercase reason label (the
    taxonomy is normative in PROTOCOL.md §9): ``corrupt``, ``unknown``,
    ``oversize``, ``future_epoch``, ``bad_json``, ``not_object``,
    ``line_too_long``, ``idle_timeout``, ``too_many_connections``,
    ``rate_limited``, ``handler_error``.  The plain dict always counts
    (reports and gates read it even under :class:`NullTelemetry`); the
    labelled counter is emitted only when telemetry is enabled.
    """

    def __init__(self, telemetry=None) -> None:
        self._tel = telemetry or NULL_TELEMETRY
        self.reasons: dict[str, int] = {}

    def reject(self, reason: str) -> None:
        """Count one rejection under ``reason``."""
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if self._tel.enabled:
            self._tel.metrics.counter(
                "frames_rejected_total", {"reason": reason}
            ).inc()

    @property
    def total(self) -> int:
        """Rejections across every reason."""
        return sum(self.reasons.values())

    def as_dict(self) -> dict[str, int]:
        """The ledger as a reason-sorted plain dict (reports)."""
        return dict(sorted(self.reasons.items()))


class BatchDatagramReceiver:
    """Drains a non-blocking UDP socket in batches off the event loop.

    Args:
        sock: The bound non-blocking socket.
        on_datagram: Callback ``(payload, addr) -> None`` invoked for
            every received datagram; must be cheap (enqueue, count) --
            decode happens later, in the server's apply slices.
        counters: Shared ledger; receive counts land here.
        chunk: Max datagrams drained per reader wakeup.  Bounding the
            drain keeps one flood from starving the loop's other tasks
            (the TCP query server most of all).
        on_oversize: Optional callback invoked (no arguments) for each
            datagram dropped before decode for exceeding
            :data:`MAX_DATAGRAM_BYTES` -- the poison ledger's hook.

    Call :meth:`install` with the running loop; :meth:`close` removes
    the reader.  The socket's lifetime belongs to the caller.
    """

    def __init__(
        self,
        sock: socket.socket,
        on_datagram: Callable[[bytes, tuple], None],
        counters: WireCounters | None = None,
        chunk: int = 2000,
        on_oversize: Callable[[], None] | None = None,
    ) -> None:
        self._sock = sock
        self._on_datagram = on_datagram
        self.counters = counters if counters is not None else WireCounters()
        self._chunk = chunk
        self._on_oversize = on_oversize
        self._loop = None

    def install(self, loop) -> None:
        """Register the drain callback with the event loop."""
        self._loop = loop
        loop.add_reader(self._sock.fileno(), self.drain)

    def close(self) -> None:
        """Deregister from the loop (the socket stays open)."""
        if self._loop is not None:
            self._loop.remove_reader(self._sock.fileno())
            self._loop = None

    def drain(self) -> None:
        """Hand up what the socket holds now, at most ``chunk`` datagrams."""
        counters = self.counters
        on_datagram = self._on_datagram
        recvfrom = self._sock.recvfrom
        for _ in range(self._chunk):
            try:
                data, addr = recvfrom(MAX_DATAGRAM_BYTES + 1)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            counters.datagrams_received += 1
            counters.bytes_received += len(data)
            if len(data) > MAX_DATAGRAM_BYTES:
                counters.frames_oversize += 1
                if self._on_oversize is not None:
                    self._on_oversize()
                continue
            on_datagram(data, addr)
