"""Wire protocol of the cluster fabric: minimal HTTP/1.1 + JSON bodies.

Everything the cluster ships — solve requests, solve reports, stats
snapshots, health probes — is the JSON the library already round-trips
(:func:`repro.serialization.instance_to_dict`,
:meth:`repro.api.report.SolveReport.to_json`,
:meth:`repro.serve.ServiceStats.to_dict`), framed in just enough
HTTP/1.1 to be curl-able and keep-alive friendly.  The implementation is
pure stdlib ``asyncio`` streams: no third-party HTTP server or client is
required (or allowed — the container only carries the scientific stack).

The pieces:

* request/response framing — :func:`read_request`, :func:`read_response`,
  :func:`write_request`, :func:`write_response`; ``Content-Length`` bodies
  only, persistent connections by default, ``Connection: close`` honoured;
  :func:`serve_connection` is the one server-side connection loop, shared
  by the worker and the gateway;
* the solve wire format — :func:`encode_solve_request` /
  :func:`decode_solve_request` carry ``{instance, strategy, config,
  digest}``.  The digest rides both in the body and in the
  ``X-Repro-Digest`` header so the gateway can shard *without parsing the
  instance JSON* (header-only routing keeps the gateway thin);
* error transport — :func:`error_response` maps the service exception
  hierarchy onto status codes (backpressure -> 503 with the queue depth,
  expired deadlines -> 504, model errors -> 400, everything else -> 500)
  and
  :func:`raise_for_response` re-raises the matching exception on the
  caller's side, so ``ServiceOverloadedError`` (and its ``queue_depth``)
  survives the hop and the gateway's retry/backoff logic keys off real
  exception types, not string matching.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.config import SolveConfig
from repro.api.report import SolveReport
from repro.exceptions import (
    ClusterError,
    ModelError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.serialization import (
    instance_digest,
    instance_from_dict,
    instance_to_dict,
)

__all__ = [
    "DIGEST_HEADER",
    "DEADLINE_HEADER",
    "TRACE_HEADER",
    "read_request",
    "read_response",
    "write_request",
    "write_response",
    "serve_connection",
    "encode_solve_request",
    "decode_solve_request",
    "encode_report",
    "decode_report",
    "error_response",
    "raise_for_response",
]

#: Routing-key header: lets the gateway shard on the instance digest
#: without deserialising the request body.
DIGEST_HEADER = "x-repro-digest"

#: End-to-end deadline header: the *remaining* budget in milliseconds.
#: Deadlines are ``time.monotonic()`` instants locally, but monotonic
#: clocks do not transfer across processes — so the wire carries how much
#: time is left, and the receiver rebuilds a local absolute deadline.
DEADLINE_HEADER = "x-repro-deadline-ms"

#: Distributed-tracing header: the deterministic trace id minted by the
#: gateway (:func:`repro.obs.tracing.trace_id_for`) rides every hop so
#: gateway, worker and batch spans of one request share an id.
TRACE_HEADER = "x-repro-trace-id"

#: Upper bounds keeping a malformed peer from ballooning memory.
_MAX_LINE = 16 * 1024
_MAX_BODY = 64 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


class _WireError(ClusterError):
    """Malformed HTTP framing from a peer (connection is dropped)."""


#: Errors that mean "this peer is gone or speaks garbage": a server drops
#: the connection, and the gateway fails the worker over.
_CONNECTION_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError,
                      _WireError)


async def _read_head(reader: asyncio.StreamReader,
                     ) -> Optional[Tuple[str, Dict[str, str]]]:
    """Read one start line + headers; ``None`` on a clean EOF."""
    try:
        start = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between messages: normal keep-alive end
        raise _WireError("truncated HTTP start line") from exc
    except asyncio.LimitOverrunError as exc:
        raise _WireError("HTTP start line too long") from exc
    if len(start) > _MAX_LINE:
        raise _WireError("HTTP start line too long")
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError as exc:
            raise _WireError("HTTP header line too long") from exc
        if len(line) > _MAX_LINE:
            raise _WireError("HTTP header line too long")
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return start.decode("latin-1").rstrip("\r\n"), headers


async def _read_body(reader: asyncio.StreamReader,
                     headers: Dict[str, str]) -> bytes:
    length = int(headers.get("content-length", "0"))
    if length < 0 or length > _MAX_BODY:
        raise _WireError(f"unacceptable content-length {length}")
    return await reader.readexactly(length) if length else b""


async def read_request(reader: asyncio.StreamReader,
                       ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one request; ``(method, path, headers, body)`` or ``None`` (EOF)."""
    head = await _read_head(reader)
    if head is None:
        return None
    start, headers = head
    parts = start.split()
    if len(parts) != 3:
        raise _WireError(f"malformed request line {start!r}")
    method, path, _version = parts
    body = await _read_body(reader, headers)
    return method.upper(), path, headers, body


async def read_response(reader: asyncio.StreamReader,
                        ) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response; raises on EOF (a response must not be truncated)."""
    head = await _read_head(reader)
    if head is None:
        raise _WireError("connection closed before the response arrived")
    start, headers = head
    parts = start.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise _WireError(f"malformed status line {start!r}")
    body = await _read_body(reader, headers)
    return int(parts[1]), headers, body


async def write_request(writer: asyncio.StreamWriter, method: str, path: str,
                        body: bytes = b"", *,
                        headers: Optional[Dict[str, str]] = None) -> None:
    """Frame and send one request (keep-alive) and drain the transport."""
    lines = [f"{method} {path} HTTP/1.1",
             "host: cluster",
             f"content-length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


async def write_response(writer: asyncio.StreamWriter, status: int,
                         body: bytes, *, close: bool = False,
                         content_type: str = "application/json") -> None:
    """Frame and send one response and drain the transport.

    JSON by default; the ``/metrics`` endpoints pass the Prometheus text
    exposition content type instead.
    """
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"content-type: {content_type}\r\n"
            f"content-length: {len(body)}\r\n"
            + ("connection: close\r\n" if close else "")
            + "\r\n")
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def serve_connection(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter, dispatch, *,
                           intercept=None) -> None:
    """Answer keep-alive requests on one connection until EOF or close.

    ``dispatch(method, path, headers, body)`` answers ``(status, payload)``
    or, for non-JSON bodies, ``(status, payload, content_type)``.
    ``intercept(writer, status, payload)`` (the worker's chaos hook) runs
    before each write; ``True`` means it killed the connection.  A vanished
    or malformed peer only costs its own connection.
    """
    try:
        while True:
            message = await read_request(reader)
            if message is None:
                break
            method, path, headers, body = message
            status, payload, *content_type = await dispatch(
                method, path, headers, body)
            if intercept is not None and await intercept(writer, status,
                                                         payload):
                break
            close = headers.get("connection", "").lower() == "close"
            await write_response(
                writer, status, payload, close=close,
                content_type=content_type[0] if content_type
                else "application/json")
            if close:
                break
    except asyncio.CancelledError:
        pass  # event-loop teardown at shutdown; drop the connection
    except _CONNECTION_ERRORS:
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


# ---------------------------------------------------------------------- #
# Solve wire format
# ---------------------------------------------------------------------- #
def encode_solve_request(instance: object, strategy: str,
                         config: Optional[SolveConfig], *,
                         digest: Optional[str] = None,
                         ) -> Tuple[bytes, str]:
    """Serialise one solve request; returns ``(body, digest)``.

    The digest is computed here (once, client side) so every later hop —
    gateway routing, worker cache keys — reuses it instead of digesting
    the decoded instance again.
    """
    config = SolveConfig() if config is None else config
    if digest is None:
        digest = instance_digest(instance)
    body = json.dumps({
        "instance": instance_to_dict(instance),
        "strategy": strategy,
        "config": config.to_dict(),
        "digest": digest,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return body, digest


def decode_solve_request(body: bytes,
                         ) -> Tuple[object, str, SolveConfig, Optional[str]]:
    """Parse a solve request into ``(instance, strategy, config, digest)``."""
    try:
        payload = json.loads(body.decode("utf-8"))
        instance = instance_from_dict(payload["instance"])
        strategy = payload["strategy"]
        config = SolveConfig.from_dict(payload.get("config") or {})
    except ReproError:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed peer input
        raise ModelError(f"malformed solve request: {exc}") from exc
    return instance, strategy, config, payload.get("digest")


def encode_report(report: SolveReport) -> bytes:
    return report.to_json().encode("utf-8")


def decode_report(body: bytes) -> SolveReport:
    return SolveReport.from_json(body.decode("utf-8"))


# ---------------------------------------------------------------------- #
# Error transport
# ---------------------------------------------------------------------- #
def error_response(exc: BaseException) -> Tuple[int, bytes]:
    """Map an exception onto ``(status, body)`` for the wire.

    503 carries retryable service conditions (backpressure with its queue
    depth, a draining/closed service); 504 carries an expired end-to-end
    deadline (final — the gateway must not retry it); 400 carries caller
    mistakes (bad instance JSON, unknown strategies); 500 is everything
    unexpected.
    """
    payload: Dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, ServiceOverloadedError):
        status = 503
        payload["queue_depth"] = exc.queue_depth
    elif isinstance(exc, ServiceClosedError):
        status = 503
    elif isinstance(exc, ServiceTimeoutError):
        status = 504
        if exc.elapsed is not None:
            payload["elapsed"] = exc.elapsed
    elif isinstance(exc, ReproError):
        status = 400
    else:
        status = 500
    return status, json.dumps(payload, sort_keys=True).encode("utf-8")


def raise_for_response(status: int, body: bytes) -> None:
    """Re-raise the remote error a non-200 response carries.

    Reconstructs the exception *type* where the caller's control flow
    depends on it: ``ServiceOverloadedError`` (with ``queue_depth``) drives
    the gateway's backoff, ``ServiceClosedError`` marks a draining worker.
    Everything else surfaces as :class:`~repro.exceptions.ClusterError`
    naming the remote type.
    """
    if status == 200:
        return
    try:
        payload = json.loads(body.decode("utf-8"))
    except Exception:  # noqa: BLE001 - non-JSON error body
        payload = {"error": "ClusterError", "message": body[:200].decode(
            "utf-8", "replace")}
    kind = payload.get("error", "ClusterError")
    message = payload.get("message", f"remote error (HTTP {status})")
    if kind == "ServiceOverloadedError":
        raise ServiceOverloadedError(
            message, queue_depth=payload.get("queue_depth"))
    if kind == "ServiceClosedError":
        raise ServiceClosedError(message)
    if kind == "ServiceTimeoutError" or status == 504:
        raise ServiceTimeoutError(message, elapsed=payload.get("elapsed"))
    raise ClusterError(f"{kind}: {message} (HTTP {status})")
