"""The serve wire protocol: framed JSON over a local stream socket.

One message is ``MAGIC + u32 length + UTF-8 JSON``; the magic catches a
client that connected something else to the socket, the length prefix
makes framing trivial in both the blocking client and the non-blocking
server front end (:class:`FrameBuffer`).  JSON keeps the protocol
inspectable and language-neutral; float fidelity is not the wire's
problem — results travel as the pipeline's *canonical payload*
(:meth:`repro.core.pipeline.PipelineResult.canonical_payload`), whose
JSON float round-trip is exact.

Requests are normalized and validated by :func:`normalize_request`
before the daemon looks them up or queues them, so by the time a
worker sees one every knob is typed, ranged, and defaulted — a
malformed request (an unknown field included) costs one ``invalid``
response, never a worker crash.
"""

import json
import struct
import sys

from repro.core.infer import InferenceSettings

#: Per-frame magic: catches non-protocol bytes before a length is trusted.
MAGIC = b"ANK1"

#: Frames above this are refused — a local analysis request has no
#: business shipping hundreds of megabytes of source.  This is the
#: protocol-level hard ceiling; the server can configure a *lower*
#: per-connection cap (``AnekServer(max_frame_bytes=...)``).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Total UTF-8 source bytes one request may carry (sum over all its
#: ``sources``).  Bounds what a single admitted request can make the
#: pipeline chew on, independently of frame size (JSON escapes can make
#: a frame much larger or slightly smaller than the decoded sources).
MAX_SOURCE_BYTES = 32 * 1024 * 1024

#: Operations the daemon accepts.  ``health`` is the supervisor's and
#: load balancer's probe: queue depth, worker saturation, RSS, and the
#: overload verdict, answered inline by the front end.
OPS = ("infer", "check", "ping", "health", "stats", "shutdown")

#: Response statuses, mirroring the CLI's exit-code vocabulary:
#: ``ok`` = clean result; ``degraded`` = completed with quarantines or
#: prior-only solves (CLI exit 2); ``invalid`` = bad request (CLI 3);
#: ``error`` = handler failure (CLI 4); ``expired`` = per-request
#: deadline passed; ``rejected`` = bounded queue full or daemon
#: draining; ``overloaded`` = admission shed under memory pressure —
#: like ``rejected`` it is *retryable* (the work never started), and
#: responses carry ``retryable: true`` so clients can tell refusals
#: from execution outcomes.
STATUSES = (
    "ok",
    "degraded",
    "invalid",
    "error",
    "expired",
    "rejected",
    "overloaded",
)

#: Statuses that mean "the work was never executed; retrying is safe
#: and reaches a fresh admission decision".  Execution outcomes
#: (``ok``/``degraded``/``error``/``expired``) are returned to the
#: caller as they are.
RETRYABLE_STATUSES = ("rejected", "overloaded")


class ProtocolError(Exception):
    """A malformed frame or an invalid request payload."""


class FrameTooLarge(ProtocolError):
    """A frame announced a length above the configured cap.

    Raised *from the 8-byte header alone*, before any body bytes are
    buffered — a hostile length prefix can never drive buffer growth.
    Distinguished from :class:`ProtocolError` so the server can answer
    with a clean ``invalid`` response (the stream is still framed and
    trustworthy: nothing of the oversized body was consumed out of
    sync) instead of the generic error-and-drop path.
    """


def encode_message(payload):
    """One framed message as bytes."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            "message of %d bytes exceeds the %d byte limit"
            % (len(body), MAX_MESSAGE_BYTES)
        )
    return MAGIC + struct.pack("<I", len(body)) + body


def send_message(sock, payload):
    """Blocking send of one framed message."""
    sock.sendall(encode_message(payload))


def _recv_exact(sock, count):
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(
                "connection closed mid-frame (%d of %d bytes missing)"
                % (remaining, count)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock):
    """Blocking receive of one framed message (the client side)."""
    header = _recv_exact(sock, len(MAGIC) + 4)
    if not header.startswith(MAGIC):
        raise ProtocolError("bad frame magic %r" % header[: len(MAGIC)])
    (length,) = struct.unpack("<I", header[len(MAGIC) :])
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the limit" % length)
    body = _recv_exact(sock, length)
    try:
        return json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError("undecodable frame body: %s" % exc)


class FrameBuffer:
    """Incremental frame decoder for the server's non-blocking reads.

    Feed it whatever ``recv`` produced; it yields every complete message
    and keeps the partial tail for the next feed.  Raises
    :class:`ProtocolError` on a bad magic or an undecodable body — the
    server then drops the connection, since the stream can no longer be
    trusted to re-synchronize.

    A frame announcing a length above ``max_frame`` raises
    :class:`FrameTooLarge` from the header alone and switches the
    decoder into *discard mode*: the oversized body is drained from
    subsequent feeds without ever being buffered, after which normal
    framing resumes — the connection survives, one hostile frame costs
    one ``invalid`` response and at most ``max_frame`` resident bytes.
    Messages completed earlier in the same feed ride along on the
    exception's ``messages`` attribute so none are lost.
    """

    def __init__(self, max_frame=None):
        self._buffer = bytearray()
        self.max_frame = min(max_frame or MAX_MESSAGE_BYTES, MAX_MESSAGE_BYTES)
        #: Bytes of an oversized frame body still to drain.
        self._discard = 0

    def feed(self, data):
        if self._discard:
            if len(data) <= self._discard:
                self._discard -= len(data)
                return []
            data = data[self._discard :]
            self._discard = 0
        self._buffer.extend(data)
        messages = []
        header_len = len(MAGIC) + 4
        while True:
            if len(self._buffer) < header_len:
                return messages
            if not self._buffer.startswith(MAGIC):
                raise ProtocolError(
                    "bad frame magic %r" % bytes(self._buffer[: len(MAGIC)])
                )
            (length,) = struct.unpack(
                "<I", bytes(self._buffer[len(MAGIC) : header_len])
            )
            if length > self.max_frame:
                buffered_body = min(len(self._buffer) - header_len, length)
                del self._buffer[: header_len + buffered_body]
                self._discard = length - buffered_body
                error = FrameTooLarge(
                    "frame of %d bytes exceeds the %d byte limit"
                    % (length, self.max_frame)
                )
                error.messages = messages
                raise error
            if len(self._buffer) < header_len + length:
                return messages
            body = bytes(self._buffer[header_len : header_len + length])
            del self._buffer[: header_len + length]
            try:
                messages.append(json.loads(body.decode("utf-8")))
            except ValueError as exc:
                raise ProtocolError("undecodable frame body: %s" % exc)


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------

#: Request defaults, also the documentation of the request schema.
REQUEST_DEFAULTS = {
    "op": "infer",
    "sources": (),
    "api": True,
    "threshold": 0.5,
    "max_iters": 0,
    "executor": "worklist",
    "no_cache": False,
    "deadline": 0.0,
    "include_marginals": False,
}


def normalize_request(payload, max_source_bytes=MAX_SOURCE_BYTES):
    """Validate one raw request dict into a fully-defaulted copy.

    Raises :class:`ProtocolError` with a requester-facing message on any
    unknown field, unknown op, bad inference knob (the
    :class:`InferenceSettings` message, the same the CLI reports), or a
    ``sources`` payload whose total UTF-8 size exceeds
    ``max_source_bytes`` (0 = unlimited).
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            "request must be a JSON object, got %s" % type(payload).__name__
        )
    unknown = sorted(set(payload) - set(REQUEST_DEFAULTS))
    if unknown:
        raise ProtocolError("unknown request field(s): %s" % ", ".join(unknown))
    request = dict(REQUEST_DEFAULTS)
    request.update(payload)
    if request["op"] not in OPS:
        raise ProtocolError(
            "unknown op %r (expected one of %s)"
            % (request["op"], ", ".join(OPS))
        )
    sources = request["sources"]
    if not isinstance(sources, (list, tuple)) or any(
        not isinstance(source, str) for source in sources
    ):
        raise ProtocolError("sources must be a list of strings")
    request["sources"] = tuple(sources)
    if request["op"] in ("infer", "check") and not sources:
        raise ProtocolError("op %r requires sources" % request["op"])
    if max_source_bytes:
        total = sum(len(source.encode("utf-8")) for source in sources)
        if total > max_source_bytes:
            raise ProtocolError(
                "sources of %d bytes exceed the %d byte limit"
                % (total, max_source_bytes)
            )
    try:
        InferenceSettings(
            threshold=request["threshold"],
            max_worklist_iters=request["max_iters"],
            executor=request["executor"],
        )
    except ValueError as exc:
        raise ProtocolError(str(exc))
    deadline = request["deadline"]
    # The upper bound refuses infinity and an int too large for a float;
    # NaN fails every comparison.
    if (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or not 0 <= deadline <= sys.float_info.max
    ):
        raise ProtocolError("deadline must be a finite number of seconds >= 0")
    request["deadline"] = float(deadline)
    for flag in ("api", "no_cache", "include_marginals"):
        if not isinstance(request[flag], bool):
            raise ProtocolError("%s must be a boolean" % flag)
    return request
