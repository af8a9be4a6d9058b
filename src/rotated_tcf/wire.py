"""Framed JSON wire format for the networked verifier/prover sessions.

Frames are a 4-byte big-endian length prefix followed by a UTF-8 JSON body.
Z_q scalars travel as decimal strings (JSON numbers are unreliable past
2^53).  A Z_q vector or matrix travels as one string: the base64 of its
entries as little-endian int64, row-major.  A bit string travels as one
string of "0" and "1" characters.  The decoders accept only canonical
base64, whole int64 entries in [0, q) and the expected shape, and raise
WireError for anything else.
"""
from __future__ import annotations

import base64
import json
import math
import socket
import struct
import time

import numpy as np

PROTOCOL_VERSION = 3
MAX_FRAME_BYTES = 64 * 1024 * 1024
# The envelope and scalar fields of any frame fit in this many bytes, and so
# does every frame without an array: hello, challenge, response2, result and
# error, which may arrive in place of any other type.
SMALL_FRAME_BYTES = 1024

MESSAGE_TYPES = {
    "hello", "setup", "response1", "challenge", "response2", "result", "error",
}

# Field names that must never appear in a frame: the verifier's secrets.
# The single sanctioned exception is the simulation-only witness payload,
# which is explicitly labeled and gated (see network.py).
SECRET_FIELDS = {"s", "t", "e", "f", "b", "trapdoor", "secret_key"}
WITNESS_LABEL = "simulation-witness"


class WireError(Exception):
    pass


class DimensionError(WireError):
    """A well-formed array whose shape is not the one the protocol fixes."""
    code = "bad-dimensions"     # the error code a session answers it with


_INT64 = np.dtype("<i8")


def encode_vector(v) -> str:
    return base64.b64encode(
        np.ascontiguousarray(v, dtype=_INT64).tobytes()).decode("ascii")


def decode_vector(text, q: int, shape: tuple) -> np.ndarray:
    """The int64 array of shape `shape` in `text`."""
    if not isinstance(text, str):
        raise WireError(f"array must be a string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:      # binascii.Error, or a non-ASCII character
        raise WireError("array is not valid base64") from None
    if base64.b64encode(raw).decode("ascii") != text:
        raise WireError("array base64 is not canonical")
    if len(raw) % _INT64.itemsize:
        raise WireError(f"array of {len(raw)} bytes is not int64-aligned")
    out = np.frombuffer(raw, dtype=_INT64).astype(np.int64)
    if out.size != math.prod(shape):
        raise DimensionError(
            f"array of {out.size} entries does not fit shape {shape}")
    out = out.reshape(shape)
    if out.size and (int(out.min()) < 0 or int(out.max()) >= q):
        raise WireError(f"array entry outside [0, {q})")
    return out


def encode_matrix(M) -> str:
    return encode_vector(M)


def decode_matrix(text, q: int, shape: tuple) -> np.ndarray:
    return decode_vector(text, q, shape)


def encode_bits(v) -> str:
    return (np.asarray(v, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


def decode_bits(text, shape: tuple) -> np.ndarray:
    # strip leaves a non-empty rest exactly when some character is not 0/1
    if not isinstance(text, str) or text.strip("01"):
        raise WireError("bit string must be a string of 0s and 1s")
    out = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    if out.shape != shape:
        raise DimensionError(
            f"bit string of length {out.size} does not fit shape {shape}")
    return out.astype(np.int64)


def frame_cap(*array_entries: int, bits: int = 0) -> int:
    """The most bytes a frame may hold whose Z_q arrays have
    `array_entries` entries each and whose bit strings have `bits` bits in
    all: each array's base64, the bits, and SMALL_FRAME_BYTES for the
    rest."""
    return (SMALL_FRAME_BYTES + bits
            + sum(4 * -(-8 * entries // 3) for entries in array_entries))


def make_message(msg_type: str, payload: dict) -> dict:
    if msg_type not in MESSAGE_TYPES:
        raise WireError(f"unknown message type {msg_type!r}")
    return {"type": msg_type, "protocol_version": PROTOCOL_VERSION,
            "payload": payload}


def check_no_secrets(msg: dict) -> None:
    """Reject frames carrying secret-named fields anywhere outside the
    labeled witness extension."""
    def walk(obj, inside_witness):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k == WITNESS_LABEL:
                    walk(v, True)
                    continue
                if not inside_witness and k in SECRET_FIELDS:
                    raise WireError(f"secret field {k!r} in wire message")
                walk(v, inside_witness)
        elif isinstance(obj, list):
            for v in obj:
                walk(v, inside_witness)
    walk(msg, False)


def dump_frame(msg: dict) -> bytes:
    check_no_secrets(msg)
    body = json.dumps(msg, separators=(",", ":"), sort_keys=True).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise WireError("frame too large")
    return struct.pack(">I", len(body)) + body


def parse_frame(body: bytes) -> dict:
    try:
        msg = json.loads(body.decode())
    except ValueError as exc:   # bad JSON or UTF-8, or an over-long integer
        raise WireError(f"malformed frame: {exc}") from None
    if not isinstance(msg, dict) or "type" not in msg or "payload" not in msg:
        raise WireError("frame missing type/payload")
    if not isinstance(msg["payload"], dict):
        raise WireError("frame payload is not a JSON object")
    if msg["type"] not in MESSAGE_TYPES:
        raise WireError(f"unknown message type {msg['type']!r}")
    return msg


def send_message(sock: socket.socket, msg: dict) -> None:
    sock.sendall(dump_frame(msg))


def _recv_exact(sock: socket.socket, count: int, deadline) -> bytes:
    """`count` bytes; when `deadline` (a time.monotonic() reading) is set,
    each recv waits only for the time left until it."""
    chunks = []
    while count:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("frame not whole within the timeout")
            sock.settimeout(left)
        chunk = sock.recv(count)
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket, cap: int) -> dict:
    """The next frame, refused before its body is read if its header
    announces more than `cap` bytes.  The socket's timeout bounds the whole
    frame, header and body together, and is restored afterwards."""
    timeout = sock.gettimeout()
    deadline = time.monotonic() + timeout if timeout else None
    try:
        (length,) = struct.unpack(">I", _recv_exact(sock, 4, deadline))
        if length > cap:
            raise WireError(f"frame of {length} bytes announced, over the "
                            f"cap of {cap}")
        body = _recv_exact(sock, length, deadline)
    finally:
        sock.settimeout(timeout)
    return parse_frame(body)
