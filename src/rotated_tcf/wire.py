"""Framed JSON wire format for the networked verifier/prover sessions.

Frames are a 4-byte big-endian length prefix followed by a UTF-8 JSON body.
Z_q scalars travel as decimal strings (JSON numbers are unreliable past
2^53), vectors as arrays of decimal strings, bit strings as 0/1 arrays.
"""
from __future__ import annotations

import json
import socket
import struct

import numpy as np

PROTOCOL_VERSION = 2
MAX_FRAME_BYTES = 64 * 1024 * 1024

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


def encode_vector(v) -> list:
    return [str(int(x)) for x in np.asarray(v).tolist()]


def decode_vector(v) -> np.ndarray:
    return np.array([int(x) for x in v], dtype=np.int64)


def encode_matrix(M) -> list:
    return [encode_vector(row) for row in np.asarray(M)]


def decode_matrix(M) -> np.ndarray:
    return np.array([[int(x) for x in row] for row in M], dtype=np.int64)


def encode_bits(v) -> list:
    return [int(x) for x in np.asarray(v).tolist()]


def decode_bits(v) -> np.ndarray:
    out = np.array([int(x) for x in v], dtype=np.int64)
    if out.size and not np.all((out == 0) | (out == 1)):
        raise WireError("bit string contains non-bits")
    return out


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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame: {exc}") from None
    if not isinstance(msg, dict) or "type" not in msg or "payload" not in msg:
        raise WireError("frame missing type/payload")
    if msg["type"] not in MESSAGE_TYPES:
        raise WireError(f"unknown message type {msg['type']!r}")
    return msg


def send_message(sock: socket.socket, msg: dict) -> None:
    sock.sendall(dump_frame(msg))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict:
    header = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise WireError("oversized frame announced")
    return parse_frame(_recv_exact(sock, length))
