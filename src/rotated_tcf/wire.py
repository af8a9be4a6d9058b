"""Framed wire format for the networked verifier/prover sessions.

A frame is a 4-byte big-endian length, then a body of that many bytes.
The body is a JSON envelope, ASCII only, that holds the message's type
and scalar fields, followed by its sections: the bytes of each
Z_q vector or matrix, as little-endian int64 entries, row-major, back to
back.  In the envelope, an array's field holds the marker
{"section": k}, and the top-level "sections" lists each section's length
in bytes, in order.  A frame without arrays has no table and no
sections, so its body is plain JSON.  Z_q scalars travel as decimal
strings (JSON numbers are unreliable past 2^53), and a bit string as one
string of "0" and "1" characters.

`dump_frame` and `parse_frame` are the only code that knows this layout:
a message holds each array as `bytes` (from `encode_vector` or
`encode_matrix`), and `parse_frame` gives each back as a read-only view of
the frame's buffer.  `parse_frame` refuses a body whose table does not
account for every byte after the envelope, or whose markers do not use
each section exactly once, and `decode_vector` accepts only whole int64
entries in [0, q) in the expected shape.  Every refusal is a WireError.
"""
from __future__ import annotations

import json
import math
import socket
import struct
import time

import numpy as np

PROTOCOL_VERSION = 4
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
_SECTION_TYPES = (bytes, memoryview)
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_DECODER = json.JSONDecoder()


def encode_vector(v) -> bytes:
    return np.ascontiguousarray(v, dtype=_INT64).tobytes()


def decode_vector(data, q: int, shape: tuple) -> np.ndarray:
    """The int64 array of shape `shape` in the section `data`."""
    if not isinstance(data, _SECTION_TYPES):
        raise WireError(f"array must be a section, got {type(data).__name__}")
    if len(data) % _INT64.itemsize:
        raise WireError(f"array of {len(data)} bytes is not int64-aligned")
    out = np.frombuffer(data, dtype=_INT64)
    if out.size != math.prod(shape):
        raise DimensionError(
            f"array of {out.size} entries does not fit shape {shape}")
    out = out.reshape(shape).astype(np.int64)   # aligned, and its own copy
    # a negative entry, read as unsigned, is at least 2^63 > q
    if int(out.view(np.uint64).max(initial=0)) >= q:
        raise WireError(f"array entry outside [0, {q})")
    return out


def encode_matrix(M) -> bytes:
    return encode_vector(M)


def decode_matrix(data, q: int, shape: tuple) -> np.ndarray:
    return decode_vector(data, q, shape)


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
    all: 8 bytes per entry, the bits, and SMALL_FRAME_BYTES for the
    envelope."""
    return SMALL_FRAME_BYTES + bits + 8 * sum(array_entries)


def make_message(msg_type: str, payload: dict) -> dict:
    if msg_type not in MESSAGE_TYPES:
        raise WireError(f"unknown message type {msg_type!r}")
    return {"type": msg_type, "payload": payload}


def _marked(obj, sections: list, inside_witness: bool = False):
    """`obj` with each section in it moved to `sections` and replaced by
    its marker.  A secret-named field anywhere outside the labeled witness
    extension is a WireError: secrets never travel."""
    if isinstance(obj, _SECTION_TYPES):
        sections.append(obj)
        return {"section": len(sections) - 1}
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not inside_witness and k in SECRET_FIELDS:
                raise WireError(f"secret field {k!r} in wire message")
            out[k] = _marked(v, sections,
                             inside_witness or k == WITNESS_LABEL)
        return out
    if isinstance(obj, list):
        return [_marked(v, sections, inside_witness) for v in obj]
    return obj


def dump_frame(msg: dict) -> bytes:
    sections = []
    envelope = _marked(msg, sections)
    if sections:
        envelope["sections"] = [len(s) for s in sections]
    head = _ENCODER.encode(envelope)
    length = len(head) + sum(map(len, sections))
    if length > MAX_FRAME_BYTES:
        raise WireError("frame too large")
    return b"".join([struct.pack(">I", length), head.encode("ascii"),
                     *sections])


def _section_table(table, after: int) -> list:
    """The section lengths in `table`, which must be whole int64 arrays
    that fill exactly the `after` bytes past the envelope."""
    if not isinstance(table, list) or any(
            type(size) is not int or size < 0 or size % _INT64.itemsize
            for size in table):
        raise WireError("section table is not a list of int64-aligned "
                        "lengths")
    if sum(table) != after:
        raise WireError(f"sections of {sum(table)} bytes listed, "
                        f"{after} bytes sent")
    return table


def _fill(obj, sections: list, unused: set) -> None:
    """Replace, in the dict or list `obj`, each marker by its section;
    each section may be used only once."""
    for key, value in (obj.items() if isinstance(obj, dict)
                       else enumerate(obj)):
        if isinstance(value, dict) and value.keys() == {"section"}:
            k = value["section"]
            if type(k) is not int or k not in unused:
                raise WireError(f"marker {k!r:.20} names no unused section")
            unused.remove(k)
            obj[key] = sections[k]
        elif isinstance(value, (dict, list)):
            _fill(value, sections, unused)


def parse_frame(body) -> dict:
    """The message in a frame's `body`, each array a read-only view of
    `body`."""
    view = memoryview(body).toreadonly()
    try:
        # latin-1 maps each byte to one character, so the envelope's end
        # is its length in bytes too
        text = str(view, "latin-1")
        msg, end = _DECODER.raw_decode(text)
        if not text[:end].isascii():
            raise WireError("frame envelope is not ASCII")
        if (not isinstance(msg, dict) or "type" not in msg
                or "payload" not in msg):
            raise WireError("frame missing type/payload")
        if not isinstance(msg["payload"], dict):
            raise WireError("frame payload is not a JSON object")
        if (not isinstance(msg["type"], str)
                or msg["type"] not in MESSAGE_TYPES):
            raise WireError(f"unknown message type {msg['type']!r:.40}")
        sections = []
        for size in _section_table(msg.pop("sections", []), len(view) - end):
            sections.append(view[end:end + size])
            end += size
        unused = set(range(len(sections)))
        _fill(msg["payload"], sections, unused)
    except (ValueError, RecursionError) as exc:
        # bad JSON, an over-long integer, or nesting past the stack
        raise WireError(f"malformed frame: {exc}") from None
    if unused:
        raise WireError(f"sections {sorted(unused)} are never used")
    return msg


def send_message(sock: socket.socket, msg: dict) -> None:
    sock.sendall(dump_frame(msg))


def settimeout_until(sock: socket.socket, deadline) -> None:
    """Let `sock`'s next read or send wait only for the time left until
    `deadline`, a time.monotonic() reading (None: leave the socket's
    timeout as it is); TimeoutError when no time is left."""
    if deadline is not None:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("past the deadline")
        sock.settimeout(left)


def _recv_exact(sock: socket.socket, count: int, deadline) -> bytearray:
    """`count` bytes, read into one buffer; each recv waits only for the
    time left until `deadline` (`settimeout_until`)."""
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        settimeout_until(sock, deadline)
        read = sock.recv_into(view[got:])
        if not read:
            raise WireError("connection closed mid-frame")
        got += read
    return buf


def recv_message(sock: socket.socket, cap: int, deadline) -> dict:
    """The next frame, refused before its body is read if its header
    announces more than `cap` bytes.  Header and body must both arrive by
    `deadline`, a time.monotonic() reading (None: each read waits as the
    socket's timeout lets it); the socket's timeout is restored
    afterwards."""
    timeout = sock.gettimeout()
    try:
        (length,) = struct.unpack(">I", _recv_exact(sock, 4, deadline))
        if length > cap:
            raise WireError(f"frame of {length} bytes announced, over the "
                            f"cap of {cap}")
        body = _recv_exact(sock, length, deadline)
    finally:
        sock.settimeout(timeout)
    return parse_frame(body)
