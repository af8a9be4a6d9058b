"""Pinned SHA-256 digests of the frames each side of a TCP session sends.

`test_digests_drivers.py` pins each loopback session's transcript; this
file pins its bytes on the wire, so that a change to the envelope's key
order or separators, or to the order of the sections, fails here even
where every transcript stays the same.  Each direction is hashed on its
own: the two hellos cross, so the merged order varies from run to run.
The sessions are an honest desk session with the witness channel open, a
baseline desk session, an honest session at MIXED (both claw cases, see
test_digests_drivers.py), and a version-3 hello with the
`version-mismatch` frame it gets.  Every pinned frame must also read the
same through `parse_frame` as through `_readme_decode`, a decoder written
from README's "Wire safety" section alone.  The hex values were recorded
once and must never change.
"""
import hashlib
import json
import socket
import struct
import threading

import pytest

from rotated_tcf import network, wire
from rotated_tcf.params import desk_preset, tiny_params
from rotated_tcf.protocol_q import BaselineProver, HonestQuantumProver
from rotated_tcf.sampling import master_stream

DIGEST_SEED = "d1e5c0de" * 8
MIXED = (2, 1048583, 2.0)
# A hello frame as a version-3 prover sends it: one plain JSON body.
_V3_BODY = (b'{"payload":{"role":"prover","version":3,"witness":false},'
            b'"protocol_version":3,"type":"hello"}')
V3_HELLO = struct.pack(">I", len(_V3_BODY)) + _V3_BODY


def _readme_decode(frame: bytes) -> dict:
    """A frame read as README lays it out: a 4-byte big-endian length, an
    ASCII JSON envelope, then the sections back to back, their lengths in
    the envelope's "sections", each array field a {"section": k} marker."""
    (length,) = struct.unpack(">I", frame[:4])
    body = frame[4:]
    assert length == len(body)
    envelope, end = json.JSONDecoder().raw_decode(body.decode("latin-1"))
    assert body[:end].isascii()
    sections = []
    for size in envelope.pop("sections", []):
        sections.append(body[end:end + size])
        end += size
    assert end == len(body)

    def fill(obj):
        if isinstance(obj, dict) and obj.keys() == {"section"}:
            return sections[obj["section"]]
        if isinstance(obj, dict):
            return {k: fill(v) for k, v in obj.items()}
        return [fill(v) for v in obj] if isinstance(obj, list) else obj
    return fill(envelope)


def _as_bytes(obj):
    """`obj` with each section view read out as bytes."""
    if isinstance(obj, memoryview):
        return obj.tobytes()
    if isinstance(obj, dict):
        return {k: _as_bytes(v) for k, v in obj.items()}
    return [_as_bytes(v) for v in obj] if isinstance(obj, list) else obj


def _session(monkeypatch, params, stream, client, witness_channel):
    """The frames of one served session, by the direction they travel:
    the verifier's, sent on a thread of its own, and the prover's, sent by
    `client(port)` on this one."""
    frames = {"verifier": [], "prover": []}
    dump_frame = wire.dump_frame

    def recording(msg):
        frame = dump_frame(msg)
        side = threading.current_thread().name
        frames["verifier" if side == "verifier" else "prover"].append(frame)
        return frame

    monkeypatch.setattr(wire, "dump_frame", recording)
    with network.open_server_socket("127.0.0.1", 0) as srv:
        server = threading.Thread(
            target=network.serve_verifier, name="verifier",
            args=(srv, params, stream, 1, witness_channel, 30))
        server.start()
        client(srv.getsockname()[1])
        server.join(timeout=60)
    assert not server.is_alive()
    return frames


def _loopback(params, prover, witness_channel):
    def frames(monkeypatch, stream):
        return _session(monkeypatch, params, stream,
                        lambda port: network.connect_prover(
                            "127.0.0.1", port, prover, stream, 1, timeout=30),
                        witness_channel)
    return frames


def _v3_hello(monkeypatch, stream):
    def client(port):
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            s.sendall(V3_HELLO)
            hello = wire.recv_message(s, wire.MAX_FRAME_BYTES, None)
            error = wire.recv_message(s, wire.MAX_FRAME_BYTES, None)
        assert hello["type"] == "hello"
        assert error["payload"]["code"] == "version-mismatch"

    frames = _session(monkeypatch, desk_preset(), stream, client, False)
    assert frames["prover"] == []
    return dict(frames, prover=[V3_HELLO])


CASES = {
    "honest-witness": _loopback(desk_preset(), HonestQuantumProver(), True),
    "baseline": _loopback(desk_preset(), BaselineProver(), False),
    "mixed-honest": _loopback(tiny_params(*MIXED), HonestQuantumProver(),
                              True),
    "v3-hello": _v3_hello,
}

DIGESTS = {
    "baseline": {
        "verifier":
        "ba2834646c7c6016605f27fd3ea0eec3c89276ee7ac2188da29bfc9f56230375",
        "prover":
        "b4d387b7dd88d1926d85a6dfe0400e7f076c628121080432fb59a3e32ea7a295"},
    "honest-witness": {
        "verifier":
        "34d0b8f9a000d76e15661cbc25eaf9bf3fc0b48bf6337444cc8fb5d13b7d5439",
        "prover":
        "fbc5a3c503399d05ff60043e8b8a199a744da7d7e55be5da856d9308242c1513"},
    "mixed-honest": {
        "verifier":
        "1562525b8f2427a38fdec4168f69b6b56d3fef9107395a33a98441c88ccfbb2d",
        "prover":
        "0647de275ac66c5c54bc8e656bcadb829faca88ffad8cedd92e4d73c92ba7ad7"},
    "v3-hello": {
        "verifier":
        "5b24a1ea9dda544413c15804a8af99ca0ae43d114848b110d229f99405db716d",
        "prover":
        "ffaad6c1a43d6be0df7a1c77171fb3af29e6f197370c8073072c06de260a8418"},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_wire_digest(case, monkeypatch):
    stream = master_stream(DIGEST_SEED).derive("wire-digest", case)
    frames = CASES[case](monkeypatch, stream)
    for frame in frames["verifier"] + frames["prover"]:
        assert _readme_decode(frame) == _as_bytes(wire.parse_frame(frame[4:]))
    got = {side: hashlib.sha256(b"".join(frames[side])).hexdigest()
           for side in ("verifier", "prover")}
    assert got == DIGESTS[case]
