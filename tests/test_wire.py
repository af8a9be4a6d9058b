import itertools
import json
import math
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotated_tcf.wire import (MAX_FRAME_BYTES, MESSAGE_TYPES,
                              PROTOCOL_VERSION, SECRET_FIELDS,
                              SMALL_FRAME_BYTES, WITNESS_LABEL,
                              DimensionError, WireError, decode_bits,
                              decode_matrix, decode_vector, dump_frame,
                              encode_bits, encode_matrix, encode_vector,
                              frame_cap, make_message, parse_frame,
                              recv_message, send_message)


Q61 = (1 << 61) - 1


def test_vector_codec_roundtrip_exact():
    v = np.array([0, 1, 4398046511118, (1 << 60) + 7], dtype=np.int64)
    encoded = encode_vector(v)
    # one section of little-endian int64 entries
    assert encoded == v.astype("<i8").tobytes()
    decoded = decode_vector(encoded, Q61, (4,))
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, v)
    # a view of a frame's buffer decodes to an array of its own
    buf = bytearray(b"\xff" + encoded)
    decoded = decode_vector(memoryview(buf)[1:], Q61, (4,))
    buf[1:] = bytes(len(encoded))
    assert np.array_equal(decoded, v)


def test_matrix_and_bits_codecs():
    M = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    encoded = encode_matrix(M)
    assert isinstance(encoded, bytes)
    assert np.array_equal(decode_matrix(encoded, 7, (2, 3)), M)
    # row-major: the same bytes as the flattened rows
    assert encoded == encode_vector(M.reshape(-1))
    bits = np.array([0, 1, 1, 0], dtype=np.int64)
    assert encode_bits(bits) == "0110"
    assert np.array_equal(decode_bits(encode_bits(bits), (4,)), bits)
    assert decode_bits("", (0,)).shape == (0,)
    with pytest.raises(WireError):
        decode_bits("0210", (4,))


@st.composite
def zq_arrays(draw):
    q = draw(st.integers(2, Q61))
    shape = draw(st.sampled_from([(0,), (1,), (7,), (3, 4), (1, 5)]))
    size = math.prod(shape)
    entries = draw(st.lists(st.integers(0, q - 1), min_size=size,
                            max_size=size))
    return q, np.array(entries, dtype=np.int64).reshape(shape)


@given(zq_arrays())
def test_zq_arrays_roundtrip(case):
    q, a = case
    text = encode_matrix(a) if a.ndim == 2 else encode_vector(a)
    decoded = decode_vector(text, q, a.shape)
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, a)
    # the same bytes read as one row
    assert np.array_equal(decode_vector(text, q, (a.size,)), a.reshape(-1))
    if a.ndim == 2:
        assert np.array_equal(decode_matrix(text, q, a.shape), a)


def _wire_error_only(decode, *args):
    with pytest.raises(WireError):
        decode(*args)


@settings(deadline=None)
@given(st.integers(2, Q61), st.lists(st.integers(0, Q61 - 1), max_size=6),
       st.integers(-(1 << 63), -1) | st.integers(Q61, (1 << 63) - 1),
       st.integers(0, 6))
def test_out_of_range_entries_rejected(q, entries, bad, at):
    entries = [x % q for x in entries]
    entries.insert(min(at, len(entries)), bad)      # bad < 0 or bad >= q
    text = encode_vector(np.array(entries, dtype=np.int64))
    _wire_error_only(decode_vector, text, q, (len(entries),))


_NON_STRINGS = (st.none() | st.integers() | st.floats() | st.binary()
                | st.lists(st.text(max_size=3), max_size=3)
                | st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=2))


@given(_NON_STRINGS)
def test_non_string_rejected(value):
    _wire_error_only(decode_bits, value, (1,))


@given(_NON_STRINGS.filter(lambda v: not isinstance(v, bytes))
       | st.text(max_size=16))
def test_non_section_rejected(value):
    """An array must arrive as a section: a string (v3's base64 form), a
    number, a list or a dict in its place is a WireError."""
    _wire_error_only(decode_vector, value, Q61, (1,))
    _wire_error_only(decode_matrix, value, Q61, (1, 1))


@given(st.text(max_size=40) | st.binary(max_size=40))
def test_arbitrary_text_never_escapes(value):
    """Any string or section decodes to an int64 array or raises
    WireError."""
    for decode, args in ((decode_vector, (Q61, (1,))),
                         (decode_vector, (Q61, (2,))),
                         (decode_matrix, (Q61, (1, 2))),
                         (decode_bits, ((len(value),),)),
                         (decode_bits, ((3,),))):
        try:
            out = decode(value, *args)
        except WireError:
            continue
        assert out.dtype == np.int64


@given(st.lists(st.integers(0, 100), min_size=1, max_size=6),
       st.integers(1, 7))
def test_truncated_length_rejected(entries, cut):
    raw = np.array(entries, dtype="<i8").tobytes()[:-cut]
    _wire_error_only(decode_vector, raw, 101, (len(entries),))


@given(st.lists(st.integers(0, 100), max_size=6),
       st.sampled_from([(0,), (1,), (5,), (2, 3), (3, 2), (7,)]))
def test_wrong_shape_rejected(entries, shape):
    assume(math.prod(shape) != len(entries))
    text = encode_vector(np.array(entries, dtype=np.int64))
    with pytest.raises(DimensionError):
        decode_vector(text, 101, shape)
    if len(shape) == 2:
        with pytest.raises(DimensionError):
            decode_matrix(text, 101, shape)
    bits = "01" * len(entries)
    assume((len(bits),) != shape)
    with pytest.raises(DimensionError):
        decode_bits(bits, shape)


@given(st.lists(st.sampled_from("01"), max_size=20),
       st.characters(blacklist_characters="01"), st.integers(0, 20))
def test_bits_reject_non_bit_characters(bits, char, at):
    text = "".join(bits)
    assert np.array_equal(decode_bits(text, (len(text),)),
                          [int(c) for c in text])
    at = min(at, len(text))
    _wire_error_only(decode_bits, text[:at] + char + text[at:],
                     (len(text) + 1,))


def test_frame_roundtrip():
    msg = make_message("challenge", {"b_prime": 1})
    frame = dump_frame(msg)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert parse_frame(frame[4:]) == msg
    # a frame without arrays is plain JSON, with no section table
    assert json.loads(frame[4:]) == msg


def test_envelope_version_is_optional():
    """The hello carries the version; a peer whose envelopes still hold
    protocol_version parses as one whose envelopes do not."""
    msg = make_message("challenge", {"b_prime": 1})
    assert "protocol_version" not in msg
    with_version = dict(msg, protocol_version=PROTOCOL_VERSION)
    for sent in (msg, with_version):
        assert parse_frame(json.dumps(sent).encode()) == sent


def test_frame_layout_is_an_envelope_then_the_sections():
    """Each array leaves a marker in the ASCII envelope and travels after
    it, in the order of the table of section lengths; parsing gives each
    one back as a view of the body."""
    A = np.arange(6, dtype=np.int64).reshape(2, 3)
    v = np.array([7, (1 << 60) + 1], dtype=np.int64)
    msg = make_message("setup", {"pk": {"A": encode_matrix(A),
                                        "v": encode_vector(v)},
                                 "ct": {"w": "5"}})
    body = dump_frame(msg)[4:]
    envelope, end = json.JSONDecoder().raw_decode(body.decode("latin-1"))
    assert body[:end].isascii()
    markers = envelope["payload"]["pk"]
    assert sorted(markers.values(), key=str) == [{"section": 0},
                                                 {"section": 1}]
    sections = {}
    at = end
    for k, size in enumerate(envelope["sections"]):
        sections[k] = body[at:at + size]
        at += size
    assert at == len(body)
    assert sections[markers["A"]["section"]] == A.astype("<i8").tobytes()
    assert sections[markers["v"]["section"]] == v.astype("<i8").tobytes()
    parsed = parse_frame(bytearray(body))
    assert parsed == msg
    assert isinstance(parsed["payload"]["pk"]["A"], memoryview)
    assert np.array_equal(
        decode_matrix(parsed["payload"]["pk"]["A"], 1 << 61, (2, 3)), A)


def _body(envelope: dict, tail: bytes = b"") -> bytes:
    return json.dumps(envelope).encode() + tail


def _y_frame(**change) -> dict:
    """A response1 envelope whose y is section 0, of 16 bytes."""
    return {**make_message("response1", {"y": {"section": 0}, "u": "01"}),
            "sections": [16], **change}


HOSTILE_BODIES = {
    "sections-short": _body(_y_frame(), bytes(8)),
    "sections-long": _body(_y_frame(), bytes(24)),
    "no-table": _body(make_message("response1", {"u": "01"}), bytes(16)),
    "marker-no-table": _body(make_message("response1",
                                          {"y": {"section": 0}})),
    "index-out-of-range": _body(_y_frame(payload={"y": {"section": 1}}),
                                bytes(16)),
    "index-negative": _body(_y_frame(payload={"y": {"section": -1}}),
                            bytes(16)),
    "index-bool": _body(_y_frame(payload={"y": {"section": False}}),
                        bytes(16)),
    "index-str": _body(_y_frame(payload={"y": {"section": "0"}}),
                       bytes(16)),
    "used-twice": _body(_y_frame(payload={"y": {"section": 0},
                                          "z": [{"section": 0}]}),
                        bytes(16)),
    "never-used": _body(_y_frame(sections=[16, 8]), bytes(24)),
    "not-int64-aligned": _body(_y_frame(sections=[13]), bytes(13)),
    "table-not-a-list": _body(_y_frame(sections=16), bytes(16)),
    "table-float": _body(_y_frame(sections=[16.0]), bytes(16)),
    "table-negative": _body(_y_frame(sections=[24, -8]), bytes(16)),
    "non-ascii-envelope": _body(make_message("hello", {"role": "x"}))
    .replace(b"x", b"\xe9"),
    "type-not-a-string": _body({"type": ["hello"], "payload": {}}),
    "deep-nesting": b'{"type": "hello", "payload": {"x": ' + b"[" * 1000
    + b"]" * 1000 + b"}}",
}


@pytest.mark.parametrize("body", HOSTILE_BODIES.values(),
                         ids=HOSTILE_BODIES.keys())
def test_hostile_body_is_a_wire_error(body):
    """A table that does not account for every byte after the envelope, a
    marker that names no unused section, a section never used or not
    whole int64 entries, and an envelope that is not ASCII JSON, are each
    refused with WireError."""
    with pytest.raises(WireError):
        parse_frame(body)


_ENVELOPE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 40) | st.text(max_size=4)
    | st.builds(lambda k: {"section": k}, st.integers(-1, 3) | st.booleans()),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)
_ENVELOPES = st.fixed_dictionaries(
    {"type": st.sampled_from(sorted(MESSAGE_TYPES)) | _ENVELOPE_VALUES,
     "payload": _ENVELOPE_VALUES},
    optional={"sections": st.lists(st.integers(-8, 40), max_size=4)
              | _ENVELOPE_VALUES,
              "protocol_version": _ENVELOPE_VALUES})


@settings(deadline=None)
@given(st.binary(max_size=4096)
       | st.builds(_body, _ENVELOPES, st.binary(max_size=48)))
def test_any_small_body_parses_to_a_dict_or_a_wire_error(body):
    """Any body of at most 4 KB, bytes or a JSON envelope with markers and
    a section table followed by bytes, parses to a message or raises
    WireError, and nothing else."""
    try:
        msg = parse_frame(body[:4096])
    except WireError:
        return
    assert isinstance(msg, dict) and isinstance(msg["payload"], dict)
    assert msg["type"] in MESSAGE_TYPES


def test_overlong_integer_literal_is_a_wire_error():
    # json.loads raises a plain ValueError for an int past 4,300 digits
    with pytest.raises(WireError):
        parse_frame(b'{"type": "setup", "payload": {"n": ' + b"9" * 5000
                    + b"}}")


def test_unknown_message_type_rejected():
    with pytest.raises(WireError):
        make_message("gossip", {})
    with pytest.raises(WireError):
        parse_frame(b'{"type": "gossip", "payload": {}}')


def test_malformed_frames_rejected():
    with pytest.raises(WireError):
        parse_frame(b"{broken")
    with pytest.raises(WireError):
        parse_frame(b'"just a string"')
    with pytest.raises(WireError):
        parse_frame(b'{"payload": {}}')


@pytest.mark.parametrize("payload", [b"[1, 2]", b'"x"', b"null", b"3",
                                     b"true"])
def test_non_object_payload_rejected(payload):
    with pytest.raises(WireError, match="payload"):
        parse_frame(b'{"type": "hello", "payload": ' + payload + b"}")


def test_secret_fields_never_travel():
    for name in sorted(SECRET_FIELDS):
        msg = make_message("setup", {name: "123"})
        with pytest.raises(WireError, match=name):
            dump_frame(msg)
        # nesting does not launder the field name
        msg = make_message("setup", {"inner": [{"deep": {name: []}}]})
        with pytest.raises(WireError):
            dump_frame(msg)


def test_witness_label_is_the_only_exemption():
    payload = {WITNESS_LABEL: {"s": ["1"], "e": ["0"]}, "note": "simulation"}
    dump_frame(make_message("setup", payload))  # allowed
    # a secret next to the witness subtree is still rejected
    with pytest.raises(WireError):
        dump_frame(make_message("setup",
                                {WITNESS_LABEL: {"s": ["1"]}, "b": 1}))



def _soon() -> float:
    """A frame's deadline for these tests, ten seconds from now."""
    return time.monotonic() + 10


def test_oversized_frame_rejected():
    msg = make_message("setup", {"blob": "x" * (MAX_FRAME_BYTES + 10)})
    with pytest.raises(WireError):
        dump_frame(msg)
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    a, b = socket.socketpair()
    try:
        a.sendall(header)
        with pytest.raises(WireError):
            recv_message(b, MAX_FRAME_BYTES, _soon())
    finally:
        a.close()
        b.close()


def test_frame_cap_counts_each_array_and_the_bits():
    """frame_cap adds each array's encoded length and the bits to
    SMALL_FRAME_BYTES."""
    for sizes in [(), (0,), (1,), (2,), (3,), (4, 5), (348, 4, 1392)]:
        encoded = sum(len(encode_vector(np.zeros(k, dtype=np.int64)))
                      for k in sizes)
        assert frame_cap(*sizes, bits=7) == SMALL_FRAME_BYTES + encoded + 7


def test_recv_message_refuses_a_frame_over_its_cap():
    """A header announcing more than the cap is refused before the body
    is read; a frame of exactly the cap is read."""
    frame = dump_frame(make_message("result", {"success": True, "d": 0}))
    cap = len(frame) - 4
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10)
        a.sendall(frame)
        assert recv_message(b, cap, _soon())["type"] == "result"
        a.sendall(struct.pack(">I", cap + 1))   # the header alone
        with pytest.raises(WireError, match="over the cap"):
            recv_message(b, cap, _soon())



def test_recv_message_stops_at_its_deadline():
    """A frame that is not whole by the deadline raises TimeoutError there,
    however the socket's own timeout is set, and the socket keeps that
    timeout."""
    frame = dump_frame(make_message("result", {"success": True, "d": 0}))
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10)
        a.sendall(frame[:-1])
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            recv_message(b, MAX_FRAME_BYTES, start + 0.2)
        assert 0.15 < time.monotonic() - start < 5
        assert b.gettimeout() == 10


def test_send_recv_over_socketpair():
    a, b = socket.socketpair()
    try:
        msg = make_message("result", {"success": True, "d": 0})
        t = threading.Thread(target=send_message, args=(a, msg))
        t.start()
        assert recv_message(b, MAX_FRAME_BYTES, _soon()) == msg
        t.join()
    finally:
        a.close()
        b.close()


def test_frame_split_across_many_sends_arrives_whole():
    """A frame sent a few bytes at a time, in sends of 1 to 7 bytes, is
    read into one buffer and parses to the message sent."""
    msg = make_message("response1", {
        "y": encode_vector(np.arange(40, dtype=np.int64) * 3),
        "u": encode_bits(np.arange(9) % 2)})
    frame = dump_frame(msg)
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10)

        def trickle():
            at = 0
            for size in itertools.cycle(range(1, 8)):
                if at >= len(frame):
                    return
                a.sendall(frame[at:at + size])
                at += size
                time.sleep(0.0005)
        t = threading.Thread(target=trickle)
        t.start()
        got = recv_message(b, MAX_FRAME_BYTES, _soon())
        t.join(timeout=10)
        assert not t.is_alive()
    assert got == msg
    assert np.array_equal(decode_vector(got["payload"]["y"], 121, (40,)),
                          np.arange(40) * 3)


def test_truncated_stream_detected():
    a, b = socket.socketpair()
    try:
        frame = dump_frame(make_message("challenge", {"b_prime": 0}))
        a.sendall(frame[: len(frame) - 3])
        a.close()
        with pytest.raises(WireError):
            recv_message(b, MAX_FRAME_BYTES, _soon())
    finally:
        b.close()
