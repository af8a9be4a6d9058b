import base64
import math
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotated_tcf.wire import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                              SECRET_FIELDS, SMALL_FRAME_BYTES, WITNESS_LABEL,
                              DimensionError, WireError, check_no_secrets,
                              decode_bits, decode_matrix, decode_vector,
                              dump_frame, encode_bits, encode_matrix,
                              encode_vector, frame_cap, make_message,
                              parse_frame, recv_message, send_message)


Q61 = (1 << 61) - 1


def test_vector_codec_roundtrip_exact():
    v = np.array([0, 1, 4398046511118, (1 << 60) + 7], dtype=np.int64)
    encoded = encode_vector(v)
    assert isinstance(encoded, str)
    # one base64 string of little-endian int64 entries
    assert base64.b64decode(encoded) == v.astype("<i8").tobytes()
    decoded = decode_vector(encoded, Q61, (4,))
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, v)


def test_matrix_and_bits_codecs():
    M = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    encoded = encode_matrix(M)
    assert isinstance(encoded, str)
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


@given(st.none() | st.integers() | st.floats() | st.binary()
       | st.lists(st.text(max_size=3), max_size=3)
       | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
def test_non_string_rejected(value):
    _wire_error_only(decode_vector, value, Q61, (1,))
    _wire_error_only(decode_matrix, value, Q61, (1, 1))
    _wire_error_only(decode_bits, value, (1,))


@given(st.text(max_size=40))
def test_arbitrary_text_never_escapes(text):
    """Any string decodes to an int64 array or raises WireError."""
    for decode, args in ((decode_vector, (Q61, (1,))),
                         (decode_vector, (Q61, (2,))),
                         (decode_matrix, (Q61, (1, 2))),
                         (decode_bits, ((len(text),),)),
                         (decode_bits, ((3,),))):
        try:
            out = decode(text, *args)
        except WireError:
            continue
        assert out.dtype == np.int64


@given(st.lists(st.integers(0, 100), min_size=1, max_size=6),
       st.sampled_from("!*-_ \n\u00e9\ud800"), st.integers(0, 60))
def test_non_alphabet_base64_rejected(entries, char, at):
    text = encode_vector(np.array(entries, dtype=np.int64))
    at = min(at, len(text))
    _wire_error_only(decode_vector, text[:at] + char + text[at:], 101,
                     (len(entries),))


def test_non_canonical_base64_rejected():
    text = encode_vector(np.array([5], dtype=np.int64))  # "BQAAAAAAAAA="
    assert np.array_equal(decode_vector(text, 7, (1,)), [5])
    # same bytes, but nonzero padding bits in the last character
    _wire_error_only(decode_vector, text[:-2] + "B=", 7, (1,))
    # missing padding
    _wire_error_only(decode_vector, text.rstrip("="), 7, (1,))


@given(st.lists(st.integers(0, 100), min_size=1, max_size=6),
       st.integers(1, 7))
def test_truncated_length_rejected(entries, cut):
    raw = np.array(entries, dtype="<i8").tobytes()[:-cut]
    _wire_error_only(decode_vector, base64.b64encode(raw).decode(), 101,
                     (len(entries),))


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
    assert msg["protocol_version"] == PROTOCOL_VERSION


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
    check_no_secrets({"payload": payload})
    # a secret next to the witness subtree is still rejected
    with pytest.raises(WireError):
        dump_frame(make_message("setup",
                                {WITNESS_LABEL: {"s": ["1"]}, "b": 1}))


def test_oversized_frame_rejected():
    msg = make_message("setup", {"blob": "x" * (MAX_FRAME_BYTES + 10)})
    with pytest.raises(WireError):
        dump_frame(msg)
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    a, b = socket.socketpair()
    try:
        a.sendall(header)
        with pytest.raises(WireError):
            recv_message(b, MAX_FRAME_BYTES)
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
        assert recv_message(b, cap)["type"] == "result"
        a.sendall(struct.pack(">I", cap + 1))   # the header alone
        with pytest.raises(WireError, match="over the cap"):
            recv_message(b, cap)


def test_send_recv_over_socketpair():
    a, b = socket.socketpair()
    try:
        msg = make_message("result", {"success": True, "d": 0})
        t = threading.Thread(target=send_message, args=(a, msg))
        t.start()
        assert recv_message(b, MAX_FRAME_BYTES) == msg
        t.join()
    finally:
        a.close()
        b.close()


def test_truncated_stream_detected():
    a, b = socket.socketpair()
    try:
        frame = dump_frame(make_message("challenge", {"b_prime": 0}))
        a.sendall(frame[: len(frame) - 3])
        a.close()
        with pytest.raises(WireError):
            recv_message(b, MAX_FRAME_BYTES)
    finally:
        b.close()
