"""Networked verifier/prover sessions over the framed JSON wire protocol.

One protocol session per TCP connection, driven through the fixed order
hello -> setup -> response1 -> challenge -> response2 -> result.  Both ends
derive their randomness from per-session streams, so a loopback run with
the same master seed reproduces the in-process transcripts bit for bit.

The honest quantum prover only exists as a simulation, which needs the
key-side witness (s, e).  The prover's hello says whether it needs it; a
verifier started with the witness channel enabled then ships it, loudly
labeled, inside the setup frame.  Classical strategies never receive it.
"""
from __future__ import annotations

import math
import socket

from .params import Params, tiny_params
from .protocol_q import prover_round1, verifier_round1, verifier_score
# Not called here: perfbench/layers.py looks this name up on network.
from .protocol_q import honest_prover_round1
from .regev import Ciphertext, PublicKey
from .sampling import RngStream, sample_bits
from .stats import Stats
from .wire import (PROTOCOL_VERSION, WITNESS_LABEL, DimensionError,
                   WireError, decode_bits, decode_matrix, decode_vector,
                   encode_bits, encode_matrix, encode_vector, make_message,
                   recv_message, send_message)

DEFAULT_TIMEOUT = 30.0


class SessionError(Exception):
    pass


def _send_error(sock, code: str) -> None:
    try:
        send_message(sock, make_message("error", {"code": code}))
    except OSError:
        pass


def _expect(sock, expected_type: str) -> dict:
    msg = recv_message(sock)
    if msg["type"] == "error":
        raise SessionError(f"peer error: {msg['payload'].get('code')}")
    if msg["type"] != expected_type:
        _send_error(sock, "protocol-order")
        raise SessionError(
            f"expected {expected_type}, got {msg['type']} (protocol-order)")
    return msg


def _decode(sock, decode):
    """Run `decode` on a received payload.  A missing key, a wrong type or
    a bad array sends a `bad-encoding` error frame, a wrong shape a
    `bad-dimensions` one; either way the session ends with SessionError."""
    try:
        return decode()
    except (WireError, KeyError, TypeError, ValueError, OverflowError) as exc:
        code = ("bad-dimensions" if isinstance(exc, DimensionError)
                else "bad-encoding")
        _send_error(sock, code)
        raise SessionError(f"undecodable payload ({code}): {exc}") from None


def _handshake(sock, role: str, **hello) -> dict:
    send_message(sock, make_message("hello", {"role": role,
                                              "version": PROTOCOL_VERSION,
                                              **hello}))
    msg = _expect(sock, "hello")
    if msg["payload"].get("version") != PROTOCOL_VERSION:
        _send_error(sock, "version-mismatch")
        raise SessionError("protocol version mismatch")
    return msg["payload"]


def open_server_socket(host: str, port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(8)
    return srv


def verifier_session(conn, params: Params, trial_stream: RngStream,
                     witness_channel: bool = False):
    """Drive one session on an accepted connection; returns a Transcript."""
    hello = _handshake(conn, "verifier")
    vstate, (pk, ct) = verifier_round1(params, trial_stream.derive("verifier"))
    setup = {
        "preset": params.preset_name,
        "lambda": params.lam,
        "n": params.n,
        "q": str(params.q),
        "sigma": params.sigma,
        "pk": {"A": encode_matrix(pk.A), "v": encode_vector(pk.v)},
        "ct": {"a": encode_vector(ct.a), "w": str(ct.w)},
    }
    if witness_channel and hello.get("witness") is True:
        # simulation-only key-side witness for the honest quantum prover
        # simulator; never part of the protocol
        setup[WITNESS_LABEL] = {"s": encode_vector(vstate.keypair.s),
                                "e": encode_vector(vstate.keypair.e)}
    send_message(conn, make_message("setup", setup))
    response1 = _expect(conn, "response1")["payload"]
    y, u = _decode(conn, lambda: (
        decode_vector(response1["y"], params.q, (params.m,)),
        decode_bits(response1["u"], (params.nQ,))))
    b_prime = int(sample_bits(1, trial_stream.derive("challenge"))[0])
    vstate.b_prime = b_prime
    send_message(conn, make_message("challenge", {"b_prime": b_prime}))
    response2 = _expect(conn, "response2")["payload"]
    d_prime = _bit(conn, response2, "d_prime")
    transcript = verifier_score(vstate, y, u, d_prime,
                                seed_info=trial_stream.seed.hex())
    send_message(conn, make_message("result",
                                    {"success": bool(transcript.success),
                                     "d": transcript.d}))
    return transcript


def serve_verifier(server_sock, params: Params, stream: RngStream,
                   sessions: int, witness_channel: bool = False,
                   timeout: float = DEFAULT_TIMEOUT):
    """Accept `sessions` connections in order; session i uses the stream
    derive('trial', i).  Returns (Stats, transcripts)."""
    transcripts = []
    wins = 0
    for i in range(sessions):
        conn, _ = server_sock.accept()
        conn.settimeout(timeout)
        try:
            t = verifier_session(conn, params, stream.derive("trial", i),
                                 witness_channel=witness_channel)
        except socket.timeout:
            _send_error(conn, "timeout")
            raise SessionError("session timed out") from None
        finally:
            conn.close()
        transcripts.append(t)
        wins += int(t.success)
    return Stats(successes=wins, trials=sessions), transcripts


def _number(value, kinds: tuple):
    """A JSON number of one of `kinds`; bools and non-finite floats are
    refused."""
    if type(value) not in kinds or (type(value) is float
                                    and not math.isfinite(value)):
        names = " or ".join(k.__name__ for k in kinds)
        raise WireError(f"expected a JSON {names}, got {value!r:.40}")
    return value


def _decimal(text, bound: int) -> int:
    """An integer in [0, bound) sent as a canonical decimal string."""
    if (not isinstance(text, str) or len(text) > len(str(bound))
            or not (text.isascii() and text.isdigit())
            or str(int(text)) != text or int(text) >= bound):
        raise WireError(f"expected a decimal string in [0, {bound})"
                        f", got {text!r:.40}")
    return int(text)


def _bit(sock, payload: dict, key: str) -> int:
    """payload[key] as a JSON integer that is 0 or 1.  A missing key or
    another type sends `bad-encoding`, another integer `bad-bit`; either
    way the session ends with SessionError."""
    value = _decode(sock, lambda: _number(payload[key], (int,)))
    if value not in (0, 1):
        _send_error(sock, "bad-bit")
        raise SessionError(f"{key} is not a bit (bad-bit)")
    return value


def _keys_from_setup(payload: dict):
    """(params, public key, ciphertext) from a setup payload."""
    params = tiny_params(n=_number(payload["n"], (int,)),
                         q=_decimal(payload["q"], 1 << 61),  # Params' limit
                         sigma=float(_number(payload["sigma"], (int, float))),
                         lam=_number(payload["lambda"], (int,)))
    q, n, m = params.q, params.n, params.m
    pk = PublicKey(params=params,
                   A=decode_matrix(payload["pk"]["A"], q, (m, n)),
                   v=decode_vector(payload["pk"]["v"], q, (m,)))
    ct = Ciphertext(a=decode_vector(payload["ct"]["a"], q, (n,)),
                    w=_decimal(payload["ct"]["w"], q))
    return params, pk, ct


def prover_session(host: str, port: int, strategy, trial_stream: RngStream,
                   timeout: float = DEFAULT_TIMEOUT) -> dict:
    """Run one session as the prover; returns the result payload."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        _handshake(sock, "prover", witness=strategy.quantum)
        setup = _expect(sock, "setup")["payload"]
        params, pk, ct = _decode(sock, lambda: _keys_from_setup(setup))
        witness = None
        if strategy.quantum:
            if WITNESS_LABEL not in setup:
                _send_error(sock, "no-witness")
                raise SessionError("verifier did not open the witness channel")
            witness = _decode(sock, lambda: (
                decode_vector(setup[WITNESS_LABEL]["s"], params.q,
                              (params.n,)),
                decode_vector(setup[WITNESS_LABEL]["e"], params.q,
                              (params.m,))))
        pstream = trial_stream.derive("prover")
        y, u, memory = prover_round1(strategy, pk, ct, witness, pstream)
        send_message(sock, make_message("response1",
                                        {"y": encode_vector(y),
                                         "u": encode_bits(u)}))
        challenge = _expect(sock, "challenge")["payload"]
        b_prime = _bit(sock, challenge, "b_prime")
        d_prime = int(strategy.second_response(b_prime, memory, pstream))
        send_message(sock, make_message("response2", {"d_prime": d_prime}))
        return _expect(sock, "result")["payload"]


def connect_prover(host: str, port: int, strategy, stream: RngStream,
                   sessions: int, timeout: float = DEFAULT_TIMEOUT):
    """Run `sessions` sequential sessions; returns the list of results."""
    results = []
    for i in range(sessions):
        results.append(prover_session(host, port, strategy,
                                      stream.derive("trial", i),
                                      timeout=timeout))
    return results
