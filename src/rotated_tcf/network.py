"""Networked verifier/prover sessions over the framed wire protocol.

One protocol session per TCP connection, driven through the fixed order
hello -> setup -> response1 -> challenge -> response2 -> result.  A
message is a dict whose Z_q arrays are `wire.encode_*` bytes and whose
other fields are JSON values; how a frame lays them out is wire.py's
business alone.  Both ends derive their randomness from per-session
streams, so a loopback run with the same master seed reproduces the
in-process transcripts bit for bit.
Each frame is read by `_receive`, through its type's one decoder, and
refused unread if its header announces more than its type's cap.  A
session that fails raises SessionError with its error frame's code.
Each session fixes one deadline when its connection is accepted or made,
`timeout` seconds on: every read and send waits only for the time left,
and a session past it fails with `timeout`.
`serve_sessions` sets up the verifier's keys for each chunk of
`protocol_q.chunk_size(params)` sessions, the one chunk rule of every
driver, in one stacked call, made once the chunk's first connection is
accepted; each session plays on its own instance, and its result is
yielded as it ends.

The honest quantum prover only exists as a simulation, which needs the
key-side witness (s, e).  The prover's hello says whether it needs it; a
verifier started with the witness channel enabled then ships it, loudly
labeled, inside the setup frame.  Classical strategies never receive it.
"""
from __future__ import annotations

import contextlib
import socket
import time

from .params import (MAX_LAMBDA, MAX_N, MAX_Q_BITS, MAX_SIGMA, Params,
                     tiny_params)
from .protocol_q import (VerifierState, chunk_size, chunks, instance_state,
                         prover_round1, verifier_round1_stacked,
                         verifier_score)
# Not called here: perfbench/layers.py looks these names up on network.
from .protocol_q import honest_prover_round1, verifier_round1
from .regev import Ciphertext, PublicKey
from .sampling import RngStream, seed_streams
from .stats import Stats
from .transcripts import _bit, _decimal, _number
from .wire import (PROTOCOL_VERSION, SMALL_FRAME_BYTES, WITNESS_LABEL,
                   WireError, decode_bits, decode_matrix, decode_vector,
                   encode_bits, encode_matrix, encode_vector, frame_cap,
                   make_message, recv_message, send_message, settimeout_until)

DEFAULT_TIMEOUT = 30.0
# The codes of the error frames this module sends.
ERROR_CODES = ("bad-encoding", "bad-dimensions", "bad-bit", "no-witness",
               "protocol-order", "version-mismatch", "timeout")
# After a frame refused unread, the most bytes, and seconds, spent reading
# and dropping what the peer still sends before the close.
DRAIN_BYTES = 1 << 20
DRAIN_SECONDS = 1.0

# The largest setup a prover reads: the key (A, v), the ciphertext's a and
# the witness (s, e) at the largest parameters that Params admits
# (2^MAX_Q_BITS - 1, a Mersenne prime, is the largest q it takes).
_LARGEST = Params(lam=MAX_LAMBDA, n=MAX_N, q=(1 << MAX_Q_BITS) - 1,
                  sigma=MAX_SIGMA)
SETUP_FRAME_BYTES = frame_cap(_LARGEST.m * _LARGEST.n, _LARGEST.m,
                              _LARGEST.n, _LARGEST.n, _LARGEST.m)


class SessionError(Exception):
    """A failed session; `code` is its error frame's code, the one this end
    sent or the one in the peer's error frame."""
    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


def _failure(exc: Exception) -> SessionError:
    """The SessionError that `exc` ends a session with: `timeout` for a
    timed-out read or send, else `exc`'s own code, or `bad-encoding`."""
    if isinstance(exc, SessionError):
        return exc
    return SessionError("timeout" if isinstance(exc, TimeoutError)
                        else getattr(exc, "code", "bad-encoding"), str(exc))


def _deadline(timeout):
    """The deadline of a session that starts now with `timeout` seconds, a
    time.monotonic() reading; None, no deadline, for no timeout."""
    return None if timeout is None else time.monotonic() + timeout


def _send(sock, msg_type: str, payload: dict, deadline) -> None:
    """Send one frame within the time left until the session's `deadline`;
    a send that fails or finds no time left ends the session
    (`_failure`)."""
    try:
        settimeout_until(sock, deadline)
        send_message(sock, make_message(msg_type, payload))
    except OSError as exc:
        raise _failure(exc) from None


def _refuse(sock, code: str, unread: bool = False) -> None:
    """Send an error frame with `code` and stop sending.  After a frame
    that went `unread`, read and drop what the peer still sends, up to
    DRAIN_BYTES or DRAIN_SECONDS, so that the close does not reset the
    connection before the peer has read its error frame."""
    deadline = time.monotonic() + DRAIN_SECONDS
    left = DRAIN_BYTES if unread else 0
    with contextlib.suppress(OSError):  # a timeout, or a reset
        sock.settimeout(DRAIN_SECONDS)  # the session's time may be up
        send_message(sock, make_message("error", {"code": code}))
        sock.shutdown(socket.SHUT_WR)
        while left > 0:
            sock.settimeout(max(deadline - time.monotonic(), 1e-3))
            chunk = sock.recv(min(left, 1 << 16))
            if not chunk:
                return
            left -= len(chunk)


def _hello(payload: dict, peer_role: str) -> bool:
    """Whether the peer asks for the witness."""
    if payload.get("version") != PROTOCOL_VERSION:
        raise SessionError("version-mismatch", "protocol version mismatch")
    if payload["role"] != peer_role:
        raise WireError(f"role {payload['role']!r:.40}, not {peer_role}")
    return _number(payload.get("witness", False), (bool,))


def _setup(payload: dict, wants_witness: bool):
    """(public key, ciphertext, witness or None).  Params refuses, with a
    ValueError, a setup whose n, sigma or lambda is out of its bounds."""
    params = tiny_params(n=_number(payload["n"], (int,)),
                         q=_decimal(payload["q"], 1 << MAX_Q_BITS),
                         sigma=float(_number(payload["sigma"], (int, float))),
                         lam=_number(payload["lambda"], (int,)))
    q, n, m = params.q, params.n, params.m
    pk = PublicKey(params=params,
                   A=decode_matrix(payload["pk"]["A"], q, (m, n)),
                   v=decode_vector(payload["pk"]["v"], q, (m,)))
    ct = Ciphertext(a=decode_vector(payload["ct"]["a"], q, (n,)),
                    w=_decimal(payload["ct"]["w"], q))
    if not wants_witness:
        return pk, ct, None
    if WITNESS_LABEL not in payload:
        raise SessionError("no-witness", "the verifier sent no witness")
    witness = payload[WITNESS_LABEL]
    return pk, ct, (decode_vector(witness["s"], q, (n,)),
                    decode_vector(witness["e"], q, (m,)))


def _peer_error(payload: dict, *_):
    code = payload.get("code")
    raise SessionError(code if code in ERROR_CODES else "bad-encoding",
                       "peer error")


_DECODERS = {
    "hello": _hello,
    "setup": _setup,
    "response1": lambda p, params: (decode_vector(p["y"], params.q,
                                                  (params.m,)),
                                    decode_bits(p["u"], (params.nQ,))),
    "challenge": lambda p: _bit(p["b_prime"]),
    "response2": lambda p: _bit(p["d_prime"]),
    "result": lambda p: {"success": _number(p["success"], (bool,)),
                         "d": _bit(p["d"])},
    "error": _peer_error,
}


def _frame_cap(msg_type: str, *context) -> int:
    """The most bytes a `msg_type` frame may announce: a response1 holds y
    and u at the verifier's own m and nQ, a setup at most
    SETUP_FRAME_BYTES, and any other frame, an error frame in place of
    any type included, fits in SMALL_FRAME_BYTES."""
    if msg_type == "response1":
        (params,) = context
        return frame_cap(params.m, bits=params.nQ)
    return SETUP_FRAME_BYTES if msg_type == "setup" else SMALL_FRAME_BYTES


def _receive(sock, msg_type: str, deadline, *context):
    """The decoded payload of the next frame, a `msg_type`, read by the
    session's `deadline`.  Any failure raises SessionError: a peer's error
    frame with its code, unanswered, and any other once `_refuse` has sent
    its code (see `_failure`), draining what the peer sends if no whole
    frame was read."""
    msg = None
    try:
        msg = recv_message(sock, _frame_cap(msg_type, *context), deadline)
        if msg["type"] not in (msg_type, "error"):
            raise SessionError("protocol-order",
                               f"expected {msg_type}, got {msg['type']}")
        return _DECODERS[msg["type"]](msg["payload"], *context)
    except (SessionError, WireError, OSError, KeyError, TypeError,
            ValueError, OverflowError) as exc:
        failure = _failure(exc)
        if msg is None or msg["type"] != "error":
            _refuse(sock, failure.code, unread=msg is None)
        raise failure from None


def _handshake(sock, role: str, peer_role: str, deadline, **hello) -> bool:
    _send(sock, "hello", dict(hello, role=role, version=PROTOCOL_VERSION),
          deadline)
    return _receive(sock, "hello", deadline, peer_role)


def open_server_socket(host: str, port: int) -> socket.socket:
    return socket.create_server((host, port), backlog=8)


def verifier_session(conn, vstate: VerifierState, trial_stream: RngStream,
                     challenge_stream: RngStream, witness_channel: bool,
                     deadline):
    """Drive one session on an accepted connection, by `deadline`, with
    the verifier's set-up `vstate` for the trial on `trial_stream` and its
    challenge bit drawn from `challenge_stream`, the trial's
    derive('challenge'); returns a Transcript."""
    pk, ct = vstate.keypair.pk, vstate.ct
    params = pk.params
    wants_witness = _handshake(conn, "verifier", "prover", deadline)
    setup = {"lambda": params.lam, "n": params.n, "q": str(params.q),
             "sigma": params.sigma,
             "pk": {"A": encode_matrix(pk.A), "v": encode_vector(pk.v)},
             "ct": {"a": encode_vector(ct.a), "w": str(ct.w)}}
    if witness_channel and wants_witness:
        # simulation-only key-side witness for the honest quantum prover
        # simulator; never part of the protocol
        setup[WITNESS_LABEL] = {"s": encode_vector(vstate.keypair.s),
                                "e": encode_vector(vstate.keypair.e)}
    _send(conn, "setup", setup, deadline)
    y, u = _receive(conn, "response1", deadline, params)
    b_prime = int(challenge_stream.gen.integers(0, 2))
    _send(conn, "challenge", {"b_prime": b_prime}, deadline)
    d_prime = _receive(conn, "response2", deadline)
    transcript = verifier_score(vstate, y, u, b_prime, d_prime,
                                seed_info=trial_stream.seed.hex())
    _send(conn, "result", {"success": bool(transcript.success),
                           "d": transcript.d}, deadline)
    return transcript


def _serve_chunk(server_sock, params: Params, trial_streams,
                 witness_channel: bool, timeout: float):
    """The sessions on `trial_streams`, one accepted connection each, in
    order; yields each one's transcript, or a failed session's
    SessionError, once its connection is closed: the next session plays
    the next instance.  Each session has `timeout` seconds from its
    accept, its set-up included.  The verifier's keys for all of them are
    one verifier_round1_stacked call, made only once the first connection
    is accepted: the client shares this process's interpreter lock in a
    loopback run, and a set-up made before it would hold up the client's
    read of the previous session's result.  The set-up also seeds every
    session's challenge generator, in one call.  A generator of its own,
    so that one chunk's keys are freed before the next chunk's are
    drawn."""
    for i, trial_stream in enumerate(trial_streams):
        conn, _ = server_sock.accept()
        deadline = _deadline(timeout)
        with conn:
            if i == 0:
                vstate, _ = verifier_round1_stacked(
                    params, [t.derive("verifier") for t in trial_streams])
                challenges = [t.derive("challenge") for t in trial_streams]
                seed_streams(challenges)
            try:
                result = verifier_session(conn, instance_state(vstate, i),
                                          trial_stream, challenges[i],
                                          witness_channel, deadline)
            except SessionError as exc:
                result = exc
        yield result


def serve_sessions(server_sock, params: Params, stream: RngStream,
                   sessions: int, witness_channel: bool = False,
                   timeout: float = DEFAULT_TIMEOUT):
    """Accept `sessions` connections in order, and yield each session's
    Transcript, or its SessionError, as the session ends.  Session i is
    one verifier_session call on the stream derive('trial', i), and its
    transcript is what run_single_trial gives on that stream.  Sessions
    are served in protocol_q.chunks of chunk_size(params), each chunk's
    keys set up in one stacked call."""
    for trial_streams in chunks(stream, "trial", sessions,
                                chunk_size(params)):
        yield from _serve_chunk(server_sock, params, trial_streams,
                                witness_channel, timeout)


def serve_verifier(server_sock, params: Params, stream: RngStream,
                   sessions: int, witness_channel: bool = False,
                   timeout: float = DEFAULT_TIMEOUT):
    """serve_sessions run to its end.  Returns (Stats, transcripts): a
    failed session counts as a loss, and its slot holds its
    SessionError."""
    transcripts = list(serve_sessions(server_sock, params, stream, sessions,
                                      witness_channel, timeout))
    wins = sum(int(t.success) for t in transcripts
               if not isinstance(t, SessionError))
    return Stats(successes=wins, trials=sessions), transcripts


def prover_session(host: str, port: int, strategy, trial_stream: RngStream,
                   timeout: float = DEFAULT_TIMEOUT) -> dict:
    """Run one session as the prover; returns the result payload.  The
    session has `timeout` seconds from its connect."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        deadline = _deadline(timeout)
        _handshake(sock, "prover", "verifier", deadline,
                   witness=strategy.quantum)
        pk, ct, witness = _receive(sock, "setup", deadline, strategy.quantum)
        pstream = trial_stream.derive("prover")
        try:
            y, u, memory = prover_round1(strategy, pk, ct, witness, pstream)
        except ValueError as exc:   # a witness that does not open the key
            _refuse(sock, "bad-encoding")
            raise _failure(exc) from None
        _send(sock, "response1", {"y": encode_vector(y),
                                  "u": encode_bits(u)}, deadline)
        b_prime = _receive(sock, "challenge", deadline)
        d_prime = int(strategy.second_response(b_prime, memory, pstream))
        _send(sock, "response2", {"d_prime": d_prime}, deadline)
        return _receive(sock, "result", deadline)


def connect_prover(host: str, port: int, strategy, stream: RngStream,
                   sessions: int, timeout: float = DEFAULT_TIMEOUT):
    """Run `sessions` sequential sessions; returns the list of results."""
    return [prover_session(host, port, strategy, stream.derive("trial", i),
                           timeout=timeout) for i in range(sessions)]
