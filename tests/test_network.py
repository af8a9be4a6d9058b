import contextlib
import copy
import functools
import gc
import importlib.util
import json
import os
import re
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rotated_tcf
from rotated_tcf import network
from rotated_tcf.network import (SessionError, connect_prover,
                                 open_server_socket, prover_session,
                                 serve_verifier, verifier_session)
from rotated_tcf.params import (MAX_LAMBDA, MAX_N, MAX_Q_BITS, MAX_SIGMA,
                                Params, desk_preset, next_prime)
from rotated_tcf.protocol_q import (CHUNK, PROVERS, BaselineProver,
                                    HonestQuantumProver, run_single_trial)
from rotated_tcf.transcripts import transcript_to_json
from rotated_tcf.wire import (MAX_FRAME_BYTES, MESSAGE_TYPES,
                              PROTOCOL_VERSION, SECRET_FIELDS,
                              SMALL_FRAME_BYTES, WITNESS_LABEL, WireError,
                              _recv_exact, dump_frame, encode_bits,
                              encode_matrix, encode_vector, make_message,
                              parse_frame, recv_message, send_message)

ROOT = Path(__file__).resolve().parent.parent
JOIN_SECONDS = 60
CLIENT_SECONDS = 10


def _soon() -> float:
    """The deadline of a frame that a test reads by hand, CLIENT_SECONDS
    from now."""
    return time.monotonic() + CLIENT_SECONDS


class _Daemon(threading.Thread):
    """`target` on a started daemon thread: one left blocked does not keep
    pytest from exiting.  Its join waits at most JOIN_SECONDS and fails
    the test if the thread still runs, then shuts down the `listener` the
    thread serves on, which wakes a blocked accept() (on Linux, close()
    does not)."""

    def __init__(self, target, listener=None):
        super().__init__(target=target, daemon=True)
        self.listener = listener
        self.start()

    def join(self, timeout=JOIN_SECONDS):
        try:
            super().join(timeout)
            assert not self.is_alive()
        finally:
            if self.listener is not None and self.is_alive():
                with contextlib.suppress(OSError):  # closed meanwhile
                    self.listener.shutdown(socket.SHUT_RDWR)


def _serve_in_thread(desk, stream, sessions, witness_channel):
    srv = open_server_socket("127.0.0.1", 0)
    port = srv.getsockname()[1]
    box = {}

    def run():
        try:
            box["result"] = serve_verifier(srv, desk, stream, sessions,
                                           witness_channel=witness_channel)
        except Exception as exc:  # surfaced via box for negative-path tests
            box["error"] = exc
        finally:
            srv.close()

    return port, _Daemon(run, srv), box


def test_listener_on_a_taken_port_leaves_no_socket_open():
    """A listener that cannot bind raises OSError and closes its socket."""
    with open_server_socket("127.0.0.1", 0) as taken:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                open_server_socket("127.0.0.1", taken.getsockname()[1])
            gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []


@pytest.mark.parametrize("sessions", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("prover, witness_channel", [
    (HonestQuantumProver, True), (BaselineProver, False),
], ids=["honest", "baseline"])
def test_loopback_matches_in_process(stream, desk, sessions, prover,
                                     witness_channel):
    """Same master seed over TCP and in-process: every session, on either
    side of a chunk boundary of the server's stacked key set-up, gives the
    in-process transcript byte for byte, and its client is told that
    trial's verdict."""
    net = stream.derive("net")
    port, t, box = _serve_in_thread(desk, net, sessions, witness_channel)
    results = connect_prover("127.0.0.1", port, prover(), net, sessions,
                             timeout=10)
    t.join(timeout=60)
    assert not t.is_alive()
    stats, transcripts = box["result"]
    local = [run_single_trial(desk, prover(), net.derive("trial", i))
             for i in range(sessions)]
    assert [transcript_to_json(t) for t in transcripts] == \
           [transcript_to_json(t) for t in local]
    assert results == [{"success": t.success, "d": t.d} for t in local]
    assert (stats.successes, stats.trials) == \
           (sum(t.success for t in local), sessions)


class _CountingListener:
    """A listening socket that counts the connections it has accepted."""

    def __init__(self, sock):
        self.sock = sock
        self.accepted = 0

    def accept(self):
        pair = self.sock.accept()
        self.accepted += 1
        return pair


def test_serve_sessions_yields_each_session_as_it_ends(stream, desk):
    """serve_sessions yields session 0's transcript before it accepts a
    second connection, and each session it yields is the in-process
    transcript of its trial."""
    net = stream.derive("net")
    results = []

    def client(i):
        return _Daemon(lambda: results.append(prover_session(
            "127.0.0.1", port, BaselineProver(), net.derive("trial", i),
            timeout=10)))

    with open_server_socket("127.0.0.1", 0) as srv:
        srv.settimeout(JOIN_SECONDS)    # an accept with no client fails
        port = srv.getsockname()[1]
        listener = _CountingListener(srv)
        sessions = network.serve_sessions(listener, desk, net, 2)
        first = client(0)
        served = [next(sessions)]
        assert listener.accepted == 1
        first.join()
        second = client(1)
        served += list(sessions)
        second.join()
    assert listener.accepted == 2
    local = [run_single_trial(desk, BaselineProver(), net.derive("trial", i))
             for i in range(2)]
    assert [transcript_to_json(t) for t in served] == \
           [transcript_to_json(t) for t in local]
    assert [r["success"] for r in results] == [t.success for t in local]


def test_serve_sets_up_each_chunk_once_after_its_first_accept(
        stream, desk, monkeypatch):
    """33 sessions make three stacked key set-ups, over the verifier
    streams of sessions 0-15, 16-31 and 32, each made once its chunk's
    first connection is accepted."""
    assert CHUNK == 16
    setups = []
    stacked = network.verifier_round1_stacked

    def spy(params, streams):
        setups.append((listener.accepted, [s.seed for s in streams]))
        return stacked(params, streams)

    monkeypatch.setattr(network, "verifier_round1_stacked", spy)
    srv = open_server_socket("127.0.0.1", 0)
    listener = _CountingListener(srv)
    net = stream.derive("net")
    box = {}

    def serve():
        try:
            box["result"] = serve_verifier(listener, desk, net, 33)
        finally:
            srv.close()

    t = _Daemon(serve, srv)
    connect_prover("127.0.0.1", srv.getsockname()[1], BaselineProver(), net,
                   33, timeout=10)
    t.join(timeout=60)
    assert not t.is_alive()
    assert len(box["result"][1]) == 33

    def seeds(sessions):
        return [net.derive("trial", i).derive("verifier").seed
                for i in sessions]
    assert setups == [(1, seeds(range(16))), (17, seeds(range(16, 32))),
                      (33, seeds([32]))]


def test_bad_session_mid_serve_is_recorded_and_the_serve_goes_on(stream,
                                                                  desk):
    """A bad frame in session 17 of 33, the first of the second chunk,
    gets its error frame, and the session's slot holds its SessionError;
    sessions 18-33 still play the next instances of the same chunk, each
    equal to run_single_trial on its stream."""
    net = stream.derive("net")
    port, t, box = _serve_in_thread(desk, net, 33, witness_channel=False)
    connect_prover("127.0.0.1", port, BaselineProver(), net, 16, timeout=10)
    sock, _ = _open_session(port)
    with sock:
        send_message(sock, make_message("response2", {"d_prime": 0}))
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
    results = [prover_session("127.0.0.1", port, BaselineProver(),
                              net.derive("trial", i), timeout=10)
               for i in range(17, 33)]
    t.join()
    assert reply["type"] == "error"
    assert reply["payload"]["code"] == "protocol-order"
    stats, transcripts = box["result"]
    assert transcripts[16].code == "protocol-order"
    local = [run_single_trial(desk, BaselineProver(), net.derive("trial", i))
             for i in range(33)]
    del local[16]
    del transcripts[16]
    assert [transcript_to_json(t) for t in transcripts] == \
           [transcript_to_json(t) for t in local]
    assert results == [{"success": t.success, "d": t.d} for t in local[16:]]
    assert (stats.successes, stats.trials) == \
           (sum(t.success for t in local), 33)


def test_resetting_client_does_not_end_the_serve(stream, desk):
    """A client that sends 10 bytes of its hello and then resets the
    connection fails its session with `bad-encoding`; the two sessions
    after it are served as in process."""
    net = stream.derive("net")
    port, t, box = _serve_in_thread(desk, net, 3, witness_channel=False)
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(dump_frame(make_message("hello", {
        "role": "prover", "version": PROTOCOL_VERSION}))[:10])
    time.sleep(0.2)     # let the verifier read the partial frame
    _reset(sock)
    results = [prover_session("127.0.0.1", port, BaselineProver(),
                              net.derive("trial", i), timeout=10)
               for i in (1, 2)]
    t.join()
    stats, (failed, *transcripts) = box["result"]
    assert failed.code == "bad-encoding"
    local = [run_single_trial(desk, BaselineProver(), net.derive("trial", i))
             for i in (1, 2)]
    assert [transcript_to_json(t) for t in transcripts] == \
           [transcript_to_json(t) for t in local]
    assert results == [{"success": t.success, "d": t.d} for t in local]
    assert (stats.successes, stats.trials) == \
           (sum(t.success for t in local), 3)


def test_silent_client_times_out_and_the_serve_goes_on(stream, desk):
    """A client that connects and sends nothing gets a `timeout` error
    frame once the server's read times out, and the next session is
    served as in process."""
    net = stream.derive("net")
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def serve():
        with srv:
            box["result"] = serve_verifier(srv, desk, net, 2, timeout=0.3)

    t = _Daemon(serve, srv)
    with socket.create_connection(srv.getsockname(), timeout=10) as sock:
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
    result = prover_session(*srv.getsockname(), BaselineProver(),
                            net.derive("trial", 1), timeout=10)
    t.join()
    stats, (failed, transcript) = box["result"]
    assert reply["payload"]["code"] == failed.code == "timeout"
    local = run_single_trial(desk, BaselineProver(), net.derive("trial", 1))
    assert transcript_to_json(transcript) == transcript_to_json(local)
    assert result == {"success": local.success, "d": local.d}
    assert (stats.successes, stats.trials) == (int(local.success), 2)


def test_trickled_frame_times_out_as_a_whole(stream, desk):
    """The timeout bounds a whole frame, not each read (it bounds the
    whole session): a client that trickles its hello one byte per 0.2 s,
    every byte inside the 0.3 s timeout, gets a `timeout` error frame
    within the timeout plus the drain, and the next session is served as
    in process."""
    net = stream.derive("net")
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def serve():
        with srv:
            box["result"] = serve_verifier(srv, desk, net, 2, timeout=0.3)

    t = _Daemon(serve, srv)
    hello = dump_frame(make_message("hello", {
        "role": "prover", "version": PROTOCOL_VERSION, "witness": False}))
    limit = 0.3 + network.DRAIN_SECONDS + 0.5
    with socket.create_connection(srv.getsockname(), timeout=10) as sock:
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        start = time.monotonic()
        for byte in hello:
            sock.sendall(bytes([byte]))
            answered = select.select([sock], [], [], 0.2)[0]
            if answered or time.monotonic() - start > limit:
                break
        elapsed = time.monotonic() - start
        assert answered and elapsed < limit, (
            f"no answer {elapsed:.2f} s into a trickled hello")
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
    result = prover_session(*srv.getsockname(), BaselineProver(),
                            net.derive("trial", 1), timeout=10)
    t.join()
    stats, (failed, transcript) = box["result"]
    assert reply["payload"]["code"] == failed.code == "timeout"
    local = run_single_trial(desk, BaselineProver(), net.derive("trial", 1))
    assert transcript_to_json(transcript) == transcript_to_json(local)
    assert result == {"success": local.success, "d": local.d}


@pytest.mark.parametrize("strategy", ["honest", "classical-baseline"])
def test_network_demo_script(strategy):
    """scripts/network_demo.py serves 17 sessions, one more than a chunk,
    and finds every transcript equal to its in-process rerun."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(Path(rotated_tcf.__file__).parents[1]),
                             os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "network_demo.py"),
         "--sessions", "17", "--strategy", strategy],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "in-process rerun: 17/17" in done.stdout


def test_network_demo_refuses_sessions_below_one(monkeypatch, capsys):
    """scripts/network_demo.py exits 2 on --sessions 0, before it opens
    its listener."""
    spec = importlib.util.spec_from_file_location(
        "network_demo", ROOT / "scripts" / "network_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "open_server_socket", None)
    monkeypatch.setattr(sys, "argv", ["network_demo.py", "--sessions", "0"])
    with pytest.raises(SystemExit) as exited:
        demo.main()
    assert exited.value.code == 2
    assert "--sessions" in capsys.readouterr().err


def test_network_demo_exits_when_its_client_fails(monkeypatch, capsys):
    """When its client side fails, scripts/network_demo.py prints the
    session's code, shuts its verifier down and exits 1 instead of
    waiting on the verifier's next accept()."""
    spec = importlib.util.spec_from_file_location(
        "network_demo", ROOT / "scripts" / "network_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)

    def first_session_fails(host, port, strategy, stream, sessions):
        prover_session(host, port, strategy, stream.derive("trial", 0))
        raise SessionError("no-witness", "stands in for a failed session")

    monkeypatch.setattr(demo, "connect_prover", first_session_fails)
    monkeypatch.setattr(sys, "argv", ["network_demo.py", "--sessions", "3"])
    running = threading.active_count()
    assert demo.main() == 1
    assert "client session failed: no-witness" in capsys.readouterr().out
    assert threading.active_count() == running


def test_baseline_over_network(stream, desk):
    sessions = 120
    port, t, box = _serve_in_thread(desk, stream.derive("net"), sessions,
                                    witness_channel=False)
    results = connect_prover("127.0.0.1", port, BaselineProver(),
                             stream.derive("net"), sessions)
    t.join()
    stats, _ = box["result"]
    lo, hi = stats.ci
    assert lo <= 0.75 <= hi
    assert sum(1 for r in results if r["success"]) == stats.successes


def test_classical_prover_against_witness_channel(stream, desk):
    """A verifier with the witness channel open serves classical provers
    too: they do not ask for the witness, and the sessions match the
    in-process runs."""
    sessions = 3
    port, t, box = _serve_in_thread(desk, stream.derive("net"), sessions,
                                    witness_channel=True)
    connect_prover("127.0.0.1", port, BaselineProver(),
                   stream.derive("net"), sessions, timeout=10)
    t.join()
    assert "error" not in box
    _, transcripts = box["result"]
    local = [run_single_trial(desk, BaselineProver(),
                              stream.derive("net").derive("trial", i))
             for i in range(sessions)]
    assert [transcript_to_json(t) for t in transcripts] == \
           [transcript_to_json(t) for t in local]


def test_session_deadline_bounds_a_client_slow_on_every_frame(stream,
                                                              desk):
    """The timeout bounds a whole session, not each frame: a classical
    client that waits 0.25 s before each of its frames, every wait inside
    the 0.3 s timeout, is past the session's deadline by its second frame.
    The verifier answers with a `timeout` error frame, and the next
    session is served as in process."""
    net = stream.derive("net")
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def serve():
        with srv:
            box["result"] = serve_verifier(srv, desk, net, 2, timeout=0.3)

    t = _Daemon(serve, srv)
    frames = [("hello", {"role": "prover", "version": PROTOCOL_VERSION,
                         "witness": False}),
              ("response1", _response1(desk)), ("response2", {"d_prime": 0})]
    with socket.create_connection(srv.getsockname(), timeout=10) as sock:
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        for msg_type, payload in frames:
            time.sleep(0.25)
            with contextlib.suppress(OSError):  # the verifier hung up
                send_message(sock, make_message(msg_type, payload))
            reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
            if reply["type"] == "error":
                break
            assert reply["type"] == {"hello": "setup",
                                     "response1": "challenge"}[msg_type]
    result = prover_session(*srv.getsockname(), BaselineProver(),
                            net.derive("trial", 1), timeout=10)
    t.join()
    stats, (failed, transcript) = box["result"]
    assert reply["payload"]["code"] == failed.code == "timeout"
    local = run_single_trial(desk, BaselineProver(), net.derive("trial", 1))
    assert transcript_to_json(transcript) == transcript_to_json(local)
    assert result == {"success": local.success, "d": local.d}


def test_session_deadline_bounds_a_verifier_slow_on_every_frame(
        stream, desk, honest_setup):
    """The prover's timeout bounds its whole session too: against a
    verifier that waits 0.25 s before its hello and again before its
    setup, each inside the 0.3 s timeout, the prover sends a `timeout`
    error frame and fails with that code."""
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def slow_verifier():
        conn, _ = srv.accept()
        with conn:
            conn.settimeout(10)
            time.sleep(0.25)
            send_message(conn, make_message("hello", VERIFIER_HELLO))
            recv_message(conn, MAX_FRAME_BYTES, _soon())  # hello
            time.sleep(0.25)
            with contextlib.suppress(OSError):  # the prover hung up
                send_message(conn, make_message("setup", honest_setup))
            box["reply"] = recv_message(conn, MAX_FRAME_BYTES, _soon())
        srv.close()

    t = _Daemon(slow_verifier, srv)
    with pytest.raises(SessionError) as failed:
        prover_session("127.0.0.1", srv.getsockname()[1],
                       HonestQuantumProver(), stream.derive("trial", 0),
                       timeout=0.3)
    t.join()
    assert failed.value.code == "timeout"
    assert box["reply"]["type"] == "error"
    assert box["reply"]["payload"]["code"] == "timeout"


def test_quantum_prover_requires_witness_channel(stream, desk):
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    # without the witness frame the quantum simulator cannot proceed; it
    # either times out waiting for it or fails once the session collapses
    with pytest.raises((SessionError, OSError)):
        prover_session("127.0.0.1", port, HonestQuantumProver(),
                       stream.derive("net").derive("trial", 0), timeout=2)
    t.join()


def test_quantum_prover_reports_missing_witness(stream, desk):
    """A quantum prover facing a closed witness channel tells the verifier
    why it hangs up, so the serving loop records that code rather than a
    torn frame."""
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with pytest.raises(SessionError, match="witness"):
        connect_prover("127.0.0.1", port, HonestQuantumProver(),
                       stream.derive("net"), 2, timeout=10)
    t.join(timeout=10)
    stats, (failed,) = box["result"]
    assert failed.code == "no-witness"
    assert (stats.successes, stats.trials) == (0, 1)


def test_out_of_order_message_gets_error_frame(stream, desk):
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, make_message("hello", {"role": "prover",
                                                  "version": PROTOCOL_VERSION}))
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "setup"
        # jump straight to round 2: the verifier must refuse
        send_message(sock, make_message("response2", {"d_prime": 0}))
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
        assert reply["type"] == "error"
        assert reply["payload"]["code"] == "protocol-order"
    t.join()
    assert box["result"][1][0].code == "protocol-order"


def test_version_mismatch_rejected(stream, desk):
    # 2 is the last version that sent one decimal string per Z_q entry
    for version in (999, 2):
        port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                        witness_channel=False)
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            send_message(sock, make_message("hello", {"role": "prover",
                                                      "version": version}))
            reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
            # server's own hello arrives first, then the error
            if reply["type"] == "hello":
                reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
            assert reply["type"] == "error"
            assert reply["payload"]["code"] == "version-mismatch"
        t.join()


def test_bad_dimensions_rejected(stream, desk):
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, make_message("hello", {"role": "prover",
                                                  "version": PROTOCOL_VERSION}))
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "setup"
        send_message(sock, make_message(
            "response1", {"y": encode_vector(np.array([1, 2])),
                          "u": encode_bits(np.array([0, 1]))}))
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
        assert reply["type"] == "error"
        assert reply["payload"]["code"] == "bad-dimensions"
    t.join()


def _open_session(port, witness=False):
    """Play the prover's side by hand up to the setup frame; returns the
    socket and the raw setup frame body."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    send_message(sock, make_message("hello", {"role": "prover",
                                              "version": PROTOCOL_VERSION,
                                              "witness": witness}))
    assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
    (length,) = struct.unpack(">I", _recv_exact(sock, 4, None))
    return sock, _recv_exact(sock, length, None)


def _response1(desk):
    return {"y": encode_vector(np.zeros(desk.m, dtype=np.int64)),
            "u": encode_bits(np.zeros(desk.nQ, dtype=np.int64))}


def _last_entry_q(desk, length):
    """An encoded vector whose last entry is q, just outside Z_q."""
    v = np.zeros(length, dtype=np.int64)
    v[-1] = desk.q
    return encode_vector(v)


@pytest.mark.parametrize("make_payload, code", [
    (lambda d: {**_response1(d), "y": _last_entry_q(d, d.m)}, "bad-encoding"),
    (lambda d: {"y": _response1(d)["y"]}, "bad-encoding"),
    (lambda d: {**_response1(d), "y": ["0"] * d.m}, "bad-encoding"),
    (lambda d: {**_response1(d), "y": "A" * (8 * d.m)}, "bad-encoding"),
    (lambda d: {**_response1(d), "u": "0120"}, "bad-encoding"),
], ids=["entry-ge-q", "missing-key", "wrong-type", "string-for-array",
        "non-bit"])
def test_undecodable_response1_gets_error_frame(stream, desk, make_payload,
                                                code):
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    sock, _ = _open_session(port)
    with sock:
        send_message(sock, make_message("response1", make_payload(desk)))
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
    t.join()
    assert reply["type"] == "error"
    assert reply["payload"]["code"] == code
    assert box["result"][1][0].code == code


def test_setup_frame_size(stream, desk):
    """Raw int64 sections keep an honest desk setup frame, witness
    included, near its 17 KB of array entries: 22.6 KB when each array was
    base64 in the JSON, 31.6 KB with one decimal string per entry."""
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=True)
    sock, body = _open_session(port, witness=True)
    with sock:
        setup = parse_frame(body)["payload"]
        assert WITNESS_LABEL in setup
        assert len(body) + 4 <= 18_000
        send_message(sock, make_message("response1", _response1(desk)))
        send_message(sock, make_message("response2", {"d_prime": 0}))
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
        assert reply["type"] == "challenge"
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "result"
    t.join()
    assert "error" not in box


@pytest.mark.parametrize("body", [None, 1, 256 * 1024],
                         ids=["header-alone", "1B-over", "256KiB-over"])
def test_response1_over_its_cap_is_refused_unread(stream, desk, body):
    """The response1 cap is the verifier's own y and u plus
    SMALL_FRAME_BYTES.  A header announcing one byte more, alone, gets a
    `bad-encoding` error frame without the verifier waiting for a body; a
    whole frame `body` bytes past the cap gets it too, and then a clean
    hang-up rather than a reset, as the verifier drops the unread body
    before it closes."""
    cap = network._frame_cap("response1", desk)
    honest = len(dump_frame(make_message("response1", _response1(desk))))
    assert honest <= cap < honest + SMALL_FRAME_BYTES
    frame = struct.pack(">I", cap + 1)
    if body is not None:
        padded = {**_response1(desk), "pad": ""}
        base = len(dump_frame(make_message("response1", padded))) - 4
        padded["pad"] = "x" * (cap + body - base)
        frame = dump_frame(make_message("response1", padded))
        assert len(frame) - 4 == cap + body
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    sock, _ = _open_session(port)
    with sock:
        sock.sendall(frame)
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
        hang_up = sock.recv(1)      # a reset raises ConnectionResetError
    t.join(timeout=10)
    assert not t.is_alive()
    assert reply["type"] == "error"
    assert reply["payload"]["code"] == "bad-encoding"
    assert hang_up == b""
    assert box["result"][1][0].code == "bad-encoding"


def test_setup_over_its_cap_is_refused_unread(stream):
    """The setup cap holds the largest key, ciphertext and witness the
    setup bounds admit; a header announcing one byte more gets a
    `bad-encoding` error frame without the prover waiting for a body."""
    largest = network._LARGEST
    m, n = largest.m, largest.n

    def zeros(*shape):
        return encode_vector(np.zeros(shape, dtype=np.int64))
    setup = {"lambda": largest.lam, "n": n, "q": str(largest.q),
             "sigma": largest.sigma,
             "pk": {"A": zeros(m, n), "v": zeros(m)},
             "ct": {"a": zeros(n), "w": str(largest.q - 1)},
             WITNESS_LABEL: {"s": zeros(n), "e": zeros(m)}}
    size = len(dump_frame(make_message("setup", setup)))
    assert size <= network.SETUP_FRAME_BYTES < size + SMALL_FRAME_BYTES
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def fake_verifier():
        conn, _ = srv.accept()
        with conn:
            conn.settimeout(10)
            recv_message(conn, MAX_FRAME_BYTES, _soon())  # hello
            send_message(conn, make_message("hello", VERIFIER_HELLO))
            conn.sendall(struct.pack(">I", network.SETUP_FRAME_BYTES + 1))
            box["reply"] = recv_message(conn, MAX_FRAME_BYTES, _soon())
        srv.close()

    t = _Daemon(fake_verifier, srv)
    with pytest.raises(SessionError, match="over the cap") as failed:
        prover_session("127.0.0.1", srv.getsockname()[1],
                       HonestQuantumProver(), stream, timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert failed.value.code == "bad-encoding"
    assert box["reply"]["type"] == "error"
    assert box["reply"]["payload"]["code"] == "bad-encoding"


def test_every_cap_admits_an_error_frame(desk):
    """An error frame may arrive in place of any frame, so the longest one
    fits under the cap of every type."""
    longest = max(len(dump_frame(make_message("error", {"code": code})))
                  for code in network.ERROR_CODES)
    assert longest - 4 <= min(
        network._frame_cap(msg_type, desk) for msg_type in MESSAGE_TYPES)


@pytest.fixture
def honest_setup(stream, desk):
    """One honest setup payload with the witness, as a verifier sends it."""
    port, t, _ = _serve_in_thread(desk, stream.derive("setup"), 1,
                                  witness_channel=True)
    sock, body = _open_session(port, witness=True)
    sock.close()
    t.join()
    return _owned(parse_frame(body)["payload"])


def test_setup_holds_only_what_the_prover_reads(honest_setup):
    """The setup frame carries the scalars, the key, the ciphertext and,
    on the witness channel, the witness; nothing that `_setup` skips."""
    assert honest_setup.keys() == {"lambda", "n", "q", "sigma", "pk", "ct",
                                   WITNESS_LABEL}
    assert honest_setup["pk"].keys() == {"A", "v"}
    assert honest_setup["ct"].keys() == {"a", "w"}


def _owned(obj):
    """`obj` with each section, a view of its frame's buffer, copied out
    to bytes, so that a test can deep-copy it and send it again."""
    if isinstance(obj, memoryview):
        return bytes(obj)
    if isinstance(obj, dict):
        return {key: _owned(value) for key, value in obj.items()}
    return obj


DELETE = object()


@pytest.mark.parametrize("path, value, code", [
    (("pk", "v"), DELETE, "bad-encoding"),
    (("n",), DELETE, "bad-encoding"),
    (("pk", "A"), [["1"]], "bad-encoding"),
    (("n",), [4], "bad-encoding"),
    (("ct", "a"), "AAAAAAAAAAA=", "bad-encoding"),
    (("ct", "w"), "-1", "bad-encoding"),
    (("ct", "w"), 3.5, "bad-encoding"),
    (("n",), True, "bad-encoding"),
    (("lambda",), 4.0, "bad-encoding"),
    (("q",), lambda d: f" {d.q}", "bad-encoding"),
    (("sigma",), float("nan"), "bad-encoding"),
    (("pk", "v"), lambda d: _last_entry_q(d, d.m), "bad-encoding"),
    ((WITNESS_LABEL, "e"), lambda d: _last_entry_q(d, d.m), "bad-encoding"),
    (("pk", "A"), lambda d: encode_matrix(
        np.zeros((d.m - 1, d.n), dtype=np.int64)), "bad-dimensions"),
    ((WITNESS_LABEL, "s"), lambda d: encode_vector(
        np.zeros(d.n, dtype=np.int64)), "bad-encoding"),
    (("ct", "w"), bytes(8), "bad-encoding"),
    (("q",), lambda d: encode_vector([d.q]), "bad-encoding"),
    (("n",), bytes(8), "bad-encoding"),
], ids=["missing-v", "missing-n", "wrong-type-A", "wrong-type-n",
        "string-for-array", "w-out-of-range", "w-float", "n-bool",
        "lambda-float", "q-padded", "sigma-nan", "entry-ge-q",
        "witness-entry-ge-q", "wrong-shape", "witness-s-zero", "w-section",
        "q-section", "n-section"])
def test_undecodable_setup_gets_error_frame(stream, desk, honest_setup,
                                            path, value, code):
    """A prover that cannot decode the setup frame tells the verifier why
    and ends the session with SessionError."""
    setup = copy.deepcopy(honest_setup)
    *parents, last = path
    inner = functools.reduce(dict.__getitem__, parents, setup)
    if value is DELETE:
        del inner[last]
    else:
        inner[last] = value(desk) if callable(value) else value
    srv = open_server_socket("127.0.0.1", 0)
    port = srv.getsockname()[1]
    box = {}

    def fake_verifier():
        conn, _ = srv.accept()
        with conn:
            conn.settimeout(10)
            recv_message(conn, MAX_FRAME_BYTES, _soon())  # hello
            send_message(conn, make_message(
                "hello", {"role": "verifier", "version": PROTOCOL_VERSION}))
            send_message(conn, make_message("setup", setup))
            box["reply"] = recv_message(conn, MAX_FRAME_BYTES, _soon())
        srv.close()

    t = _Daemon(fake_verifier, srv)
    with pytest.raises(SessionError, match=code):
        prover_session("127.0.0.1", port, HonestQuantumProver(),
                       stream.derive("trial", 0), timeout=10)
    t.join()
    assert box["reply"]["type"] == "error"
    assert box["reply"]["payload"]["code"] == code


def test_hello_with_list_payload_is_a_wire_error(stream, desk):
    """A hello whose payload is not an object, which `parse_frame`
    refuses, ends the verifier's session with `bad-encoding`, not an
    AttributeError from reading it."""
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, {"type": "hello",
                            "protocol_version": PROTOCOL_VERSION,
                            "payload": ["prover", PROTOCOL_VERSION]})
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
    t.join(timeout=10)
    assert not t.is_alive()
    assert box["result"][1][0].code == "bad-encoding"


def _split(frame: bytes):
    """A v4 frame's JSON envelope, as a dict, and the bytes after it."""
    body = frame[4:]
    envelope, end = json.JSONDecoder().raw_decode(body.decode("latin-1"))
    return envelope, body[end:]


def _markers(obj):
    if isinstance(obj, dict):
        if obj.keys() == {"section"}:
            yield obj
        for value in obj.values():
            yield from _markers(value)


def _hostile(frame: bytes, layout: str) -> bytes:
    """`frame` with its section layout broken as `layout` says."""
    envelope, tail = _split(frame)
    table = envelope["sections"]
    if layout == "sections-short":
        tail = tail[:-8]
    elif layout == "sections-long":
        tail += bytes(8)
    elif layout == "no-table":
        del envelope["sections"]
    elif layout == "index-out-of-range":
        next(_markers(envelope))["section"] = len(table)
    elif layout == "used-twice":
        envelope["payload"]["pad"] = {"section": len(table) - 1}
    elif layout == "never-used":
        table.append(8)
        tail += bytes(8)
    elif layout == "not-int64-aligned":
        table[-1] += 3
        tail += bytes(3)
    body = json.dumps(envelope).encode() + tail
    return struct.pack(">I", len(body)) + body


HOSTILE_LAYOUTS = pytest.mark.parametrize("layout", [
    "sections-short", "sections-long", "no-table", "index-out-of-range",
    "used-twice", "never-used", "not-int64-aligned"])


@HOSTILE_LAYOUTS
def test_hostile_response1_layout_gets_error_frame(stream, desk, layout):
    """A response1 whose sections do not match its table, or whose markers
    do not use each section once, gets a `bad-encoding` error frame; the
    session's slot holds that code, and the serve ends normally."""
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    sock, _ = _open_session(port)
    with sock:
        sock.sendall(_hostile(dump_frame(
            make_message("response1", _response1(desk))), layout))
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
    t.join()
    assert "error" not in box
    assert reply["payload"]["code"] == "bad-encoding"
    assert box["result"][1][0].code == "bad-encoding"


@HOSTILE_LAYOUTS
def test_hostile_setup_layout_gets_error_frame(stream, honest_setup, layout):
    """A setup whose sections do not match its table, or whose markers do
    not use each section once, ends the prover's session with
    SessionError `bad-encoding`, and the verifier gets that error frame."""
    frame = _hostile(dump_frame(make_message("setup", honest_setup)), layout)
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def fake_verifier():
        conn, _ = srv.accept()
        with conn:
            conn.settimeout(10)
            recv_message(conn, MAX_FRAME_BYTES, _soon())  # hello
            send_message(conn, make_message("hello", VERIFIER_HELLO))
            conn.sendall(frame)
            box["reply"] = recv_message(conn, MAX_FRAME_BYTES, _soon())
        srv.close()

    t = _Daemon(fake_verifier, srv)
    with pytest.raises(SessionError) as failed:
        prover_session("127.0.0.1", srv.getsockname()[1],
                       HonestQuantumProver(), stream.derive("trial", 0),
                       timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert failed.value.code == "bad-encoding"
    assert box["reply"]["payload"]["code"] == "bad-encoding"


def _v3_hello(role: str) -> bytes:
    """A hello frame as a version-3 peer sends it: one plain JSON body."""
    body = (b'{"payload":{"role":"' + role.encode()
            + b'","version":3,"witness":false},"protocol_version":3,'
            b'"type":"hello"}')
    return struct.pack(">I", len(body)) + body


def test_v3_prover_gets_version_mismatch(stream, desk):
    """A version-3 prover's hello, plain JSON as v4 keeps every frame
    without arrays, reaches the verifier's version check and gets
    `version-mismatch`, not `bad-encoding`."""
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(_v3_hello("prover"))
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
    t.join()
    assert reply["payload"]["code"] == "version-mismatch"
    assert box["result"][1][0].code == "version-mismatch"


def test_v3_verifier_gets_version_mismatch(stream):
    """A version-3 verifier's hello gets `version-mismatch` from a v4
    prover, which ends its session with that code."""
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def old_verifier():
        conn, _ = srv.accept()
        with conn:
            conn.settimeout(10)
            recv_message(conn, MAX_FRAME_BYTES, _soon())  # hello
            conn.sendall(_v3_hello("verifier"))
            box["reply"] = recv_message(conn, MAX_FRAME_BYTES, _soon())
        srv.close()

    t = _Daemon(old_verifier, srv)
    with pytest.raises(SessionError) as failed:
        prover_session("127.0.0.1", srv.getsockname()[1], BaselineProver(),
                       stream, timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert failed.value.code == "version-mismatch"
    assert box["reply"]["payload"]["code"] == "version-mismatch"


def test_readme_states_the_wire_version_and_desk_caps():
    """README's wire section gives the protocol version and, per message
    type, the cap at desk that `network._frame_cap` computes."""
    text = (ROOT / "README.md").read_text()
    (version,) = re.findall(r"The wire protocol is at version (\d+)\.", text)
    assert int(version) == PROTOCOL_VERSION
    caps = text[text.index("| message expected | cap | at desk |"):]
    rows = re.findall(r"^\| `(\w+)`.*\| ([\d,]+) B[^|]*\|$",
                      caps[:caps.index("\n\n")], re.MULTILINE)
    desk = desk_preset()
    assert [name for name, _ in rows] == ["hello", "response1", "setup"]
    for name, figure in rows:
        assert int(figure.replace(",", "")) == network._frame_cap(name, desk)
    assert f"{network.SETUP_FRAME_BYTES:,} B" in caps


def test_nesting_past_the_stack_gets_error_frame(stream, desk):
    """A hello of 1,000 nested JSON lists, under the 1,024-byte cap, gets
    a `bad-encoding` error frame: the decoder's RecursionError does not
    end the serve, and the next session is served as in process."""
    net = stream.derive("net")
    port, t, box = _serve_in_thread(desk, net, 2, witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(struct.pack(">I", 1000) + b"[" * 1000)
        assert recv_message(sock, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        reply = recv_message(sock, MAX_FRAME_BYTES, _soon())
    prover_session("127.0.0.1", port, BaselineProver(),
                   net.derive("trial", 1), timeout=10)
    t.join()
    assert "error" not in box
    stats, (failed, transcript) = box["result"]
    assert reply["payload"]["code"] == failed.code == "bad-encoding"
    local = run_single_trial(desk, BaselineProver(), net.derive("trial", 1))
    assert transcript_to_json(transcript) == transcript_to_json(local)


BAD_BITS = pytest.mark.parametrize("value, code", [
    ("x", "bad-encoding"), (1.7, "bad-encoding"), (True, "bad-encoding"),
    (None, "bad-encoding"), (2, "bad-bit"), (-1, "bad-bit"),
    (encode_vector([1]), "bad-encoding"),
], ids=["str", "float", "bool", "null", "two", "minus-one", "section"])


@BAD_BITS
def test_response2_bit_is_read_strictly(stream, desk, value, code):
    """The verifier, driven by hand over a socketpair, answers a d' that is
    not the JSON integer 0 or 1 with an error frame and SessionError."""
    conn, peer = socket.socketpair()
    conn.settimeout(10)
    peer.settimeout(10)
    box = {}

    def verifier():
        try:
            box["result"] = verifier_session(conn, desk, stream)
        except Exception as exc:  # surfaced via box
            box["error"] = exc
        finally:
            conn.close()

    t = _Daemon(verifier)
    with peer:
        send_message(peer, make_message("hello", {"role": "prover",
                                                  "version": PROTOCOL_VERSION}))
        assert recv_message(peer, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        assert recv_message(peer, MAX_FRAME_BYTES, _soon())["type"] == "setup"
        send_message(peer, make_message("response1", _response1(desk)))
        reply = recv_message(peer, MAX_FRAME_BYTES, _soon())
        assert reply["type"] == "challenge"
        send_message(peer, make_message("response2", {"d_prime": value}))
        reply = recv_message(peer, MAX_FRAME_BYTES, _soon())
    t.join(timeout=10)
    assert not t.is_alive()
    assert reply["type"] == "error"
    assert reply["payload"]["code"] == code
    assert isinstance(box["error"], SessionError)
    assert code in str(box["error"])


@BAD_BITS
def test_challenge_bit_is_read_strictly(stream, desk, honest_setup, value,
                                        code):
    """The prover, facing a verifier played by hand, answers a b' that is
    not the JSON integer 0 or 1 with an error frame and SessionError."""
    srv = open_server_socket("127.0.0.1", 0)
    port = srv.getsockname()[1]
    box = {}

    def fake_verifier():
        conn, _ = srv.accept()
        with conn:
            conn.settimeout(10)
            recv_message(conn, MAX_FRAME_BYTES, _soon())  # hello
            send_message(conn, make_message(
                "hello", {"role": "verifier", "version": PROTOCOL_VERSION}))
            send_message(conn, make_message("setup", honest_setup))
            recv_message(conn, MAX_FRAME_BYTES, _soon())  # response1
            send_message(conn, make_message("challenge", {"b_prime": value}))
            box["reply"] = recv_message(conn, MAX_FRAME_BYTES, _soon())
        srv.close()

    t = _Daemon(fake_verifier, srv)
    with pytest.raises(SessionError, match=code):
        prover_session("127.0.0.1", port, BaselineProver(),
                       stream.derive("trial", 0), timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert box["reply"]["type"] == "error"
    assert box["reply"]["payload"]["code"] == code


def _assert_setup_refused(setup):
    """The prover's read of `setup` ends with SessionError `bad-encoding`,
    and the verifier's end gets an error frame with that code."""
    conn, peer = socket.socketpair()
    with conn, peer:
        conn.settimeout(10)
        peer.settimeout(10)
        send_message(peer, make_message("setup", setup))
        with pytest.raises(SessionError, match="bad-encoding") as refused:
            network._receive(conn, "setup", _soon(), True)
        reply = recv_message(peer, MAX_FRAME_BYTES, _soon())
    assert refused.value.code == "bad-encoding"
    assert reply["type"] == "error"
    assert reply["payload"]["code"] == "bad-encoding"


@pytest.mark.parametrize("key, bound", [
    ("n", MAX_N), ("sigma", MAX_SIGMA), ("lambda", MAX_LAMBDA),
])
def test_setup_scalar_over_its_bound_is_refused(desk, honest_setup, key,
                                                bound):
    """A prover refuses `bad-encoding` to a setup whose n, sigma or lambda
    is over the bound Params holds every parameter set to; the desk preset
    sits far inside every bound."""
    assert {"n": desk.n, "sigma": desk.sigma, "lambda": desk.lam}[key] \
        * 8 <= bound
    _assert_setup_refused(dict(honest_setup, **{key: bound + 1}))
    if key != "n":  # n sizes the key, so only these decode at the bound
        pk, _, _ = network._DECODERS["setup"](
            dict(honest_setup, **{key: bound}), True)
        assert {"sigma": pk.params.sigma, "lambda": pk.params.lam}[key] \
            == bound


@pytest.mark.parametrize("lam", [0, -5])
def test_setup_lambda_below_one_is_refused(honest_setup, lam):
    """A setup whose lambda is not positive gets a `bad-encoding` error
    frame, and the prover's read ends with SessionError."""
    _assert_setup_refused(dict(honest_setup, **{"lambda": lam}))


def test_every_message_type_has_a_decoder():
    """Each frame is read through its type's decoder, so a new message type
    cannot be received unchecked."""
    assert network._DECODERS.keys() == MESSAGE_TYPES


def _verifier_on_socketpair(desk, stream):
    """A live verifier_session on one end of a socketpair; returns the other
    end, the verifier's thread and the box its result or error lands in."""
    conn, peer = socket.socketpair()
    conn.settimeout(10)
    peer.settimeout(10)
    box = {}

    def verifier():
        try:
            box["result"] = verifier_session(conn, desk, stream)
        except Exception as exc:  # surfaced via box
            box["error"] = exc
        finally:
            conn.close()

    t = _Daemon(verifier)
    return peer, t, box


@pytest.mark.parametrize("hello", [
    {"witness": "yes"}, {"witness": 1}, {"role": "verifier"}, {"role": None},
], ids=["witness-str", "witness-int", "role-verifier", "role-null"])
def test_verifier_reads_hello_strictly(stream, desk, hello):
    """A prover's hello whose role is not "prover", or whose witness request
    is not a JSON bool, gets `bad-encoding` and ends the session."""
    peer, t, box = _verifier_on_socketpair(desk, stream)
    with peer:
        send_message(peer, make_message("hello", {
            "role": "prover", "version": PROTOCOL_VERSION, **hello}))
        assert recv_message(peer, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        reply = recv_message(peer, MAX_FRAME_BYTES, _soon())
    t.join(timeout=10)
    assert not t.is_alive()
    assert reply["type"] == "error"
    assert reply["payload"]["code"] == "bad-encoding"
    assert isinstance(box["error"], SessionError)
    assert "bad-encoding" in str(box["error"])


def test_refused_frame_gets_error_frame(stream, desk):
    """A frame that parse_frame refuses gets a `bad-encoding` error frame,
    and the verifier's session ends with that code."""
    peer, t, box = _verifier_on_socketpair(desk, stream)
    with peer:
        send_message(peer, {"type": "hello",
                            "protocol_version": PROTOCOL_VERSION,
                            "payload": ["prover", PROTOCOL_VERSION]})
        assert recv_message(peer, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        reply = recv_message(peer, MAX_FRAME_BYTES, _soon())
    t.join(timeout=10)
    assert not t.is_alive()
    assert reply["type"] == "error"
    assert reply["payload"]["code"] == "bad-encoding"
    assert box["error"].code == "bad-encoding"


@pytest.mark.parametrize("code, kept", [
    ("no-witness", "no-witness"), ("timeout", "timeout"),
    ("made-up", "bad-encoding"), (None, "bad-encoding"),
    (["bad-bit"], "bad-encoding"),
], ids=["no-witness", "timeout", "unknown", "null", "list"])
def test_peer_error_frame_ends_the_session_unanswered(code, kept):
    """A peer's error frame ends the session with the peer's code, if it
    is one of the codes this module sends, else with `bad-encoding`; it
    is never answered with an error frame."""
    conn, peer = socket.socketpair()
    with conn, peer:
        peer.settimeout(10)
        send_message(peer, make_message("error", {"code": code}))
        with pytest.raises(SessionError) as failed:
            network._receive(conn, "response2", _soon())
        conn.close()
        assert peer.recv(1) == b""
    assert failed.value.code == kept


def _reset(sock):
    """Close `sock` with SO_LINGER 0, so that the peer gets a reset."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


def test_reset_mid_frame_ends_the_prover_session(stream):
    """A verifier that resets the connection part way through its setup
    frame ends the prover's session with `bad-encoding`, not a raw
    ConnectionResetError."""
    srv = open_server_socket("127.0.0.1", 0)

    def fake_verifier():
        conn, _ = srv.accept()
        conn.settimeout(10)
        recv_message(conn, MAX_FRAME_BYTES, _soon())  # hello
        send_message(conn, make_message("hello", VERIFIER_HELLO))
        conn.sendall(struct.pack(">I", 1000) + b'{"type"')
        time.sleep(0.2)     # let the prover read the partial frame
        _reset(conn)
        srv.close()

    t = _Daemon(fake_verifier, srv)
    with pytest.raises(SessionError) as failed:
        prover_session("127.0.0.1", srv.getsockname()[1], BaselineProver(),
                       stream, timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert failed.value.code == "bad-encoding"


def test_read_timeout_sends_and_raises_timeout(stream, desk):
    """A verifier whose read times out sends a `timeout` error frame and
    ends the session with that code, in a lone session too."""
    conn, peer = socket.socketpair()
    with conn, peer:
        conn.settimeout(0.2)
        peer.settimeout(10)
        with pytest.raises(SessionError) as failed:
            verifier_session(conn, desk, stream)
        assert recv_message(peer, MAX_FRAME_BYTES, _soon())["type"] == "hello"
        reply = recv_message(peer, MAX_FRAME_BYTES, _soon())
    assert failed.value.code == "timeout"
    assert reply["payload"]["code"] == "timeout"


def test_failed_send_ends_the_session():
    """A send to a peer that has gone is `bad-encoding`, and one that
    does not finish by the session's deadline, or starts past it, is
    `timeout`; none raises an OSError."""
    conn, peer = socket.socketpair()
    with conn:
        peer.close()
        with pytest.raises(SessionError) as failed:
            network._send(conn, "challenge", {"b_prime": 0}, _soon())
    assert failed.value.code == "bad-encoding"
    conn, peer = socket.socketpair()
    with conn, peer:
        with pytest.raises(SessionError) as failed:   # the peer never reads
            network._send(conn, "response1", {"pad": "x" * (4 << 20)},
                          time.monotonic() + 0.2)
    assert failed.value.code == "timeout"
    conn, peer = socket.socketpair()
    with conn, peer:
        peer.settimeout(0.2)
        with pytest.raises(SessionError) as failed:
            network._send(conn, "challenge", {"b_prime": 0},
                          time.monotonic() - 1)
        with pytest.raises(TimeoutError):   # nothing was sent
            peer.recv(1)
    assert failed.value.code == "timeout"


def _verifier_by_hand(turns):
    """A verifier played by hand on a loopback port.  After each frame the
    prover sends it sends the next turn's (type, payload) frames; then it
    keeps the prover's next frame in box["reply"]."""
    srv = open_server_socket("127.0.0.1", 0)
    box = {}

    def run():
        conn, _ = srv.accept()
        # a prover that hangs up early ends the turns, and leaves no reply
        with conn, contextlib.suppress(WireError, OSError):
            conn.settimeout(10)
            for frames in turns:
                recv_message(conn, MAX_FRAME_BYTES, _soon())
                for msg_type, payload in frames:
                    send_message(conn, make_message(msg_type, payload))
            box["reply"] = recv_message(conn, MAX_FRAME_BYTES, _soon())
        srv.close()

    return srv.getsockname()[1], _Daemon(run, srv), box


VERIFIER_HELLO = {"role": "verifier", "version": PROTOCOL_VERSION}


@pytest.mark.parametrize("msg_type, payload, code", [
    ("hello", {**VERIFIER_HELLO, "role": "prover"}, "bad-encoding"),
    ("hello", {**VERIFIER_HELLO, "witness": "yes"}, "bad-encoding"),
    ("result", {"success": "x", "d": 0}, "bad-encoding"),
    ("result", {"success": True}, "bad-encoding"),
    ("result", {"success": True, "d": 2}, "bad-bit"),
], ids=["hello-role", "hello-witness", "result-success-str",
        "result-d-missing", "result-d-two"])
def test_prover_reads_hello_and_result_strictly(stream, desk, honest_setup,
                                                msg_type, payload, code):
    """The prover answers a verifier hello with the wrong role or witness
    field, or a result whose `success` is not a JSON bool or whose `d` is
    not a bit, with an error frame and SessionError."""
    turns = [[("hello", payload)]]
    if msg_type == "result":
        turns = [[("hello", VERIFIER_HELLO), ("setup", honest_setup)],
                 [("challenge", {"b_prime": 0})],
                 [("result", payload)]]
    port, t, box = _verifier_by_hand(turns)
    with pytest.raises(SessionError, match=code):
        prover_session("127.0.0.1", port, BaselineProver(),
                       stream.derive("trial", 0), timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert box["reply"]["type"] == "error"
    assert box["reply"]["payload"]["code"] == code


_KEYS = st.text(max_size=6).filter(lambda k: k not in SECRET_FIELDS)
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=12)
    | st.integers(-2**70, 2**70),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=6)


def _values(desk):
    """Payload values: any JSON, integers past 2^63, arrays and bit
    strings of the wrong length, and sections of any length."""
    return (_JSON
            | st.integers(2**63, 2**80) | st.integers(-2**80, -2**63 - 1)
            | st.integers(0, 2 * desk.m).map(
                lambda k: encode_vector(np.ones(k, dtype=np.int64)))
            | st.integers(0, 2 * desk.nQ).map(lambda k: "1" * k)
            | st.binary(max_size=40))


def _fuzz_verifier(desk, stream):
    replies = {"setup": "response1", "challenge": "response2"}

    @settings(max_examples=250, deadline=None, database=None)
    @given(data=st.data())
    def session(data):
        frames = {"hello": {"role": "prover", "version": PROTOCOL_VERSION,
                            "witness": False},
                  "response1": _response1(desk),
                  "response2": {"d_prime": 0}}
        target = data.draw(st.sampled_from(sorted(frames)))
        payload = frames[target]
        how = data.draw(st.sampled_from(["drop", "set", "replace"]))
        if how == "drop":
            del payload[data.draw(st.sampled_from(sorted(payload)))]
        elif how == "set":
            key = data.draw(st.sampled_from(sorted(payload)) | _KEYS)
            payload[key] = data.draw(_values(desk))
        else:
            frames[target] = data.draw(
                st.dictionaries(_KEYS, _values(desk), max_size=4))
        peer, t, box = _verifier_on_socketpair(desk, stream)
        with peer:
            send_message(peer, make_message("hello", frames["hello"]))
            while True:     # answer until the verifier hangs up
                try:
                    msg_type = recv_message(peer, MAX_FRAME_BYTES,
                                            _soon())["type"]
                except WireError:
                    break
                if msg_type in replies:
                    send_message(peer, make_message(
                        replies[msg_type], frames[replies[msg_type]]))
        t.join(timeout=10)
        assert not t.is_alive()
        assert "result" in box or isinstance(box["error"],
                                             (WireError, SessionError))

    session()


def test_fuzzed_frames_only_end_the_session(stream, desk):
    """Mutated hello, response1 and response2 payloads (dropped keys,
    swapped types, arbitrary text, wrong shapes, integers past 2^63) end
    a live verifier's session with WireError or SessionError only, and a
    fresh session afterwards still gives the in-process transcript."""
    _fuzz_verifier(desk, stream.derive("fuzz"))
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    connect_prover("127.0.0.1", port, BaselineProver(),
                   stream.derive("net"), 1, timeout=10)
    t.join()
    local = run_single_trial(desk, BaselineProver(),
                             stream.derive("net").derive("trial", 0))
    assert transcript_to_json(box["result"][1][0]) == transcript_to_json(local)


def _admitted_setup(params, rng, noise):
    """A well-formed setup at `params`, witness included: a uniform key A
    and ciphertext, and v = A s + e, so the witness opens the key.  The
    error e is zero, small or uniform mod q, as `noise` says."""
    q, n, m = params.q, params.n, params.m
    A = rng.integers(0, q, size=(m, n), dtype=np.int64)
    s = rng.integers(0, q, size=n, dtype=np.int64)
    e = {"zero": np.zeros(m, dtype=np.int64),
         "small": rng.integers(-2, 3, size=m) % q,
         "uniform": rng.integers(0, q, size=m, dtype=np.int64)}[noise]
    v = np.array([(sum(int(a) * int(x) for a, x in zip(row, s)) + int(err))
                  % q for row, err in zip(A, e)], dtype=np.int64)
    a = rng.integers(0, q, size=n, dtype=np.int64)
    return {"lambda": params.lam, "n": n, "q": str(q),
            "sigma": params.sigma,
            "pk": {"A": encode_matrix(A), "v": encode_vector(v)},
            "ct": {"a": encode_vector(a), "w": str(int(rng.integers(0, q)))},
            WITNESS_LABEL: {"s": encode_vector(s), "e": encode_vector(e)}}


def _prover_turn(turns, prover, stream):
    """prover_session against `turns` played by hand: its result payload,
    or the SessionError that ended it."""
    port, t, _ = _verifier_by_hand(turns)
    try:
        return prover_session("127.0.0.1", port, prover, stream, timeout=10)
    except SessionError as exc:
        return exc
    finally:
        t.join(timeout=10)


def _fuzz_prover(desk, honest_setup, stream):
    @settings(max_examples=250, deadline=None, database=None)
    @given(data=st.data())
    def session(data):
        if data.draw(st.booleans()):
            params, setup = desk, copy.deepcopy(honest_setup)
        else:
            q = next_prime(data.draw(st.integers(3, (1 << MAX_Q_BITS) - 1)))
            params = Params(lam=data.draw(st.integers(1, MAX_LAMBDA)),
                            n=data.draw(st.integers(1, 8)), q=q,
                            sigma=data.draw(st.floats(1, MAX_SIGMA)))
            setup = _admitted_setup(
                params, np.random.default_rng(data.draw(st.integers(0, 99))),
                data.draw(st.sampled_from(["zero", "small", "uniform"])))
        frames = {"hello": dict(VERIFIER_HELLO), "setup": setup,
                  "challenge": {"b_prime": data.draw(st.integers(0, 1))},
                  "result": {"success": data.draw(st.booleans()),
                             "d": data.draw(st.integers(0, 1))}}
        target = data.draw(st.sampled_from(sorted(frames)))
        payload = frames[target]
        how = data.draw(st.sampled_from(["none", "drop", "set", "replace"]))
        if how == "drop":
            del payload[data.draw(st.sampled_from(sorted(payload)))]
        elif how == "set":
            key = data.draw(st.sampled_from(sorted(payload)) | _KEYS)
            payload[key] = data.draw(_values(params))
        elif how == "replace":
            frames[target] = data.draw(
                st.dictionaries(_KEYS, _values(params), max_size=4))
        turns = [[("hello", frames["hello"]), ("setup", frames["setup"])],
                 [("challenge", frames["challenge"])],
                 [("result", frames["result"])]]
        for name, prover in sorted(PROVERS.items()):
            ended = _prover_turn(turns, prover(), stream.derive(name))
            if isinstance(ended, SessionError):
                assert ended.code in network.ERROR_CODES
            else:   # the result's two fields, whatever else it carries
                assert ended == {key: frames["result"][key]
                                 for key in ("success", "d")}

    session()


def test_fuzzed_verifier_frames_only_end_the_prover_session(
        stream, desk, honest_setup):
    """Mutated hello, setup, challenge and result payloads (dropped keys,
    swapped types, arbitrary text, wrong shapes, integers past 2^63), and
    well-formed setups at random admitted (n, q, sigma, lambda) with
    zero, small or uniform key noise, end every prover's session with its
    result or a SessionError whose code is an error frame's code."""
    _fuzz_prover(desk, honest_setup, stream.derive("fuzz"))


def test_honest_turn_at_the_largest_setup(stream):
    """The honest prover plays a session on the largest setup a verifier
    may send, n = MAX_N at q = 2^61 - 1, well inside a wide bound (tens of
    milliseconds for the turn itself)."""
    params = Params(lam=4, n=MAX_N, q=(1 << MAX_Q_BITS) - 1,
                    sigma=3.0)
    setup = _admitted_setup(params, np.random.default_rng(1), "small")
    result = {"success": True, "d": 0}
    start = time.monotonic()
    ended = _prover_turn([[("hello", VERIFIER_HELLO), ("setup", setup)],
                          [("challenge", {"b_prime": 1})],
                          [("result", result)]],
                         HonestQuantumProver(), stream)
    assert ended == result
    assert time.monotonic() - start < 10
