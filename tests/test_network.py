import socket
import threading

import pytest

from rotated_tcf.network import (SessionError, connect_prover,
                                 open_server_socket, prover_session,
                                 serve_verifier)
from rotated_tcf.protocol_q import (BaselineProver, HonestQuantumProver,
                                    run_single_trial)
from rotated_tcf.transcripts import transcript_to_json
from rotated_tcf.wire import (make_message, recv_message, send_message,
                              PROTOCOL_VERSION)


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

    t = threading.Thread(target=run)
    t.start()
    return port, t, box


def test_loopback_matches_in_process(stream, desk):
    """Same master seed over TCP and in-process: transcripts are identical
    byte for byte."""
    sessions = 6
    port, t, box = _serve_in_thread(desk, stream.derive("net"), sessions,
                                    witness_channel=True)
    connect_prover("127.0.0.1", port, HonestQuantumProver(),
                   stream.derive("net"), sessions)
    t.join()
    stats, transcripts = box["result"]
    local = [run_single_trial(desk, HonestQuantumProver(),
                              stream.derive("net").derive("trial", i))
             for i in range(sessions)]
    assert [transcript_to_json(t) for t in transcripts] == \
           [transcript_to_json(t) for t in local]
    assert stats.successes == sum(t.success for t in local)


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
    why it hangs up, so the serving loop stops on that code rather than on
    a torn frame, before it waits for a second session."""
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 2,
                                    witness_channel=False)
    with pytest.raises(SessionError, match="witness"):
        connect_prover("127.0.0.1", port, HonestQuantumProver(),
                       stream.derive("net"), 2, timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert isinstance(box["error"], SessionError)
    assert "no-witness" in str(box["error"])


def test_out_of_order_message_gets_error_frame(stream, desk):
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, make_message("hello", {"role": "prover",
                                                  "version": PROTOCOL_VERSION}))
        assert recv_message(sock)["type"] == "hello"
        assert recv_message(sock)["type"] == "setup"
        # jump straight to round 2: the verifier must refuse
        send_message(sock, make_message("response2", {"d_prime": 0}))
        reply = recv_message(sock)
        assert reply["type"] == "error"
        assert reply["payload"]["code"] == "protocol-order"
    t.join()
    assert "result" not in box  # the session aborted server-side


def test_version_mismatch_rejected(stream, desk):
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, make_message("hello", {"role": "prover",
                                                  "version": 999}))
        reply = recv_message(sock)
        # server's own hello arrives first, then the error
        if reply["type"] == "hello":
            reply = recv_message(sock)
        assert reply["type"] == "error"
        assert reply["payload"]["code"] == "version-mismatch"
    t.join()


def test_bad_dimensions_rejected(stream, desk):
    port, t, box = _serve_in_thread(desk, stream.derive("net"), 1,
                                    witness_channel=False)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, make_message("hello", {"role": "prover",
                                                  "version": PROTOCOL_VERSION}))
        assert recv_message(sock)["type"] == "hello"
        assert recv_message(sock)["type"] == "setup"
        send_message(sock, make_message("response1", {"y": ["1", "2"],
                                                      "u": [0, 1]}))
        reply = recv_message(sock)
        assert reply["type"] == "error"
        assert reply["payload"]["code"] == "bad-dimensions"
    t.join()
