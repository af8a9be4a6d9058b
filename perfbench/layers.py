"""Per-layer timing from outside the program.

`instrument` rebinds the public names that each module's callers look up
(for example `protocol_q.invert`, `regev.gen_trap`, `rsp.find_preimage`)
to timing wrappers, so the program itself is unchanged.  A name is
rebound in every module that imports it, and only there, so no call is
timed twice.  `layer_metrics` turns the recorded spans into the per-layer
figures the benchmark reports: self time per call in microseconds, or a
count per op.
"""
from __future__ import annotations

import itertools
import socket

from rotated_tcf import (network, protocol_q, puzzle, regev, rsp, sampling,
                         transcripts, trapdoor, wire)

from spans import OP, Tracer, aggregate


def _claw_case(counts, result):
    counts["claw.calls"] += 1
    counts["claw.two_preimage"] += result[0].claw_case == "two-preimage"


def _verdict(counts, result):
    counts["puzzle.verified"] += int(result)


def _abort(counts, result):
    counts["rsp.finish"] += 1
    counts["rsp.aborted"] += bool(result.aborted)


def _json_bytes(counts, result):
    counts["transcripts.bytes"] += len(result) + 1      # plus the newline


def _frame_bytes(counts, result):
    counts["wire.bytes"] += len(result)


class _SocketModule:
    """Stands in for the `socket` module inside `network`, with
    `create_connection` timed; every other name is the real one."""

    def __init__(self, create_connection):
        self.create_connection = create_connection

    def __getattr__(self, name):
        return getattr(socket, name)


def instrument(tracer: Tracer):
    """Rebind the layers' public names to timing wrappers; returns a
    function that restores the originals."""
    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def timed(owner, attr, name, observe=None):
        rebind(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))

    RngStream = sampling.RngStream
    timed(RngStream, "derive", "sampling.derive")
    seed = tracer.wrap("sampling.seed", RngStream.gen.fget)
    rebind(RngStream, "gen",
           property(lambda self: self._gen if self._gen is not None
                    else seed(self)))

    timed(regev, "gen_trap", "trapdoor.gen_trap")
    for mod in (protocol_q, rsp):
        timed(mod, "gen_j", "regev.gen_j")
        timed(mod, "angle_sequence", "ghz.angle_sequence")
        timed(mod, "simulate_ghz_measurement", "ghz.measure")
        timed(mod, "simulate_basis_measurement", "ghz.measure")
    timed(protocol_q, "encrypt_bit", "regev.encrypt")
    timed(rsp, "encrypt_zq", "regev.encrypt")
    for mod in (protocol_q, puzzle, rsp, trapdoor):
        timed(mod, "invert", "trapdoor.invert")
    timed(rsp, "find_preimage", "trapdoor.find_preimage")

    for mod in (protocol_q, puzzle, network):
        timed(mod, "honest_prover_round1", "protocol_q.prover_round1",
              _claw_case)
        timed(mod, "verifier_round1", "protocol_q.verifier_round1")
    for mod in (protocol_q, network):
        timed(mod, "verifier_score", "protocol_q.verifier_score")

    timed(puzzle, "puzzle_G", "puzzle.gen")
    timed(puzzle, "solve_one", "puzzle.solve", _verdict)

    timed(rsp, "rsp_client_round1", "rsp.client_round1")
    timed(rsp, "rsp_server_round", "rsp.server_round")
    timed(rsp, "rsp_client_finish", "rsp.client_finish", _abort)

    timed(protocol_q, "make_transcript", "transcripts.make")
    timed(transcripts, "transcript_to_json", "transcripts.to_json",
          _json_bytes)

    timed(wire, "dump_frame", "wire.dump_frame", _frame_bytes)
    timed(wire, "parse_frame", "wire.parse_frame")
    for attr in ("encode_vector", "encode_matrix", "encode_bits",
                 "decode_vector", "decode_matrix", "decode_bits"):
        timed(network, attr, "wire.codec")

    timed(network, "send_message", "network.send")
    timed(network, "recv_message", "network.recv")
    timed(network, "prover_session", "network.prover_session")
    # Server-side spans join the client's op: sessions are served in the
    # order the single client opens them, so the k-th session is op k.
    session = tracer.wrap("network.verifier_session",
                          network.verifier_session)
    numbers = itertools.count()

    def numbered_session(*args, **kwargs):
        tracer.set_op(next(numbers))
        return session(*args, **kwargs)
    rebind(network, "verifier_session", numbered_session)
    rebind(network, "socket", _SocketModule(
        tracer.wrap("network.connect", socket.create_connection)))

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return restore


# metric -> (span names whose self time is summed, span counted as calls)
SELF_TIME_US = {
    "sampling.derive_us": (("sampling.derive", "sampling.seed"),
                           "sampling.derive"),
    "regev.gen_j_us": (("regev.gen_j",), "regev.gen_j"),
    "trapdoor.gen_trap_us": (("trapdoor.gen_trap",), "trapdoor.gen_trap"),
    "regev.encrypt_us": (("regev.encrypt",), "regev.encrypt"),
    "trapdoor.invert_us": (("trapdoor.invert",), "trapdoor.invert"),
    "trapdoor.find_preimage_us": (("trapdoor.find_preimage",),
                                  "trapdoor.find_preimage"),
    "ghz.cascade_us": (("ghz.angle_sequence", "ghz.measure"),
                       "ghz.angle_sequence"),
    "protocol_q.prover_round1_us": (("protocol_q.prover_round1",),
                                    "protocol_q.prover_round1"),
    "protocol_q.verifier_round1_us": (("protocol_q.verifier_round1",),
                                      "protocol_q.verifier_round1"),
    "protocol_q.verifier_score_us": (("protocol_q.verifier_score",),
                                     "protocol_q.verifier_score"),
    "puzzle.instance_us": (("puzzle.gen", "puzzle.solve"), "puzzle.solve"),
    "rsp.client_round1_us": (("rsp.client_round1",), "rsp.client_round1"),
    "rsp.server_round_us": (("rsp.server_round",), "rsp.server_round"),
    "rsp.client_finish_us": (("rsp.client_finish",), "rsp.client_finish"),
    "transcripts.make_us": (("transcripts.make",), "transcripts.make"),
    "transcripts.to_json_us": (("transcripts.to_json",),
                               "transcripts.to_json"),
    "wire.dump_frame_us": (("wire.dump_frame",), "wire.dump_frame"),
    "wire.parse_frame_us": (("wire.parse_frame",), "wire.parse_frame"),
    "wire.codec_us": (("wire.codec",), "wire.codec"),
    "network.verifier_session_us": (("network.verifier_session",),
                                    "network.verifier_session"),
    "network.prover_session_us": (("network.prover_session",),
                                  "network.prover_session"),
    "network.connect_us": (("network.connect",), "network.connect"),
    "network.recv_wait_us": (("network.recv",), "network.recv"),
}

# metric -> (numerator, denominator, unit): a span name counts its calls,
# any other name is an observer counter; "op" is the number of ops.
RATIOS = {
    "sampling.derive_calls": ("sampling.derive", OP, "1/op"),
    "trapdoor.invert_calls": ("trapdoor.invert", OP, "1/op"),
    "protocol_q.two_preimage_ratio": ("claw.two_preimage", "claw.calls",
                                      "ratio"),
    "puzzle.verified_ratio": ("puzzle.verified", "puzzle.solve", "ratio"),
    "rsp.abort_ratio": ("rsp.aborted", "rsp.finish", "ratio"),
    "transcripts.bytes_per_op": ("transcripts.bytes", OP, "B/op"),
    "wire.bytes_per_op": ("wire.bytes", OP, "B/op"),
    "wire.frames_per_op": ("wire.dump_frame", OP, "1/op"),
}

LAYER_UNITS = {
    **{metric: "us" for metric in SELF_TIME_US},
    **{metric: unit for metric, (_, _, unit) in RATIOS.items()},
    "trace.unexplained_share": "ratio",
    "trace.ops_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    # A layer the workload never enters reports 0, its measured share.
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(metrics, table): the per-layer figures, and for each span name its
    calls with self and inclusive microseconds per call."""
    table = aggregate(log.spans for log in tracer.threads())
    counts = tracer.counts()

    def calls(name):
        return table[name][0] if name in table else counts.get(name, 0)

    metrics = {}
    for metric, (names, per) in SELF_TIME_US.items():
        total = sum(table[n][1] for n in names if n in table)
        metrics[metric] = _ratio(total * 1e6, calls(per))
    for metric, (num, den, _) in RATIOS.items():
        metrics[metric] = _ratio(calls(num), calls(den))
    op = table.get(OP, [0, 0.0, 0.0])
    metrics["trace.unexplained_share"] = _ratio(op[1], op[2])
    rows = {name: {"calls": n, "self_us_per_call": s * 1e6 / n,
                   "incl_us_per_call": i * 1e6 / n}
            for name, (n, s, i) in sorted(table.items())}
    return metrics, rows
