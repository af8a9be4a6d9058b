"""Pinned SHA-256 digests of the protocol drivers at fixed seeds.

`test_digests.py` pins the experiments; this file pins the drivers that
run a prover's turn: the min-entropy estimate, the puzzle solver and its
threshold repetition, one TCP loopback session per prover kind, and runs
long enough to cross chunk boundaries (33 honest trials, 23 puzzle
instances).  The `mixed-*` cases run at MIXED, where about 40 % of honest
claws are single-preimage, so both claw cases of the honest prover's
turn are pinned (at desk, a single-preimage claw has probability about
7e-6).  The hex values were recorded once and must never change.
"""
import hashlib
import json
import threading

import pytest

from rotated_tcf import network, protocol_q, puzzle, randomness
from rotated_tcf.params import desk_preset, tiny_params
from rotated_tcf.sampling import master_stream
from rotated_tcf.transcripts import transcript_to_json

DIGEST_SEED = "d1e5c0de" * 8

# tiny_params arguments at which about 40 % of honest claws are
# single-preimage
MIXED = (2, 1048583, 2.0)


def _root(case: str):
    return master_stream(DIGEST_SEED).derive("driver-digest", case)


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _entropy(prover, contexts, replays):
    def lines(params, stream):
        out = []
        for j in range(4):
            est = randomness.estimate_minentropy(prover, params, contexts,
                                                 replays,
                                                 stream.derive("call", j))
            out.append(_line({
                "guessing_prob": repr(est.guessing_prob),
                "worst_context_prob": repr(est.worst_context_prob),
                "contexts": est.contexts,
                "samples_per_context": est.samples_per_context,
                "rewound": est.rewound}))
        return out
    return lines


def _puzzle_baseline(params, stream):
    out = []
    for i in range(8):
        inst = stream.derive("instance", i)
        p, k, witness = puzzle.puzzle_G(params, inst.derive("gen"))
        b_prime = i % 2
        verdict = puzzle.solve_one(p, k, witness, b_prime,
                                   inst.derive("solve"),
                                   solver="classical-baseline")
        out.append(_line({"w": str(p.ct.w), "b_prime": b_prime,
                          "verdict": verdict}))
    for r in range(4):
        out.append(_line({"run": r, "passed": puzzle.threshold_repetition(
            params, 6, 0.8, stream.derive("repetition", r),
            solver="classical-baseline")}))
    return out


def _chunked_trials(params, stream):
    """33 honest trials: two full chunks of 16 and a chunk of one."""
    out = []
    stats = protocol_q.run_experiment(
        params, protocol_q.HonestQuantumProver(), 33, stream,
        transcript_sink=lambda t: out.append(transcript_to_json(t)))
    return out + [_line({"successes": stats.successes,
                         "trials": stats.trials})]


def _chunked_puzzle(params, stream):
    """ell = 23: two full puzzle chunks of 10 and a chunk of 3."""
    return [_line({"solver": solver, "run": r,
                   "verified": puzzle.verified_count(
                       params, 23, stream.derive(solver, r), solver=solver)})
            for solver in ("honest", "classical-baseline") for r in range(4)]


def _mixed(lines):
    """`lines` at the MIXED parameters instead of the fixture's."""
    return lambda params, stream: lines(tiny_params(*MIXED), stream)


def _prover_turns(params, stream):
    """8 one-instance honest prover turns: the claw case, the kept qubit's
    phase or basis, y and u."""
    out = []
    for i in range(8):
        inst = stream.derive("instance", i)
        vstate, (pk, ct) = protocol_q.verifier_round1(
            params, inst.derive("verifier"))
        kp = vstate.keypair
        state, (y, u) = protocol_q.honest_prover_round1(
            params, pk, ct, (kp.s, kp.e), inst.derive("prover"))
        qubit = state.qubit
        out.append(_line({"claw_case": state.claw_case,
                          "units": qubit.units, "basis": qubit.basis,
                          "y": [str(int(v)) for v in y.tolist()],
                          "u": u.tolist()}))
    return out


def _honest_puzzle(params, stream):
    """4 honest verified_count runs at ell = 23."""
    return [_line({"run": r, "verified": puzzle.verified_count(
                params, 23, stream.derive("honest", r))})
            for r in range(4)]


def _loopback(prover, witness_channel):
    def lines(params, stream):
        srv = network.open_server_socket("127.0.0.1", 0)
        port = srv.getsockname()[1]
        box = {}

        def serve():
            try:
                box["result"] = network.serve_verifier(
                    srv, params, stream, 1, witness_channel=witness_channel,
                    timeout=30)
            finally:
                srv.close()

        server = threading.Thread(target=serve)
        server.start()
        results = network.connect_prover("127.0.0.1", port, prover, stream,
                                         1, timeout=30)
        server.join(timeout=60)
        assert not server.is_alive()
        _, transcripts = box["result"]
        return ([transcript_to_json(t) for t in transcripts]
                + [_line(r) for r in results])
    return lines


CASES = {
    "entropy-honest": _entropy(protocol_q.HonestQuantumProver(), 2, 10),
    "entropy-baseline": _entropy(protocol_q.BaselineProver(), 2, 10),
    "entropy-random": _entropy(protocol_q.RandomProver(), 2, 12),
    "puzzle-baseline": _puzzle_baseline,
    "loopback-honest-witness": _loopback(protocol_q.HonestQuantumProver(),
                                         True),
    "loopback-baseline": _loopback(protocol_q.BaselineProver(), False),
    "poq-honest-chunked": _chunked_trials,
    "puzzle-chunked": _chunked_puzzle,
    "mixed-poq-honest": _mixed(_chunked_trials),
    "mixed-puzzle-honest": _mixed(_honest_puzzle),
    "mixed-prover-turns": _mixed(_prover_turns),
}

DIGESTS = {
    "entropy-baseline":
        "d3892d971022cf528723851119e5bbdc66c2ca9ebe2b8f2d9664d507abbc53b7",
    "entropy-honest":
        "02f7be1b23d1f9e8cb5945dea2a5803c508b0c55122d85dff72be926eb530680",
    "entropy-random":
        "70895ae6c037d027fbaba082539e6aa850bd151263b317be76160b252220b8f3",
    "loopback-baseline":
        "71cd4e03ce5d37f4737dfd0e82a27e6e2a3a705a6850080a98dc4ddaa1d41318",
    "loopback-honest-witness":
        "8cd943d9e6a2c76f4fcc17b010db17f1577babb46d0c5b6abbe14006c91d88d6",
    "mixed-poq-honest":
        "b6e4fd01e6f00be32b5420b6c05470663538e001518a77a3df2417851593bec2",
    "mixed-prover-turns":
        "5bb90c7a59f9e3e7e0b6e725d1bffe0fe43bee84aeca69e118fb738f6f652d89",
    "mixed-puzzle-honest":
        "939e07f6c9a92eb2bc2c499524c07ba7e78a2ee7268387795dda93f39298ea76",
    "poq-honest-chunked":
        "e834b17e5a9ee9c990dc81c7783946f2c414928ad325855c8c3a355fb2b792fd",
    "puzzle-baseline":
        "3b07a27d5226d6b5af1faa3d5d76f969881d70d1c903b4baeaa63efc83d1c7e2",
    "puzzle-chunked":
        "c640c8ce82bd13a79973715a5c3ea1f2e77a545a4f9e2d3c90a89a52d99f6bfc",
}


@pytest.fixture(scope="module")
def params():
    return desk_preset()


@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_digest(case, params):
    lines = CASES[case](params, _root(case))
    data = "".join(line + "\n" for line in lines).encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[case]
