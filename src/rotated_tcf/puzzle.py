"""1-of-2 puzzle built from the quantumness test, plus threshold repetition.

G hands out (puzzle, key) = ((pk, ct), the verifier's state), the key
holding the trapdoor and the encrypted bit b; the solver sends the
obligation (y, u) while keeping one qubit, answers a challenge bit b' by
measuring that qubit, and the verifier scores d xor d' == b and b'.  The
repetition runner plays ell independent instances against a single shared
challenge bit and passes when at least alpha * ell of them verify.

verified_count walks protocol_q.chunks of protocol_q.chunk_size(params)
instances, the one chunk rule of every driver, as run_experiment walks its
trials, on the same chunk engine (_play_chunk): the key set-up and the
scoring are one stacked call per chunk, and each instance's prover turns
run on their own, in order.  Each instance draws on its own streams
exactly what puzzle_G and solve_one draw on them, so the count equals
what a loop of them gives.
"""
from __future__ import annotations

from dataclasses import dataclass

from .params import Params
from .protocol_q import (PROVERS, VerifierState, _play_chunk, chunk_size,
                         chunks, decrypted_bit, prover_round1,
                         verifier_round1)
# Not called here: perfbench/layers.py looks this name up on puzzle.
from .protocol_q import honest_prover_round1
from .regev import Ciphertext, PublicKey
from .sampling import RngStream, seed_streams
from .stats import Stats
from .transcripts import accepts
from .trapdoor import invert  # not called: perfbench/layers.py rebinds it

COMPLETENESS_TARGET = 0.8535533905932737  # cos^2(pi/8)

@dataclass(frozen=True)
class Puzzle:
    pk: PublicKey
    ct: Ciphertext


def puzzle_G(params: Params, stream: RngStream):
    """Returns (puzzle, key, witness), the key being the VerifierState of
    verifier_round1; the witness (s, e) exists only so the harness can
    simulate the honest quantum solver."""
    vstate, (pk, ct) = verifier_round1(params, stream)
    kp = vstate.keypair
    return Puzzle(pk=pk, ct=ct), vstate, (kp.s, kp.e)


def puzzle_V(k: VerifierState, y, u, b_prime: int, d_prime):
    """The verdict on the obligation (y, u), a bool: d xor d' == b and b',
    with d decrypted through the trapdoor."""
    return accepts(k.b, b_prime, decrypted_bit(k.keypair, y, u), d_prime)


def _solver(solver: str):
    if solver not in PROVERS:
        raise ValueError(f"unknown solver {solver!r}")
    return PROVERS[solver]


def solve_one(p: Puzzle, k: VerifierState, witness, b_prime: int,
              stream: RngStream, solver: str = "honest") -> int:
    """Play one instance against challenge b_prime with the prover that
    PROVERS registers as `solver`; returns the verdict."""
    prover = _solver(solver)()
    y, u, memory = prover_round1(prover, p.pk, p.ct, witness, stream)
    d_prime = int(prover.second_response(b_prime, memory, stream))
    return int(puzzle_V(k, y, u, b_prime, d_prime))


def _verified(params: Params, insts, b_prime: int, solver: str) -> int:
    """How many of the instances on streams `insts` verify, played as one
    chunk: each draws what puzzle_G and solve_one draw on its streams, and
    the solve generators are seeded in one call for the quantum prover
    (the baseline never draws from them).  A call of its own, so that one
    chunk's trapdoors are freed before the next chunk's are drawn."""
    prover = _solver(solver)()
    solve = [inst.derive("solve") for inst in insts]
    if prover.quantum:
        seed_streams(solve)
    *_, wins = _play_chunk(params, prover,
                           [inst.derive("gen") for inst in insts], solve,
                           [b_prime] * len(insts))
    return int(wins.sum())


def verified_count(params: Params, ell: int, stream: RngStream,
                   solver: str = "honest") -> int:
    """How many of ell instances verify against one shared challenge bit.
    Instance i plays on stream.derive("instance", i), chunk_size(params)
    at a time."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    b_prime = int(stream.derive("challenge").gen.integers(0, 2))
    return sum(_verified(params, insts, b_prime, solver)
               for insts in chunks(stream, "instance", ell,
                                   chunk_size(params)))


def threshold_repetition(params: Params, ell: int, alpha_threshold: float,
                         stream: RngStream, solver: str = "honest") -> bool:
    """One repetition run: ell instances, one shared challenge bit, pass
    when the number of verified instances is at least alpha * ell."""
    if not (0.75 < alpha_threshold < COMPLETENESS_TARGET):
        raise ValueError("threshold must lie strictly between 3/4 and cos^2(pi/8)")
    return verified_count(params, ell, stream, solver) >= alpha_threshold * ell


def repetition_experiment(params: Params, ell: int, alpha_threshold: float,
                          runs: int, stream: RngStream,
                          solver: str = "honest") -> Stats:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    wins = 0
    for r in range(runs):
        wins += int(threshold_repetition(params, ell, alpha_threshold,
                                         stream.derive("run", r), solver=solver))
    return Stats(successes=wins, trials=runs)
