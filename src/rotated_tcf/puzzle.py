"""1-of-2 puzzle built from the quantumness test, plus threshold repetition.

G hands out (puzzle, key) = ((pk, ct), (s, t, b)); the solver commits to an
obligation (y, u) while keeping one qubit, answers a challenge bit b' by
measuring that qubit, and the verifier scores d xor d' == b and b'.  The
repetition runner plays ell independent instances against a single shared
challenge bit and passes when at least alpha * ell of them verify.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Params
from .protocol_q import (PROVERS, HonestQuantumProver, ProverState,
                         decrypted_bit, prover_round1, verifier_round1)
# Not called here: perfbench/layers.py looks this name up on puzzle.
from .protocol_q import honest_prover_round1
from .regev import Ciphertext, PublicKey
from .sampling import RngStream, sample_bits
from .stats import Stats
from .trapdoor import TrapdoorPair
from .trapdoor import invert  # not called: perfbench/layers.py rebinds it

COMPLETENESS_TARGET = 0.8535533905932737  # cos^2(pi/8)


@dataclass(frozen=True)
class Puzzle:
    params: Params
    pk: PublicKey
    ct: Ciphertext


@dataclass(frozen=True)
class PuzzleKey:
    s: np.ndarray
    trapdoor: TrapdoorPair
    b: int


@dataclass(frozen=True)
class Obligation:
    y: np.ndarray
    u: np.ndarray
    rho: ProverState | None  # the honest solver's single retained qubit
                             # (plus branch bookkeeping); None if classical


def puzzle_G(params: Params, stream: RngStream):
    """Returns (puzzle, key, witness); the witness (s, e) exists only so the
    harness can simulate the honest quantum solver."""
    vstate, (pk, ct) = verifier_round1(params, stream)
    puzzle = Puzzle(params=params, pk=pk, ct=ct)
    key = PuzzleKey(s=vstate.keypair.s, trapdoor=vstate.keypair.trapdoor,
                    b=vstate.b)
    witness = (vstate.keypair.s, vstate.keypair.e)
    return puzzle, key, witness


def puzzle_O(p: Puzzle, witness, stream: RngStream) -> Obligation:
    return Obligation(*prover_round1(HonestQuantumProver(), p.pk, p.ct,
                                     witness, stream))


def puzzle_V(p: Puzzle, k: PuzzleKey, o: Obligation, b_prime: int,
             d_prime: int) -> int:
    d = decrypted_bit(k.trapdoor, p.pk.v, o.y, o.u)
    return int((d ^ int(d_prime)) == (k.b & int(b_prime)))


def solve_one(p: Puzzle, k: PuzzleKey, witness, b_prime: int,
              stream: RngStream, solver: str = "honest") -> int:
    """Play one instance against challenge b_prime with the prover that
    PROVERS registers as `solver`; returns the verdict."""
    if solver not in PROVERS:
        raise ValueError(f"unknown solver {solver!r}")
    prover = PROVERS[solver]()
    o = Obligation(*prover_round1(prover, p.pk, p.ct, witness, stream))
    d_prime = int(prover.second_response(b_prime, o.rho, stream))
    return puzzle_V(p, k, o, b_prime, d_prime)


def threshold_repetition(params: Params, ell: int, alpha_threshold: float,
                         stream: RngStream, solver: str = "honest") -> bool:
    """One repetition run: ell instances, one shared challenge bit, pass
    when the number of verified instances is at least alpha * ell."""
    if not (0.75 < alpha_threshold < COMPLETENESS_TARGET):
        raise ValueError("threshold must lie strictly between 3/4 and cos^2(pi/8)")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    b_prime = int(sample_bits(1, stream.derive("challenge"))[0])
    passed = 0
    for i in range(ell):
        inst = stream.derive("instance", i)
        p, k, witness = puzzle_G(params, inst.derive("gen"))
        passed += solve_one(p, k, witness, b_prime, inst.derive("solve"),
                            solver=solver)
    return passed >= alpha_threshold * ell


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
