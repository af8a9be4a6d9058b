"""1-of-2 puzzle built from the quantumness test, plus threshold repetition.

G hands out (puzzle, key) = ((pk, ct), (s, t, b)); the solver commits to an
obligation (y, u) while keeping one qubit, answers a challenge bit b' by
measuring that qubit, and the verifier scores d xor d' == b and b'.  The
repetition runner plays ell independent instances against a single shared
challenge bit and passes when at least alpha * ell of them verify.

verified_count plays the instances in chunks of CHUNK.  Each instance
draws from its own streams exactly what puzzle_G and solve_one draw on
them, straight into arrays stacked on a leading axis, and its prover turns
run on their own; the rest of the key set-up (A s, f A, f v) and the
scoring (the two-branch trapdoor inversion and the claw bits) run as
stacked calls, one per chunk.  puzzle_G, puzzle_V and solve_one are the
one-instance case of the same code, and the count equals what a loop of
them gives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Params
from .protocol_q import (PROVERS, ProverState, decrypted_bit, prover_round1,
                         verifier_round1, verifier_round1_stacked)
# Not called here: perfbench/layers.py looks this name up on puzzle.
from .protocol_q import honest_prover_round1
from .regev import Ciphertext, PublicKey, instance
from .sampling import RngStream, sample_bits, seed_streams
from .stats import Stats
from .trapdoor import TrapdoorPair
from .trapdoor import invert  # not called: perfbench/layers.py rebinds it

COMPLETENESS_TARGET = 0.8535533905932737  # cos^2(pi/8)

# Instances per stacked call in threshold_repetition: enough to spread each
# call's fixed cost, few enough that the chunk's trapdoors (Qn x (Q+1)n
# bytes each, 30 KB at desk) stay a small share of the process.
CHUNK = 10


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


def _puzzle(params: Params, round1):
    vstate, (pk, ct) = round1
    puzzle = Puzzle(params=params, pk=pk, ct=ct)
    key = PuzzleKey(s=vstate.keypair.s, trapdoor=vstate.keypair.trapdoor,
                    b=vstate.b)
    witness = (vstate.keypair.s, vstate.keypair.e)
    return puzzle, key, witness


def puzzle_G(params: Params, stream: RngStream):
    """Returns (puzzle, key, witness); the witness (s, e) exists only so the
    harness can simulate the honest quantum solver."""
    return _puzzle(params, verifier_round1(params, stream))


def puzzle_V(p: Puzzle, k: PuzzleKey, o: Obligation, b_prime: int,
             d_prime):
    """The verdict, a bool; with p, k, o and d_prime stacked, an array of
    one verdict per instance from one trapdoor inversion."""
    d = decrypted_bit(k.trapdoor, p.pk.v, o.y, o.u)
    return (d ^ d_prime) == (k.b & b_prime)


def _solver(solver: str):
    if solver not in PROVERS:
        raise ValueError(f"unknown solver {solver!r}")
    return PROVERS[solver]


def _play(prover, pk: PublicKey, ct: Ciphertext, witness, b_prime: int,
          stream: RngStream):
    """One instance's prover turns: (obligation, d')."""
    o = Obligation(*prover_round1(prover, pk, ct, witness, stream))
    return o, int(prover.second_response(b_prime, o.rho, stream))


def solve_one(p: Puzzle, k: PuzzleKey, witness, b_prime: int,
              stream: RngStream, solver: str = "honest") -> int:
    """Play one instance against challenge b_prime with the prover that
    PROVERS registers as `solver`; returns the verdict."""
    o, d_prime = _play(_solver(solver)(), p.pk, p.ct, witness, b_prime,
                       stream)
    return int(puzzle_V(p, k, o, b_prime, d_prime))


def _verified(params: Params, insts, b_prime: int, solver: str) -> int:
    """How many of the instances on streams `insts` verify: puzzle_G and
    solve_one for each, with the arithmetic stacked.  The prover turns run
    per instance, on solve streams seeded in one call for the quantum
    prover (the baseline never draws from them); the scoring is one
    puzzle_V call.  A call of its own, so that one chunk's trapdoors are
    freed before the next chunk's are drawn."""
    p, k, (s, e) = _puzzle(params, verifier_round1_stacked(
        params, [inst.derive("gen") for inst in insts]))
    make = _solver(solver)
    solve = [inst.derive("solve") for inst in insts]
    if make.quantum:
        seed_streams(solve)
    ys, us, d_primes = [], [], []
    for i, stream in enumerate(solve):
        o, d_prime = _play(make(), *instance(p.pk, p.ct, i), (s[i], e[i]),
                           b_prime, stream)
        ys.append(o.y)
        us.append(o.u)
        d_primes.append(d_prime)
    o = Obligation(y=np.stack(ys), u=np.stack(us), rho=None)
    return int(puzzle_V(p, k, o, b_prime, np.array(d_primes)).sum())


def verified_count(params: Params, ell: int, stream: RngStream,
                   solver: str = "honest") -> int:
    """How many of ell instances verify against one shared challenge bit.
    Instance i plays on stream.derive("instance", i), CHUNK at a time."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    b_prime = int(sample_bits(1, stream.derive("challenge"))[0])
    return sum(_verified(params, [stream.derive("instance", i)
                                  for i in range(start,
                                                 min(start + CHUNK, ell))],
                         b_prime, solver)
               for start in range(0, ell, CHUNK))


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
