"""Two-round interactive quantumness test.

The verifier publishes a trapdoor LWE key and an encrypted challenge bit,
the prover answers with an image point y and measurement outcomes u, then
answers a plaintext challenge b' with a bit d'.  The verifier inverts y on
both branches and scores d xor d' == b and b'.

The honest quantum device is simulated exactly: the transcript distribution
is a function of (pk, ct, s, e, randomness), so the simulator receives the
key-side witness (s, e) from the harness.  The witness never travels with
prover-visible data; see the network module for how this is enforced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ghz import (PhaseQubit, angle_sequence, simulate_basis_measurement,
                  simulate_ghz_measurement)
from .params import Params
from .regev import Ciphertext, KeypairJ, PublicKey, encrypt_bit, gen_j
from .sampling import RngStream, sample_bits, sample_box, sample_uniform
from .stats import Stats
from .trapdoor import TrapdoorPair, invert
from .transcripts import Transcript, make_transcript
from .zq import bit_dot, bits_le_vec, inf_norm, matmul_mod


@dataclass
class VerifierState:
    params: Params
    keypair: KeypairJ
    b: int
    ct: Ciphertext
    f: np.ndarray            # encryption randomness, kept for diagnostics
    b_prime: int | None = None


@dataclass
class ProverState:
    qubit: PhaseQubit
    claw_case: str           # "two-preimage" or "single-preimage"


def verifier_round1(params: Params, stream: RngStream):
    kp = gen_j(params, stream.derive("key"))
    b = int(sample_bits(1, stream.derive("b"))[0])
    f = sample_bits(params.m, stream.derive("f"))
    ct = encrypt_bit(kp.pk, b, stream, force_f=f)
    state = VerifierState(params=params, keypair=kp, b=b, ct=ct, f=f)
    return state, (kp.pk, ct)


def _within_tau(value: int, tau: Fraction) -> bool:
    return value * tau.denominator <= tau.numerator


def honest_prover_round1(params: Params, pk: PublicKey, ct: Ciphertext,
                         witness, stream: RngStream):
    """Exact simulation of the quantum prover's first round.

    witness = (s, e) with v = As + e; consistency is checked because the
    simulation is meaningless against a mismatched key."""
    s, e = witness
    q, tau = params.q, params.tau
    if not np.array_equal((matmul_mod(pk.A, s, q) + e) % q, pk.v):
        raise ValueError("witness inconsistent with public key")
    x = sample_uniform(params.n, q, stream)
    cbit = int(stream.gen.integers(0, 2))
    g = sample_box(params.m, tau, q, stream)
    y = (matmul_mod(pk.A, x, q) - cbit * pk.v + g) % q
    if cbit == 0:
        two_preimage = _within_tau(inf_norm((g + e) % q, q), tau)
        x0, x1 = x, (x + s) % q
    else:
        two_preimage = _within_tau(inf_norm((g - e) % q, q), tau)
        x0, x1 = (x - s) % q, x
    r_units = angle_sequence(ct.a, params)
    if two_preimage:
        u, qubit = simulate_ghz_measurement(x1, x0, r_units, params, stream)
        qubit.rotate_z(ct.w)
        state = ProverState(qubit=qubit, claw_case="two-preimage")
    else:
        u, qubit = simulate_basis_measurement(x, cbit, r_units, params, stream)
        state = ProverState(qubit=qubit, claw_case="single-preimage")
    return state, (y, u)


def honest_prover_round2(state: ProverState, b_prime: int,
                         stream: RngStream) -> int:
    xi = (math.pi / 4) * (-1 if b_prime else 1)
    return state.qubit.measure_xy(xi, stream)


def decrypted_bit(pair: TrapdoorPair, v: np.ndarray, y: np.ndarray,
                  u: np.ndarray) -> int:
    """d = u . ([x0] xor [x1]) with x0 = invert(y) and x1 = invert(y + v),
    the claw preimages recovered through the trapdoor on both branches."""
    p = pair.params
    x0, x1 = invert(pair, np.stack([y, (y + v) % p.q]))
    z = bits_le_vec(x0, p.Q) ^ bits_le_vec(x1, p.Q)
    return bit_dot(u, z)


def verifier_score(vstate: VerifierState, y: np.ndarray, u: np.ndarray,
                   d_prime: int, seed_info: str = "",
                   include_pk: bool = False) -> Transcript:
    kp = vstate.keypair
    d = decrypted_bit(kp.trapdoor, kp.pk.v, y, u)
    return make_transcript(vstate.params, kp.pk, vstate.ct,
                           y, u, vstate.b, vstate.b_prime, d, d_prime,
                           seed_info, include_pk=include_pk)


# ---------------------------------------------------------------------------
# Classical prover strategies (two replayable response functions plus an
# explicit memory register p).


class ClassicalProver:
    """Interface: first_response(pk, ct, stream) -> (y, u, p) and
    second_response(b_prime, p, stream) -> bit.  Both must be replayable
    with fresh randomness, which is what the rewinding experiments exploit."""

    name = "classical"
    quantum = False
    replayable = True

    def first_response(self, pk: PublicKey, ct: Ciphertext, stream: RngStream):
        raise NotImplementedError

    def second_response(self, b_prime: int, p, stream: RngStream) -> int:
        raise NotImplementedError


class BaselineProver(ClassicalProver):
    """y = 0 makes the claw (0, s), u = 0 forces d = 0, and d' = 0 wins
    exactly when b and b' = 0, which happens with probability 3/4."""

    name = "classical-baseline"

    def first_response(self, pk, ct, stream):
        params = pk.params
        return (np.zeros(params.m, dtype=np.int64),
                np.zeros(params.nQ, dtype=np.int64), None)

    def second_response(self, b_prime, p, stream):
        return 0


class RandomProver(ClassicalProver):
    name = "classical-random"

    def first_response(self, pk, ct, stream):
        params = pk.params
        y = sample_uniform(params.m, params.q, stream)
        u = sample_bits(params.nQ, stream)
        return y, u, None

    def second_response(self, b_prime, p, stream):
        return int(stream.gen.integers(0, 2))


SECOND_RESPONSE_RULES = {
    "zero": lambda bp: 0,
    "one": lambda bp: 1,
    "copy": lambda bp: bp,
    "negate": lambda bp: 1 - bp,
}


class DeterministicProver(ClassicalProver):
    """ct-independent deterministic strategy: y = 0, u constant-filled,
    d' a fixed function of b'."""

    def __init__(self, u_fill: int, rule: str):
        if u_fill not in (0, 1) or rule not in SECOND_RESPONSE_RULES:
            raise ValueError("unknown deterministic strategy")
        self.u_fill = u_fill
        self.rule = rule
        self.name = f"deterministic-u{u_fill}-{rule}"

    def first_response(self, pk, ct, stream):
        params = pk.params
        return (np.zeros(params.m, dtype=np.int64),
                np.full(params.nQ, self.u_fill, dtype=np.int64), None)

    def second_response(self, b_prime, p, stream):
        return SECOND_RESPONSE_RULES[self.rule](b_prime)


def deterministic_family() -> list[DeterministicProver]:
    return [DeterministicProver(u_fill, rule)
            for u_fill in (0, 1) for rule in SECOND_RESPONSE_RULES]


class HonestQuantumProver:
    """Marker for the exactly-simulated quantum device; needs the witness."""

    name = "honest-quantum"
    quantum = True
    replayable = False


# ---------------------------------------------------------------------------
# Trial runner.


def run_single_trial(params: Params, prover, trial_stream: RngStream,
                     include_pk: bool = False) -> Transcript:
    """One full protocol execution with sub-streams fixed per role, so a
    networked run with the same trial seed reproduces the transcript."""
    vstate, (pk, ct) = verifier_round1(params, trial_stream.derive("verifier"))
    pstream = trial_stream.derive("prover")
    if getattr(prover, "quantum", False):
        witness = (vstate.keypair.s, vstate.keypair.e)
        pstate, (y, u) = honest_prover_round1(params, pk, ct, witness, pstream)
    else:
        y, u, p = prover.first_response(pk, ct, pstream)
    b_prime = int(sample_bits(1, trial_stream.derive("challenge"))[0])
    vstate.b_prime = b_prime
    if getattr(prover, "quantum", False):
        d_prime = honest_prover_round2(pstate, b_prime, pstream)
    else:
        d_prime = int(prover.second_response(b_prime, p, pstream))
    return verifier_score(vstate, y, u, d_prime,
                          seed_info=trial_stream.seed.hex(),
                          include_pk=include_pk)


def run_experiment(params: Params, prover, trials: int, stream: RngStream,
                   transcript_sink=None, include_pk: bool = False):
    """Monte Carlo over independent trials; deterministic given the stream
    seed and independent of any execution order since trial i always uses
    the sub-stream derive('trial', i)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    wins = 0
    for i in range(trials):
        t = run_single_trial(params, prover, stream.derive("trial", i),
                             include_pk=include_pk)
        wins += int(t.success)
        if transcript_sink is not None:
            transcript_sink(t)
    return Stats(successes=wins, trials=trials)


# ---------------------------------------------------------------------------
# Rewinding experiments: a two-player split of the protocol where one player
# estimates the decrypted bit by majority vote over replayed second responses.


def _maj(bits) -> int:
    bits = list(bits)
    return 1 if sum(bits) * 2 >= len(bits) else 0


def rewinding_experiment(variant: str, params: Params, prover,
                         trials: int, stream: RngStream) -> Stats:
    """variant "C": the trapdoor side computes d by inversion (same win rate
    as the protocol itself).  "C'": d is the majority over lambda replays of
    second_response on fresh challenge bits.  "C''": like C' but the
    ciphertext encrypts 0 instead of b, removing all information about b."""
    if variant not in ("C", "C'", "C''"):
        raise ValueError("variant must be C, C' or C''")
    if not getattr(prover, "replayable", False):
        raise TypeError("rewinding requires a replayable classical prover")
    wins = 0
    for i in range(trials):
        t = stream.derive("rewind", variant, i)
        kp = gen_j(params, t.derive("key"))
        b = int(sample_bits(1, t.derive("b"))[0])
        b_prime = int(sample_bits(1, t.derive("challenge"))[0])
        plaintext = 0 if variant == "C''" else b
        ct = encrypt_bit(kp.pk, plaintext, t.derive("f"))
        y, u, p = prover.first_response(kp.pk, ct, t.derive("prover"))
        d_prime = int(prover.second_response(b_prime, p, t.derive("prover2")))
        if variant == "C":
            d = decrypted_bit(kp.trapdoor, kp.pk.v, y, u)
        else:
            replay = t.derive("replay")
            votes = []
            for k in range(params.lam):
                bk = int(sample_bits(1, replay.derive("bk", k))[0])
                dk = int(prover.second_response(bk, p, replay.derive("dk", k)))
                votes.append(dk ^ (b & bk))
            d = _maj(votes)
        if (d ^ d_prime) == (b & b_prime):
            wins += 1
    return Stats(successes=wins, trials=trials)


def exact_ct_independent_win_prob(prover: DeterministicProver,
                                  lam: int) -> Fraction:
    """Exact winning probability of a deterministic ct-independent strategy
    in the C'' experiment (majority over lam fair replays), as a fraction.

    With the ciphertext stripped of b, the replayed votes are iid and the
    whole experiment is a closed-form average over (b, b')."""
    rule = SECOND_RESPONSE_RULES[prover.rule]
    total = Fraction(0)
    for b in (0, 1):
        # vote distribution: b'_k = 0 gives rule(0), b'_k = 1 gives rule(1)^b
        v0, v1 = rule(0), rule(1) ^ b
        p_one = Fraction(v0 + v1, 2)
        p_maj1 = _maj_prob_one(p_one, lam)
        for b_prime in (0, 1):
            want_d = rule(b_prime) ^ (b & b_prime)
            total += (p_maj1 if want_d else 1 - p_maj1)
    return total / 4


def _maj_prob_one(p: Fraction, lam: int) -> Fraction:
    """Pr[MAJ of lam iid Bernoulli(p) bits] with ties counting as 1."""
    out = Fraction(0)
    for k in range(lam + 1):
        if 2 * k >= lam:
            out += (Fraction(math.comb(lam, k))
                    * p ** k * (1 - p) ** (lam - k))
    return out
