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
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .ghz import (PhaseQubit, angle_sequence, simulate_basis_measurement,
                  simulate_ghz_measurement)
from .params import Params
from .regev import (Ciphertext, KeypairJ, PublicKey, encrypt_bit, gen_j,
                    gen_j_stacked, instance)
from .sampling import (RngStream, sample_bits, sample_box_stacked,
                       sample_uniform, seed_streams)
from .stats import Stats
from .trapdoor import invert
from .transcripts import Transcript, accepts, make_transcript
from .zq import MMAP_THRESHOLD, bit_dot, bits_le_vec, matmul_mod, within


@dataclass
class VerifierState:
    keypair: KeypairJ
    b: int                   # an int64 array for a stack of instances
    ct: Ciphertext


@dataclass
class ProverState:
    qubit: PhaseQubit

    @property
    def claw_case(self) -> str:
        # a basis state is kept exactly when the claw has one preimage
        return ("two-preimage" if self.qubit.basis is None
                else "single-preimage")


def _bit_draws(params: Params, b_streams, f_streams):
    """Each instance's encrypted bit b and encryption randomness f,
    stacked: b drawn from its stream of `b_streams`, f from its stream of
    `f_streams`."""
    return (np.array([t.gen.integers(0, 2) for t in b_streams]),
            np.array([sample_bits(params.m, t) for t in f_streams]))


def _round1(kp: KeypairJ, b, f):
    ct = encrypt_bit(kp.pk, b, f)
    return VerifierState(keypair=kp, b=b, ct=ct), (kp.pk, ct)


def verifier_round1(params: Params, stream: RngStream):
    b, f = _bit_draws(params, [stream.derive("b")], [stream.derive("f")])
    return _round1(gen_j(params, stream.derive("key")), int(b[0]), f[0])


def verifier_round1_stacked(params: Params, streams):
    """verifier_round1 for each of `streams`, with every array stacked on a
    leading axis: each stream draws what verifier_round1 draws from it,
    from generators seeded in one call, then A s, f A and f v run once for
    the stack."""
    b_streams, f_streams = ([stream.derive(label) for stream in streams]
                            for label in ("b", "f"))
    seed_streams(b_streams + f_streams)
    b, f = _bit_draws(params, b_streams, f_streams)
    kp = gen_j_stacked(params, [stream.derive("key") for stream in streams])
    return _round1(kp, b, f)


def instance_state(vstate: VerifierState, i: int) -> VerifierState:
    """Instance i of a stacked VerifierState, its arrays as views: the
    state verifier_round1 gives on that instance's stream."""
    kp, pair = vstate.keypair, vstate.keypair.trapdoor
    pk, ct = instance(kp.pk, vstate.ct, i)
    keypair = KeypairJ(pk=pk, s=kp.s[i], e=kp.e[i],
                       trapdoor=replace(pair, A=pair.A[i], N=pair.N[i]))
    return replace(vstate, keypair=keypair, b=int(vstate.b[i]), ct=ct)


def _prover_draws(params: Params, streams):
    """Each instance's x, branch bit c and image noise g, stacked; each
    stream draws its x, c and g in that order."""
    x = np.array([sample_uniform(params.n, params.q, t) for t in streams])
    c = np.array([t.gen.integers(0, 2) for t in streams])
    return x, c, sample_box_stacked(params.m, params.tau_floor, params.q,
                                    streams)


def _claw_measurements(two, ghz_args, basis_args, r_units, params: Params,
                       streams):
    """Each row's (u, kept qubit), each row measured on its stream:
    simulate_ghz_measurement on (x1, x0) = `ghz_args` where the claw has
    two preimages (`two`), simulate_basis_measurement on (c,) =
    `basis_args` where it has one.  Each case is one call for its rows.
    A stack with one case, as every stack of one is and nearly every desk
    stack, is measured whole, without the row copies and the merge that
    a mixed stack needs."""
    cases = ((two, simulate_ghz_measurement, ghz_args),
             (~two, simulate_basis_measurement, basis_args))
    for rows, measure, args in cases:
        if rows.all():
            return measure(*args, r_units, params, streams)
    u = np.empty_like(r_units)
    qubits = [None] * len(streams)
    for rows, measure, args in cases:
        rows = rows.nonzero()[0]
        u[rows], kept = measure(*(arg[rows] for arg in args), r_units[rows],
                                params, [streams[i] for i in rows])
        for i, qubit in zip(rows.tolist(), kept):
            qubits[i] = qubit
    return u, qubits


def honest_prover_round1_stacked(params: Params, pk: PublicKey,
                                 ct: Ciphertext, witness, streams):
    """Exact simulation of the quantum prover's first round on a stack of
    instances, one stream each; returns each instance's ProverState and
    the stacked (y, u).

    witness = (s, e) with v = As + e, stacked like the key; consistency is
    checked because the simulation is meaningless against a mismatched
    key.  Each stream draws x, c and g, then u in the measurement, as a
    lone instance's does; g's reduction and box check, and the arithmetic,
    run once for the stack."""
    s, e = witness
    q, tau = params.q, params.tau_floor
    x, c, g = _prover_draws(params, streams)
    # A s for the witness check and A x, as one product
    Asx = matmul_mod(pk.A, np.concatenate([s[..., None], x[..., None]], -1),
                     q)
    if ((Asx[..., 0] + e - pk.v) % q).any():
        raise ValueError("witness inconsistent with public key")
    cbit = c[:, None]
    y = (Asx[..., 1] - cbit * pk.v + g) % q
    # Two preimages when |g + e| (c = 0) or |g - e| (c = 1) is within tau
    two = within(g + (1 - 2 * cbit) * e, tau, q).all(axis=-1)
    x0 = (x - cbit * s) % q
    x1 = (x0 + s) % q
    u, qubits = _claw_measurements(two, (x1, x0), (c,),
                                   angle_sequence(ct.a, params), params,
                                   streams)
    for qubit, w in zip(qubits, ct.w.tolist()):
        qubit.rotate_z(w)       # a no-op on a single-preimage basis state
    return [ProverState(qubit=qubit) for qubit in qubits], (y, u)


def _stack_of_one(pk: PublicKey, ct: Ciphertext, witness):
    """One instance's key, ciphertext and witness as stacks of one."""
    return (PublicKey(params=pk.params, A=pk.A[None], v=pk.v[None]),
            Ciphertext(a=ct.a[None], w=np.array([ct.w])),
            None if witness is None else tuple(w[None] for w in witness))


def honest_prover_round1(params: Params, pk: PublicKey, ct: Ciphertext,
                         witness, stream: RngStream):
    """honest_prover_round1_stacked on one instance: (state, (y, u))."""
    (state,), (y, u) = honest_prover_round1_stacked(
        params, *_stack_of_one(pk, ct, witness), [stream])
    return state, (y[0], u[0])


def claw_bit(x: np.ndarray, u: np.ndarray, Q: int) -> int:
    """d = u . ([x0] xor [x1]) for the claw preimages x = (x0, x1) stacked
    on axis -2; stacks of x and u give one bit per instance.  The bits of
    x0 xor x1 are [x0] xor [x1]."""
    return bit_dot(u, bits_le_vec(x[..., 0, :] ^ x[..., 1, :], Q))


def decrypted_bit(kp: KeypairJ, y: np.ndarray, u: np.ndarray) -> int:
    """The claw bit with x0 = invert(y) and x1 = invert(y + v), v = kp.pk.v,
    the claw preimages recovered through kp's trapdoor on both branches.
    A stacked key pair with stacked y and u gives one bit per instance,
    from one inversion call."""
    p = kp.pk.params
    y = np.asarray(y, dtype=np.int64)
    rows = np.concatenate(
        [y[..., None, :], ((y + kp.pk.v) % p.q)[..., None, :]], axis=-2)
    return claw_bit(invert(kp.trapdoor, rows), u, p.Q)


def verifier_score(vstate: VerifierState, y: np.ndarray, u: np.ndarray,
                   b_prime: int, d_prime: int, seed_info: str) -> Transcript:
    kp = vstate.keypair
    return make_transcript(kp.pk, vstate.ct, y, u, vstate.b, b_prime,
                           decrypted_bit(kp, y, u), d_prime, seed_info)


# ---------------------------------------------------------------------------
# Classical prover strategies (two response functions plus an explicit
# memory register p).


class ClassicalProver:
    """Interface: first_response(pk, ct, stream) -> (y, u, p) and
    second_response(b_prime, p, stream) -> bit.  Both can be called again
    on the same p with fresh randomness, which is what the rewinding
    experiments exploit."""

    quantum = False

    def first_response(self, pk: PublicKey, ct: Ciphertext, stream: RngStream):
        raise NotImplementedError

    def second_response(self, b_prime: int, p, stream: RngStream) -> int:
        raise NotImplementedError


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


class BaselineProver(DeterministicProver):
    """y = 0 makes the claw (0, s), u = 0 forces d = 0, and d' = 0 wins
    exactly when b and b' = 0, which happens with probability 3/4."""

    def __init__(self):
        super().__init__(0, "zero")
        self.name = "classical-baseline"


class HonestQuantumProver:
    """The exactly-simulated quantum device; its memory is the kept qubit,
    which measuring consumes, so it cannot be replayed."""

    quantum = True

    def second_response(self, b_prime, memory, stream):
        xi = (math.pi / 4) * (-1 if b_prime else 1)
        return memory.qubit.measure_xy(xi, stream)


PROVERS = {
    "honest": HonestQuantumProver,
    "classical-baseline": BaselineProver,
    "classical-random": RandomProver,
}


def prover_round1_stacked(prover, pk: PublicKey, ct: Ciphertext, witness,
                          streams):
    """The prover's first turn on each instance of a stacked (pk, ct), one
    stream each, as an iterator of (y, u, memory) in instance order.  Only
    the simulated quantum device receives the witness, and it plays every
    turn in one stacked call before this returns; a classical strategy
    sees just each instance's (pk, ct), and plays its turn only when the
    iterator reaches it, so its turns stay in order with the caller's."""
    if prover.quantum:
        states, (y, u) = honest_prover_round1_stacked(pk.params, pk, ct,
                                                      witness, streams)
        return zip(y, u, states)
    return (prover.first_response(*instance(pk, ct, i), stream)
            for i, stream in enumerate(streams))


def prover_round1(prover, pk: PublicKey, ct: Ciphertext, witness,
                  stream: RngStream):
    """The prover's first turn on one instance, (y, u, memory)."""
    (turn,) = prover_round1_stacked(prover, *_stack_of_one(pk, ct, witness),
                                    [stream])
    return turn


# ---------------------------------------------------------------------------
# Trial runner.

# Instances per stacked call in every chunked driver (run_experiment,
# puzzle.verified_count, network.serve_sessions), unless chunk_size caps
# it.  At desk a stacked chunk costs about 0.4 ms on top of about 0.2 ms
# per instance (a fit to `puzzle-baseline`'s CPU time per 50-instance run
# at chunks of 10, 25, 32 and 50), so fewer chunks pay that cost less
# often.  Against chunks of 10 that workload read -1 % at 16 (16 + 16 +
# 16 + 2, and the tail of 2 seeds its streams one at a time, below
# sampling.SEED_BATCH_MIN), +12 % at 25 and at 32, and +14 % at 50, its
# peak RSS up 2.4 % at 25 and 7.5 % at 50.  25 plays a 50-instance run as
# two full chunks.  Only a chunk's first transcript waits for the chunk's
# set-up, prover turns and scoring, so at 25 one transcript in 25 is a
# slow one.
CHUNK = 25


def chunk_size(params: Params) -> int:
    """Instances per chunk at `params`: CHUNK, or fewer where the chunk's
    stacked trapdoors N, Qn x (Q+1)n bytes each (30 KB at desk, 15.5 MB at
    Params' bounds), would pass zq.MMAP_THRESHOLD; never fewer than 1."""
    n_bytes = params.nQ * (params.nQ + params.n)
    return max(1, min(CHUNK, MMAP_THRESHOLD // n_bytes))


def chunks(stream: RngStream, label: str, count: int, size: int):
    """stream.derive(label, i) for i < count, in order, as lists of `size`
    (the last may be shorter), each derived only when it is reached."""
    for start in range(0, count, size):
        yield [stream.derive(label, i)
               for i in range(start, min(start + size, count))]


def _play_chunk(params: Params, prover, setup_streams, prover_streams,
                b_primes):
    """The instances on `setup_streams` played as one chunk, the step that
    run_experiment and the puzzle repetition share.  The verifier's key
    set-up is one stacked call; the prover's first turns are one stacked
    call for the simulated quantum device (prover_round1_stacked), and
    each instance's second turn runs on its own, in order, on its stream
    of `prover_streams` against its challenge in `b_primes`; the scoring
    (the two-branch trapdoor inversion and the claw bits) is one stacked
    call.  Each instance draws what a lone instance draws on the same
    streams.  Returns the stacked verifier state and y, u, d', d and the
    win mask, `accepts` of the stack."""
    vstate, (pk, ct) = verifier_round1_stacked(params, setup_streams)
    kp = vstate.keypair
    ys, us, d_primes = [], [], []
    for (y, u, memory), stream, b_prime in zip(
            prover_round1_stacked(prover, pk, ct, (kp.s, kp.e),
                                  prover_streams),
            prover_streams, b_primes):
        d_primes.append(int(prover.second_response(b_prime, memory, stream)))
        ys.append(y)
        us.append(u)
    y, u, d_prime = np.stack(ys), np.stack(us), np.array(d_primes)
    d = decrypted_bit(kp, y, u)
    return (vstate, y, u, d_prime, d,
            accepts(vstate.b, np.asarray(b_primes), d, d_prime))


def _trials(params: Params, prover, trial_streams, include_pk: bool,
            transcript_sink) -> int:
    """How many of the trials on `trial_streams`, played as one chunk, the
    prover wins; each trial draws on its own sub-streams (verifier,
    prover, challenge) what a lone trial draws.  The challenge generators
    are seeded in one call, with the prover's for the quantum prover (the
    baseline never draws from them).  With a sink, each trial's transcript
    is made and handed to it in trial order.  A call of its own, so that
    one chunk's trapdoors are freed before the next chunk's are drawn."""
    pstreams, cstreams = ([t.derive(label) for t in trial_streams]
                          for label in ("prover", "challenge"))
    seed_streams(cstreams + pstreams if prover.quantum else cstreams)
    b_primes = [int(c.gen.integers(0, 2)) for c in cstreams]
    vstate, y, u, d_prime, d, wins = _play_chunk(
        params, prover, [t.derive("verifier") for t in trial_streams],
        pstreams, b_primes)
    if transcript_sink is not None:
        # every view first, so that the transcripts go out back to back
        views = [instance(vstate.keypair.pk, vstate.ct, i)
                 for i in range(len(trial_streams))]
        for i, (pk_i, ct_i) in enumerate(views):
            transcript_sink(make_transcript(
                pk_i, ct_i, y[i], u[i], vstate.b[i], b_primes[i],
                d[i], d_prime[i], seed_info=trial_streams[i].seed.hex(),
                include_pk=include_pk))
    return int(wins.sum())


def run_single_trial(params: Params, prover,
                     trial_stream: RngStream) -> Transcript:
    """One full protocol execution with sub-streams fixed per role, so a
    networked run with the same trial seed reproduces the transcript."""
    out = []
    _trials(params, prover, [trial_stream], False, out.append)
    return out[0]


def run_experiment(params: Params, prover, trials: int, stream: RngStream,
                   transcript_sink=None, include_pk: bool = False):
    """Monte Carlo over independent trials; deterministic given the stream
    seed and independent of any execution order since trial i always uses
    the sub-stream derive('trial', i).  Trials run chunk_size(params) at a
    time, each transcript is what run_single_trial gives on its stream,
    and transcripts are made only for a sink."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    wins = sum(_trials(params, prover, chunk, include_pk, transcript_sink)
               for chunk in chunks(stream, "trial", trials,
                                   chunk_size(params)))
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if prover.quantum:
        raise TypeError("rewinding requires a classical prover")
    wins = 0
    for i in range(trials):
        t = stream.derive("rewind", variant, i)
        vstate, (pk, ct) = verifier_round1(params, t)
        b_prime = int(t.derive("challenge").gen.integers(0, 2))
        if variant == "C''":
            # the same f encrypting 0: strip b * floor(q/4) from w
            ct = Ciphertext(a=ct.a, w=(ct.w - vstate.b * (params.q // 4))
                            % params.q)
        y, u, p = prover.first_response(pk, ct, t.derive("prover"))
        d_prime = int(prover.second_response(b_prime, p, t.derive("prover2")))
        if variant == "C":
            d = decrypted_bit(vstate.keypair, y, u)
        else:
            replay = t.derive("replay")
            votes = []
            for k in range(params.lam):
                bk = int(replay.derive("bk", k).gen.integers(0, 2))
                dk = int(prover.second_response(bk, p, replay.derive("dk", k)))
                votes.append(dk ^ (vstate.b & bk))
            d = _maj(votes)
        wins += int(accepts(vstate.b, b_prime, d, d_prime))
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
