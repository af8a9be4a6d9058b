"""Blind delegated preparation of (|0> + e^(2 pi i alpha / q) |1>)/sqrt(2)
up to a Z^b flip, where the client keeps alpha hidden and learns b from the
server's measurement outcomes.

The client's message is the quantumness test's first message (pk, ct): a
trapdoor key pk = (A, v = As + e) and a Regev-style encryption of alpha,
ct = (a, w) = (f^T A, f^T v + alpha).  The server runs the test's claw-state
measurement cascade on it and rotates the surviving qubit by 2 pi w / q.
With the additive-alpha convention used here, the server ends up holding
Z^b (|0> + e^(2 pi i (f^T e + alpha)/q)|1>), so the only deviation from the
target is the noise term f^T e.

`sign_convention="subtractive"` instead sends w = f^T v - alpha and rotates
by -2 pi w / q; it is retained as an executable record of an alternative
convention that does NOT steer the qubit to the target (the accuracy test
for it is expected to fail).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ghz import PhaseQubit
# Not called here: perfbench/layers.py looks these names up on rsp.
from .ghz import (angle_sequence, simulate_basis_measurement,
                  simulate_ghz_measurement)
from .params import Params
from .protocol_q import claw_bit, honest_prover_round1
from .regev import KeypairJ, encrypt_zq, gen_j, gen_k
from .sampling import RngStream, sample_bits, sample_uniform
from .trapdoor import find_preimage
from .trapdoor import invert  # not called: perfbench/layers.py rebinds it
from .zq import centered_abs, matmul_mod


@dataclass
class ClientState:
    keypair: KeypairJ
    f: np.ndarray
    alpha: int


@dataclass(frozen=True)
class RspOutcome:
    b: int | None = None            # None when the client aborted
    target: PhaseQubit | None = None

    @property
    def aborted(self) -> bool:
        return self.b is None


def rsp_client_round1(params: Params, alpha: int, stream: RngStream,
                      sign_convention: str = "additive",
                      force_zero_noise: bool = False):
    """Returns (ClientState, (pk, ct)), ct an encryption of alpha."""
    if sign_convention not in ("additive", "subtractive"):
        raise ValueError("sign_convention must be additive or subtractive")
    if not 0 <= alpha < params.q:
        raise ValueError("alpha must lie in Z_q")
    bound = 2 * params.m * params.sigma
    # tau's floor first: a cheap test that settles it unless tau is close
    if params.tau_floor < bound and params.tau < bound:
        raise ValueError("blind preparation requires tau >= 2 m sigma")
    kp = gen_j(params, stream.derive("key"))
    if force_zero_noise:
        # test hook: replace e with 0 so the prepared state is exact
        pk = replace(kp.pk, v=matmul_mod(kp.pk.A, kp.s, params.q))
        kp = replace(kp, pk=pk, e=np.zeros(params.m, dtype=np.int64))
    payload = alpha if sign_convention == "additive" else (-alpha) % params.q
    f = sample_bits(params.m, stream.derive("f"))
    ct = encrypt_zq(kp.pk, payload, f)
    state = ClientState(keypair=kp, f=f, alpha=alpha)
    return state, (kp.pk, ct)


def rsp_server_round(msg, witness, stream: RngStream,
                     sign_convention: str = "additive"):
    """The quantumness test's claw cascade on the client's message, at its
    key's params; returns ((y, u), beta) where beta is the exact state of
    the qubit the server keeps.  The subtractive rotation by -2 pi w / q
    is the cascade's rotation by 2 pi ((-w) mod q) / q."""
    pk, ct = msg
    if sign_convention != "additive":
        ct = replace(ct, w=(-ct.w) % pk.params.q)
    state, (y, u) = honest_prover_round1(pk.params, pk, ct, witness, stream)
    return (y, u), state.qubit


def rsp_client_finish(state: ClientState, y: np.ndarray,
                      u: np.ndarray) -> RspOutcome:
    """Abort unless y admits preimages on both branches; otherwise recover
    the flip bit b = ([x0] xor [x1]) . u and describe the target state."""
    kp = state.keypair
    p = kp.pk.params
    found = find_preimage(kp.trapdoor, np.array([y, (y + kp.pk.v) % p.q]))
    if found is None:
        return RspOutcome()
    b = claw_bit(found[0], u, p.Q)
    target = PhaseQubit(q=p.q, units=(2 * state.alpha + p.q * b) % (2 * p.q))
    return RspOutcome(b=b, target=target)


def trace_distance(q1: PhaseQubit, q2: PhaseQubit) -> float:
    """2 |sin((phi1 - phi2)/2)| for two equator states."""
    if q1.basis is not None or q2.basis is not None:
        raise ValueError("trace distance formula needs equator states")
    if q1.q != q2.q:
        raise ValueError("mismatched moduli")
    delta = (q1.units - q2.units) % (2 * q1.q)
    return 2 * abs(math.sin(math.pi * delta / (2 * q1.q)))


def run_rsp_once(params: Params, alpha: int, stream: RngStream,
                 sign_convention: str = "additive",
                 force_zero_noise: bool = False):
    """Full client/server exchange; returns (outcome, beta, client_state)."""
    state, msg = rsp_client_round1(params, alpha, stream.derive("client"),
                                   sign_convention=sign_convention,
                                   force_zero_noise=force_zero_noise)
    witness = (state.keypair.s, state.keypair.e)
    (y, u), beta = rsp_server_round(msg, witness, stream.derive("server"),
                                    sign_convention=sign_convention)
    outcome = rsp_client_finish(state, y, u)
    return outcome, beta, state


def run_rsp_experiment(params: Params, trials: int, stream: RngStream,
                       alpha: int | None = None,
                       sign_convention: str = "additive",
                       force_zero_noise: bool = False):
    """`trials` runs of `run_rsp_once`, run i on stream.derive('run', i)
    with the fixed `alpha` or else one drawn from that run's stream.
    Returns (aborts, trace_distances, noise_l1); the two lists hold each
    kept run's distance from its target and the l1 norm of its e."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    distances, noise_l1 = [], []
    for i in range(trials):
        run = stream.derive("run", i)
        run_alpha = alpha if alpha is not None else \
            int(run.derive("alpha").gen.integers(0, params.q))
        outcome, beta, state = run_rsp_once(
            params, run_alpha, run, sign_convention=sign_convention,
            force_zero_noise=force_zero_noise)
        if not outcome.aborted:
            distances.append(trace_distance(outcome.target, beta))
            noise_l1.append(int(centered_abs(state.keypair.e, params.q).sum()))
    return trials - len(distances), distances, noise_l1


# ---------------------------------------------------------------------------
# Blindness-game distributions.  D_x uses a trapdoor-shaped A, the tilde
# variant uses uniform A, and D is fully uniform; the hybrid argument for
# blindness walks exactly this chain.


def blindness_sampler(which: str, x: int, params: Params, stream: RngStream):
    q, m, n = params.q, params.m, params.n
    if which == "D":
        A = stream.derive("A").gen.integers(0, q, size=(m, n), dtype=np.int64)
        v = sample_uniform(m, q, stream.derive("v"))
        a = sample_uniform(n, q, stream.derive("a"))
        w = int(sample_uniform(1, q, stream.derive("w"))[0])
        return A, v, a, w
    if which not in ("D_x", "D_x_tilde"):
        raise ValueError("which must be D_x, D_x_tilde or D")
    pk = (gen_j if which == "D_x" else gen_k)(params, stream).pk
    ct = encrypt_zq(pk, x, sample_bits(m, stream.derive("fbits")))
    return pk.A, pk.v, ct.a, ct.w
