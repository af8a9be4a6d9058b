"""Blind delegated preparation of (|0> + e^(2 pi i alpha / q) |1>)/sqrt(2)
up to a Z^b flip, where the client keeps alpha hidden and learns b from the
server's measurement outcomes.

The client's message doubles as a Regev-style encryption of alpha: it sends
(A, v = As + e) and (a, w) = (f^T A, f^T v + alpha).  The server runs the
same claw-state measurement cascade as the quantumness test and rotates the
surviving qubit by 2 pi w / q.  With the additive-alpha convention used
here, the server ends up holding Z^b (|0> + e^(2 pi i (f^T e + alpha)/q)|1>)
so the only deviation from the target is the noise term f^T e.

`sign_convention="subtractive"` instead sends w = f^T v - alpha and rotates
by -2 pi w / q; it is retained as an executable record of an alternative
convention that does NOT steer the qubit to the target (the accuracy test
for it is expected to fail).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ghz import PhaseQubit
# Not called here: perfbench/layers.py looks these names up on rsp.
from .ghz import (angle_sequence, simulate_basis_measurement,
                  simulate_ghz_measurement)
from .params import Params
from .protocol_q import honest_prover_round1
from .regev import Ciphertext, PublicKey, encrypt_zq, gen_j
from .sampling import RngStream, sample_bits, sample_noise, sample_uniform
from .trapdoor import find_preimage, gen_trap
from .trapdoor import invert  # not called: perfbench/layers.py rebinds it
from .zq import bit_dot, bits_le_vec, matmul_mod


@dataclass
class ClientState:
    params: Params
    keypair: "object"            # KeypairJ: A + trapdoor, s, e
    f: np.ndarray
    alpha: int
    a: np.ndarray
    w: int
    sign_convention: str = "additive"


@dataclass(frozen=True)
class RspOutcome:
    aborted: bool
    b: int | None = None
    target: PhaseQubit | None = None


def rsp_client_round1(params: Params, alpha: int, stream: RngStream,
                      sign_convention: str = "additive",
                      force_zero_noise: bool = False):
    """Returns (ClientState, message) with message = ((A, v), (a, w))."""
    if sign_convention not in ("additive", "subtractive"):
        raise ValueError("sign_convention must be additive or subtractive")
    if not 0 <= alpha < params.q:
        raise ValueError("alpha must lie in Z_q")
    if params.tau < 2 * params.m * params.sigma:
        raise ValueError("blind preparation requires tau >= 2 m sigma")
    kp = gen_j(params, stream.derive("key"))
    if force_zero_noise:
        # test hook: replace e with 0 so the prepared state is exact
        e = np.zeros(params.m, dtype=np.int64)
        v = matmul_mod(kp.pk.A, kp.s, params.q)
        kp = type(kp)(pk=type(kp.pk)(params=params, A=kp.pk.A, v=v),
                      s=kp.s, e=e, trapdoor=kp.trapdoor)
    payload = alpha if sign_convention == "additive" else (-alpha) % params.q
    ct, f = encrypt_zq(kp.pk, payload, stream.derive("f"))
    state = ClientState(params=params, keypair=kp, f=f, alpha=alpha,
                        a=ct.a, w=ct.w, sign_convention=sign_convention)
    return state, ((kp.pk.A, kp.pk.v), (ct.a, ct.w))


def rsp_server_round(params: Params, msg, witness, stream: RngStream,
                     sign_convention: str = "additive"):
    """The quantumness test's claw cascade on the client's message; returns
    ((y, u), beta) where beta is the exact state of the qubit the server
    keeps.  The subtractive rotation by -2 pi w / q is the cascade's
    rotation by 2 pi ((-w) mod q) / q."""
    (A, v), (a, w) = msg
    if sign_convention != "additive":
        w = (-w) % params.q
    state, (y, u) = honest_prover_round1(
        params, PublicKey(params=params, A=A, v=v), Ciphertext(a=a, w=w),
        witness, stream)
    return (y, u), state.qubit


def rsp_client_finish(state: ClientState, y: np.ndarray,
                      u: np.ndarray) -> RspOutcome:
    """Abort unless y admits preimages on both branches; otherwise recover
    the flip bit b = ([x0] xor [x1]) . u and describe the target state."""
    p = state.params
    kp = state.keypair
    branch0 = find_preimage(kp.trapdoor, y, None, p.tau)
    if branch0 is None:
        return RspOutcome(aborted=True)
    if find_preimage(kp.trapdoor, y, kp.pk.v, p.tau) is None:
        return RspOutcome(aborted=True)
    x0 = branch0[0]
    x1 = (x0 + kp.s) % p.q
    z = bits_le_vec(x0, p.Q) ^ bits_le_vec(x1, p.Q)
    b = bit_dot(u, z)
    target = PhaseQubit(q=p.q, units=(2 * state.alpha + p.q * b) % (2 * p.q))
    return RspOutcome(aborted=False, b=b, target=target)


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
    (y, u), beta = rsp_server_round(params, msg, witness,
                                    stream.derive("server"),
                                    sign_convention=sign_convention)
    outcome = rsp_client_finish(state, y, u)
    return outcome, beta, state


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
    if which == "D_x":
        A = gen_trap(params, stream.derive("trap")).A
    elif which == "D_x_tilde":
        A = stream.derive("A").gen.integers(0, q, size=(m, n), dtype=np.int64)
    else:
        raise ValueError("which must be D_x, D_x_tilde or D")
    s = sample_uniform(n, q, stream.derive("s"))
    e = sample_noise(params, stream.derive("e"))
    v = (matmul_mod(A, s, q) + e) % q
    f = sample_bits(m, stream.derive("fbits"))
    a = matmul_mod(f, A, q)
    w = (int(matmul_mod(f, v, q)) + x) % q
    return A, v, a, w
