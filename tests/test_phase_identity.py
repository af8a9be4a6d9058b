"""The protocol's exact phase algebra, checked trial by trial.

An honest trial whose claw has two preimages leaves the prover a qubit
whose phase, in units of pi/q, is q d + 2 f^T e + 2 b floor(q/4) mod 2q:
the cascade contributes q d - 2 a.s and the rotation by w = a.s + f^T e +
b floor(q/4) the rest.  Blind preparation gives 2 alpha + q b + 2 f^T e,
so each run's trace distance from its target is 2 |sin(pi f^T e / q)|.
These checks hold with no randomness, at any modulus, and cover the
cascade, the rotation and the trapdoor's decoding together.
"""
import math

import numpy as np
import pytest

from rotated_tcf.params import desk_preset, next_prime, tiny_params
from rotated_tcf.protocol_q import (chunks, decrypted_bit,
                                    honest_prover_round1_stacked,
                                    verifier_round1_stacked)
from rotated_tcf.rsp import run_rsp_once, trace_distance
from rotated_tcf.sampling import sample_bits
from rotated_tcf.zq import centered_lift

TRIALS = 256


def _noise_term(f, e, q):
    """f^T e with e lifted to the centered range, a Python int."""
    return int(np.dot(f, centered_lift(e, q)))


@pytest.mark.parametrize("params", [
    desk_preset(),
    tiny_params(2, 1048583, 2.0),
    tiny_params(2, next_prime(3 << 59), 2.0),
], ids=["desk", "mixed", "q3<<59"])
def test_two_preimage_phase_is_q_d_plus_noise_plus_bit(stream, params):
    """units = q d + 2 f^T e + 2 b floor(q/4) mod 2q on every honest
    two-preimage trial, d the claw bit the trapdoor decodes and f drawn
    again from the trial's verifier/f stream.  The 61-bit modulus is one
    where every A.x product needs limbs."""
    q = params.q
    two_preimage = 0
    for trials in chunks(stream, "trial", TRIALS):
        vstate, (pk, ct) = verifier_round1_stacked(
            params, [t.derive("verifier") for t in trials])
        kp = vstate.keypair
        states, (y, u) = honest_prover_round1_stacked(
            params, pk, ct, (kp.s, kp.e),
            [t.derive("prover") for t in trials])
        d = decrypted_bit(kp, y, u)
        for i, (t, state) in enumerate(zip(trials, states)):
            if state.claw_case != "two-preimage":
                continue
            f = sample_bits(params.m, t.derive("verifier").derive("f"))
            want = (q * int(d[i]) + 2 * _noise_term(f, kp.e[i], q)
                    + 2 * int(vstate.b[i]) * (q // 4)) % (2 * q)
            assert state.qubit.units == want
            two_preimage += 1
    # two preimages on nearly every trial at desk and at 61 bits, and on
    # about 60 % at MIXED
    assert two_preimage >= TRIALS // 2


def test_blind_preparation_phase_and_distance(stream):
    """units(beta) = 2 alpha + q b + 2 f^T e mod 2q on every kept desk
    run, and the trace distance to the target is 2 |sin(pi f^T e / q)|."""
    params = desk_preset()
    q = params.q
    kept = 0
    for i in range(TRIALS):
        run = stream.derive("run", i)
        alpha = int(run.derive("alpha").gen.integers(0, q))
        outcome, beta, state = run_rsp_once(params, alpha, run)
        if outcome.aborted:
            continue
        noise = _noise_term(state.f, state.keypair.e, q)
        assert beta.units == (2 * alpha + q * outcome.b + 2 * noise) % (2 * q)
        assert trace_distance(outcome.target, beta) == pytest.approx(
            2 * abs(math.sin(math.pi * noise / q)), rel=1e-9, abs=1e-15)
        kept += 1
    assert kept >= TRIALS * 9 // 10
