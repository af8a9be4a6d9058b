"""The protocol's exact phase algebra, checked trial by trial.

An honest trial whose claw has two preimages leaves the prover a qubit
whose phase, in units of pi/q, is q d + 2 f^T e + 2 b floor(q/4) mod 2q:
the cascade contributes q d - 2 a.s and the rotation by w = a.s + f^T e +
b floor(q/4) the rest.  Blind preparation gives 2 alpha + q b + 2 f^T e,
so each run's trace distance from its target is 2 |sin(pi f^T e / q)|.
These checks hold with no randomness, at any modulus, and cover the
cascade, the rotation and the trapdoor's decoding together; the phase
identities are also checked at random admitted small sets.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotated_tcf.params import desk_preset, next_prime, tiny_params
from rotated_tcf.protocol_q import (chunk_size, chunks, decrypted_bit,
                                    honest_prover_round1_stacked,
                                    verifier_round1_stacked)
from rotated_tcf.rsp import run_rsp_once, trace_distance
from rotated_tcf.sampling import RngStream, sample_bits
from rotated_tcf.zq import centered_lift

TRIALS = 256


def _noise_term(f, e, q):
    """f^T e with e lifted to the centered range, a Python int."""
    return int(np.dot(f, centered_lift(e, q)))


def _two_preimage_trials(params, stream, trials):
    """How many of `trials` honest trials on `stream` have two preimages,
    after asserting units = q d + 2 f^T e + 2 b floor(q/4) mod 2q on
    each, d the claw bit the trapdoor decodes and f drawn again from the
    trial's verifier/f stream."""
    q = params.q
    two_preimage = 0
    for chunk in chunks(stream, "trial", trials, chunk_size(params)):
        vstate, (pk, ct) = verifier_round1_stacked(
            params, [t.derive("verifier") for t in chunk])
        kp = vstate.keypair
        states, (y, u) = honest_prover_round1_stacked(
            params, pk, ct, (kp.s, kp.e),
            [t.derive("prover") for t in chunk])
        d = decrypted_bit(kp, y, u)
        for i, (t, state) in enumerate(zip(chunk, states)):
            if state.claw_case != "two-preimage":
                continue
            f = sample_bits(params.m, t.derive("verifier").derive("f"))
            want = (q * int(d[i]) + 2 * _noise_term(f, kp.e[i], q)
                    + 2 * int(vstate.b[i]) * (q // 4)) % (2 * q)
            assert state.qubit.units == want
            two_preimage += 1
    return two_preimage


def _kept_blind_runs(params, stream, runs):
    """(target, beta, f^T e) for each kept run of `runs` blind
    preparations on `stream`, after asserting units(beta) = 2 alpha + q b
    + 2 f^T e mod 2q on each."""
    q = params.q
    kept = []
    for i in range(runs):
        run = stream.derive("run", i)
        alpha = int(run.derive("alpha").gen.integers(0, q))
        outcome, beta, state = run_rsp_once(params, alpha, run)
        if outcome.aborted:
            continue
        noise = _noise_term(state.f, state.keypair.e, q)
        assert beta.units == (2 * alpha + q * outcome.b + 2 * noise) % (2 * q)
        kept.append((outcome.target, beta, noise))
    return kept


@pytest.mark.parametrize("params", [
    desk_preset(),
    tiny_params(2, 1048583, 2.0),
    tiny_params(2, next_prime(3 << 59), 2.0),
], ids=["desk", "mixed", "q3<<59"])
def test_two_preimage_phase_is_q_d_plus_noise_plus_bit(stream, params):
    """The two-preimage phase identity on every honest trial.  The 61-bit
    modulus is one where every A.x product needs limbs."""
    # two preimages on nearly every trial at desk and at 61 bits, and on
    # about 60 % at MIXED
    assert _two_preimage_trials(params, stream, TRIALS) >= TRIALS // 2


def test_blind_preparation_phase_and_distance(stream):
    """The blind preparation's phase on every kept desk run, and its trace
    distance to the target, 2 |sin(pi f^T e / q)|."""
    params = desk_preset()
    kept = _kept_blind_runs(params, stream, TRIALS)
    for target, beta, noise in kept:
        assert trace_distance(target, beta) == pytest.approx(
            2 * abs(math.sin(math.pi * noise / params.q)), rel=1e-9,
            abs=1e-15)
    assert len(kept) >= TRIALS * 9 // 10


@st.composite
def _small_params(draw):
    """An admitted small set: n <= 6, q a prime of 5 to 61 bits (the
    largest, 2^61 - 1, is prime) and sigma from 1 to 100."""
    bits = draw(st.integers(5, 61))
    q = next_prime(draw(st.integers(1 << (bits - 1), (1 << bits) - 1)))
    return tiny_params(draw(st.integers(1, 6)), q,
                       draw(st.sampled_from([1, 1.5, 2, 3, 8, 100])))


def test_both_identities_hold_at_admitted_small_sets():
    """Both identities at random admitted small sets.  Blind preparation
    is checked where rsp_client_round1 admits the set, tau >= 2 m sigma,
    and its refusal elsewhere."""
    seen = {"two-preimage": 0, "kept": 0}

    @settings(max_examples=200, deadline=None, database=None)
    @given(_small_params(), st.binary(min_size=32, max_size=32))
    def identities(params, seed):
        stream = RngStream(seed)
        seen["two-preimage"] += _two_preimage_trials(
            params, stream.derive("poq"), 8)
        if params.tau < 2 * params.m * params.sigma:
            with pytest.raises(ValueError, match="tau"):
                run_rsp_once(params, 0, stream.derive("rsp"))
        else:
            seen["kept"] += len(_kept_blind_runs(params, stream.derive("rsp"),
                                                 4))

    identities()
    assert seen["two-preimage"] > 0 and seen["kept"] > 0
