from fractions import Fraction

import numpy as np
import pytest

from rotated_tcf.protocol_q import (BaselineProver, DeterministicProver,
                                    HonestQuantumProver, RandomProver,
                                    SECOND_RESPONSE_RULES, decrypted_bit,
                                    deterministic_family,
                                    exact_ct_independent_win_prob,
                                    honest_prover_round1, honest_prover_round2,
                                    rewinding_experiment, run_experiment,
                                    run_single_trial, verifier_round1,
                                    verifier_score)
from rotated_tcf.sampling import sample_uniform
from rotated_tcf.zq import bit_dot, bits_le_vec, matmul_mod


def test_verifier_round1_encrypts_its_bit(stream, desk):
    vstate, (pk, ct) = verifier_round1(desk, stream)
    from rotated_tcf.regev import decrypt_bit
    assert decrypt_bit(vstate.keypair.s, ct, desk.q) == vstate.b
    assert pk is vstate.keypair.pk


def test_honest_prover_rejects_bad_witness(stream, desk):
    vstate, (pk, ct) = verifier_round1(desk, stream.derive("v"))
    bad = (vstate.keypair.s, (vstate.keypair.e + 1) % desk.q)
    with pytest.raises(ValueError):
        honest_prover_round1(desk, pk, ct, bad, stream.derive("p"))


def test_honest_image_admits_claw(stream, desk):
    """In the two-preimage case the verifier recovers x0 and x1 = x0 + s."""
    vstate, (pk, ct) = verifier_round1(desk, stream.derive("v"))
    witness = (vstate.keypair.s, vstate.keypair.e)
    found = 0
    for i in range(10):
        pstate, (y, u) = honest_prover_round1(desk, pk, ct, witness,
                                              stream.derive("p", i))
        if pstate.claw_case != "two-preimage":
            continue
        found += 1
        from rotated_tcf.trapdoor import invert
        x0 = invert(vstate.keypair.trapdoor, y)
        x1 = invert(vstate.keypair.trapdoor, (y + pk.v) % desk.q)
        assert np.array_equal((x1 - x0) % desk.q, vstate.keypair.s)
    assert found > 0  # two-preimage probability is about 1/2


def test_zero_u_forces_d_zero(stream, desk):
    vstate, (pk, ct) = verifier_round1(desk, stream)
    y = matmul_mod(pk.A, np.zeros(desk.n, dtype=np.int64), desk.q)
    u = np.zeros(desk.nQ, dtype=np.int64)
    assert decrypted_bit(vstate.keypair.trapdoor, pk.v, y, u) == 0


def test_verifier_score_matches_predicate(stream, desk):
    vstate, (pk, ct) = verifier_round1(desk, stream)
    vstate.b_prime = 1
    y = np.zeros(desk.m, dtype=np.int64)
    u = np.zeros(desk.nQ, dtype=np.int64)
    t = verifier_score(vstate, y, u, d_prime=0)
    assert t.success == ((t.d ^ 0) == (vstate.b & 1))
    assert t.b == vstate.b and t.b_prime == 1


def test_baseline_wins_iff_not_both_bits(stream, desk):
    prover = BaselineProver()
    for i in range(40):
        t = run_single_trial(desk, prover, stream.derive("t", i))
        assert t.d == 0 and t.d_prime == 0
        assert t.success == (not (t.b and t.b_prime))


def test_baseline_rate_near_three_quarters(stream, desk):
    stats = run_experiment(desk, BaselineProver(), 800, stream)
    lo, hi = stats.ci
    assert lo <= 0.75 <= hi


def test_random_prover_near_half(stream, desk):
    stats = run_experiment(desk, RandomProver(), 600, stream)
    assert 0.40 <= stats.estimate <= 0.60


def test_honest_prover_beats_baseline(stream, desk):
    stats = run_experiment(desk, HonestQuantumProver(), 600, stream)
    assert stats.estimate > 0.80


def test_run_experiment_deterministic(stream, desk):
    a = run_experiment(desk, BaselineProver(), 60, stream.derive("e"))
    b = run_experiment(desk, BaselineProver(), 60, stream.derive("e"))
    assert a == b


def test_run_experiment_validates_trials(stream, desk):
    with pytest.raises(ValueError):
        run_experiment(desk, BaselineProver(), 0, stream)


def test_transcript_sink_receives_every_trial(stream, desk):
    seen = []
    stats = run_experiment(desk, BaselineProver(), 25, stream,
                           transcript_sink=seen.append)
    assert len(seen) == 25
    assert sum(t.success for t in seen) == stats.successes


def test_deterministic_family_is_exhaustive():
    family = deterministic_family()
    assert len(family) == 8
    assert len({p.name for p in family}) == 8
    with pytest.raises(ValueError):
        DeterministicProver(2, "zero")
    with pytest.raises(ValueError):
        DeterministicProver(0, "bogus")


def test_rewinding_requires_replayable(stream, desk):
    with pytest.raises(TypeError):
        rewinding_experiment("C", desk, HonestQuantumProver(), 5, stream)
    with pytest.raises(ValueError):
        rewinding_experiment("D", desk, BaselineProver(), 5, stream)


def test_rewinding_baseline_consistent_across_variants(stream, desk):
    for variant in ("C", "C'", "C''"):
        stats = rewinding_experiment(variant, desk, BaselineProver(), 400,
                                     stream.derive(variant))
        lo, hi = stats.ci
        assert lo <= 0.75 <= hi, (variant, stats.summary())


def test_exact_ct_independent_bound():
    """Every deterministic ct-independent strategy wins the stripped
    rewinding experiment with probability exactly 3/4."""
    for prover in deterministic_family():
        for lam in (1, 3, 4, 7):
            p = exact_ct_independent_win_prob(prover, lam)
            assert p <= Fraction(3, 4)
            assert p == Fraction(3, 4)


def test_exact_bound_matches_monte_carlo(stream, desk):
    prover = DeterministicProver(1, "copy")
    exact = float(exact_ct_independent_win_prob(prover, desk.lam))
    stats = rewinding_experiment("C''", desk, prover, 400, stream)
    lo, hi = stats.ci
    assert lo <= exact <= hi


def test_second_response_rules_cover_all_bit_functions():
    tables = {tuple(rule(bp) for bp in (0, 1))
              for rule in SECOND_RESPONSE_RULES.values()}
    assert tables == {(0, 0), (1, 1), (0, 1), (1, 0)}


def test_single_trial_reproducible_and_seeded(stream, desk):
    a = run_single_trial(desk, BaselineProver(), stream.derive("x"))
    b = run_single_trial(desk, BaselineProver(), stream.derive("x"))
    assert a == b
    assert a.seed_info == stream.derive("x").seed.hex()


def test_honest_round2_is_a_bit(stream, desk):
    vstate, (pk, ct) = verifier_round1(desk, stream.derive("v"))
    witness = (vstate.keypair.s, vstate.keypair.e)
    pstate, _ = honest_prover_round1(desk, pk, ct, witness, stream.derive("p"))
    assert honest_prover_round2(pstate, 1, stream.derive("c")) in (0, 1)


def test_decrypted_bit_flips_with_single_claw_bit(stream, desk):
    """Flip one bit of u where the claw strings differ: d flips too."""
    vstate, (pk, ct) = verifier_round1(desk, stream.derive("v"))
    s, e = vstate.keypair.s, vstate.keypair.e
    x0 = sample_uniform(desk.n, desk.q, stream.derive("x"))
    y = matmul_mod(pk.A, x0, desk.q)
    x1 = (x0 + s) % desk.q
    z = bits_le_vec(x0, desk.Q) ^ bits_le_vec(x1, desk.Q)
    hot = int(np.flatnonzero(z)[0])
    u = np.zeros(desk.nQ, dtype=np.int64)
    # e is absorbed into the allowed noise: y = A x0 + 0, y + v = A x1 + e
    d0 = decrypted_bit(vstate.keypair.trapdoor, pk.v, y, u)
    u[hot] = 1
    d1 = decrypted_bit(vstate.keypair.trapdoor, pk.v, y, u)
    assert d0 == 0 and d1 == 1
    assert bit_dot(u, z) == 1
