import pytest

from rotated_tcf import protocol_q
from rotated_tcf.params import tiny_params
from rotated_tcf.protocol_q import (PROVERS, HonestQuantumProver,
                                    RandomProver, chunk_size, prover_round1)
from rotated_tcf.puzzle import (COMPLETENESS_TARGET, puzzle_G, puzzle_V,
                                repetition_experiment, solve_one,
                                threshold_repetition, verified_count)
from rotated_tcf.sampling import sample_bits


def test_completeness_target_value():
    import math
    assert abs(COMPLETENESS_TARGET - math.cos(math.pi / 8) ** 2) < 1e-15


def test_pipeline_scores_like_protocol(stream, desk):
    """G/O/S/V must implement exactly the d xor d' == b and b' predicate."""
    from rotated_tcf.trapdoor import invert
    from rotated_tcf.zq import bit_dot, bits_le_vec
    p, k, witness = puzzle_G(desk, stream.derive("g"))
    y, u, _ = prover_round1(HonestQuantumProver(), p.pk, p.ct, witness,
                            stream.derive("o"))
    for b_prime in (0, 1):
        for d_prime in (0, 1):
            x0 = invert(k.keypair.trapdoor, y)
            x1 = invert(k.keypair.trapdoor, (y + p.pk.v) % desk.q)
            d = bit_dot(u, bits_le_vec(x0, desk.Q) ^ bits_le_vec(x1, desk.Q))
            expect = int((d ^ d_prime) == (k.b & b_prime))
            assert puzzle_V(k, y, u, b_prime, d_prime) == expect


def test_solve_one_honest_and_baseline(stream, desk):
    wins_honest = 0
    wins_base = 0
    n = 120
    for i in range(n):
        t = stream.derive("i", i)
        p, k, witness = puzzle_G(desk, t.derive("g"))
        b_prime = i % 2
        wins_honest += solve_one(p, k, witness, b_prime, t.derive("h"))
        wins_base += solve_one(p, k, witness, b_prime, t.derive("b"),
                               solver="classical-baseline")
    assert wins_honest / n > 0.78
    assert 0.60 < wins_base / n < 0.88
    with pytest.raises(ValueError):
        p, k, witness = puzzle_G(desk, stream.derive("g2"))
        solve_one(p, k, witness, 0, stream, solver="psychic")


def test_threshold_validation(stream, desk):
    with pytest.raises(ValueError):
        threshold_repetition(desk, 10, 0.70, stream)  # below 3/4
    with pytest.raises(ValueError):
        threshold_repetition(desk, 10, 0.90, stream)  # above cos^2(pi/8)
    with pytest.raises(ValueError):
        threshold_repetition(desk, 0, 0.80, stream)
    with pytest.raises(ValueError):
        repetition_experiment(desk, 10, 0.80, 0, stream)


def test_threshold_counts_real_valued(stream, desk):
    # ell=3, alpha=0.8 requires at least ceil(2.4) = 3 verified instances,
    # i.e. the run passes only when every instance verifies
    passes = 0
    all_three = 0
    for r in range(30):
        t = stream.derive("run", r)
        ok = threshold_repetition(desk, 3, 0.8, t)
        # recompute by hand with the same seeds
        from rotated_tcf.sampling import sample_bits
        b_prime = int(sample_bits(1, t.derive("challenge"))[0])
        count = 0
        for i in range(3):
            inst = t.derive("instance", i)
            p, k, witness = puzzle_G(desk, inst.derive("gen"))
            count += solve_one(p, k, witness, b_prime, inst.derive("solve"))
        assert ok == (count >= 0.8 * 3)
        assert ok == (count == 3)
        passes += ok
        all_three += (count == 3)
    assert passes == all_three


def test_repetition_separates_honest_from_baseline(stream, desk):
    """Honest pass rate tracks the binomial tail P[Bin(20, 0.8536) >= 16]
    ~ 0.84.  The baseline, under the single shared challenge bit, passes
    almost surely when b' = 0 and almost never when b' = 1, so its rate
    sits near 1/2."""
    honest = repetition_experiment(desk, 20, 0.8, 60, stream.derive("h"))
    base = repetition_experiment(desk, 20, 0.8, 60, stream.derive("b"),
                                 solver="classical-baseline")
    assert honest.estimate >= 0.70
    assert 0.35 <= base.estimate <= 0.66
    assert honest.estimate > base.estimate + 0.1


def test_pass_rate_non_increasing_in_alpha(stream, desk):
    # same seeds -> same per-run counts, so a higher bar can only fail more
    rates = []
    for alpha in (0.78, 0.80, 0.82):
        stats = repetition_experiment(desk, 10, alpha, 20, stream.derive("g"))
        rates.append(stats.estimate)
    assert rates[0] >= rates[1] >= rates[2]


def test_obligation_is_single_qubit(stream, desk):
    from rotated_tcf.ghz import PhaseQubit
    p, k, witness = puzzle_G(desk, stream.derive("g"))
    y, u, memory = prover_round1(HonestQuantumProver(), p.pk, p.ct, witness,
                                 stream.derive("o"))
    assert isinstance(memory.qubit, PhaseQubit)
    assert u.shape == (desk.nQ,)


def test_repetition_deterministic(stream, desk):
    a = repetition_experiment(desk, 5, 0.8, 5, stream.derive("x"))
    b = repetition_experiment(desk, 5, 0.8, 5, stream.derive("x"))
    assert a == b


def _verified_one_by_one(params, ell, stream, solver):
    """The per-instance loop the chunked driver replaced, kept as its
    reference: puzzle_G and solve_one on each instance's streams."""
    b_prime = int(sample_bits(1, stream.derive("challenge"))[0])
    count = 0
    for i in range(ell):
        inst = stream.derive("instance", i)
        p, k, witness = puzzle_G(params, inst.derive("gen"))
        count += solve_one(p, k, witness, b_prime, inst.derive("solve"),
                           solver=solver)
    return count


@pytest.mark.parametrize("solver", sorted(PROVERS))
def test_chunked_count_equals_per_instance_loop(stream, desk, solver):
    """Chunks of chunk_size(desk) instances, a partial last chunk, and a
    run of one verify exactly the instances the one-by-one loop
    verifies."""
    size = chunk_size(desk)
    for ell in (1, size - 1, size, size + 1, 50):
        for seed in range(3 if ell < 50 else 1):
            t = stream.derive(ell, seed)
            assert (verified_count(desk, ell, t, solver)
                    == _verified_one_by_one(desk, ell, t, solver))
    # n = 1 with the largest modulus, where N is multiplied in int64
    big = tiny_params(1, (1 << 61) - 1)
    t = stream.derive("q2^61-1")
    ell = chunk_size(big) + 1
    assert (verified_count(big, ell, t, solver)
            == _verified_one_by_one(big, ell, t, solver))


def test_fifty_instances_make_two_stacked_set_ups(stream, desk,
                                                 monkeypatch):
    """A 50-instance count at desk is two chunks: one stacked key set-up
    over the gen streams of instances 0-24, then one over 25-49."""
    setups = []
    stacked = protocol_q.verifier_round1_stacked

    def spy(params, streams):
        setups.append([s.seed for s in streams])
        return stacked(params, streams)
    monkeypatch.setattr(protocol_q, "verifier_round1_stacked", spy)
    verified_count(desk, 50, stream, "classical-baseline")

    def seeds(instances):
        return [stream.derive("instance", i).derive("gen").seed
                for i in instances]
    assert setups == [seeds(range(25)), seeds(range(25, 50))]


def test_chunked_solver_sees_the_calls_of_the_loop(stream, desk,
                                                   monkeypatch):
    """Each instance's prover turns run on their own and in instance order:
    the solver is called with the same keys, ciphertexts, challenge and
    streams, in the same order, as by the one-by-one loop."""
    calls = []

    class Recording(RandomProver):
        def first_response(self, pk, ct, stream):
            y, u, p = super().first_response(pk, ct, stream)
            calls.append(("first", pk.A.tobytes(), pk.v.tobytes(),
                          ct.a.tobytes(), ct.w, stream.seed, y.tobytes(),
                          u.tobytes()))
            return y, u, p

        def second_response(self, b_prime, p, stream):
            d_prime = super().second_response(b_prime, p, stream)
            calls.append(("second", b_prime, stream.seed, d_prime))
            return d_prime

    monkeypatch.setitem(PROVERS, "recording", Recording)
    ell = chunk_size(desk) + 1
    verified_count(desk, ell, stream, "recording")
    chunked = calls[:]
    calls.clear()
    _verified_one_by_one(desk, ell, stream, "recording")
    assert len(chunked) == 2 * ell
    assert [c[0] for c in chunked] == ["first", "second"] * ell
    assert chunked == calls
