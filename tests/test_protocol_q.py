import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rotated_tcf import protocol_q, regev
from rotated_tcf.params import MAX_N, next_prime, tiny_params
from rotated_tcf.protocol_q import (CHUNK, PROVERS, BaselineProver,
                                    ClassicalProver, DeterministicProver,
                                    HonestQuantumProver, RandomProver,
                                    SECOND_RESPONSE_RULES, chunk_size,
                                    chunks, decrypted_bit,
                                    deterministic_family,
                                    exact_ct_independent_win_prob,
                                    honest_prover_round1,
                                    honest_prover_round1_stacked,
                                    rewinding_experiment, run_experiment,
                                    run_single_trial, verifier_round1,
                                    verifier_score)
from rotated_tcf.regev import instance
from rotated_tcf.sampling import (sample_box_stacked, sample_uniform,
                                  seed_streams)
from rotated_tcf.zq import (MMAP_THRESHOLD, bit_dot, bits_le_vec,
                            centered_abs, matmul_mod)


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


def _stacked_instances(params, stream, count):
    """A stacked verifier set-up of `count` instances, its witness, and one
    fresh prover stream per instance."""
    vstate, (pk, ct) = protocol_q.verifier_round1_stacked(
        params, [stream.derive("v", i) for i in range(count)])
    witness = (vstate.keypair.s, vstate.keypair.e)
    return pk, ct, witness, [stream.derive("p", i) for i in range(count)]


@pytest.mark.parametrize("preset", ["desk", "mixed"])
def test_stacked_prover_turn_equals_one_instance_turns(stream, request,
                                                       preset):
    """The stacked turn gives each instance the claw case, kept qubit, y
    and u that a lone turn on the same stream gives, and leaves each
    stream where the lone turn leaves it."""
    params = request.getfixturevalue(preset)
    pk, ct, witness, streams = _stacked_instances(params, stream, CHUNK + 1)
    states, (y, u) = honest_prover_round1_stacked(params, pk, ct, witness,
                                                  streams)
    cases = set()
    for i, state in enumerate(states):
        lone = stream.derive("p", i)
        pk_i, ct_i = instance(pk, ct, i)
        state_i, (y_i, u_i) = honest_prover_round1(
            params, pk_i, ct_i, (witness[0][i], witness[1][i]), lone)
        assert state == state_i
        assert y[i].tolist() == y_i.tolist() and u[i].tolist() == u_i.tolist()
        assert streams[i].gen.random() == lone.gen.random()
        cases.add(state.claw_case)
    if preset == "mixed":
        assert cases == {"two-preimage", "single-preimage"}


def test_claw_case_is_the_two_preimage_mask(stream, mixed):
    """At MIXED each state's claw case is whether |g + e| (c = 0) or
    |g - e| (c = 1) stays within tau, from x, c and g drawn again on a
    twin of the instance's prover stream; both cases occur."""
    p = mixed
    pk, ct, (s, e), streams = _stacked_instances(p, stream, 2 * CHUNK)
    states, _ = honest_prover_round1_stacked(p, pk, ct, (s, e), streams)
    want = []
    for i in range(len(streams)):
        twin = stream.derive("p", i)
        sample_uniform(p.n, p.q, twin)
        c = int(twin.gen.integers(0, 2))
        (g,) = sample_box_stacked(p.m, p.tau_floor, p.q, [twin])
        z = centered_abs((g + (1 - 2 * c) * e[i]) % p.q, p.q)
        want.append("two-preimage" if z.max() <= p.tau
                    else "single-preimage")
    assert [state.claw_case for state in states] == want
    assert set(want) == {"two-preimage", "single-preimage"}


def test_stacked_prover_refuses_one_inconsistent_row(stream, desk):
    """One instance whose witness does not open its key fails the whole
    stacked turn with ValueError."""
    pk, ct, (s, e), streams = _stacked_instances(desk, stream, CHUNK)
    e = e.copy()
    e[5, 0] = (e[5, 0] + 1) % desk.q
    with pytest.raises(ValueError, match="witness inconsistent"):
        honest_prover_round1_stacked(desk, pk, ct, (s, e), streams)


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
    assert decrypted_bit(vstate.keypair, y, u) == 0


def test_verifier_score_matches_predicate(stream, desk):
    vstate, (pk, ct) = verifier_round1(desk, stream)
    y = np.zeros(desk.m, dtype=np.int64)
    u = np.zeros(desk.nQ, dtype=np.int64)
    t = verifier_score(vstate, y, u, b_prime=1, d_prime=0, seed_info="")
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


def _edges(size):
    """Counts on either side of each of the first two chunk boundaries."""
    return (1, size - 1, size, size + 1, 2 * size + 1)


@pytest.mark.parametrize("size", [CHUNK, 10, 1])
def test_chunks_walk_the_labeled_streams_in_order(stream, size):
    """chunks gives stream.derive(label, i) for every i below the count,
    in order, `size` at a time with a shorter last list."""
    for count in (0, *_edges(CHUNK)):
        walked = list(chunks(stream, "x", count, size))
        assert all(len(chunk) == size for chunk in walked[:-1])
        assert 0 < len(walked[-1]) <= size if walked else count == 0
        assert [t.seed for chunk in walked for t in chunk] == [
            stream.derive("x", i).seed for i in range(count)]


def test_chunk_size_keeps_the_n_stack_below_the_mmap_threshold(desk,
                                                                mixed):
    """CHUNK instances wherever their stacked N, Qn x (Q+1)n bytes each,
    fits below zq.MMAP_THRESHOLD; 4 at n = 64, q = next_prime(2^43),
    where one N is 8.1 MB; and at Params' bounds the most that fit, at
    least 1.  Arithmetic on Params only: nothing is allocated."""
    for params in (desk, mixed, tiny_params(1, 2**61 - 1)):
        assert chunk_size(params) == CHUNK
    assert chunk_size(tiny_params(64, next_prime(1 << 43))) == 4
    bound = tiny_params(MAX_N, 2**61 - 1)
    n_bytes = bound.nQ * (bound.nQ + bound.n)
    assert 1 <= chunk_size(bound)
    assert (chunk_size(bound) * n_bytes <= MMAP_THRESHOLD
            < (chunk_size(bound) + 1) * n_bytes)


def _single_trials(params, prover, stream, trials):
    return [run_single_trial(params, prover, stream.derive("trial", i))
            for i in range(trials)]


@pytest.mark.parametrize("preset", ["desk", "tiny23", "tiny3001", "mixed"])
@pytest.mark.parametrize("name", sorted(PROVERS))
def test_run_experiment_equals_single_trial_loop(stream, request, preset,
                                                 name):
    """The chunked run_experiment hands its sink, in trial order, exactly
    the transcripts a loop of run_single_trial gives, on either side of
    each chunk boundary; with the public key, each transcript carries its
    pk and, that cleared, is the loop's."""
    params = request.getfixturevalue(preset)
    for trials in _edges(chunk_size(params)):
        for include_pk in (False, True):
            s = stream.derive(trials, include_pk)
            seen = []
            stats = run_experiment(params, PROVERS[name](), trials, s,
                                   transcript_sink=seen.append,
                                   include_pk=include_pk)
            loop = _single_trials(params, PROVERS[name](), s, trials)
            if include_pk:
                keys = [verifier_round1(params, s.derive("trial", i)
                                        .derive("verifier"))[1][0]
                        for i in range(trials)]
                assert [t.pk for t in seen] == [
                    {"A": pk.A.tolist(), "v": pk.v.tolist()} for pk in keys]
                seen = [replace(t, pk=None) for t in seen]
            assert seen == loop
            assert stats.successes == sum(t.success for t in loop)
            assert stats.trials == trials


class _RecordingProver(ClassicalProver):
    """RandomProver's moves, with every call it receives written down."""

    name = "recording"

    def __init__(self):
        self.calls = []
        self.moves = RandomProver()

    def first_response(self, pk, ct, stream):
        y, u, p = self.moves.first_response(pk, ct, stream)
        self.calls.append(("first", pk.A.tobytes(), pk.v.tobytes(),
                           ct.a.tobytes(), ct.w, stream.seed, y.tobytes(),
                           u.tobytes()))
        return y, u, p

    def second_response(self, b_prime, p, stream):
        d_prime = self.moves.second_response(b_prime, p, stream)
        self.calls.append(("second", b_prime, stream.seed, d_prime))
        return d_prime


def test_chunked_prover_sees_the_calls_of_the_loop(stream, desk):
    """Each trial's prover turns run on their own and in trial order: the
    prover is called with the same keys, ciphertexts, challenges and
    streams, in the same order, as by a loop of run_single_trial."""
    trials = 2 * chunk_size(desk) + 1
    chunked, looped = _RecordingProver(), _RecordingProver()
    run_experiment(desk, chunked, trials, stream)
    _single_trials(desk, looped, stream, trials)
    assert len(chunked.calls) == 2 * trials
    assert [c[0] for c in chunked.calls] == ["first", "second"] * trials
    assert chunked.calls == looped.calls


@pytest.mark.parametrize("prover", [BaselineProver, HonestQuantumProver])
def test_prover_streams_are_batch_seeded_only_for_the_quantum_prover(
        stream, desk, monkeypatch, prover):
    """The classical baseline never draws from its prover streams, so no
    chunk seeds them; the quantum prover draws from every one of them, so
    each chunk seeds them all in its one call."""
    seen = []

    def spy(streams):
        seen.extend(s.seed for s in streams)
        return seed_streams(streams)
    monkeypatch.setattr(protocol_q, "seed_streams", spy)
    trials = 2 * chunk_size(desk) + 1
    run_experiment(desk, prover(), trials, stream)
    wanted = {stream.derive("trial", i).derive("prover").seed
              for i in range(trials)}
    assert (wanted & set(seen)) == (wanted if prover.quantum else set())


def test_a_chunk_draws_e_and_g_stacked(stream, desk, monkeypatch):
    """A chunk of honest trials draws every trial's e and g in one stacked
    sampler call each, over all of the chunk's streams, and makes no
    stacked sampler call on fewer streams (a lone draw), wherever a
    module looks one up."""
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append((name, next(len(a) for a in args
                                     if isinstance(a, list))))
            return real(*args, **kwargs)
        return call
    for module in [m for n, m in sys.modules.items()
                   if n.split(".")[0] == "rotated_tcf"]:
        for name in ("sample_noise_stacked", "sample_box_stacked",
                     "sample_truncated_gaussian_stacked"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    spy(name, getattr(module, name)))
    size = chunk_size(desk)
    run_experiment(desk, HonestQuantumProver(), size, stream)
    # e is the truncated Gaussian reduced mod q, drawn inside
    # sample_noise_stacked
    assert sorted(calls) == [("sample_box_stacked", size),
                             ("sample_noise_stacked", size),
                             ("sample_truncated_gaussian_stacked", size)]


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


@pytest.mark.parametrize("trials", [0, -3])
def test_rewinding_refuses_fewer_than_one_trial(stream, desk, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        rewinding_experiment("C", desk, BaselineProver(), trials, stream)


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
    assert HonestQuantumProver().second_response(
        1, pstate, stream.derive("c")) in (0, 1)


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
    d0 = decrypted_bit(vstate.keypair, y, u)
    u[hot] = 1
    d1 = decrypted_bit(vstate.keypair, y, u)
    assert d0 == 0 and d1 == 1
    assert bit_dot(u, z) == 1
