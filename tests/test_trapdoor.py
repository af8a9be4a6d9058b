import itertools
import math

import numpy as np
import pytest

from rotated_tcf.params import desk_preset, tiny_params
from rotated_tcf.sampling import fill_bits, sample_box_stacked, sample_uniform
from rotated_tcf.trapdoor import (find_preimage, gen_trap, gen_trap_stacked,
                                  invert)
from rotated_tcf.zq import (centered_abs, centered_lift, gadget_matrix,
                            matmul_mod)


def test_structure_of_A(stream, desk):
    pair = gen_trap(desk, stream)
    n, Q, q = desk.n, desk.Q, desk.q
    assert pair.A.shape == (desk.m, n)
    assert pair.N.shape == (Q * n, (Q + 1) * n)
    top, M = pair.A[:Q * n], pair.A[Q * n:]
    G = gadget_matrix(n, Q, q)
    assert np.array_equal(top, (G + matmul_mod(pair.N, M, q)) % q)


@pytest.mark.parametrize("params", [tiny_params(1, 23), desk_preset(),
                                    tiny_params(2, (1 << 61) - 1)],
                         ids=["q23", "desk", "q2^61-1"])
def test_N_is_stored_one_byte_per_entry(stream, params):
    """N holds one byte per entry, one pair or a stack, and is the 0/1
    int64 draw that follows M on the pair's stream."""
    n, Q = params.n, params.Q
    pair = gen_trap(params, stream.derive("trap"))
    assert pair.N.itemsize == 1
    gen = stream.derive("trap").gen
    gen.integers(0, params.q, size=((Q + 1) * n, n), dtype=np.int64)
    drawn = gen.integers(0, 2, size=(Q * n, (Q + 1) * n), dtype=np.int64)
    assert np.array_equal(pair.N, drawn)
    stacked = gen_trap_stacked(params, [stream.derive("pairs", i)
                                        for i in range(3)])
    assert stacked.N.itemsize == 1
    for i in range(3):
        one = gen_trap(params, stream.derive("pairs", i))
        assert np.array_equal(stacked.N[i], one.N)


@pytest.mark.parametrize("params", [tiny_params(1, 23), desk_preset(),
                                    tiny_params(2, (1 << 61) - 1),
                                    tiny_params(3, 3001)],
                         ids=["q23", "desk", "q2^61-1", "q3001-buffered"])
def test_raw_word_N_is_the_integers_draw(stream, params):
    """N read from raw words by `fill_bits` equals the uint32 integers draw
    after M, and leaves the generator where that draw leaves it: the same
    state and buffered half-word, the same draws after.  At q = 3001,
    n = 3, M's 117 32-bit draws leave a half-word buffered, which
    `fill_bits` must use first; N's 1,404 entries then end on an odd one,
    which leaves a half-word buffered again."""
    n, Q = params.n, params.Q
    shape = (Q * n, (Q + 1) * n)
    gens = [stream.derive("trap").gen, stream.derive("trap").gen]
    for gen in gens:
        gen.integers(0, params.q, size=((Q + 1) * n, n), dtype=np.int64)
    buffered = gens[0].bit_generator.state["has_uint32"]
    assert buffered == (params.q == 3001)
    N = fill_bits(gens[0], np.empty(math.prod(shape), dtype=np.uint8))
    assert np.array_equal(N.reshape(shape),
                          gens[1].integers(0, 2, size=shape, dtype=np.uint32))
    states = [gen.bit_generator.state for gen in gens]
    for key in ("state", "has_uint32"):
        assert states[0][key] == states[1][key]
    if buffered:
        assert states[0]["uinteger"] == states[1]["uinteger"]
    for got, want in zip(*([gen.integers(0, 23, size=7, dtype=np.uint32),
                            gen.integers(0, params.q, size=5, dtype=np.int64),
                            gen.random(3)] for gen in gens)):
        assert np.array_equal(got, want)


def _noisy_sample(pair, s, e_bound, stream):
    p = pair.params
    e = stream.gen.integers(-e_bound, e_bound + 1, size=p.m, dtype=np.int64)
    return (matmul_mod(pair.A, s, p.q) + e) % p.q


def test_roundtrip_with_noise(stream, desk):
    pair = gen_trap(desk, stream.derive("trap"))
    bound = 2 * desk.tau_floor  # recovery is promised up to ||e||_inf <= 2 tau
    for i in range(200):
        t = stream.derive("case", i)
        s = sample_uniform(desk.n, desk.q, t)
        v = _noisy_sample(pair, s, bound, t)
        assert np.array_equal(invert(pair, v), s)


def test_roundtrip_noise_free(stream, desk):
    pair = gen_trap(desk, stream.derive("trap"))
    for i in range(50):
        s = sample_uniform(desk.n, desk.q, stream.derive("s", i))
        assert np.array_equal(invert(pair, matmul_mod(pair.A, s, desk.q)), s)


def test_tiny_instance_all_secrets(stream):
    p = tiny_params(1, 23)
    pair = gen_trap(p, stream)
    for s0 in range(23):
        s = np.array([s0], dtype=np.int64)
        v = matmul_mod(pair.A, s, 23)
        assert np.array_equal(invert(pair, v), s)


def test_invert_wrong_length(stream, desk):
    pair = gen_trap(desk, stream)
    with pytest.raises(ValueError):
        invert(pair, np.zeros(desk.m - 1, dtype=np.int64))


def test_lattice_points_well_separated(stream, desk):
    """Distinct secrets map to images more than 4 tau apart, so noisy
    decoding up to 2 tau is unambiguous."""
    pair = gen_trap(desk, stream.derive("trap"))
    q = desk.q
    threshold = 4 * desk.tau_floor
    for i in range(300):
        d = sample_uniform(desk.n, q, stream.derive("d", i))
        if not d.any():
            continue
        gap = int(centered_abs(matmul_mod(pair.A, d, q), q).max())
        assert gap > threshold


def test_uniform_image_inverts_to_sentinel_or_far(stream, desk):
    """A uniform target is (w.h.p.) not within 2 tau of the lattice; invert
    must return a vector whose residual is rejected by find_preimage."""
    pair = gen_trap(desk, stream.derive("trap"))
    misses = 0
    for i in range(50):
        y = sample_uniform(desk.m, desk.q, stream.derive("y", i))
        if find_preimage(pair, y) is None:
            misses += 1
    assert misses == 50


def test_find_preimage_accepts_honest_claw(stream, desk):
    pair = gen_trap(desk, stream.derive("trap"))
    tau_floor = desk.tau_floor
    for i in range(20):
        t = stream.derive("case", i)
        x = sample_uniform(desk.n, desk.q, t)
        g = t.gen.integers(-tau_floor, tau_floor + 1, size=desk.m,
                           dtype=np.int64)
        y = (matmul_mod(pair.A, x, desk.q) + g) % desk.q
        got = find_preimage(pair, y)
        assert got is not None
        x_hat, g_hat = got
        assert np.array_equal(x_hat, x)
        assert np.array_equal(g_hat, g % desk.q)
        assert int(centered_abs(g_hat, desk.q).max()) <= tau_floor


def test_find_preimage_with_shift(stream, desk):
    pair = gen_trap(desk, stream.derive("trap"))
    s = sample_uniform(desk.n, desk.q, stream.derive("s"))
    v = matmul_mod(pair.A, s, desk.q)
    x = sample_uniform(desk.n, desk.q, stream.derive("x"))
    y = (matmul_mod(pair.A, x, desk.q) - v) % desk.q
    got = find_preimage(pair, np.stack([y, (y + v) % desk.q]))
    assert got is not None
    assert np.array_equal(got[0], [(x - s) % desk.q, x])
    assert not got[1].any()


def test_find_preimage_stacked_needs_every_row(stream, desk):
    """A stack succeeds only when every row has a preimage within tau."""
    pair = gen_trap(desk, stream.derive("trap"))
    x = sample_uniform(desk.n, desk.q, stream.derive("x"))
    near = matmul_mod(pair.A, x, desk.q)
    far = sample_uniform(desk.m, desk.q, stream.derive("far"))
    assert find_preimage(pair, np.stack([near, near])) is not None
    assert find_preimage(pair, np.stack([near, far])) is None
    assert find_preimage(pair, np.stack([far, near])) is None


@pytest.mark.parametrize("params", [desk_preset(),
                                    tiny_params(2, (1 << 61) - 1)],
                         ids=["desk", "q2^61-1"])
def test_lone_find_preimage_is_its_row_of_a_stacked_call(stream, params):
    """find_preimage on one row gives that row of the call on a stack of
    four rows, each A x + g with g in the tau box, and a stack of three
    pairs with two rows each gives each pair's rows what that pair gives
    them alone.  A row with no preimage within tau aborts its lone call
    and the stacked call that holds it, and every other row still inverts
    alone."""
    q = params.q
    pair = gen_trap(params, stream.derive("pair"))
    x = np.array([sample_uniform(params.n, q, stream.derive("x", i))
                  for i in range(4)])
    g = sample_box_stacked(params.m, params.tau_floor, q,
                           [stream.derive("g", i) for i in range(4)])
    y = (matmul_mod(pair.A, x.T, q).T + g) % q
    stacked_x, stacked_g = find_preimage(pair, y)
    assert np.array_equal(stacked_x, x) and np.array_equal(stacked_g, g)
    for i in range(4):
        lone_x, lone_g = find_preimage(pair, y[i])
        assert np.array_equal(lone_x, stacked_x[i])
        assert np.array_equal(lone_g, stacked_g[i])
    pairs = gen_trap_stacked(params, [stream.derive("pairs", i)
                                      for i in range(3)])
    rows = np.stack([(matmul_mod(pairs.A[i], x[i:i + 2].T, q).T
                      + g[i:i + 2]) % q for i in range(3)])
    stacked_x, stacked_g = find_preimage(pairs, rows)
    assert stacked_x.shape == (3, 2, params.n)
    assert stacked_g.shape == rows.shape
    for i in range(3):
        lone_x, lone_g = find_preimage(
            gen_trap(params, stream.derive("pairs", i)), rows[i])
        assert np.array_equal(stacked_x[i], lone_x)
        assert np.array_equal(stacked_x[i], x[i:i + 2])
        assert np.array_equal(stacked_g[i], lone_g)
    y[2] = sample_uniform(params.m, q, stream.derive("far"))
    assert find_preimage(pair, y) is None
    assert find_preimage(pair, y[2]) is None
    for i in (0, 1, 3):
        assert np.array_equal(find_preimage(pair, y[i])[0], x[i])


def test_invert_rejects_noise_past_guarantee(stream):
    """Noise far beyond 2 tau must not silently return a wrong secret:
    invert either recovers s (can happen by luck near the boundary) or
    returns something that fails the residual check."""
    p = tiny_params(2, 3001)
    pair = gen_trap(p, stream.derive("trap"))
    q = p.q
    for i in range(100):
        t = stream.derive("case", i)
        s = sample_uniform(p.n, q, t)
        e = t.gen.integers(-q // 4, q // 4 + 1, size=p.m, dtype=np.int64)
        v = (matmul_mod(pair.A, s, q) + e) % q
        s_hat = invert(pair, v)
        if not np.array_equal(s_hat, s):
            residual = (v - matmul_mod(pair.A, s_hat, q)) % q
            norm = int(centered_abs(residual, q).max())
            assert norm * p.tau.denominator > 2 * p.tau.numerator


# The per-block decoder that `invert` replaced, kept as its reference: a
# Python-integer loop over each Q-block, one vector at a time.
def _solve_block(w: list[int], q: int, Q: int, q_bits: np.ndarray):
    c = [0] * Q
    for j in range(1, Q):
        c[j] = 2 * c[j - 1] + w[j - 1]
    num = w[Q - 1] + sum(int(q_bits[j]) * c[j] for j in range(Q))
    if num % q != 0:
        return None
    e1 = num // q
    e = [0] * Q
    for j in range(Q):
        e[j] = (e1 << j) - c[j]
        if 2 * Q * abs(e[j]) >= q:
            return None
    return e


def _reference_invert(pair, v):
    p = pair.params
    n, Q, q = p.n, p.Q, p.q
    v1, v2 = v[: Q * n], v[Q * n:]
    vp = (v1 - matmul_mod(pair.N, v2, q)) % q
    q_bits = np.array([(q >> j) & 1 for j in range(Q)], dtype=np.int64)
    q_mask = q_bits == 1
    s = np.zeros(n, dtype=np.int64)
    for i in range(n):
        blk = vp[i * Q:(i + 1) * Q]
        w_head = centered_lift((2 * blk[:-1] - blk[1:]) % q, q)
        wQ = int(blk[q_mask].astype(object).sum()) % q
        w = [int(x) for x in w_head] + [int(centered_lift(wQ, q))]
        e = _solve_block(w, q, Q, q_bits)
        if e is None:
            return np.zeros(n, dtype=np.int64)
        t = (blk - np.asarray(e, dtype=np.int64)) % q
        if not np.array_equal(t[1:], (2 * t[:-1]) % q):
            return np.zeros(n, dtype=np.int64)
        s[i] = int(t[0])
    return s


def _assert_matches_reference(pair, V):
    got = invert(pair, V)
    ref = np.array([_reference_invert(pair, v) for v in V])
    assert np.array_equal(got, ref)
    return ref


@pytest.mark.parametrize("q", [3, 5])
def test_invert_matches_reference_on_every_input(stream, q):
    """n = 1: all q^m inputs in one stacked call (243 for q = 3, 78,125
    for q = 5)."""
    p = tiny_params(1, q)
    pair = gen_trap(p, stream)
    V = np.array(list(itertools.product(range(q), repeat=p.m)),
                 dtype=np.int64)
    ref = _assert_matches_reference(pair, V)
    assert ref.any() and not ref.all()


def _samples(pair, gen, k, bound):
    """k inputs A s + e with |e_i| <= bound, or uniform when bound is None."""
    p = pair.params
    if bound is None:
        return gen.integers(0, p.q, size=(k, p.m), dtype=np.int64)
    s = gen.integers(0, p.q, size=(k, p.n, 1), dtype=np.int64)
    e = gen.integers(-bound, bound + 1, size=(k, p.m), dtype=np.int64)
    return (matmul_mod(pair.A, s, p.q)[..., 0] + e) % p.q


@pytest.mark.parametrize("params", [tiny_params(1, 7), desk_preset(),
                                    tiny_params(2, (1 << 61) - 1)],
                         ids=["q7", "desk", "q2^61-1"])
def test_invert_matches_reference_on_samples(stream, params):
    """In-range noise (up to 2 tau), noise past the guarantee at several
    scales up to the block decoder's radius q/(2Q), and uniform v."""
    pair = gen_trap(params, stream.derive("trap"))
    gen = stream.derive("v").gen
    q, Q = params.q, params.Q
    k = 3000 if q == 7 else 200
    radius = (q - 1) // (2 * Q)
    decoded = failed = 0
    for bound in (2 * params.tau_floor, 8 * params.tau_floor + 1,
                  radius // 64 + 1, radius // 8 + 1, radius, None):
        ref = _assert_matches_reference(pair, _samples(pair, gen, k, bound))
        hit = ref.any(axis=-1)
        decoded += int(hit.sum())
        failed += int((~hit).sum())
    assert decoded > 0 and failed > 0


def test_invert_stacked_equals_row_by_row(stream, desk):
    """A (2, 3, m) stack mixing rows that decode with rows that fail gives
    each row what a call on that row alone gives."""
    pair = gen_trap(desk, stream.derive("trap"))
    gen = stream.derive("v").gen
    rows = np.concatenate([_samples(pair, gen, 3, 2 * desk.tau_floor),
                           _samples(pair, gen, 3, None)])
    rows = rows[gen.permutation(6)]
    got = invert(pair, rows.reshape(2, 3, desk.m))
    assert got.shape == (2, 3, desk.n)
    one = np.array([invert(pair, v) for v in rows])
    assert np.array_equal(got.reshape(6, desk.n), one)
    assert one.any(axis=-1).sum() == 3
    # A stack of distinct pairs, each with its own (4, m) rows: each row
    # decodes as it does with its own pair alone, where the float product
    # applies (desk) and where it does not (q = 2^61 - 1).
    for params in (desk, tiny_params(2, (1 << 61) - 1)):
        stacked = gen_trap_stacked(params, [stream.derive("pairs", params.q, i)
                                            for i in range(3)])
        pairs = [gen_trap(params, stream.derive("pairs", params.q, i))
                 for i in range(3)]
        assert all(np.array_equal(stacked.A[i], pr.A)
                   and np.array_equal(stacked.N[i], pr.N)
                   for i, pr in enumerate(pairs))
        gen = stream.derive("rows", params.q).gen
        V = np.stack([np.concatenate([
            _samples(pr, gen, 2, 2 * params.tau_floor),
            _samples(pr, gen, 2, None)]) for pr in pairs])
        got = invert(stacked, V)
        assert got.shape == (3, 4, params.n)
        for pr, rows_i, got_i in zip(pairs, V, got):
            assert np.array_equal(got_i, [invert(pr, v) for v in rows_i])
            assert got_i[:2].all() and not got_i[2:].any()
        with pytest.raises(ValueError):
            invert(stacked, V[:2])
