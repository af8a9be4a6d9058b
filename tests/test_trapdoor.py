import numpy as np
import pytest

from rotated_tcf.params import desk_preset, tiny_params
from rotated_tcf.sampling import sample_uniform
from rotated_tcf.trapdoor import find_preimage, gen_trap, invert
from rotated_tcf.zq import centered_abs, gadget_matrix, inf_norm, matmul_mod


def test_structure_of_A(stream, desk):
    pair = gen_trap(desk, stream)
    n, Q, q = desk.n, desk.Q, desk.q
    assert pair.A.shape == (desk.m, n)
    assert pair.N.shape == (Q * n, (Q + 1) * n)
    M = pair.bottom()
    G = gadget_matrix(n, Q, q)
    assert np.array_equal(pair.top(), (G + matmul_mod(pair.N, M, q)) % q)


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
        gap = inf_norm(matmul_mod(pair.A, d, q), q)
        assert gap > threshold


def test_uniform_image_inverts_to_sentinel_or_far(stream, desk):
    """A uniform target is (w.h.p.) not within 2 tau of the lattice; invert
    must return a vector whose residual is rejected by find_preimage."""
    pair = gen_trap(desk, stream.derive("trap"))
    misses = 0
    for i in range(50):
        y = sample_uniform(desk.m, desk.q, stream.derive("y", i))
        if find_preimage(pair, y, None, desk.tau) is None:
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
        got = find_preimage(pair, y, None, desk.tau)
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
    got = find_preimage(pair, y, v, desk.tau)
    assert got is not None
    assert np.array_equal(got[0], x)


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
            assert inf_norm(residual, q) * p.tau.denominator > 2 * p.tau.numerator
