import itertools

import numpy as np
import pytest

from rotated_tcf.regev import (decrypt_bit, distinguishing_game, encrypt_bit,
                               encrypt_zq, gen_j, gen_k)
from rotated_tcf.sampling import sample_bits
from rotated_tcf.trapdoor import invert
from rotated_tcf.zq import centered_lift, matmul_mod


def test_public_key_relation(stream, desk):
    kp = gen_k(desk, stream)
    assert np.array_equal(kp.pk.v,
                          (matmul_mod(kp.pk.A, kp.s, desk.q) + kp.e) % desk.q)


def test_zero_randomness_hook(stream, desk):
    kp = gen_k(desk, stream)
    f = np.zeros(desk.m, dtype=np.int64)
    ct = encrypt_bit(kp.pk, 1, stream, force_f=f)
    assert np.all(ct.a == 0)
    assert ct.w == desk.q // 4


def test_encrypt_bit_validation(stream, desk):
    kp = gen_k(desk, stream)
    with pytest.raises(ValueError):
        encrypt_bit(kp.pk, 2, stream)
    with pytest.raises(ValueError):
        encrypt_zq(kp.pk, 0, stream, force_f=np.ones(3, dtype=np.int64))
    with pytest.raises(ValueError):
        encrypt_zq(kp.pk, 0, stream,
                   force_f=np.full(desk.m, 2, dtype=np.int64))


def test_decrypt_roundtrip(stream, desk):
    kp = gen_k(desk, stream.derive("key"))
    for i in range(2000):
        t = stream.derive("ct", i)
        b = int(sample_bits(1, t)[0])
        ct = encrypt_bit(kp.pk, b, t)
        assert decrypt_bit(kp.s, ct, desk.q) == b


def test_decrypt_roundtrip_fresh_keys(stream, desk):
    for i in range(50):
        t = stream.derive("trial", i)
        kp = gen_k(desk, t.derive("key"))
        b = i % 2
        ct = encrypt_bit(kp.pk, b, t.derive("ct"))
        assert decrypt_bit(kp.s, ct, desk.q) == b


def test_trapdoor_keys_invert_public_key(stream, desk):
    kp = gen_j(desk, stream)
    assert np.array_equal(invert(kp.trapdoor, kp.pk.v), kp.s)
    assert kp.trapdoor.A is kp.pk.A


def test_ciphertext_algebra(stream, desk):
    """w - <a, s> = f^T e + payload mod q for any Z_q payload."""
    kp = gen_k(desk, stream.derive("key"))
    for i, payload in enumerate([0, 1, desk.q // 4, desk.q - 1]):
        ct, f = encrypt_zq(kp.pk, payload, stream.derive("ct", i))
        lhs = (ct.w - int(matmul_mod(ct.a, kp.s, desk.q))) % desk.q
        assert lhs == (int(matmul_mod(f, kp.e, desk.q)) + payload) % desk.q


def test_decrypt_boundary_noise(desk):
    """Decryption decides by comparing distance to 0 vs q/4; check both
    sides of the boundary with synthetic ciphertexts."""
    from rotated_tcf.regev import Ciphertext
    q = desk.q
    s = np.zeros(desk.n, dtype=np.int64)
    a = np.zeros(desk.n, dtype=np.int64)
    # ell = -w; message 0 encoded with small noise -> ell small
    assert decrypt_bit(s, Ciphertext(a=a, w=5 % q), q) == 0
    assert decrypt_bit(s, Ciphertext(a=a, w=(q - 5) % q), q) == 0
    assert decrypt_bit(s, Ciphertext(a=a, w=(q // 4 + 5) % q), q) == 1
    assert decrypt_bit(s, Ciphertext(a=a, w=(q // 4 - 5) % q), q) == 1


def test_noise_magnitude(stream, desk):
    kp = gen_k(desk, stream.derive("key"))
    ct, f = encrypt_zq(kp.pk, 0, stream.derive("ct"))
    noise = int(centered_lift(matmul_mod(f, kp.e, desk.q), desk.q))
    assert abs(noise) <= 2 * desk.m * desk.sigma


def _subset_sum_tvd(A, v, q):
    """Exact TVD between the distribution of (f^T A, f^T v) over uniform
    0/1 f and the uniform distribution on Z_q x Z_q."""
    m = len(v)
    counts = {}
    for f in itertools.product((0, 1), repeat=m):
        fv = np.array(f, dtype=np.int64)
        key = (int(matmul_mod(fv, A, q)), int(matmul_mod(fv, v, q)))
        counts[key] = counts.get(key, 0) + 1
    total = 2 ** m
    tvd = sum(abs(c / total - 1 / q ** 2) for c in counts.values()) / 2
    tvd += (q ** 2 - len(counts)) * (1 / q ** 2) / 2
    return tvd


def test_subset_sums_flatten_as_m_grows(stream):
    """Leftover-hash behaviour at q=3, n=1: the exhaustive distribution of
    (f^T A, f^T v) approaches uniform on Z_3 x Z_3 as m grows."""
    q = 3
    means = []
    for m in (4, 6, 8):
        tvds = []
        for trial in range(20):
            t = stream.derive("inst", m, trial)
            A = t.gen.integers(0, q, size=m, dtype=np.int64)
            v = t.gen.integers(0, q, size=m, dtype=np.int64)
            tvds.append(_subset_sum_tvd(A, v, q))
        means.append(sum(tvds) / len(tvds))
    assert means[-1] < 0.35
    assert means[0] > means[-1]


def test_distinguishing_game_blind_adversary(stream, desk):
    stats = distinguishing_game(desk, lambda pk, ct: 0, 400, stream)
    lo, hi = stats.ci
    assert lo <= 0.5 <= hi


def test_distinguishing_game_always_zero_mode(stream, desk):
    # with the message stripped, even a ct-dependent rule sits at 1/2
    adversary = lambda pk, ct: int(ct.w & 1)
    stats = distinguishing_game(desk, adversary, 400, stream,
                                mode="always-0")
    lo, hi = stats.ci
    assert lo <= 0.5 <= hi


def test_distinguishing_game_validation(stream, desk):
    with pytest.raises(ValueError):
        distinguishing_game(desk, lambda pk, ct: 0, 0, stream)
    with pytest.raises(ValueError):
        distinguishing_game(desk, lambda pk, ct: 0, 10, stream, mode="bogus")


def test_distinguishing_game_deterministic(stream, desk):
    a = distinguishing_game(desk, lambda pk, ct: 0, 50, stream.derive("g"))
    b = distinguishing_game(desk, lambda pk, ct: 0, 50, stream.derive("g"))
    assert a == b
