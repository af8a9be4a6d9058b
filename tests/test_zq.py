import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotated_tcf.zq import (bit_dot, bits_le, bits_le_vec, centered_abs,
                            centered_lift, gadget_matrix, inf_norm,
                            matmul_mod)

BIG_Q = (1 << 61) - 1  # Mersenne prime, the largest supported modulus


def test_centered_abs_example():
    assert int(centered_abs(5, 7)) == 2
    assert int(centered_abs(2, 7)) == 2
    assert int(centered_abs(0, 7)) == 0


def test_inf_norm_example():
    v = np.array([6, 5, 10], dtype=np.int64)
    assert inf_norm(v, 11) == 5


def test_inf_norm_empty_rejected():
    with pytest.raises(ValueError):
        inf_norm(np.array([], dtype=np.int64), 7)


def test_centered_lift_range():
    q = 13
    x = np.arange(q)
    lifted = centered_lift(x, q)
    assert lifted.min() == -(q // 2)
    assert lifted.max() == q // 2
    assert np.array_equal(lifted % q, x)


def test_bits_le_example():
    assert bits_le(3, 3).tolist() == [1, 1, 0]
    assert int(np.array([1, 1, 0]) @ (1 << np.arange(3))) == 3


def test_bits_le_overflow_rejected():
    with pytest.raises(ValueError):
        bits_le(8, 3)


def test_bits_le_vec_concatenates():
    x = np.array([3, 1], dtype=np.int64)
    assert bits_le_vec(x, 3).tolist() == [1, 1, 0, 1, 0, 0]


def test_gadget_matrix_example():
    G = gadget_matrix(2, 2, 5)
    assert G.tolist() == [[1, 0], [2, 0], [0, 1], [0, 2]]


def test_gadget_matrix_reduces_mod_q():
    G = gadget_matrix(1, 4, 11)
    assert G[:, 0].tolist() == [1, 2, 4, 8]
    G = gadget_matrix(1, 4, 13)
    assert G[3, 0] == 8 % 13


def test_matmul_mod_inner_exact():
    u = np.array([4, 3], dtype=np.int64)
    v = np.array([2, 1], dtype=np.int64)
    assert int(matmul_mod(u, v, 5)) == (4 * 2 + 3 * 1) % 5


def test_matmul_mod_inner_no_overflow():
    u = np.full(100, BIG_Q - 1, dtype=np.int64)
    assert int(matmul_mod(u, u, BIG_Q)) == 100 * (BIG_Q - 1) ** 2 % BIG_Q


def _assert_matmul_mod_exact(A, B, q):
    ref = (A.astype(object) @ B.astype(object)) % q
    got = matmul_mod(A, B, q)
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(np.asarray(got).astype(object), ref)


def test_mul_mod_implementations_agree():
    """matmul_mod against a Python-integer reference on every path: one
    float64 product, one int64 product (0/1 left operand), limbs of B, and
    Python integers; stacked operands included.  The boundary cases put
    k * max(A) * (q-1) just below and just above 2^53, with sums near that
    bound, where a float64 product would start to round."""
    gen = np.random.default_rng(7)
    edge_gen = np.random.default_rng(8)
    boundary_cases = 0
    for q in (5, 3001, (1 << 31) - 1, 4398046511119, BIG_Q):
        for shape_a, shape_b in (((9,), (9,)), ((7, 9), (9,)), ((9,), (9, 4)),
                                 ((7, 9), (9, 4)), ((3, 7, 9), (3, 9, 4))):
            for hi in (2, q):
                A = gen.integers(0, hi, size=shape_a, dtype=np.int64)
                B = gen.integers(0, q, size=shape_b, dtype=np.int64)
                _assert_matmul_mod_exact(A, B, q)
            # largest max(A) with k * max(A) * (q-1) below 2^53; one above
            # it gives sums past 2^53, where odd ones round in float64
            edge = ((1 << 53) - 1) // (shape_a[-1] * (q - 1))
            for top in (edge, edge + 1):
                if 2 <= top < q:
                    A = np.full(shape_a, top, dtype=np.int64)
                    A[..., 0] -= 1
                    B = q - 1 - edge_gen.integers(0, 32, size=shape_b,
                                                  dtype=np.int64)
                    _assert_matmul_mod_exact(A, B, q)
                    sums = A.astype(object) @ B.astype(object)
                    assert (np.max(sums) > 1 << 53) == (top > edge)
                    boundary_cases += 1
    assert boundary_cases == 20


def test_matmul_mod_large_modulus_exact():
    gen = np.random.default_rng(11)
    q = BIG_Q
    A = gen.integers(0, q, size=(8, 6), dtype=np.int64)
    x = gen.integers(0, q, size=6, dtype=np.int64)
    ref = (A.astype(object) @ x.astype(object)) % q
    assert np.array_equal(matmul_mod(A, x, q).astype(object), ref)


def test_matmul_mod_shape_check():
    with pytest.raises(ValueError):
        matmul_mod(np.zeros((2, 3), dtype=np.int64),
                   np.zeros(2, dtype=np.int64), 7)


def test_bit_matvec_and_vecmat():
    gen = np.random.default_rng(3)
    q = BIG_Q
    B = gen.integers(0, 2, size=(5, 9), dtype=np.int64)
    x = gen.integers(0, q, size=9, dtype=np.int64)
    ref = (B.astype(object) @ x.astype(object)) % q
    assert np.array_equal(matmul_mod(B, x, q).astype(object), ref)
    A = gen.integers(0, q, size=(9, 4), dtype=np.int64)
    f = gen.integers(0, 2, size=9, dtype=np.int64)
    ref = (f.astype(object) @ A.astype(object)) % q
    assert np.array_equal(matmul_mod(f, A, q).astype(object), ref)


def test_bit_dot():
    assert bit_dot(np.array([1, 0, 1]), np.array([1, 1, 1])) == 0
    assert bit_dot(np.array([1, 0, 1]), np.array([1, 1, 0])) == 1
    with pytest.raises(ValueError):
        bit_dot(np.array([1]), np.array([1, 0]))


@given(st.integers(min_value=0, max_value=3000))
def test_centered_abs_symmetry(x):
    q = 3001
    assert int(centered_abs(x, q)) == int(centered_abs((q - x) % q, q))


@given(st.integers(min_value=0, max_value=(1 << 40) - 1),
       st.integers(min_value=40, max_value=50))
def test_bits_roundtrip(x, Q):
    assert sum(int(b) << j for j, b in enumerate(bits_le(x, Q))) == x


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_matvec_distributes(seed):
    gen = np.random.default_rng(seed)
    q = 4398046511119
    A = gen.integers(0, q, size=(4, 3), dtype=np.int64)
    x = gen.integers(0, q, size=3, dtype=np.int64)
    y = gen.integers(0, q, size=3, dtype=np.int64)
    lhs = matmul_mod(A, (x + y) % q, q)
    rhs = (matmul_mod(A, x, q) + matmul_mod(A, y, q)) % q
    assert np.array_equal(lhs, rhs)
