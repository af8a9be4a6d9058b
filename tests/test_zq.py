import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collections
import ctypes
import os
import subprocess
import sys
import textwrap
import threading
import types
from pathlib import Path

import rotated_tcf
from rotated_tcf.params import desk_preset, next_prime
from rotated_tcf.trapdoor import _decoder
from rotated_tcf.zq import (STACKED_MIN, _pin_heap_thresholds, bit_dot,
                            bits_le_vec, canonical, centered, centered_abs,
                            centered_lift, gadget_matrix, gadget_multiples,
                            matmul_mod, product_dtype, within)

BIG_Q = (1 << 61) - 1  # Mersenne prime, the largest supported modulus


def test_centered_abs_example():
    assert int(centered_abs(5, 7)) == 2
    assert int(centered_abs(2, 7)) == 2
    assert int(centered_abs(0, 7)) == 0


def test_centered_lift_range():
    q = 13
    x = np.arange(q)
    lifted = centered_lift(x, q)
    assert lifted.min() == -(q // 2)
    assert lifted.max() == q // 2
    assert np.array_equal(lifted % q, x)


def test_bits_le_example():
    """A scalar gives its own Q bits."""
    assert bits_le_vec(3, 3).tolist() == [1, 1, 0]
    assert int(np.array([1, 1, 0]) @ (1 << np.arange(3))) == 3


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


def _path(shape_a, top, q):
    """The path matmul_mod takes, by the rules of its docstring, for an
    int64 A of this shape with entries in [0, top]: float64, int64, the
    estimated quotient on B whole, or on limbs of B."""
    k = shape_a[-1]
    if len(shape_a) > 1 and shape_a[-2] > 1 and k * top * (q - 1) < 1 << 53:
        return "float64"
    if k * top * (q - 1) < 1 << 63:
        return "int64"
    r = k + 5
    return ("estimate" if r * k * top * (q - 1) < ((1 << 53) - r) * q
            else "limbs")


def test_mul_mod_implementations_agree():
    """matmul_mod against a Python-integer reference on every path: one
    float64 product, one int64 product (0/1 left operand), the estimated
    quotient on B whole, and on limbs of B; stacked operands included.
    The boundary cases put k * max(A) * (q-1) just below and just above
    2^53, with sums near that bound, where a float64 product would start
    to round, and a 1-D left operand, which stays in int64, just below
    and just above 2^63."""
    gen = np.random.default_rng(7)
    edge_gen = np.random.default_rng(8)
    boundary_cases = int64_cases = 0
    paths = collections.Counter()
    for q in (5, 3001, (1 << 31) - 1, 4398046511119, BIG_Q):
        for shape_a, shape_b in (((9,), (9,)), ((7, 9), (9,)), ((9,), (9, 4)),
                                 ((7, 9), (9, 4)), ((3, 7, 9), (3, 9, 4))):
            for hi in (2, q):
                A = gen.integers(0, hi, size=shape_a, dtype=np.int64)
                B = gen.integers(0, q, size=shape_b, dtype=np.int64)
                _assert_matmul_mod_exact(A, B, q)
                paths[_path(shape_a, int(A.max()), q)] += 1
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
                    paths[_path(shape_a, top, q)] += 1
            if len(shape_a) > 1:
                continue
            # largest max(A) with k * max(A) * (q-1) within int64; one
            # above it takes the estimated quotient
            edge = ((1 << 63) - 1) // (shape_a[-1] * (q - 1))
            for top in (edge, edge + 1):
                if 2 <= top < q:
                    A = np.full(shape_a, top, dtype=np.int64)
                    B = np.full(shape_b, q - 1, dtype=np.int64)
                    _assert_matmul_mod_exact(A, B, q)
                    sums = A.astype(object) @ B.astype(object)
                    assert (np.max(sums) >= 1 << 63) == (top > edge)
                    int64_cases += 1
                    paths[_path(shape_a, top, q)] += 1
    assert boundary_cases == 20
    assert int64_cases == 8
    assert paths == {"float64": 24, "int64": 30, "estimate": 19, "limbs": 5}


def test_matmul_mod_byte_matrices_exact():
    """A uint8 left operand, one matrix or a stack, is widened one matrix
    at a time: exact where the widened product is float64 (desk q) and
    where it takes the estimated quotient (q = 2^61 - 1), with 0/1 entries
    and up to 255."""
    gen = np.random.default_rng(12)
    for q in (desk_preset().q, BIG_Q):
        for hi in (2, 256):
            A = gen.integers(0, hi, size=(3, 7, 9)).astype(np.uint8)
            B = gen.integers(0, q, size=(3, 9, 4), dtype=np.int64)
            _assert_matmul_mod_exact(A, B, q)
            _assert_matmul_mod_exact(A[0], B[0], q)
            _assert_matmul_mod_exact(A[0], B[0, :, 0], q)
        with pytest.raises(ValueError):
            matmul_mod(A, B[:2], q)


@pytest.mark.parametrize("q", [desk_preset().q, 1048583,
                               next_prime(3 << 59)],
                         ids=["desk", "mixed", "q3<<59"])
def test_byte_products_exact_on_one_matrix_and_on_stacks(q):
    """A 0/1 uint8 A, as a trapdoor's N is stored, times B against Python
    integers: one matrix, a stack of one and a stack of 16, with B of 4
    columns (N M) and of 2 (an inversion's two rows), every entry of B
    q - 1 and random.  At desk and MIXED the sums stay in float64 and are
    reduced once for the stack; at a 61-bit q the work buffer is int64 and
    each matrix takes the estimated quotient."""
    gen = np.random.default_rng(q % 10007)
    k = 24
    assert product_dtype((16, 20, k), 1, q) is (
        np.int64 if q.bit_length() == 61 else np.float64)
    for lead in ((), (1,), (16,)):
        A = gen.integers(0, 2, size=lead + (20, k)).astype(np.uint8)
        for cols in (4, 2):
            _assert_matmul_mod_exact(
                A, np.full(lead + (k, cols), q - 1, dtype=np.int64), q)
            _assert_matmul_mod_exact(
                A, gen.integers(0, q, size=lead + (k, cols), dtype=np.int64),
                q)


@pytest.mark.parametrize("q", [desk_preset().q, next_prime(1 << 46),
                               next_prime(3 << 59), BIG_Q],
                         ids=["desk", "q47bit", "q3<<59", "q2^61-1"])
def test_thin_key_products_exact_at_the_estimate_bound(q):
    """The key's products with k = n = 4 inner terms, as A s, A [s x] and
    the two rows of A x take them (one matrix, a broadcast stack, a stack
    of one and a stack of 16), against Python integers: every entry
    q - 1, the largest sum each path sees, and random entries within 2^30
    of q.  Up to 47 bits B is taken whole; at 61 bits it is split into
    limbs."""
    gen = np.random.default_rng(q % 10009)
    m, n = 348, 4
    assert _path((m, n), q - 1, q) == ("limbs" if q.bit_length() == 61
                                       else "estimate")
    for shape_a, shape_b in (((m, n), (n, 1)), ((m, n), (n, 2)),
                             ((m, n), (2, n, 1)), ((1, m, n), (1, n, 2)),
                             ((16, m, n), (16, n, 1))):
        _assert_matmul_mod_exact(np.full(shape_a, q - 1, dtype=np.int64),
                                 np.full(shape_b, q - 1, dtype=np.int64), q)
        near = [q - 1 - gen.integers(0, 1 << 30, size=shape, dtype=np.int64)
                for shape in (shape_a, shape_b)]
        _assert_matmul_mod_exact(*near, q)


def test_byte_products_in_threads_stay_exact():
    """Each call widens into a work buffer of its own: stacked uint8
    products running at once, in more threads than cores and with a short
    switch interval, all equal their Python-integer references."""
    q = desk_preset().q
    gen = np.random.default_rng(13)
    cases = []
    for _ in range(8):
        A = gen.integers(0, 2, size=(4, 30, 40)).astype(np.uint8)
        B = gen.integers(0, q, size=(4, 40, 3), dtype=np.int64)
        cases.append((A, B, (A.astype(object) @ B.astype(object)) % q))
    wrong = []

    def work(offset):
        for r in range(40):
            A, B, ref = cases[(offset + r) % len(cases)]
            if not np.array_equal(matmul_mod(A, B, q).astype(object), ref):
                wrong.append(offset)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("q", [3, 23, desk_preset().q, BIG_Q],
                         ids=["q3", "q23", "desk", "q2^61-1"])
def test_gadget_multiples_match_python_integers(q):
    """s_i 2^j mod q for every j < Q, against Python integers, with the
    extremes 0, 1 and q - 1 among the entries."""
    Q = (q - 1).bit_length()
    gen = np.random.default_rng(q % 1009)
    s = np.concatenate([[0, 1, q - 1], gen.integers(0, q, size=21)])
    s = s.reshape(2, 3, 4)
    got = gadget_multiples(s, Q, q)
    assert got.shape == (2, 3, 4, Q)
    ref = [[[[x * pow(2, j, q) % q for j in range(Q)] for x in row]
            for row in block] for block in s.tolist()]
    assert got.tolist() == ref


def test_matmul_mod_large_modulus_exact():
    gen = np.random.default_rng(11)
    q = BIG_Q
    A = gen.integers(0, q, size=(8, 6), dtype=np.int64)
    x = gen.integers(0, q, size=6, dtype=np.int64)
    ref = (A.astype(object) @ x.astype(object)) % q
    assert np.array_equal(matmul_mod(A, x, q).astype(object), ref)


@pytest.mark.parametrize("q", [(1 << 40) - 1, desk_preset().q,
                               next_prime(3 << 59), BIG_Q],
                         ids=["q2^40-1", "desk", "q3<<59", "q2^61-1"])
def test_matmul_mod_limb_fold_at_its_bound(q):
    """Every entry q - 1, the largest sums a path sees.  At q = 2^40 - 1
    and at desk the estimated quotient takes B whole; at the 61-bit
    moduli B is split into limbs, and each Horner step's value, acc 2^c
    plus the largest limb product, reaches its bound.  With an inner
    dimension of 1 the two parts are of one size."""
    for shape_a, shape_b in (((7, 1), (1, 4)), ((1,), (1, 4)),
                             ((7, 9), (9, 4)), ((3, 7, 9), (3, 9, 4))):
        assert _path(shape_a, q - 1, q) == ("limbs" if q.bit_length() == 61
                                            else "estimate")
        _assert_matmul_mod_exact(np.full(shape_a, q - 1, dtype=np.int64),
                                 np.full(shape_b, q - 1, dtype=np.int64), q)


KERNEL_MODULI = [5, 1048583, desk_preset().q, next_prime(1 << 46),
                 next_prime(3 << 59), BIG_Q]
KERNEL_IDS = ["q5", "mixed", "desk", "q47bit", "q3<<59", "q2^61-1"]


@pytest.mark.parametrize("q", KERNEL_MODULI, ids=KERNEL_IDS)
def test_matmul_mod_shapes_exact(q):
    """Against Python integers, from q = 5, where every product fits in
    float64 or int64, to 2^61 - 1, where B is split into limbs: operands
    all q - 1 and random; k = 1; 1-D times 1-D, whose result is 0-d;
    stacked and broadcast stacks; and a uint8 left operand."""
    gen = np.random.default_rng(q % 10007)
    cases = [((7, 1), (1, 4)), ((1,), (1,)), ((9,), (9,)), ((9,), (9, 4)),
             ((7, 9), (9,)), ((3, 7, 9), (3, 9, 4)), ((7, 9), (2, 9, 4)),
             ((2, 1, 7, 9), (3, 9, 4)), ((3, 7, 9), (9, 1))]
    for shape_a, shape_b in cases:
        for A, B in ((np.full(shape_a, q - 1, dtype=np.int64),
                      np.full(shape_b, q - 1, dtype=np.int64)),
                     (gen.integers(0, q, size=shape_a, dtype=np.int64),
                      gen.integers(0, q, size=shape_b, dtype=np.int64))):
            _assert_matmul_mod_exact(A, B, q)
        if len(shape_a) == len(shape_b) == 1:
            assert np.ndim(matmul_mod(A, B, q)) == 0
    for hi in (2, 256):
        A = gen.integers(0, hi, size=(3, 7, 40)).astype(np.uint8)
        B = gen.integers(0, q, size=(3, 40, 4), dtype=np.int64)
        _assert_matmul_mod_exact(A, B, q)
        _assert_matmul_mod_exact(A[0], B[0, :, 0], q)


@pytest.mark.parametrize("q", KERNEL_MODULI[3:], ids=KERNEL_IDS[3:])
@pytest.mark.parametrize("k", [12, 40])
def test_matmul_mod_estimate_at_its_bounds(q, k):
    """Just below and just above each bound of the estimated quotient,
    with every entry of B q - 1 and every entry of A at max(A) = top:
    the largest sum r k top (q-1), r = k + 5, within (2^53 - r) q takes
    B whole and one past it takes limbs; then the largest top that keeps
    the limb width c of the first limb case, r (q - 1 + k top) 2^c within
    the same bound, and one past it, which narrows the limbs by a bit.
    Every one of these sums passes 2^64, so the wrap is taken on all.
    Random entries just under each top, whose float64 products round
    every which way, go with them, also at 32 times the first bound: an
    estimate on B whole there is off by more than one on most such
    entries, though the bound's worst case is far from typical."""
    gen = np.random.default_rng(k)
    r = k + 5
    room = ((1 << 53) - r) * q - 1
    whole = room // (r * k * (q - 1))
    c = (room // (r * (q - 1 + k * (whole + 1)))).bit_length() - 1
    limbs = (room // (r << c) - (q - 1)) // k
    tops = [top for top in (whole, whole + 1, limbs, limbs + 1)
            if 2 <= top < q]
    assert tops[:2] == [whole, whole + 1]
    tops += [whole << 5] if whole << 5 < q else []
    for top in tops:
        A = np.full((7, k), top, dtype=np.int64)
        B = np.full((k, 3), q - 1, dtype=np.int64)
        assert k * top * (q - 1) >= 1 << 64
        assert _path(A.shape, top, q) == ("estimate" if top <= whole
                                          else "limbs")
        _assert_matmul_mod_exact(A, B, q)
        _assert_matmul_mod_exact(A[None], B[None], q)
        _assert_matmul_mod_exact(
            top - gen.integers(0, 1 << 30, size=(16, k), dtype=np.int64),
            q - 1 - gen.integers(0, 1 << 30, size=(k, 16), dtype=np.int64),
            q)


def test_cached_tables_are_read_only():
    """gadget_matrix and invert's decoder constants are built once per
    modulus and shared, so none of them can be written."""
    q = desk_preset().q
    G = gadget_matrix(4, 43, q)
    assert gadget_matrix(4, 43, q) is G
    q_bits, h, _ = _decoder(q, 43)
    assert _decoder(q, 43)[0] is q_bits
    for table in (G, q_bits, h):
        with pytest.raises(ValueError):
            table[0, ...] = 0



# canonical's moduli: desk, MIXED and the largest supported q, and twice
# that, the modulus of predicted_phase_units' outer reduction.
REDUCTION_MODULI = [desk_preset().q, 1048583, BIG_Q, 2 * BIG_Q]
REDUCTION_IDS = ["desk", "mixed", "q2^61-1", "2q"]


def _around_the_crossover(q, gen, edges=()):
    """Arrays of STACKED_MIN - 1 and STACKED_MIN entries in [-q, 2q), the
    sizes on each side of canonical's switch: the edges -q, -1, 0, q - 1,
    q and 2q - 1, then `edges`, then random entries."""
    head = [-q, -1, 0, q - 1, q, 2 * q - 1, *edges]
    for size in (STACKED_MIN - 1, STACKED_MIN):
        yield np.concatenate([
            np.array(head, dtype=np.int64),
            gen.integers(-q, 2 * q, size=size - len(head), dtype=np.int64)])


@pytest.mark.parametrize("q", REDUCTION_MODULI, ids=REDUCTION_IDS)
def test_canonical_is_the_remainder(q):
    """canonical(x, q) is x % q for x in [-q, 2q), on each side of
    STACKED_MIN, on a stack of rows and a strided view, and on a 0-d
    input, as a scalar product's residue is."""
    gen = np.random.default_rng(q % 10007)
    for x in _around_the_crossover(q, gen):
        for view in (x, x[::-1], x[:x.size // 2 * 2].reshape(2, -1)):
            got = canonical(view, q)
            assert got.dtype == np.int64 and got.shape == view.shape
            assert np.array_equal(got, view % q)
    for z in (-q, -1, 0, q - 1, q, 2 * q - 1):
        assert int(canonical(np.int64(z), q)) == z % q
        assert int(canonical(np.array(z, dtype=np.int64), q)) == z % q


@pytest.mark.parametrize("q", REDUCTION_MODULI[:3], ids=REDUCTION_IDS[:3])
def test_scalar_product_residue_stays_0d(q):
    """A vector's product with a vector, as decrypt_bit's a . s, is one
    sum; past int64 its residue is a 0-d value that _estimate passes to
    canonical, which takes it as it took x % q."""
    gen = np.random.default_rng(q % 10037)
    for a in (np.full(4, q - 1, dtype=np.int64),
              gen.integers(0, q, size=4, dtype=np.int64)):
        got = matmul_mod(a, a[::-1], q)
        assert np.ndim(got) == 0
        assert int(got) == int(a.astype(object) @ a[::-1]) % q


@pytest.mark.parametrize("q", REDUCTION_MODULI[:3], ids=REDUCTION_IDS[:3])
def test_within_and_centered_match_their_old_formulas(q):
    """within(z, t, q) is (z + t) % q <= 2t, and centered(w, q), invert's
    lift, is (w + q // 2) % q - q // 2, the forms they had before
    canonical, on each side of STACKED_MIN, for z and w in [-q, 2q), with
    the half-widths 0, 1, invert's (q - 1) // 2Q and (q - 1) // 2, and
    with the lift's edges among the entries."""
    Q = (q - 1).bit_length()
    half = q // 2
    gen = np.random.default_rng(q % 10009)
    edges = [half, half + 1, -half, -half - 1, q + half, q + half + 1]
    for z in _around_the_crossover(q, gen, edges):
        for t in (0, 1, (q - 1) // (2 * Q), (q - 1) // 2):
            edge = np.array([t, -t, t + 1, -t - 1, q - t, q + t, q + t + 1])
            zt = np.concatenate([z, edge])[:z.size]
            assert np.array_equal(within(zt, t, q), (zt + t) % q <= 2 * t)
        assert np.array_equal(centered(z, q), (z + half) % q - half)

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
    assert sum(int(b) << j for j, b in enumerate(bits_le_vec(x, Q))) == x


@settings(max_examples=400)
@given(st.data())
def test_within_is_the_centered_range_test(data):
    """within(z, t, q) is whether z mod q's centered absolute value is at
    most t, for every z in (-q, 2q) and half-width 0 <= t <= (q-1)/2, at
    small moduli and the largest supported one."""
    q = data.draw(st.sampled_from([3, 11, 3001, BIG_Q]))
    z = data.draw(st.integers(min_value=-q + 1, max_value=2 * q - 1))
    t = data.draw(st.integers(min_value=0, max_value=(q - 1) // 2))
    expected = min(z % q, q - z % q) <= t
    assert bool(within(np.int64(z), t, q)) == expected
    assert within(np.array([z], dtype=np.int64), t, q).tolist() == [expected]


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


def _glibc_mallopt():
    try:
        return getattr(ctypes.CDLL("libc.so.6"), "mallopt", None)
    except OSError:
        return None


@pytest.mark.parametrize("taken, expected", [
    (1, [(-3, 32 << 20), (-1, 64 << 20)]),
    (0, [(-3, 32 << 20)]),
])
def test_heap_policy_pins_trim_only_after_mmap(taken, expected):
    """M_MMAP_THRESHOLD (-3) first, then M_TRIM_THRESHOLD (-1).  glibc
    refuses an mmap threshold past half its heap size (16 MiB on 32-bit);
    pinning the trim threshold alone would then send every block above
    the 128 KiB default through mmap, so it stays dynamic."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return taken
    _pin_heap_thresholds(lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert calls == expected


def test_heap_policy_is_a_no_op_where_it_cannot_apply():
    """A C library with no mallopt (macOS, Windows) and one that does not
    load (no libc.so.6) both leave the heap as it is, without raising."""
    loaded = []

    def no_mallopt(name):
        loaded.append(name)
        return types.SimpleNamespace()

    def missing(name):
        loaded.append(name)
        raise OSError(f"{name}: cannot open shared object file")
    assert _pin_heap_thresholds(no_mallopt) is None
    assert _pin_heap_thresholds(missing) is None
    assert loaded == ["libc.so.6", "libc.so.6"]


@pytest.mark.skipif(_glibc_mallopt() is None,
                    reason="the heap policy applies on glibc only")
def test_honest_chunks_reuse_the_heap_of_the_chunk_before():
    """Once warm, 16 chunks of honest desk trials fault in fewer than 64
    pages: each chunk reuses the heap the one before it freed.  glibc's
    dynamic trim threshold handed it back after every chunk instead, about
    20 faults per trial (8,165 over these 400 in chunks of 25; 3,986 over
    256 in chunks of 16)."""
    code = textwrap.dedent("""
        import resource
        from rotated_tcf import protocol_q
        from rotated_tcf.params import desk_preset
        from rotated_tcf.sampling import master_stream

        params, prover = desk_preset(), protocol_q.HonestQuantumProver()
        size = protocol_q.chunk_size(params)
        stream = master_stream("5e" * 32)
        protocol_q.run_experiment(params, prover, 2 * size,
                                  stream.derive("warm-up"))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        protocol_q.run_experiment(params, prover, 16 * size,
                                  stream.derive("counted"))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
    src = str(Path(rotated_tcf.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 64
