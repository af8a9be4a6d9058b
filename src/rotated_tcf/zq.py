"""Exact arithmetic and linear algebra over Z_q for an odd prime modulus q.

Vectors and matrices are numpy int64 arrays holding canonical representatives
in [0, q).  Every product goes through `matmul_mod`, which stays exact:
matrix products with sums below 2**53 run in float64, other sums below 2**63
in int64, sums that could overflow 64 bits are computed via limb splitting
(Horner folding stays within int64) or fall back to Python integers.
Supported moduli: odd primes q < 2**61.
"""
from __future__ import annotations

import threading

import numpy as np

_INT64_MAX = (1 << 63) - 1
_FLOAT64_EXACT = 1 << 53


def centered_abs(x, q: int):
    """|x| = min(x, q - x) for canonical x in [0, q). Works elementwise."""
    x = np.asarray(x)
    return np.minimum(x, q - x)


def centered_lift(x, q: int):
    """Lift canonical representatives to the centered range (-q/2, q/2]."""
    x = np.asarray(x)
    half = q // 2
    return np.where(x > half, x - q, x)


def inf_norm(v: np.ndarray, q: int) -> int:
    if np.size(v) == 0:
        raise ValueError("inf_norm of empty vector")
    return int(centered_abs(v, q).max())


def bits_le(x: int, Q: int) -> np.ndarray:
    """Little-endian binary representation of x, length Q."""
    x = int(x)
    if x >> Q:
        raise ValueError(f"{x} does not fit in {Q} bits")
    return np.array([(x >> j) & 1 for j in range(Q)], dtype=np.int64)


def bits_le_vec(x: np.ndarray, Q: int) -> np.ndarray:
    """Concatenated little-endian bits of each coordinate, length len(x)*Q;
    a stack of vectors, shape (..., k), gives shape (..., k*Q)."""
    x = np.asarray(x, dtype=np.int64)
    shifts = np.arange(Q, dtype=np.int64)
    return ((x[..., None] >> shifts) & 1).reshape(x.shape[:-1] + (-1,))


def gadget_matrix(n: int, Q: int, q: int) -> np.ndarray:
    """Block-diagonal nQ x n matrix; column i carries (1, 2, ..., 2^(Q-1))."""
    if n < 1 or Q < 1:
        raise ValueError("n and Q must be >= 1")
    g = (np.int64(1) << np.arange(Q, dtype=np.int64)) % q
    G = np.zeros((n * Q, n), dtype=np.int64)
    for i in range(n):
        G[i * Q:(i + 1) * Q, i] = g
    return G


def gadget_multiples(s, Q: int, q: int) -> np.ndarray:
    """s_i g mod q for each entry s_i of s, with g = (1, 2, ..., 2^(Q-1))
    mod q the gadget row: shape s.shape + (Q,).  Exact for every q < 2^62
    with no product: an entry below q shifted left by c = 63 - bits(q)
    bits stays below 2^63, so the powers of two are formed c at a time."""
    s = np.asarray(s, dtype=np.int64)
    c = 63 - q.bit_length()
    block = (s[..., None] << np.arange(min(c, Q), dtype=np.int64)) % q
    blocks = [block]
    for _ in range(c, Q, c):
        block = (block << c) % q
        blocks.append(block)
    return np.concatenate(blocks, axis=-1)[..., :Q]


def product_dtype(shape, bound: int, q: int):
    """The dtype matmul_mod multiplies a left operand of this shape with
    entries in [0, bound] in: float64 when k * bound * (q-1) < 2^53, with k
    the inner dimension, and the operand has more than one row; else int64.
    A single-row (vector) product runs faster in int64 than after casting
    both operands for BLAS."""
    one_row = len(shape) == 1 or shape[-2] == 1
    if not one_row and shape[-1] * bound * (q - 1) < _FLOAT64_EXACT:
        return np.float64
    return np.int64


def matmul_mod(A, B, q: int):
    """A @ B mod q, exact for entries in [0, q), with numpy `@` shapes.

    With k the inner dimension: one float64 (BLAS) product when
    k * max(A) * (q-1) < 2^53 and A has more than one row, exact since every
    product and partial sum is then an integer below 2^53 whatever the
    summation order; one int64 product when it fits below 2^63 (0/1
    matrices and vectors); otherwise B is split into c-bit limbs, each
    partial product fitting in int64, and folded back by Horner's rule mod
    q; if no limb width fits, Python integers.  A float64 A is taken to be
    in its `product_dtype`, so it is multiplied as it is.  A uint8 A (a
    0/1 matrix stored one byte per entry) is widened one matrix at a time,
    see _matmul_mod_bytes."""
    B = np.asarray(B, dtype=np.int64)
    if isinstance(A, np.ndarray):
        if A.dtype == np.uint8:
            return _matmul_mod_bytes(A, B, q)
        if A.dtype == np.float64:
            return (A @ B.astype(np.float64)).astype(np.int64) % q
    A = np.asarray(A, dtype=np.int64)
    top = int(A.max(initial=0))
    if product_dtype(A.shape, top, q) is np.float64:
        return (A.astype(np.float64) @ B.astype(np.float64)
                ).astype(np.int64) % q
    top *= A.shape[-1]
    if top * (q - 1) <= _INT64_MAX:
        return (A @ B) % q
    # c-bit limbs: a Horner step acc * 2^c + A @ limb, with acc < q and
    # each limb below 2^c, stays below (q - 1 + top) * 2^c, which must fit
    c = (_INT64_MAX // (top + q - 1)).bit_length() - 1
    if c < 1:
        return np.asarray((A.astype(object) @ B.astype(object)) % q,
                          dtype=np.int64)
    mask = (1 << c) - 1
    high = ((q - 1).bit_length() - 1) // c * c   # B >> high < 2^c
    acc = (A @ (B >> high)) % q
    for shift in range(high - c, -1, -c):
        acc = ((acc << c) + A @ ((B >> shift) & mask)) % q
    return acc


# Each thread's work buffer for _matmul_mod_bytes, kept from call to call
# until a product of another shape or dtype replaces it.  A fresh buffer per
# call (242 KB for a desk trapdoor) is one more block that glibc may hand
# back to the system between calls and then fault in again.
_WORK = threading.local()


def _work_buffer(shape, dtype) -> np.ndarray:
    work = getattr(_WORK, "buffer", None)
    if work is None or work.shape != shape or work.dtype != dtype:
        work = _WORK.buffer = np.empty(shape, dtype=dtype)
    return work


def _matmul_mod_bytes(A: np.ndarray, B: np.ndarray, q: int):
    """matmul_mod for a uint8 A: one matrix, or a stack L + (r, k) with B
    of shape L + (k, c).  Each matrix of A is copied in turn into the
    thread's work buffer, in its product_dtype, and multiplied from there:
    numpy's `@` on a narrow operand would widen the whole stack at once."""
    work = _work_buffer(A.shape[-2:], product_dtype(
        A.shape, int(A.max(initial=0)), q))
    if A.ndim == 2:
        np.copyto(work, A)
        return matmul_mod(work, B, q)
    if B.shape[:-2] != A.shape[:-2]:
        raise ValueError("B does not lead with A's stack axes")
    out = np.empty(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    for i in np.ndindex(A.shape[:-2]):
        np.copyto(work, A[i])
        out[i] = matmul_mod(work, B[i], q)
    return out


def bit_dot(u: np.ndarray, v: np.ndarray):
    """GF(2) dot product of two 0/1 vectors, an int; for two stacks of
    vectors of equal shape, the array of the row-wise products."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch in bit_dot")
    d = (u & v).sum(axis=-1) & 1
    return d if d.ndim else int(d)
