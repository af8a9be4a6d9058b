"""Exact arithmetic and linear algebra over Z_q for an odd prime modulus q.

Vectors and matrices are numpy int64 arrays holding canonical representatives
in [0, q).  Every product goes through `matmul_mod`, which stays exact: sums
below 2**53 run in float64, sums that could overflow 64 bits are computed
via limb splitting (Horner folding stays within int64) or fall back to
Python integers.  Supported moduli: odd primes q < 2**61.
"""
from __future__ import annotations

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
    """Concatenated little-endian bits of each coordinate, length len(x)*Q."""
    x = np.asarray(x, dtype=np.int64)
    shifts = np.arange(Q, dtype=np.int64)
    return ((x[:, None] >> shifts) & 1).reshape(-1)


def gadget_matrix(n: int, Q: int, q: int) -> np.ndarray:
    """Block-diagonal nQ x n matrix; column i carries (1, 2, ..., 2^(Q-1))."""
    if n < 1 or Q < 1:
        raise ValueError("n and Q must be >= 1")
    g = (np.int64(1) << np.arange(Q, dtype=np.int64)) % q
    G = np.zeros((n * Q, n), dtype=np.int64)
    for i in range(n):
        G[i * Q:(i + 1) * Q, i] = g
    return G


def matmul_mod(A, B, q: int):
    """A @ B mod q, exact for entries in [0, q), with numpy `@` shapes.

    With k the inner dimension: one float64 (BLAS) product when
    k * max(A) * (q-1) < 2^53, exact since every product and partial sum is
    then an integer below 2^53 whatever the summation order; one int64
    product when it fits below 2^63 (0/1 matrices and vectors); otherwise B
    is split into c-bit limbs, each partial product fitting in int64, and
    folded back by Horner's rule mod q; if no limb width fits, Python
    integers."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    top = A.shape[-1] * int(A.max(initial=0))
    if top * (q - 1) < _FLOAT64_EXACT:
        return (A.astype(np.float64) @ B.astype(np.float64)
                ).astype(np.int64) % q
    if top * (q - 1) <= _INT64_MAX:
        return (A @ B) % q
    # c-bit limbs: top * (2^c - 1) and (q - 1) * 2^c must both fit
    c = min((_INT64_MAX // top + 1).bit_length(),
            (_INT64_MAX // (q - 1)).bit_length()) - 1
    if c < 1:
        return np.asarray((A.astype(object) @ B.astype(object)) % q,
                          dtype=np.int64)
    mask = (1 << c) - 1
    acc = 0
    for shift in range(((q - 1).bit_length() - 1) // c * c, -1, -c):
        acc = ((acc << c) % q + (A @ ((B >> shift) & mask)) % q) % q
    return acc


def bit_dot(u: np.ndarray, v: np.ndarray) -> int:
    """GF(2) dot product of two 0/1 vectors."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch in bit_dot")
    return int((u & v).sum() & 1)
