"""Exact arithmetic and linear algebra over Z_q for an odd prime modulus q.

Vectors and matrices are numpy int64 arrays holding canonical representatives
in [0, q).  Every product goes through `matmul_mod`, which stays exact:
matrix products with sums below 2**53 run in float64, other sums below 2**63
in int64.  A larger sum P is reduced by an estimated quotient, as in Shoup's
MulMod: P mod 2**64 (a wrapping uint64 product) less q floor(F / q), with F
the float64 product.  With r = k + 5 for the inner dimension k, F / q
carries at most r roundings per term: three in each term's product
(converting both operands, multiplying), k - 1 along the sum, one adding a
fold's acc 2^c (below), and two in the quotient (converting q, dividing).
So |F / q - P / q| <= r 2^-53 V / (q (1 - r 2^-53)) for any bound V on P,
which is below 1 while r V < (2**53 - r) q.  The estimate is then off by at
most one, the residue lies in [-q, 2q), where its wrapped value read as
int64 is exact, and one `% q` makes it canonical.  Where V = k max(A) (q-1)
breaks that bound, B is split into c-bit limbs and folded back by Horner's
rule, each step's acc 2^c + A @ limb reduced by the same estimate.
Supported moduli: odd primes q < 2**MAX_Q_BITS (params.py).
"""
from __future__ import annotations

import ctypes
import threading
from functools import lru_cache

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


def within(z, t: int, q: int):
    """Whether z's residue r in (-q/2, q/2] has |r| <= t, elementwise:
    (z + t) mod q <= 2t.  Exact for 0 <= t < q/2, where |r| <= t puts
    r + t in [0, 2t] and any other r puts it in (2t, q) mod q.  For z in
    (-q, 2q), z + t stays below 2.5 q, so an int64 z cannot overflow."""
    return (z + t) % q <= 2 * t


def bits_le_vec(x: np.ndarray, Q: int) -> np.ndarray:
    """Concatenated little-endian bits of each coordinate, length len(x)*Q;
    a stack of vectors, shape (..., k), gives (..., k*Q), a scalar (Q,)."""
    x = np.asarray(x, dtype=np.int64)
    shifts = np.arange(Q, dtype=np.int64)
    return ((x[..., None] >> shifts) & 1).reshape(x.shape[:-1] + (-1,))


@lru_cache
def gadget_matrix(n: int, Q: int, q: int) -> np.ndarray:
    """Block-diagonal nQ x n matrix; column i carries (1, 2, ..., 2^(Q-1)).
    Built once per (n, Q, q) and read-only."""
    if n < 1 or Q < 1:
        raise ValueError("n and Q must be >= 1")
    g = (np.int64(1) << np.arange(Q, dtype=np.int64)) % q
    G = np.zeros((n * Q, n), dtype=np.int64)
    for i in range(n):
        G[i * Q:(i + 1) * Q, i] = g
    G.setflags(write=False)
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
    matrices and vectors); otherwise the estimated quotient of the module
    docstring, on B whole while r k max(A) (q-1) < (2^53 - r) q with
    r = k + 5 (so at desk, and with k = 4 at any q below 2^47), else on
    c-bit limbs of B with c the widest that keeps each Horner step's
    value, below (q - 1 + k max(A)) 2^c, within the same bound (two limbs
    at a 61-bit q).  A float64 A is taken to be in its `product_dtype`, so
    it is multiplied as it is.  A uint8 A (a 0/1 matrix stored one byte
    per entry) is widened one matrix at a time, see _matmul_mod_bytes."""
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
    k = A.shape[-1]
    if k * top * (q - 1) <= _INT64_MAX:
        return (A @ B) % q
    r = k + 5
    room = ((1 << 53) - r) * q - 1     # r V <= room keeps the estimate exact
    Au, Af = A.view(np.uint64), A.astype(np.float64)
    if r * k * top * (q - 1) <= room:
        return _estimate(Au @ B.view(np.uint64),
                         Af @ B.astype(np.float64), q)
    c = (room // (r * (q - 1 + k * top))).bit_length() - 1
    mask = (1 << c) - 1
    acc = np.int64(0)
    for shift in range(((q - 1).bit_length() - 1) // c * c, -1, -c):
        limb = (B >> shift) & mask
        acc = _estimate(
            np.add(np.left_shift(acc.view(np.uint64), c),
                   Au @ limb.view(np.uint64)),
            np.ldexp(acc.astype(np.float64), c) + Af @ limb.astype(np.float64),
            q)
    return acc


def _estimate(P, F, q: int):
    """The sum whose value is P mod 2^64 and about F, reduced mod q: P less
    q floor(F / q), wrapping, which is exact in [-q, 2q) when the estimate
    is off by at most one (see the module docstring).  Every operand is
    at least 0, and so is F, so the cast's truncation is the floor.
    Explicit ufuncs, since numpy warns of wrap-around in operators on a
    0-d result."""
    t = (F / q).astype(np.uint64)
    return np.subtract(P, np.multiply(t, np.uint64(q))).view(np.int64) % q


# The mmap threshold _pin_heap_thresholds sets: a block below it comes from
# the heap.  protocol_q.chunk_size keeps a chunk's N stack below it.
MMAP_THRESHOLD = 32 << 20


def _pin_heap_thresholds(cdll) -> None:
    """Pin glibc's mmap threshold at MMAP_THRESHOLD (32 MiB) and its trim
    threshold at twice that, through `cdll("libc.so.6")`.  Left dynamic,
    glibc sets its trim threshold to twice the largest mmapped block
    freed, about 0.97 MB once the 484 KB N stack of a 16-trial desk chunk
    is freed, below that chunk's transient peak of about 1.46 MB: the
    heap's top goes back to the kernel at the end of every chunk and is
    faulted in again by the next, up to 16 pages per trial.  Setting
    either threshold turns both dynamic ones off, so the trim threshold is
    pinned only once the mmap threshold is.  Where libc.so.6 does not load
    or has no mallopt (musl, macOS, Windows), nothing changes."""
    try:
        mallopt = getattr(cdll("libc.so.6"), "mallopt", None)
    except OSError:
        return
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, MMAP_THRESHOLD):   # M_MMAP_THRESHOLD; 0 if refused
        mallopt(-1, 2 * MMAP_THRESHOLD)   # M_TRIM_THRESHOLD


_pin_heap_thresholds(ctypes.CDLL)

# Each thread's work buffer for _matmul_mod_bytes, kept from call to call
# until a product of another shape or dtype replaces it.  With the heap
# thresholds pinned, a fresh buffer per call (242 KB for a desk trapdoor)
# stays mapped too, so keeping it no longer saves page faults.  On
# perfbench's poq-honest a fresh buffer has read about 3 % slower in one
# series of pairs and 0.6 % faster in another, so it stays until a
# benchmark tells the two apart.
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
    numpy's `@` on a narrow operand would widen the whole stack at once.
    In float64, where every sum is exact, each product goes straight into
    the stack of sums, which is reduced once; in int64 each takes
    matmul_mod's int64 paths."""
    work = _work_buffer(A.shape[-2:], product_dtype(
        A.shape, int(A.max(initial=0)), q))
    if A.ndim == 2:
        np.copyto(work, A)
        return matmul_mod(work, B, q)
    if B.shape[:-2] != A.shape[:-2]:
        raise ValueError("B does not lead with A's stack axes")
    exact = work.dtype == np.float64
    if exact:
        B = B.astype(np.float64)
    out = np.empty(A.shape[:-1] + B.shape[-1:], dtype=work.dtype)
    for i in np.ndindex(A.shape[:-2]):
        np.copyto(work, A[i])
        if exact:
            np.matmul(work, B[i], out=out[i])
        else:
            out[i] = matmul_mod(work, B[i], q)
    return out.astype(np.int64) % q if exact else out


def bit_dot(u: np.ndarray, v: np.ndarray):
    """GF(2) dot product of two 0/1 vectors, an int; for two stacks of
    vectors of equal shape, the array of the row-wise products."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch in bit_dot")
    d = (u & v).sum(axis=-1) & 1
    return d if d.ndim else int(d)
