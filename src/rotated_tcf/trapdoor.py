"""Gadget-based LWE trapdoor generation and inversion.

GenTrap builds A = [G + N*M ; M] where M is uniform over Z_q and N is a
uniform 0/1 matrix (the trapdoor).  Invert recovers s from A*s + e whenever
||e||_inf <= 2*tau; any failure returns the all-zero sentinel vector.  It
decodes every gadget block at once, without Python loops, and accepts
stacked inputs and a stack of pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import Params
from .sampling import RngStream, fill_bits
from .zq import bits_le, gadget_matrix, gadget_multiples, inf_norm, matmul_mod


@dataclass(frozen=True)
class TrapdoorPair:
    """One pair, or a stack of pairs with the same leading axes on A and N."""
    params: Params
    A: np.ndarray   # (..., m, n) over Z_q
    N: np.ndarray   # (..., Qn, (Q+1)n) with 0/1 entries, uint8: each
                    # product widens one pair's N at a time


def gen_trap(params: Params, stream: RngStream) -> TrapdoorPair:
    pair = gen_trap_stacked(params, [stream])
    return TrapdoorPair(params=params, A=pair.A[0], N=pair.N[0])


def gen_trap_stacked(params: Params, streams) -> TrapdoorPair:
    """One pair per stream, stacked on a leading axis.  Each stream draws M
    and then N; N goes straight into its place in the stack, one byte per
    entry, and N M is one matmul_mod call for the stack.  N holds the
    values of an int64 draw of [0, 2) (numpy takes one 32-bit half-word
    per entry for both), read from raw words by `fill_bits`."""
    n, Q, q = params.n, params.Q, params.q
    k = (Q + 1) * n
    A = np.empty((len(streams), params.m, n), dtype=np.int64)
    N = np.empty((len(streams), Q * n, k), dtype=np.uint8)
    for i, stream in enumerate(streams):
        gen = stream.gen
        A[i, Q * n:] = gen.integers(0, q, size=(k, n), dtype=np.int64)
        fill_bits(gen, N[i].reshape(-1))  # a view: N is C-contiguous
    NM = matmul_mod(N, A[:, Q * n:], q)
    NM += gadget_matrix(n, Q, q)
    np.remainder(NM, q, out=A[:, :Q * n])
    return TrapdoorPair(params=params, A=A, N=N)


def invert(pair: TrapdoorPair, v: np.ndarray) -> np.ndarray:
    """Recover s from v = A s + e with ||e||_inf <= 2 tau; 0^n on failure.

    v may be stacked, shape (..., m) -> (..., n); a row that fails to
    decode gets its own 0^n.  A stack of pairs, N of shape
    L + (Qn, (Q+1)n), takes v of shape L + (..., m) and decodes each row
    with the pair at its index in L.

    Each Q-block of v1 - N v2 is g s_i + e' mod q with
    g = (1, 2, ..., 2^(Q-1)).  S g = 0 mod q for the gadget basis S
    (rows (2, -1) on the diagonal, last row the bits of q), so S blk lifted
    to the centered range is S e' exactly, and e'_0 is row 0 of S^-1 times
    it; s_i = blk_0 - e'_0."""
    p = pair.params
    n, Q, q = p.n, p.Q, p.q
    v = np.asarray(v, dtype=np.int64)
    if v.shape[-1] != p.m:
        raise ValueError("v has wrong length")
    lead = pair.N.shape[:-2]
    if v.shape[:len(lead)] != lead:
        raise ValueError("v does not lead with the pairs' stack axes")
    # N v2 for every row as one product per pair: N @ (rows of v2)^T
    v2 = v[..., Q * n:].reshape(lead + (-1, (Q + 1) * n))
    Nv2 = matmul_mod(pair.N, v2.swapaxes(-1, -2), q).swapaxes(-1, -2)
    blk = (v[..., :Q * n] - Nv2.reshape(v.shape[:-1] + (Q * n,))) % q
    blk = blk.reshape(v.shape[:-1] + (n, Q))
    q_bits, h, q_inverse = _decoder(q, Q)
    w_last = matmul_mod(q_bits, blk.swapaxes(-1, -2), q)
    w = np.concatenate([2 * blk[..., :-1] - blk[..., 1:], w_last[..., None]],
                       axis=-1)
    # S blk mod q lifted to the centered range, ((z + half) mod q) - half
    half = q // 2
    w = (w + half) % q - half
    # e'_0 = (h . w) / q, computed mod 2^64, where q is invertible: exact
    # whenever the integer sum is q e'_0 with |e'_0| < 2^63, i.e. whenever
    # a decoding exists.
    e0 = ((w.view(np.uint64) @ h) * q_inverse).view(np.int64)
    s = (blk[..., 0] - e0 % q) % q
    # Accept only if blk - g s_i is short in every coordinate, 2Q |.| < q,
    # tested as |.| <= t = (q-1) // 2Q, which cannot overflow: a centered
    # |z| <= t is (z + t) mod q <= 2t, as 2t < q.  This also rejects the
    # meaningless e'_0 of a row with no decoding.
    t = (q - 1) // (2 * Q)
    ok = ((blk - gadget_multiples(s, Q, q) + t) % q <= 2 * t).all(
        axis=(-2, -1))
    return np.where(ok[..., None], s, 0)


@lru_cache
def _decoder(q: int, Q: int):
    """invert's constants for one modulus, built once and read-only: the
    bits of q (the last row of S), h = row 0 of q S^-1, with h_k =
    floor(q / 2^(k+1)) + [k = Q-1], and q^-1 mod 2^64."""
    q_bits = bits_le(q, Q)
    h = np.uint64(q) >> np.arange(1, Q + 1, dtype=np.uint64)
    h[-1] += np.uint64(1)
    for table in (q_bits, h):
        table.setflags(write=False)
    return q_bits, h, np.uint64(pow(q, -1, 1 << 64))


def find_preimage(pair: TrapdoorPair, y: np.ndarray):
    """Return (x, g) with y = A x + g and ||g||_inf <= tau, the pair's
    params.tau, else None.  y may be stacked, shape (..., m), and the pair
    too, as for `invert`; then every row must be within tau."""
    p = pair.params
    x = invert(pair, y)
    # A x for every row as one product per pair: A @ (rows of x)^T
    rows = x.reshape(pair.A.shape[:-2] + (-1, p.n)).swapaxes(-1, -2)
    Ax = matmul_mod(pair.A, rows, p.q).swapaxes(-1, -2)
    g = (y - Ax.reshape(x.shape[:-1] + (p.m,))) % p.q
    if inf_norm(g, p.q) * p.tau.denominator <= p.tau.numerator:
        return x, g
    return None
