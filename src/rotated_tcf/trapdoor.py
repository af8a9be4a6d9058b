"""Gadget-based LWE trapdoor generation and inversion.

GenTrap builds A = [G + N*M ; M] where M is uniform over Z_q and N is a
uniform 0/1 matrix (the trapdoor).  Invert recovers s from A*s + e whenever
||e||_inf <= 2*tau; any failure returns the all-zero sentinel vector.  It
decodes every gadget block at once, without Python loops, and accepts
stacked inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import Params
from .sampling import RngStream
from .zq import (bits_le, centered_abs, centered_lift, gadget_matrix,
                 inf_norm, matmul_mod)


@dataclass(frozen=True)
class TrapdoorPair:
    params: Params
    A: np.ndarray   # m x n over Z_q
    N: np.ndarray   # Qn x (Q+1)n with 0/1 entries

    def top(self) -> np.ndarray:
        return self.A[: self.params.nQ]

    def bottom(self) -> np.ndarray:
        return self.A[self.params.nQ:]


def gen_trap(params: Params, stream: RngStream) -> TrapdoorPair:
    n, Q, q = params.n, params.Q, params.q
    gen = stream.gen
    M = gen.integers(0, q, size=((Q + 1) * n, n), dtype=np.int64)
    N = gen.integers(0, 2, size=(Q * n, (Q + 1) * n), dtype=np.int64)
    G = gadget_matrix(n, Q, q)
    top = (G + matmul_mod(N, M, q)) % q
    A = np.vstack([top, M])
    return TrapdoorPair(params=params, A=A, N=N)


def invert(pair: TrapdoorPair, v: np.ndarray) -> np.ndarray:
    """Recover s from v = A s + e with ||e||_inf <= 2 tau; 0^n on failure.

    v may be stacked, shape (..., m) -> (..., n); a row that fails to
    decode gets its own 0^n.  Each Q-block of v1 - N v2 is g s_i + e' mod q
    with g = (1, 2, ..., 2^(Q-1)).  S g = 0 mod q for the gadget basis S
    (rows (2, -1) on the diagonal, last row the bits of q), so S blk lifted
    to the centered range is S e' exactly, and e'_0 is row 0 of S^-1 times
    it; s_i = blk_0 - e'_0."""
    p = pair.params
    n, Q, q = p.n, p.Q, p.q
    v = np.asarray(v, dtype=np.int64)
    if v.shape[-1] != p.m:
        raise ValueError("v has wrong length")
    # the 0/1 operand on the left keeps matmul_mod on its one-product paths
    blk = (v[..., :Q * n] - matmul_mod(pair.N, v[..., Q * n:, None], q)[..., 0]
           ) % q
    blk = blk.reshape(v.shape[:-1] + (n, Q))
    w_last = matmul_mod(bits_le(q, Q), np.swapaxes(blk, -1, -2), q)
    w = np.concatenate([(2 * blk[..., :-1] - blk[..., 1:]) % q,
                        w_last[..., None]], axis=-1)
    # e'_0 = (h . w) / q with h = row 0 of q S^-1, h_k = floor(q / 2^(k+1))
    # + [k = Q-1].  Computed mod 2^64, where q is invertible: exact whenever
    # the integer sum is q e'_0 with |e'_0| < 2^63, i.e. whenever a
    # decoding exists.
    h = np.uint64(q) >> np.arange(1, Q + 1, dtype=np.uint64)
    h[-1] += np.uint64(1)
    hw = (centered_lift(w, q).view(np.uint64) * h).sum(axis=-1,
                                                        dtype=np.uint64)
    e0 = (hw * np.uint64(pow(q, -1, 1 << 64))).view(np.int64)
    s = (blk[..., 0] - e0 % q) % q
    # Accept only if blk - g s_i is short in every coordinate, 2Q |.| < q
    # (tested as |.| <= (q-1) // 2Q, which cannot overflow): this also
    # rejects the meaningless e'_0 of a row with no decoding.
    g = (np.int64(1) << np.arange(Q, dtype=np.int64)) % q
    resid = (blk - matmul_mod(s[..., None], g[None, :], q)) % q
    ok = (centered_abs(resid, q) <= (q - 1) // (2 * Q)).all(axis=(-2, -1))
    return np.where(ok[..., None], s, 0)


def find_preimage(pair: TrapdoorPair, y: np.ndarray, shift: np.ndarray | None,
                  tau: Fraction):
    """Return (x, g) with y + shift = A x + g and ||g||_inf <= tau, else None."""
    p = pair.params
    target = y if shift is None else (y + shift) % p.q
    x = invert(pair, target)
    g = (target - matmul_mod(pair.A, x, p.q)) % p.q
    tau = Fraction(tau)
    if inf_norm(g, p.q) * tau.denominator <= tau.numerator:
        return x, g
    return None
