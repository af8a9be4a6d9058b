"""Gadget-based LWE trapdoor generation and inversion.

GenTrap builds A = [G + N*M ; M] where M is uniform over Z_q and N is a
uniform 0/1 matrix (the trapdoor).  Invert recovers s from A*s + e whenever
||e||_inf <= 2*tau; any failure returns the all-zero sentinel vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import Params
from .sampling import RngStream
from .zq import bits_le, centered_lift, gadget_matrix, inf_norm, matmul_mod


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


def _solve_block(w: list[int], q: int, Q: int, q_bits: np.ndarray):
    """Solve S e' = w over the integers for one Q x Q block.

    Rows 1..Q-1 of S are (2, -1) on the diagonal/superdiagonal; row Q holds
    the little-endian bits of q.  Returns e' or None if the solution is
    non-integral or out of range (|e'_j| must stay below q/(2Q))."""
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


def invert(pair: TrapdoorPair, v: np.ndarray) -> np.ndarray:
    """Recover s from v = A s + e with ||e||_inf <= 2 tau; 0^n on failure."""
    p = pair.params
    n, Q, q = p.n, p.Q, p.q
    if v.shape[0] != p.m:
        raise ValueError("v has wrong length")
    v1, v2 = v[: Q * n], v[Q * n:]
    vp = (v1 - matmul_mod(pair.N, v2, q)) % q
    q_bits = bits_le(q, Q)
    q_mask = q_bits == 1
    s = np.zeros(n, dtype=np.int64)
    for i in range(n):
        blk = vp[i * Q:(i + 1) * Q]
        # w = S . blk mod q, lifted to centered representatives
        w_head = centered_lift((2 * blk[:-1] - blk[1:]) % q, q)
        wQ = int(blk[q_mask].astype(object).sum()) % q
        w = [int(x) for x in w_head] + [int(centered_lift(wQ, q))]
        e = _solve_block(w, q, Q, q_bits)
        if e is None:
            return np.zeros(n, dtype=np.int64)
        # consistency: blk - e must follow the doubling gadget column mod q
        t = (blk - np.asarray(e, dtype=np.int64)) % q
        if not np.array_equal(t[1:], (2 * t[:-1]) % q):
            return np.zeros(n, dtype=np.int64)
        s[i] = int(t[0])
    return s


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
