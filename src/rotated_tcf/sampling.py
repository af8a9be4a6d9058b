"""Randomness sources: derived deterministic streams and all protocol samplers.

Streams are counter-free and fork-safe: a child stream is obtained by hashing
the parent seed with a label, so trial i of an experiment always sees the same
bits regardless of execution order or worker count.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .zq import centered_abs


class RngStream:
    """Deterministic random stream identified by a 32-byte seed."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed):
        if isinstance(seed, str):
            seed = bytes.fromhex(seed)
        elif isinstance(seed, int):
            seed = seed.to_bytes(32, "big")
        if not isinstance(seed, bytes) or len(seed) != 32:
            raise ValueError("seed must be 32 bytes / 64 hex chars")
        self.seed = seed
        self._gen = None

    def derive(self, *labels) -> "RngStream":
        h = hashlib.sha256(self.seed)
        for label in labels:
            h.update(b"/")
            h.update(str(label).encode())
        return RngStream(h.digest())

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.PCG64(int.from_bytes(self.seed, "big"))
            )
        return self._gen

    def __repr__(self):
        return f"RngStream({self.seed.hex()[:16]}...)"


def master_stream(seed_hex: str) -> RngStream:
    return RngStream(seed_hex)


def sample_uniform(dim: int, q: int, stream: RngStream) -> np.ndarray:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return stream.gen.integers(0, q, size=dim, dtype=np.int64)


def sample_bits(m: int, stream: RngStream) -> np.ndarray:
    if m < 1:
        raise ValueError("m must be >= 1")
    return stream.gen.integers(0, 2, size=m, dtype=np.int64)


@lru_cache(maxsize=64)
def gaussian_table(sigma: float):
    """Support and pmf of the discrete Gaussian exp(-x^2/(2 sigma^2)),
    tabulated over [-B, B] with B = ceil(10 sigma) (dropped tail < e^-50)."""
    B = math.ceil(10 * sigma)
    support = np.arange(-B, B + 1)
    logw = -(support.astype(float) ** 2) / (2 * sigma * sigma)
    w = np.exp(logw)
    pmf = w / w.sum()
    return support, pmf


def _cdf(pmf):
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return cdf


def _table_draw(support, cdf, stream: RngStream, size):
    u = stream.gen.random(size if size is not None else 1)
    idx = np.searchsorted(cdf, u, side="right")
    out = support[idx]
    return out if size is not None else int(out[0])


def sample_gaussian(sigma: float, stream: RngStream, size=None):
    """Draw from G(sigma) via inverse-CDF on the exact pmf table."""
    support, pmf = gaussian_table(sigma)
    return _table_draw(support, _cdf(pmf), stream, size)


@lru_cache(maxsize=64)
def _truncated_table(sigma: float, tau: Fraction):
    """Support and CDF of G(sigma) conditioned on |x| <= tau, built once
    per (sigma, tau); read-only, since every caller shares them."""
    support, pmf = gaussian_table(sigma)
    # |x| <= tau via integer cross-multiplication
    keep = np.abs(support) * tau.denominator <= tau.numerator
    support, pmf = support[keep], pmf[keep]
    cdf = _cdf(pmf / pmf.sum())
    support.setflags(write=False)
    cdf.setflags(write=False)
    return support, cdf


def sample_truncated_gaussian(sigma: float, tau, stream: RngStream, size=None):
    """Draw from G(sigma) conditioned on |x| <= tau (exact truncated table)."""
    tau = Fraction(tau)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    out = _table_draw(*_truncated_table(sigma, tau), stream, size)
    if not np.all(np.abs(out) * tau.denominator <= tau.numerator):
        raise AssertionError("truncated Gaussian draw exceeds tau")
    return out


def sample_box(m: int, tau, q: int, stream: RngStream) -> np.ndarray:
    """Each coordinate uniform on {x in Z_q : |x| <= tau} (centered abs)."""
    tau = Fraction(tau)
    t = tau.numerator // tau.denominator
    t = min(t, (q - 1) // 2)
    if 2 * t + 1 > q:
        raise ValueError("box wider than the ring")
    raw = stream.gen.integers(-t, t + 1, size=m, dtype=np.int64)
    out = raw % q
    if int(centered_abs(out, q).max(initial=0)) > t:
        raise AssertionError("box draw exceeds its half-width")
    return out


def sample_noise(params, stream: RngStream):
    """Error vector e <- G(sigma, tau)^m as used by key generation."""
    if params.tau >= 1:
        e = sample_truncated_gaussian(params.sigma, params.tau, stream,
                                      size=params.m)
    else:
        # tau < 1 forces e = 0 (tiny test instances only)
        e = np.zeros(params.m, dtype=np.int64)
    return np.asarray(e, dtype=np.int64) % params.q
