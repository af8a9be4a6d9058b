"""Randomness sources: derived deterministic streams and all protocol samplers.

Streams are counter-free and fork-safe: a child stream is obtained by hashing
the parent seed with a label, so trial i of an experiment always sees the same
bits regardless of execution order or worker count.
"""
from __future__ import annotations

import hashlib
import math
from functools import lru_cache

import numpy as np


class RngStream:
    """Deterministic random stream identified by a 32-byte seed."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed):
        if isinstance(seed, str):  # length first: fromhex skips whitespace
            seed = bytes.fromhex(seed) if len(seed) == 64 else None
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
            self._gen = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(_entropy_words(self.seed))))
        return self._gen

    def __repr__(self):
        return f"RngStream({self.seed.hex()[:16]}...)"


def _entropy_words(seed: bytes) -> np.ndarray:
    """int.from_bytes(seed, "big") as numpy's SeedSequence reads an int:
    its uint32 words, least significant first, without the leading zero
    words (a zero seed keeps one word).  Given the words, SeedSequence
    skips its coercion of a Python int and mixes the same pool."""
    words = max(1, -(-len(seed.lstrip(b"\0")) // 4))
    return np.frombuffer(seed[::-1], dtype="<u4", count=words)


# numpy's SeedSequence is M. O'Neill's seed_seq_fe with a pool of 4 uint32
# words (its hashmix and mix, with the constants of numpy's
# random/bit_generator.pyx): fixed-width uint32 arithmetic that runs over a
# whole batch of seeds at once, for `seed_streams`; a lone stream takes
# numpy's own SeedSequence.  Below, each seed is one column and each word
# one row.
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)


def _hash_constants(init: int, mult: int, calls: int):
    """The (xor, multiply) constants of `calls` successive hashmix calls,
    one row each: call k xors with init mult^k and multiplies by
    init mult^(k+1), mod 2^32."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


# mix_entropy makes 32 hashmix calls on an 8-word entropy (4 to fill the
# pool, 12 to mix it, 16 to fold in words 4..7); generate_state makes 8.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43b0d7e5, 0x931e8875, 32)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8b51f9dd, 0x58f38ded, 8)


def _round_constants(src: int):
    """The constants of mixing round src, one row per pool word: the round
    hashes word src once for each other word, in order, with hashmix calls
    4 + 3 src onwards.  Row src holds zeros; the round keeps word src."""
    xor, mul = np.zeros((2, 4, 1), dtype=np.uint32)
    others = [d for d in range(4) if d != src]
    xor[others] = _POOL_XOR[4 + 3 * src:7 + 3 * src]
    mul[others] = _POOL_MUL[4 + 3 * src:7 + 3 * src]
    return xor, mul


_ROUNDS = [_round_constants(src) for src in range(4)]


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> _XSHIFT)


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(int.from_bytes(seed, "big")).generate_state(4, np.uint64)
    for each of `seeds`, as one row each.  Each seed's top four bytes must
    not all be zero: numpy drops leading zero words, and every seed here
    is taken to have eight."""
    # the int's uint32 words, least significant first, one row per word
    entropy = np.frombuffer(b"".join(seeds), dtype=">u4").reshape(
        -1, 8)[:, ::-1].T.astype(np.uint32)
    pool = _hashmix(entropy[:4], _POOL_XOR[:4], _POOL_MUL[:4])
    for src, (xor, mul) in enumerate(_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[src], xor, mul))
        mixed[src] = pool[src]
        pool = mixed
    folded = _hashmix(np.repeat(entropy[4:], 4, axis=0), _POOL_XOR[16:],
                      _POOL_MUL[16:])
    for k in range(0, 16, 4):
        pool = _mix(pool, folded[k:k + 4])
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_XOR, _STATE_MUL)
    # as numpy does: little-endian uint32 pairs, then native uint64
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the words `_seed_words` computed for its seed."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# Streams per seed_streams call from which the vectorised words pay.  On a
# 2-vCPU Xeon guest they cost about 80-90 us a call, PCG64 and Generator
# included, against about 12 us a stream for a lone stream (numpy's
# SeedSequence given the seed's words).  Timed in pairs, the lone path
# wins at 7 streams (89 against 92 us), the two are about even at 8 (97
# against 93) and the vectorised call wins from 9 (105 against 84), so a
# lone instance keeps the lone path.
SEED_BATCH_MIN = 8


def seed_streams(streams) -> None:
    """Seed the generators of `streams` in one vectorised call, with the
    bits that their own first use would give them.  A stream that already
    has a generator keeps it (reseeding would rewind it), and one whose
    seed starts with four zero bytes is left to seed itself, as a lone
    stream; below SEED_BATCH_MIN streams, all of them are."""
    todo = [s for s in streams if s._gen is None and s.seed[:4] != bytes(4)]
    if len(todo) < SEED_BATCH_MIN:
        return
    for stream, words in zip(todo, _seed_words([s.seed for s in todo])):
        stream._gen = np.random.Generator(np.random.PCG64(_SeedWords(words)))


def master_stream(seed_hex: str) -> RngStream:
    return RngStream(seed_hex)


def sample_uniform(dim: int, q: int, stream: RngStream) -> np.ndarray:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return stream.gen.integers(0, q, size=dim, dtype=np.int64)


def fill_bits(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the 1-d array `out` with gen.integers(0, 2, size=len(out)) and
    return it; gen is left where that draw leaves it (state, buffered
    half-word, the draws after).  With range 2, numpy's Lemire method
    returns the top bit of one 32-bit half-word per entry, and PCG64 deals
    each 64-bit word's halves low first, keeping the high one buffered
    (`has_uint32`) for the next 32-bit draw.  So entries 2j and 2j + 1 of a
    run read from raw words are bits 31 and 63 of word j.  An entry that
    starts from a buffered half-word, and an odd last entry (a lone entry
    included), are scalar draws, which take one half-word each."""
    start, stop = 0, len(out)
    if gen.bit_generator.state["has_uint32"]:
        out[0] = gen.integers(0, 2)
        start = 1
    stop -= (stop - start) % 2
    if stop > start:
        words = gen.bit_generator.random_raw((stop - start) // 2)
        np.right_shift(words.astype("<u8", copy=False).view("<u4"), 31,
                       out=out[start:stop], casting="unsafe")
    if stop < len(out):
        out[stop] = gen.integers(0, 2)
    return out


def sample_bits(m: int, stream: RngStream) -> np.ndarray:
    """m uniform bits, int64: the draw gen.integers(0, 2, size=m), read by
    fill_bits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return fill_bits(stream.gen, np.empty(m, dtype=np.int64))


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


def _table_draw(support, cdf, u):
    """The table entries that the uniforms `u` select by inverse CDF.  A
    support is a run of consecutive integers, so entry i is i + support[0]."""
    return np.searchsorted(cdf, u, side="right") + support[0]


def sample_gaussian(sigma: float, stream: RngStream, size):
    """Draw from G(sigma) via inverse-CDF on the exact pmf table."""
    support, pmf = gaussian_table(sigma)
    return _table_draw(support, _cdf(pmf), stream.gen.random(size))


@lru_cache(maxsize=64)
def _truncated_table(sigma: float, t: int):
    """Support and CDF of G(sigma) conditioned on |x| <= t, built once per
    (sigma, t); read-only, since every caller shares them."""
    support, pmf = gaussian_table(sigma)
    keep = np.abs(support) <= t
    support, pmf = support[keep], pmf[keep]
    cdf = _cdf(pmf / pmf.sum())
    support.setflags(write=False)
    cdf.setflags(write=False)
    return support, cdf


# Each sampler below is stacked, one row per stream: every stream makes
# only its bare generator call, and the transform and the check run once
# for the stack.  A lone draw is a stack of one.


def sample_truncated_gaussian_stacked(sigma: float, tau, streams, size):
    """`size` draws from G(sigma) conditioned on |x| <= tau (the exact
    truncated table) on each of `streams`, one row each: each stream's
    gen.random(size), then one table lookup and one bound check.  An
    integer x has |x| <= tau exactly when |x| <= floor(tau), so the table
    and the check take t = floor(tau), an int, from any real tau."""
    t = math.floor(tau)
    if t < 1:
        raise ValueError("tau must be >= 1")
    u = np.array([stream.gen.random(size) for stream in streams])
    out = _table_draw(*_truncated_table(sigma, t), u)
    if int(np.abs(out).max(initial=0)) > t:
        raise AssertionError("truncated Gaussian draw exceeds tau")
    return out


def sample_box_stacked(m: int, tau, q: int, streams) -> np.ndarray:
    """m coordinates, each uniform on {x in Z_q : |x| <= tau} (centered
    abs), on each of `streams`, one row each: each stream's bare integers
    draw, then one half-width check and one reduction mod q (a draw
    within the half-width t < q/2 keeps its centered abs mod q)."""
    t = min(math.floor(tau), (q - 1) // 2)
    out = np.array([stream.gen.integers(-t, t + 1, size=m, dtype=np.int64)
                    for stream in streams])
    if int(np.abs(out).max(initial=0)) > t:
        raise AssertionError("box draw exceeds its half-width")
    out %= q
    return out


def sample_noise_stacked(params, streams) -> np.ndarray:
    """The key-generation error vector e <- G(sigma, tau)^m mod q on each
    of `streams`, one row each."""
    if params.tau_floor < 1:
        # tau < 1 forces e = 0 (tiny test instances only): no draw
        return np.zeros((len(streams), params.m), dtype=np.int64)
    e = sample_truncated_gaussian_stacked(params.sigma, params.tau_floor,
                                          streams, params.m)
    e %= params.q
    return e
