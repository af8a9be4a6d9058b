import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rotated_tcf
from rotated_tcf import sampling
from rotated_tcf.params import desk_preset, tiny_params
from rotated_tcf.sampling import (GUIDE_BINS, SEED_BATCH_MIN, RngStream,
                                  _cdf, _guide, _seed_words, _table_draw,
                                  _truncated_table, gaussian_table,
                                  master_stream, sample_bits,
                                  sample_box_stacked, sample_gaussian,
                                  sample_noise_stacked,
                                  sample_truncated_gaussian_stacked,
                                  sample_uniform, seed_streams)
from rotated_tcf.zq import STACKED_MIN


def test_stream_seed_validation():
    with pytest.raises(ValueError):
        RngStream("abcd")
    with pytest.raises(ValueError):
        RngStream(b"short")
    for seed in (0, 5):   # a seed is bytes or hex, never an int
        with pytest.raises(ValueError, match="seed must be 32 bytes"):
            RngStream(seed)
    s = RngStream("00" * 32)
    assert s.seed == b"\x00" * 32


@pytest.mark.parametrize("seed", ["00 " * 32, " " + "ab" * 32,
                                  "ab" * 32 + "\n"],
                         ids=["spaced", "leading-space", "trailing-newline"])
def test_hex_seed_with_whitespace_is_refused(seed):
    """A str seed is exactly 64 hex characters: bytes.fromhex would skip
    the whitespace and read these as 32 bytes."""
    with pytest.raises(ValueError, match="seed must be 32 bytes"):
        RngStream(seed)


@pytest.mark.parametrize("seed", [-1, 1 << 256],
                         ids=["minus-one", "two-to-256"])
def test_int_seed_must_fit_32_bytes(seed):
    """An int seed outside [0, 2^256) is refused like every other bad seed,
    with the constructor's ValueError."""
    with pytest.raises(ValueError, match="seed must be 32 bytes"):
        RngStream(seed)


def test_derive_is_deterministic_and_labelled(stream):
    a = stream.derive("x", 1)
    b = stream.derive("x", 1)
    c = stream.derive("x", 2)
    assert a.seed == b.seed
    assert a.seed != c.seed
    assert a.gen.integers(0, 1 << 30) == b.gen.integers(0, 1 << 30)


def test_derive_order_independent(stream):
    # drawing from one child must not perturb a sibling
    first = stream.derive("a").gen.integers(0, 1 << 30, size=5)
    sibling = stream.derive("b")
    sibling.gen.integers(0, 1 << 30, size=1000)
    again = master_stream(stream.seed.hex()).derive("a").gen.integers(
        0, 1 << 30, size=5)
    assert np.array_equal(first, again)


def test_uniform_chi_square(stream):
    q = 17
    n = 170_000
    draws = sample_uniform(n, q, stream)
    counts = np.bincount(draws, minlength=q)
    expected = n / q
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 16 dof: chi2 < 50 fails with prob < 1e-5 under uniformity
    assert chi2 < 50


def test_bits_are_balanced(stream):
    draws = sample_bits(100_000, stream)
    assert set(np.unique(draws)) <= {0, 1}
    assert abs(draws.mean() - 0.5) < 0.01


def test_gaussian_pmf_matches_table(stream):
    sigma = 2.0
    n = 400_000
    draws = np.asarray(sample_gaussian(sigma, stream, size=n))
    support, pmf = gaussian_table(sigma)
    for x in range(-2, 3):
        emp = float((draws == x).mean())
        ref = float(pmf[support == x][0])
        assert abs(emp - ref) < 0.02 * ref + 3 * math.sqrt(ref / n)


def test_gaussian_mean_and_tail(stream):
    sigma = 3.0
    n = 300_000
    draws = np.asarray(sample_gaussian(sigma, stream, size=n))
    assert abs(draws.mean()) < 3 * sigma / math.sqrt(n)
    # Pr[|X| >= 4 sigma] <= 2 e^{-8} for subgaussian tails
    tail = float((np.abs(draws) >= 4 * sigma).mean())
    assert tail <= 2 * math.exp(-8) + 3 * math.sqrt(2 * math.exp(-8) / n)


def test_truncated_gaussian_support_and_moments(stream):
    sigma, tau = 3.0, Fraction(5)
    n = 200_000
    (draws,) = sample_truncated_gaussian_stacked(sigma, tau, [stream], n)
    assert int(np.abs(draws).max()) <= 5
    # truncation can only shrink the second moment
    second = float((draws.astype(float) ** 2).mean())
    assert second <= sigma ** 2 * (1 + 4 / math.sqrt(n) * 10)
    assert float(np.abs(draws).mean()) <= sigma


def test_truncated_gaussian_close_to_untruncated(stream):
    # sigma=1, tau=3 keeps all but ~0.3% of the mass
    support, pmf = gaussian_table(1.0)
    keep = np.abs(support) <= 3
    tvd = float(pmf[~keep].sum())
    assert tvd < 0.005
    (draws,) = sample_truncated_gaussian_stacked(1.0, 3, [stream], 50_000)
    assert int(np.abs(draws).max()) <= 3


def test_truncated_gaussian_tau_validation(stream):
    with pytest.raises(ValueError):
        sample_truncated_gaussian_stacked(2.0, Fraction(1, 2), [stream], 1)


def _prints_raised_under_optimize(code: str) -> None:
    """Run `code` under `python -O` and check that it printed `raised`."""
    src = str(Path(rotated_tcf.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "raised", done.stderr


@pytest.mark.parametrize("tau", [5, Fraction(11, 2), 5.75],
                         ids=["int", "fraction", "float"])
def test_truncated_draws_are_checked_at_floor_tau(monkeypatch, stream, tau):
    """An integer draw lies within tau exactly when it lies within
    floor(tau) = 5: a draw of 5 or -5 is accepted, one of 6 or -6 refused,
    whatever the type of tau."""
    for value, ok in ((5, True), (-5, True), (6, False), (-6, False)):
        monkeypatch.setattr(sampling, "_table_draw",
                            lambda support, cdf, guide, u:
                            np.full(u.shape, value))
        if ok:
            (draws,) = sample_truncated_gaussian_stacked(3.0, tau, [stream],
                                                         4)
            assert draws.tolist() == [value] * 4
        else:
            with pytest.raises(AssertionError, match="exceeds tau"):
                sample_truncated_gaussian_stacked(3.0, tau, [stream], 4)



@pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0, 100.0])
@pytest.mark.parametrize("cut", [True, False], ids=["cut", "whole"])
def test_guide_draw_is_the_searchsorted(sigma, cut):
    """_table_draw through the guide table selects the entry that
    searchsorted does, on truncated tables whose t cuts the support
    (t = 2 sigma) or keeps it whole, and on sample_gaussian's table:
    at u = 0 and u = 1 - 2^-53, at every CDF value below 1 and the float
    just below it, at every bin's start, and at uniforms in every crowded
    bin.  Below STACKED_MIN uniforms it is the searchsorted itself."""
    B = math.ceil(10 * sigma)
    t = int(2 * sigma) if cut else B + 1
    support, cdf, guide = _truncated_table(sigma, t)
    assert (len(support) < 2 * B + 1) == cut
    whole_support, pmf = gaussian_table(sigma)
    whole_cdf = _cdf(pmf)
    tables = [(support, cdf, guide),
              (whole_support, whole_cdf, _guide(whole_support, whole_cdf))]
    gen = np.random.default_rng(int(sigma) * 2 + cut)
    for support, cdf, guide in tables:
        crowded = np.flatnonzero(guide[2])
        inner = cdf[cdf < 1]
        u = np.concatenate([
            [0.0, 1 - 2.0 ** -53], inner, np.nextafter(inner, 0),
            np.arange(GUIDE_BINS) / GUIDE_BINS,
            ((crowded[:, None] + gen.random((len(crowded), 8)))
             / GUIDE_BINS).ravel(),
            gen.random(STACKED_MIN)])
        want = np.searchsorted(cdf, u, side="right") + support[0]
        assert np.array_equal(_table_draw(support, cdf, guide, u), want)
        two = u[:u.size // 2 * 2].reshape(2, -1)
        assert np.array_equal(_table_draw(support, cdf, guide, two),
                              want[:two.size].reshape(2, -1))
        for lone in (u[:STACKED_MIN - 1], u[-(STACKED_MIN - 1):]):
            assert np.array_equal(
                _table_draw(support, cdf, guide, lone),
                np.searchsorted(cdf, lone, side="right") + support[0])
    # a whole table's tails crowd its end bins; a cut at 2 sigma leaves none
    assert [guide[2].any() for _, _, guide in tables] == [not cut, True]

class _FixedDraws:
    """A stream whose generator's integers draw is `value` everywhere."""

    def __init__(self, value):
        self.gen = self
        self.value = value

    def integers(self, low, high, size, dtype):
        return np.full(size, self.value, dtype)


@pytest.mark.parametrize("tau", [5, Fraction(11, 2)], ids=["int", "fraction"])
def test_box_draws_are_checked_at_floor_tau(tau):
    """The box's half-width is floor(tau) = 5 (below (q - 1) / 2): draws
    of 5 and -5 are accepted and reduced mod q, 6 and -6 refused."""
    q = 101
    for value in (5, -5):
        (draws,) = sample_box_stacked(3, tau, q, [_FixedDraws(value)])
        assert draws.tolist() == [value % q] * 3
    for value in (6, -6):
        with pytest.raises(AssertionError, match="half-width"):
            sample_box_stacked(3, tau, q, [_FixedDraws(value)])


def test_truncation_check_survives_optimize():
    """The bound check after a truncated draw is an explicit raise, so it
    still fires under `python -O` (forced here by a table draw that ignores
    the truncated support)."""
    _prints_raised_under_optimize(
        "import numpy as np, rotated_tcf.sampling as s\n"
        "s._table_draw = lambda support, cdf, guide, u: np.full(u.shape, 99)\n"
        "try:\n"
        "    s.sample_truncated_gaussian_stacked(\n"
        "        3.0, 5, [s.RngStream(bytes(32))], 4)\n"
        "except AssertionError:\n"
        "    print('raised')\n")


def test_box_check_survives_optimize():
    """The half-width check after a stacked box draw is an explicit raise,
    so it still fires under `python -O`, and it covers every row (forced
    here by a last stream whose draws land one past the box)."""
    _prints_raised_under_optimize(
        "import numpy as np, rotated_tcf.sampling as s\n"
        "class Gen:\n"
        "    def integers(self, low, high, size, dtype):\n"
        "        return np.full(size, high, dtype)\n"
        "class Stream:\n"
        "    gen = Gen()\n"
        "try:\n"
        "    s.sample_box_stacked(4, 5, 101, [s.RngStream(bytes(32)),\n"
        "                                     Stream()])\n"
        "except AssertionError:\n"
        "    print('raised')\n")


def test_box_support(stream):
    q = 7
    (draws,) = sample_box_stacked(50_000, Fraction(1), q, [stream])
    assert set(np.unique(draws).tolist()) == {0, 1, 6}
    counts = np.bincount(draws, minlength=q)
    for v in (0, 1, 6):
        assert abs(counts[v] / 50_000 - 1 / 3) < 0.02


def test_box_fractional_tau(stream):
    # tau = 23/220 < 1 collapses the box to {0}
    (draws,) = sample_box_stacked(1000, Fraction(23, 220), 23, [stream])
    assert np.all(draws == 0)


def test_sample_noise_desk_and_tiny(stream):
    p = desk_preset()
    (e,) = sample_noise_stacked(p, [stream.derive("desk")])
    assert e.shape == (p.m,)
    lifted = np.where(e > p.q // 2, e - p.q, e)
    assert int(np.abs(lifted).max()) * p.tau.denominator <= p.tau.numerator
    tiny = tiny_params(1, 23)
    assert tiny.tau < 1
    assert np.all(sample_noise_stacked(tiny, [stream.derive("tiny")]) == 0)


def test_same_seed_same_draws():
    a = master_stream("11" * 32).derive("t")
    b = master_stream("11" * 32).derive("t")
    assert np.array_equal(sample_uniform(100, 97, a), sample_uniform(100, 97, b))


EIGHT_WORD_SEEDS = st.binary(min_size=32, max_size=32).filter(
    lambda seed: seed[:4] != bytes(4))


def _numpy_words(seed: bytes) -> np.ndarray:
    return np.random.SeedSequence(int.from_bytes(seed, "big")).generate_state(
        4, np.uint64)


@settings(deadline=None)
@given(st.lists(EIGHT_WORD_SEEDS, min_size=1, max_size=24))
def test_seed_words_equal_numpys(seeds):
    words = _seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, _numpy_words(seed))


def _draws(stream: RngStream) -> list:
    gen = stream.gen
    return [gen.integers(0, (1 << 42) + 15, size=9, dtype=np.int64),
            gen.integers(0, 23, size=7, dtype=np.uint32),
            gen.random(5),
            gen.integers(0, 2, size=3, dtype=np.uint32)]


def _assert_same_draws(stream: RngStream) -> None:
    """`stream` draws what a fresh twin on its seed, seeded by numpy, draws."""
    for got, want in zip(_draws(stream), _draws(RngStream(stream.seed))):
        assert np.array_equal(got, want)


def test_lone_seeding_is_numpys_seeding_of_the_int():
    """A stream seeds its own generator from its seed's uint32 words; it
    draws what PCG64(int.from_bytes(seed, "big")) draws, with no leading
    zero bytes, with 4, 8 and 29 (numpy drops those leading zero words),
    for the zero seed, and with a zero low word."""
    base = hashlib.sha256(b"lone seeding").digest()
    seeds = [base, bytes(4) + base[4:], bytes(8) + base[8:],
             bytes(29) + base[29:], bytes(32), base[:28] + bytes(4)]
    for seed in seeds:
        got = RngStream(seed).gen
        want = np.random.Generator(
            np.random.PCG64(int.from_bytes(seed, "big")))
        assert np.array_equal(got.bit_generator.random_raw(6),
                              want.bit_generator.random_raw(6))
        assert np.array_equal(got.integers(0, 23, size=7),
                              want.integers(0, 23, size=7))
        assert got.random() == want.random()


@pytest.mark.parametrize("count", [SEED_BATCH_MIN - 1, SEED_BATCH_MIN, 48])
def test_seeded_streams_draw_what_unseeded_twins_draw(stream, count):
    streams = [stream.derive("batch", i) for i in range(count)]
    seed_streams(streams)
    vectorised = count >= SEED_BATCH_MIN
    assert all((s._gen is not None) == vectorised for s in streams)
    for s in streams:
        _assert_same_draws(s)


@pytest.mark.parametrize("seed", [bytes(32), bytes(4) + bytes(range(1, 29))],
                         ids=["zero", "four-zero-bytes"])
def test_short_entropy_seeds_take_numpys_path(stream, seed):
    """numpy drops a seed's leading zero words, so a seed that starts with
    four zero bytes seeds itself, even inside a batch."""
    short = RngStream(seed)
    streams = [stream.derive("batch", i) for i in range(SEED_BATCH_MIN)]
    seed_streams([short] + streams)
    assert short._gen is None
    assert all(s._gen is not None for s in streams)
    _assert_same_draws(short)


def test_a_drawn_stream_is_not_reseeded(stream):
    drawn = stream.derive("drawn")
    first = drawn.gen.integers(0, 1 << 30, size=4)
    gen = drawn._gen
    seed_streams([drawn] + [stream.derive("batch", i)
                            for i in range(SEED_BATCH_MIN)])
    assert drawn._gen is gen
    twin = RngStream(drawn.seed).gen
    assert np.array_equal(twin.integers(0, 1 << 30, size=4), first)
    assert np.array_equal(drawn.gen.integers(0, 1 << 30, size=6),
                          twin.integers(0, 1 << 30, size=6))


# The stacked samplers against a loop of the one-instance draws they
# replace, written out here as the reference: each stream's numpy draw,
# then the transform for that stream alone.
PRESETS = {"desk": desk_preset(), "mixed": tiny_params(2, 1048583, 2.0),
           "tiny23": tiny_params(1, 23),
           "q2^61-1": tiny_params(2, (1 << 61) - 1)}


def _truncated_by_loop(sigma, tau, stream, size):
    """The stream's gen.random(size) through the inverse CDF of G(sigma)
    cut to |x| <= tau."""
    support, pmf = gaussian_table(sigma)
    keep = np.abs(support) * tau.denominator <= tau.numerator
    cdf = np.cumsum(pmf[keep] / pmf[keep].sum())
    cdf[-1] = 1.0
    u = stream.gen.random(size)
    return support[keep][np.searchsorted(cdf, u, side="right")]


def _noise_by_loop(params, stream):
    if params.tau < 1:
        return np.zeros(params.m, dtype=np.int64)     # no draw
    return _truncated_by_loop(params.sigma, params.tau, stream,
                              params.m) % params.q


def _box_by_loop(params, stream):
    t = min(params.tau_floor, (params.q - 1) // 2)
    return stream.gen.integers(-t, t + 1, size=params.m,
                               dtype=np.int64) % params.q


def _position(gen) -> tuple:
    """Where `gen` stands: its state, and the buffered half-word if any (a
    consumed one is stale and never read again)."""
    state = gen.bit_generator.state
    return (state["state"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


def _assert_same_place(streams, twins) -> None:
    """Each stream's generator stands where its twin's does, and both draw
    the same from there on."""
    for a, b in zip(streams, twins):
        assert _position(a.gen) == _position(b.gen)
        for got, want in zip(_draws(a), _draws(b)):
            assert np.array_equal(got, want)


def _by_lone(params, name, stream):
    """A lone draw: the stacked sampler on a stack of one."""
    if name == "noise":
        return sample_noise_stacked(params, [stream])[0]
    return sample_box_stacked(params.m, params.tau_floor, params.q,
                              [stream])[0]


@pytest.mark.parametrize("chunk", [1, 16, 17])
@pytest.mark.parametrize("preset", list(PRESETS))
@pytest.mark.parametrize("name, stacked, by_loop", [
    ("noise", sample_noise_stacked, _noise_by_loop),
    ("box", lambda p, streams: sample_box_stacked(p.m, p.tau_floor, p.q,
                                                  streams), _box_by_loop),
], ids=["noise", "box"])
def test_stacked_sampler_is_a_loop_of_lone_draws(stream, preset, chunk, name,
                                                 stacked, by_loop):
    """A stacked sampler's rows are the draws a loop of the one-instance
    samplers makes, with the same dtype, and each generator is left where
    that loop leaves it."""
    params = PRESETS[preset]
    streams = [stream.derive(name, i) for i in range(chunk)]
    lone, twins, lone_twins = ([RngStream(s.seed) for s in streams]
                               for _ in range(3))
    seed_streams(streams)
    got = stacked(params, streams)
    want = np.array([by_loop(params, t) for t in twins])
    assert got.dtype == want.dtype == np.int64
    assert got.shape == (chunk, params.m)
    assert np.array_equal(got, want)
    _assert_same_place(streams, twins)
    for row, t, twin in zip(got, lone, lone_twins):
        one = _by_lone(params, name, t)
        assert one.dtype == np.int64 and np.array_equal(one, row)
        assert np.array_equal(one, by_loop(params, twin))
    _assert_same_place(lone, lone_twins)


@pytest.mark.parametrize("chunk", [1, 16, 17])
def test_stacked_truncated_gaussian_is_a_loop_of_table_draws(stream, chunk):
    """At a tau that cuts the table (sigma 3, tau 7/2), each row is its
    stream's gen.random through the truncated inverse CDF."""
    sigma, tau = 3.0, Fraction(7, 2)
    streams = [stream.derive("tg", i) for i in range(chunk)]
    twins = [RngStream(s.seed) for s in streams]
    got = sample_truncated_gaussian_stacked(sigma, tau, streams, 40)
    want = np.array([_truncated_by_loop(sigma, tau, t, 40) for t in twins])
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert int(np.abs(got).max()) <= 3
    _assert_same_place(streams, twins)
    with pytest.raises(ValueError, match="tau must be >= 1"):
        sample_truncated_gaussian_stacked(sigma, Fraction(1, 2), streams, 4)


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 172, 173, 348, 349])
def test_sample_bits_is_the_integers_draw(stream, m, buffered):
    """sample_bits reads raw words, or makes scalar draws, yet equals the
    int64 integers draw of [0, 2) and leaves the generator where that
    draw leaves it, with or without a half-word buffered before it."""
    for k in range(12):
        mine, twin = (stream.derive("bits", k) for _ in range(2))
        for t in (mine, twin):
            if buffered:    # one bit takes one half-word, and keeps one
                t.gen.integers(0, 2, size=1, dtype=np.int64)
            assert t.gen.bit_generator.state["has_uint32"] == buffered
        got = sample_bits(m, mine)
        want = twin.gen.integers(0, 2, size=m, dtype=np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        _assert_same_place([mine], [twin])
    with pytest.raises(ValueError, match="m must be >= 1"):
        sample_bits(0, stream)
