import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rotated_tcf
from rotated_tcf.params import tiny_params
from rotated_tcf.sampling import (RngStream, gaussian_table,
                                  master_stream, sample_bits, sample_box,
                                  sample_gaussian, sample_noise,
                                  sample_truncated_gaussian, sample_uniform)


def test_stream_seed_validation():
    with pytest.raises(ValueError):
        RngStream("abcd")
    with pytest.raises(ValueError):
        RngStream(b"short")
    s = RngStream("00" * 32)
    assert s.seed == b"\x00" * 32


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
    draws = np.asarray(sample_truncated_gaussian(sigma, tau, stream, size=n))
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
    draws = np.asarray(sample_truncated_gaussian(1.0, 3, stream, size=50_000))
    assert int(np.abs(draws).max()) <= 3


def test_truncated_gaussian_tau_validation(stream):
    with pytest.raises(ValueError):
        sample_truncated_gaussian(2.0, Fraction(1, 2), stream)


def test_truncation_check_survives_optimize():
    """The bound check after a truncated draw is an explicit raise, so it
    still fires under `python -O` (forced here by a table draw that ignores
    the truncated support)."""
    code = ("import numpy as np, rotated_tcf.sampling as s\n"
            "s._table_draw = lambda support, pmf, stream, size: "
            "np.full(size, 99)\n"
            "try:\n"
            "    s.sample_truncated_gaussian(3.0, 5, None, size=4)\n"
            "except AssertionError:\n"
            "    print('raised')\n")
    src = str(Path(rotated_tcf.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "raised", done.stderr


def test_box_support(stream):
    q = 7
    draws = sample_box(50_000, Fraction(1), q, stream)
    assert set(np.unique(draws).tolist()) == {0, 1, 6}
    counts = np.bincount(draws, minlength=q)
    for v in (0, 1, 6):
        assert abs(counts[v] / 50_000 - 1 / 3) < 0.02


def test_box_fractional_tau(stream):
    # tau = 23/220 < 1 collapses the box to {0}
    draws = sample_box(1000, Fraction(23, 220), 23, stream)
    assert np.all(draws == 0)


def test_sample_noise_desk_and_tiny(stream):
    from rotated_tcf.params import desk_preset
    p = desk_preset()
    e = sample_noise(p, stream.derive("desk"))
    assert e.shape == (p.m,)
    lifted = np.where(e > p.q // 2, e - p.q, e)
    assert int(np.abs(lifted).max()) * p.tau.denominator <= p.tau.numerator
    tiny = tiny_params(1, 23)
    assert tiny.tau < 1
    assert np.all(sample_noise(tiny, stream.derive("tiny")) == 0)


def test_same_seed_same_draws():
    a = master_stream("11" * 32).derive("t")
    b = master_stream("11" * 32).derive("t")
    assert np.array_equal(sample_uniform(100, 97, a), sample_uniform(100, 97, b))
