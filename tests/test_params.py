from fractions import Fraction

import pytest

from rotated_tcf.params import (MAX_LAMBDA, MAX_N, MAX_SIGMA,
                                TINY_PARAMS_CACHE, Params, desk_preset,
                                is_prime, next_prime, select_params,
                                tiny_params)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 3)
    assert is_prime(4398046511119)


def test_next_prime():
    assert next_prime(1 << 42) == (1 << 42) + 15
    assert next_prime(14) == 17
    assert next_prime(17) == 17


def test_desk_preset_shape():
    p = desk_preset()
    assert (p.n, p.lam) == (4, 4)
    assert p.q == (1 << 42) + 15
    assert p.Q == 43
    assert p.m == p.n * (2 * p.Q + 1) == 348
    assert p.nQ == 172
    assert p.tau == Fraction(p.q, 4 * p.m * p.Q)
    assert p.tau_floor == p.q // (4 * p.m * p.Q)
    assert p.completeness_error() < 1e-4


def test_desk_describe_flags_security():
    d = desk_preset().describe()
    assert d["security"] == "functional, not secure"
    assert d["q"] == str((1 << 42) + 15)


def test_params_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Params(lam=4, n=2, q=15, sigma=1.0)  # composite
    with pytest.raises(ValueError):
        Params(lam=4, n=2, q=2, sigma=1.0)   # even
    with pytest.raises(ValueError):
        Params(lam=4, n=2, q=23, sigma=0.5)  # sigma < 1
    for sigma in (float("inf"), float("nan")):  # not finite
        with pytest.raises(ValueError, match="finite"):
            Params(lam=4, n=2, q=23, sigma=sigma)
    with pytest.raises(ValueError):
        Params(lam=4, n=0, q=23, sigma=1.0)
    with pytest.raises(ValueError):
        Params(lam=4, n=2, q=(1 << 62) + 57, sigma=1.0)  # too wide


@pytest.mark.parametrize("field, bound", [
    ("n", MAX_N), ("sigma", MAX_SIGMA), ("lam", MAX_LAMBDA)])
def test_params_bounds_n_sigma_and_lambda(field, bound):
    """Every parameter set, from a flag or a setup frame, has n, sigma and
    lambda at most their bounds; at the bound it is built."""
    base = {"lam": 4, "n": 2, "q": 23, "sigma": 1.0}
    assert getattr(Params(**{**base, field: bound}), field) == bound
    over = bound * 2 if field == "sigma" else bound + 1
    with pytest.raises(ValueError, match=f"{field} must be"):
        Params(**{**base, field: over})


def test_derived_quantities_consistent():
    p = tiny_params(3, 97)
    assert p.Q == 7   # ceil(log2 97)
    assert p.m == 3 * 15
    assert p.tau == Fraction(97, 4 * 45 * 7)


def test_select_params_in_range():
    p = select_params(8, 1.0, 0.5)
    sigma = 8.0
    lo = 8 ** 2.5 * sigma
    assert lo <= p.q <= 2 * lo + 1
    assert is_prime(p.q)
    assert p.sigma == sigma
    assert p.lam == desk_preset().lam
    assert select_params(8, 1.0, 0.5) == p  # one fixed draw


def test_select_params_validation():
    with pytest.raises(ValueError):
        select_params(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        select_params(8, -1.0, 0.5)
    with pytest.raises(ValueError, match="n must be"):
        select_params(MAX_N + 1, 0.5, 0.1)


def test_tiny_params_cache_is_bounded():
    """The networked prover builds its Params from the values in the
    verifier's setup frame; many distinct setups must not grow the cache."""
    for lam in range(1, 4 * TINY_PARAMS_CACHE):
        assert tiny_params(1, 23, 1.0, lam).lam == lam
    info = tiny_params.cache_info()
    assert info.maxsize == TINY_PARAMS_CACHE
    assert info.currsize <= TINY_PARAMS_CACHE


def test_oversized_modulus_rejected_before_primality_test():
    # 10**4000 + 1 passes trial division; Miller-Rabin on it takes seconds
    with pytest.raises(ValueError, match="2\\*\\*61"):
        tiny_params(4, 10**4000 + 1)
