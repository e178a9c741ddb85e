"""Primality, factorization, and square-free tests against a sieve oracle."""

import random

import pytest

from walkspec.numtheory import (
    FactorizationBudgetError,
    factorize,
    is_probable_prime,
    is_square_free,
    odd_prime_divisors,
)

SIEVE_LIMIT = 1_000_000


def _build_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    return flags


SIEVE = _build_sieve(SIEVE_LIMIT)


def _factor_naive(x):
    # plain trial division, valid for any x with factors below the sieve cap
    out = []
    d = 2
    while d * d <= x:
        e = 0
        while x % d == 0:
            x //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if x > 1:
        out.append((x, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------


def test_primality_matches_sieve_exhaustively():
    for x in range(1, 20001):
        assert is_probable_prime(x) == bool(SIEVE[x]), x


def test_primality_matches_sieve_sampled():
    rng = random.Random(301)
    for _ in range(5000):
        x = rng.randint(2, SIEVE_LIMIT)
        assert is_probable_prime(x) == bool(SIEVE[x]), x


def test_primality_fixed_cases():
    # Carmichael numbers fool Fermat tests but not strong witnesses
    assert not is_probable_prime(561)
    assert not is_probable_prime(41041)
    # strong pseudoprime to bases 2,3,5,7 simultaneously
    assert not is_probable_prime(3215031751)
    assert is_probable_prime(2 ** 61 - 1)
    assert is_probable_prime(2 ** 89 - 1)
    assert not is_probable_prime(2 ** 67 - 1)
    assert (2 ** 67 - 1) == 193707721 * 761838257287
    assert is_probable_prime(10 ** 9 + 7)
    assert is_probable_prime(10 ** 9 + 9)
    # above the deterministic witness bound: seeded random rounds
    assert is_probable_prime(2 ** 127 - 1)
    assert not is_probable_prime(2 ** 128 + 1)


def test_primality_rejects_nonpositive():
    for bad in (0, -1, -97):
        with pytest.raises(ValueError):
            is_probable_prime(bad)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factorize_known_values():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(3628800).factors == ((2, 8), (3, 4), (5, 2), (7, 1))
    assert factorize(2 ** 40).factors == ((2, 40),)
    assert factorize(3 ** 25).factors == ((3, 25),)
    assert factorize(1000003).factors == ((1000003, 1),)
    p = 10 ** 9 + 7
    assert factorize(p * p).factors == ((p, 2),)
    q = 10 ** 9 + 9
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_random_roundtrip():
    """Product of certified prime powers recovers the input exactly."""
    rng = random.Random(302)
    for _ in range(300):
        x = rng.randint(2, 2 ** 64)
        f = factorize(x)
        assert f.value == x
        assert f.product() == x
        primes = [p for p, _ in f.factors]
        assert primes == sorted(set(primes))
        for p, e in f.factors:
            assert e >= 1
            assert is_probable_prime(p)
            if p <= SIEVE_LIMIT:
                assert SIEVE[p]


def test_factorize_budget_exhaustion():
    hard = (10 ** 9 + 7) * (10 ** 9 + 9)
    with pytest.raises(FactorizationBudgetError):
        factorize(hard, effort=10)
    with pytest.raises(FactorizationBudgetError):
        factorize(hard, effort=0)
    # small inputs never consume rho budget
    assert factorize(979, effort=0).factors == ((11, 1), (89, 1))


def test_factorize_is_deterministic():
    hard = (10 ** 9 + 7) * (10 ** 9 + 9)
    assert factorize(hard).factors == factorize(hard).factors
    big = 2 ** 127 - 1
    assert is_probable_prime(big) == is_probable_prime(big)


# ---------------------------------------------------------------------------
# square-free part and odd prime divisors
# ---------------------------------------------------------------------------


def test_is_square_free_known():
    assert is_square_free(1) == (True, None)
    assert is_square_free(2) == (True, None)
    assert is_square_free(30) == (True, None)
    assert is_square_free(10403) == (True, None)  # 101 * 103
    assert is_square_free(4) == (False, 2)
    assert is_square_free(12) == (False, 2)
    assert is_square_free(18) == (False, 3)
    assert is_square_free(75) == (False, 5)
    assert is_square_free(294) == (False, 7)
    p = 10 ** 9 + 7
    assert is_square_free(p * p) == (False, p)


def test_is_square_free_matches_naive_factorization():
    rng = random.Random(303)
    for _ in range(200):
        x = rng.randint(1, 100000)
        squared = [p for p, e in _factor_naive(x) if e >= 2]
        expect = (False, min(squared)) if squared else (True, None)
        assert is_square_free(x) == expect, x


def test_odd_prime_divisors():
    assert odd_prime_divisors(1) == []
    assert odd_prime_divisors(2) == []
    assert odd_prime_divisors(8) == []
    assert odd_prime_divisors(12) == [3]
    assert odd_prime_divisors(45) == [3, 5]
    assert odd_prime_divisors(66) == [3, 11]
    assert odd_prime_divisors(70) == [5, 7]
    for bad in (0, -3):
        with pytest.raises(ValueError):
            odd_prime_divisors(bad)
