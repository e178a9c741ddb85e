"""Primality, factorization, and square-free tests against a sieve oracle."""

import random
import tracemalloc
from math import prod

import pytest

from conftest import reference_factorize, reference_sieve
from walkspec import numtheory
from walkspec.numtheory import (
    RHO_SHARE,
    FactorizationBudgetError,
    factorize,
    is_probable_prime,
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
        assert prod(p**e for p, e in f.factors) == x
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
    # split by ECM: the curves are seeded from the composite
    ecm = 514062274673 * 26247507633517 * 45514326819323
    assert factorize(ecm).factors == factorize(ecm).factors


def _random_prime(rng, digits):
    while True:
        p = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if is_probable_prime(p):
            return p


def _outcome(factor, x, effort):
    try:
        return factor(x, effort=effort).factors
    except FactorizationBudgetError as exc:
        return str(exc)


def test_factorize_matches_rho_reference_up_to_rho_share(monkeypatch):
    """At effort <= RHO_SHARE rho is the only splitting method: the same
    factors, or the same budget error, as trial division plus rho alone,
    and no ECM curve runs."""
    def no_curve(*args):
        raise AssertionError("ECM ran at an effort within rho's share")

    monkeypatch.setattr(numtheory, "_ecm_curve", no_curve)
    rng = random.Random(304)
    composites = [(10 ** 9 + 7) * (10 ** 9 + 9), 2 ** 67 - 1, 3 ** 5 * 1000003 ** 2]
    for _ in range(20):
        primes = [_random_prime(rng, rng.randint(7, 12))
                  for _ in range(rng.randint(2, 3))]
        composites.append(rng.randint(1, 10 ** 4) * prod(primes))
    outcomes = set()
    for x in composites:
        for effort in (0, 10, 300, 4_000, 20_000, 40_000, RHO_SHARE):
            expect = _outcome(reference_factorize, x, effort)
            assert _outcome(factorize, x, effort) == expect, (x, effort)
            outcomes.add(isinstance(expect, str))
    assert outcomes == {False, True}  # both paths were exercised


def test_factorize_splits_the_order_16_cofactor():
    """The 39-digit cofactor of an order-16 walk determinant at alpha 2/3;
    rho alone does not split it within the default effort."""
    primes = (514062274673, 26247507633517, 45514326819323)
    assert factorize(prod(primes)).factors == tuple((p, 1) for p in primes)


def test_factorize_splits_a_squared_prime_past_rho_share():
    """The square of a 20-digit prime, alone or times a 10-digit prime: rho
    cannot split the square within its share, and ECM would have to find a
    20-digit factor."""
    p = 10 ** 19 + 51
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(p * p * (10 ** 9 + 7)).factors == ((10 ** 9 + 7, 1), (p, 2))


def test_factorize_products_of_10_to_16_digit_primes():
    rng = random.Random(305)
    for _ in range(10):
        primes = sorted(_random_prime(rng, rng.randint(10, 16))
                        for _ in range(rng.randint(2, 3)))
        expect = tuple((p, primes.count(p)) for p in sorted(set(primes)))
        assert factorize(prod(primes)).factors == expect, primes


def _tree_product(xs):
    xs = list(xs)
    while len(xs) > 1:
        xs = [prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0]


def test_sieve_primes_and_block_products():
    """The trial-division tables: every prime to 10^6, and block products
    that cover each of them exactly once, in order."""
    primes, products = numtheory._sieve()
    assert list(primes) == [p for p in range(SIEVE_LIMIT + 1) if SIEVE[p]]
    assert len(primes) == 78_498 and primes[-1] == 999_983
    assert _tree_product(products) == _tree_product(primes)
    block = numtheory._BLOCK
    assert len(products) == -(-len(primes) // block)
    for i, b in enumerate(products):
        assert b == prod(primes[i * block:(i + 1) * block]), i


def test_sieve_matches_list_reference():
    """The odd-only sieve's array and block products equal the tables of the
    list-based sieve it replaced."""
    primes, products = numtheory._sieve()
    ref_primes, ref_products = reference_sieve()
    assert primes.itemsize == 4
    assert list(primes) == ref_primes
    assert products == ref_products


def test_sieve_tables_are_small():
    """The built tables hold a sixth of what they held with the primes in
    a list of ints (3.4 MB)."""
    numtheory._sieve.cache_clear()
    tracemalloc.start()
    try:
        tables = numtheory._sieve()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tables[0]) == 78_498
    assert held < 600_000


def _prime_between(rng, lo, hi):
    while True:
        p = rng.randrange(lo + 1, hi)
        if is_probable_prime(p):
            return p


def test_factorize_exhaustive_small_inputs_without_effort():
    """Every x <= 200,000 factors by trial division alone: at effort 0 any
    rho call would raise, so the outcome is the same at every effort."""
    for x in range(1, 200_001):
        assert factorize(x, effort=0).factors == _factor_naive(x), x


def test_block_trial_division_matches_per_prime_reference(monkeypatch):
    """Block-gcd trial division against the per-prime loop of
    reference_factorize: the same factors or the same budget error at each
    effort within rho's share, and rho is handed the same cofactors, also
    where the blocks stop early at a prime cofactor."""
    rng = random.Random(306)
    primes = numtheory._sieve()[0]
    block = numtheory._BLOCK
    big = [_prime_between(rng, 10 ** 12, 10 ** 14) for _ in range(4)]
    semiprimes = [_prime_between(rng, 10 ** 6, 10 ** 8) * _prime_between(rng, 10 ** 6, 10 ** 8)
                  for _ in range(4)]
    cases = []
    # powers of a block's first and last primes, alone, times a prime past
    # the sieve's reach, or times a composite only rho can split
    for start in rng.sample(range(0, len(primes), block), 24):
        first, last = primes[start], primes[min(start + block, len(primes)) - 1]
        small = first ** rng.randint(0, 3) * last ** rng.randint(1, 3)
        cases += [small, small * rng.choice(big), small * rng.choice(semiprimes)]
    # the largest sieve primes, their squares and cubes
    for p in primes[-20:]:
        cases += [p, p * p, p ** 3]
    # two primes in (10^3, 10^6), alone and times a prime above 10^12
    for _ in range(30):
        pq = _prime_between(rng, 10 ** 3, 10 ** 6) * _prime_between(rng, 10 ** 3, 10 ** 6)
        cases += [pq, pq * rng.choice(big)]
    # cofactors that are prime before any block divides, after one and after
    # several; one above the deterministic bound takes the 64 random rounds
    huge = _prime_between(rng, 10 ** 24, 10 ** 25)
    for q in big + [huge]:
        starts = rng.sample(range(0, len(primes), block), 4)
        cases += [q, primes[starts[0]] * q, prod(primes[t] ** 2 for t in starts) * q,
                  2 ** 40 * 3 * q]
    # sieve primes left prime before their own block, and two sieve primes
    # left composite until the last block
    cases += [3 * 999_983, 7 ** 3 * 1_009, 2 * 3 * 5 * 999_979 * 999_983]

    seen = {"new": [], "reference": []}

    def recording(rho, path):
        def wrapper(m, budget):
            seen[path].append(m)
            return rho(m, budget)
        return wrapper

    monkeypatch.setattr(numtheory, "_brent_rho", recording(numtheory._brent_rho, "new"))
    reference_globals = reference_factorize.__globals__
    monkeypatch.setitem(reference_globals, "_reference_brent_rho",
                        recording(reference_globals["_reference_brent_rho"], "reference"))
    outcomes = set()
    for x in cases:
        for effort in (0, 10_000, RHO_SHARE):
            expect = _outcome(reference_factorize, x, effort)
            assert _outcome(factorize, x, effort) == expect, (x, effort)
            assert seen["new"] == seen["reference"], (x, effort)
            outcomes.add(isinstance(expect, str))
    assert outcomes == {False, True}  # both paths were exercised
    assert set(semiprimes) <= set(seen["new"])  # rho ran on the cofactors


# ---------------------------------------------------------------------------
# square-free witness and odd prime divisors
# ---------------------------------------------------------------------------


def test_is_square_free_known():
    assert factorize(1).square_witness is None
    assert factorize(2).square_witness is None
    assert factorize(30).square_witness is None
    assert factorize(10403).square_witness is None  # 101 * 103
    assert factorize(4).square_witness == 2
    assert factorize(12).square_witness == 2
    assert factorize(18).square_witness == 3
    assert factorize(75).square_witness == 5
    assert factorize(294).square_witness == 7
    p = 10 ** 9 + 7
    assert factorize(p * p).square_witness == p
    # the smallest of the primes that appear squared
    assert factorize(3 ** 2 * 5 * 7 ** 3 * p ** 2).square_witness == 3
    assert factorize(2 * 3 * 5).square_witness is None


def test_is_square_free_matches_naive_factorization():
    rng = random.Random(303)
    for _ in range(200):
        x = rng.randint(1, 100000)
        squared = [p for p, e in _factor_naive(x) if e >= 2]
        expect = min(squared) if squared else None
        assert factorize(x).square_witness == expect, x


def test_odd_prime_divisors():
    """The odd primes of c, as AlphaParam.odd_primes reads them off
    factorize; a denominator is positive, and factorize refuses the rest."""
    expected = {1: [], 2: [], 8: [], 12: [3], 45: [3, 5], 66: [3, 11], 70: [5, 7]}
    for c, primes in expected.items():
        assert [p for p, _ in factorize(c).factors if p != 2] == primes, c
    for bad in (0, -3):
        with pytest.raises(ValueError):
            factorize(bad)
