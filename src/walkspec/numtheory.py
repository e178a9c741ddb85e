"""Primality, factorization, and square-free testing for arbitrary-size integers.

Deterministic given the input: the rho walk and the large-input primality
rounds are seeded from the number being processed, never from global state,
so concurrent or repeated runs always agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt

TRIAL_LIMIT = 10**6
DEFAULT_FACTOR_EFFORT = 4_000_000  # rho iterations before giving up

# the twelve-prime base set decides primality exactly below this bound
_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461
_FIXED_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_RANDOM_ROUNDS = 64
_SEED_SALT = 0x77616C6B73706563  # stable across sessions


class FactorizationBudgetError(RuntimeError):
    """The effort cap expired before the factorization completed."""


@dataclass(frozen=True)
class Factorization:
    """Sorted (prime, exponent) pairs whose product is value.

    Always complete: the budget path raises instead of returning a partial
    answer.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def product(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


_small_primes: list[int] | None = None


def _sieve_primes() -> list[int]:
    global _small_primes
    if _small_primes is None:
        flags = bytearray([1]) * (TRIAL_LIMIT + 1)
        flags[0] = flags[1] = 0
        for p in range(2, isqrt(TRIAL_LIMIT) + 1):
            if flags[p]:
                flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
        _small_primes = [i for i, f in enumerate(flags) if f]
    return _small_primes


def _mr_witness(x: int, a: int, d: int, r: int) -> bool:
    """True if base a certifies x composite."""
    v = pow(a, d, x)
    if v == 1 or v == x - 1:
        return False
    for _ in range(r - 1):
        v = v * v % x
        if v == x - 1:
            return False
    return True


def is_probable_prime(x: int) -> bool:
    """Miller-Rabin: exact below the twelve-base deterministic bound, 64
    input-seeded random rounds above it (error probability < 4^-64)."""
    if x < 1:
        raise ValueError("primality is defined for positive integers")
    if x == 1:
        return False
    for p in _FIXED_BASES:
        if x == p:
            return True
        if x % p == 0:
            return False
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if x < _DETERMINISTIC_BOUND:
        bases = _FIXED_BASES
    else:
        rng = random.Random(x ^ _SEED_SALT)
        bases = tuple(rng.randrange(2, x - 1) for _ in range(_RANDOM_ROUNDS))
    return not any(_mr_witness(x, a, d, r) for a in bases)


def _brent_rho(m: int, budget: list[int]) -> int:
    """Nontrivial divisor of odd composite m, Brent's cycle variant with
    batched gcds. Decrements budget[0] per f-evaluation; raises when spent."""
    rng = random.Random(m ^ _SEED_SALT)
    while True:
        y = rng.randrange(1, m)
        c = rng.randrange(1, m)
        g = 1
        r = 1
        q = 1
        x = y
        ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            budget[0] -= r
            if budget[0] < 0:
                raise FactorizationBudgetError(
                    f"effort cap hit while splitting a {len(str(m))}-digit composite"
                )
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g
        # unlucky constant: retry with a fresh (y, c)


def factorize(x: int, *, effort: int = DEFAULT_FACTOR_EFFORT) -> Factorization:
    """Full prime factorization: trial division by primes to 10^6, then rho
    splitting with primality certification of every remaining cofactor.

    Raises FactorizationBudgetError when the rho effort cap expires; never
    returns a guessed or partial factorization."""
    if x < 1:
        raise ValueError("factorization is defined for positive integers")
    if x == 1:
        return Factorization(1, ())
    counts: dict[int, int] = {}
    rem = x
    for p in _sieve_primes():
        if p * p > rem:
            break
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    if rem > 1:
        budget = [effort]
        pending = [rem]
        while pending:
            mcand = pending.pop()
            if mcand <= TRIAL_LIMIT or is_probable_prime(mcand):
                counts[mcand] = counts.get(mcand, 0) + 1
                continue
            d = _brent_rho(mcand, budget)
            pending.append(d)
            pending.append(mcand // d)
    return Factorization(x, tuple(sorted(counts.items())))


def is_square_free(x: int, *, effort: int = DEFAULT_FACTOR_EFFORT) -> tuple[bool, int | None]:
    """(True, None) when no prime divides x twice; else (False, smallest such prime).

    1 is square-free."""
    f = factorize(x, effort=effort)
    for p, e in f.factors:
        if e >= 2:
            return False, p
    return True, None


def odd_prime_divisors(c: int) -> list[int]:
    """Ascending odd primes dividing c."""
    if c < 1:
        raise ValueError("argument must be positive")
    return [p for p, _ in factorize(c).factors if p != 2]
