import pathlib
import random
from itertools import combinations
from math import gcd

import pytest

from walkspec.numtheory import (
    DEFAULT_FACTOR_EFFORT,
    TRIAL_LIMIT,
    _SEED_SALT,
    Factorization,
    FactorizationBudgetError,
    _sieve_primes,
    is_probable_prime,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def det_cofactor(rows):
    """Laplace expansion along the first row, fine for n <= 5."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * x * det_cofactor(minor)
    return total


def smith_reference(m):
    """Invariant factors from determinantal divisors (Newman, Integral
    Matrices, 1972, ch. II): D_k is the gcd of all k x k minors, D_0 = 1,
    and s_k = D_k / D_(k-1), or 0 when D_k = 0."""
    data = m.to_lists()
    rows, cols = m.rows, m.cols
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                dk = gcd(dk, det_cofactor([[data[i][j] for j in ci] for i in ri]))
        out.append(dk // prev if dk else 0)
        prev = dk
    return tuple(out)


# The trial-division + Brent rho factorization that ran before ECM was added,
# kept verbatim (names aside) as the reference that ECM's results must match.


def _reference_brent_rho(m: int, budget: list[int]) -> int:
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


def reference_factorize(x: int, *, effort: int = DEFAULT_FACTOR_EFFORT) -> Factorization:
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
            d = _reference_brent_rho(mcand, budget)
            pending.append(d)
            pending.append(mcand // d)
    return Factorization(x, tuple(sorted(counts.items())))
