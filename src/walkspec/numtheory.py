"""Primality and factorization for arbitrary-size integers. Square-freeness
is read off a factorization, as its square_witness.

`factorize` runs three methods in turn: trial division by the primes to
10^6, Brent's rho on at most RHO_SHARE effort units, and Lenstra's
elliptic-curve method (ECM) on the rest of the effort. Rho finds a prime p
in about sqrt(p) units, so it is the cheaper method below about 10^10; ECM
finds 12-20-digit primes in tens of curves.

Trial division takes one gcd per block of _BLOCK consecutive primes, against
the block's product, and divides only by the primes of a block whose gcd is
not 1. A cofactor above TRIAL_LIMIT is tested for primality first and after
each block that divided it, and trial division stops once it is a probable
prime, which then needs no further block. Any composite it leaves is the one
that dividing by each prime in turn would leave, so rho and ECM see the same
inputs either way. The primes are sieved over odd numbers only, one byte
each, and kept in one array of 4-byte unsigned ints (0.31 MB, against
2.8 MB as a list of ints); a block that divides is walked as an array slice,
so only its own primes become ints.

Effort is counted in rho units: one unit is one step charged by the rho walk.
An ECM curve is charged before it runs, at _ECM_UNITS_PER_MUL units per
modular multiplication. That rate was measured so that an ECM unit takes no
more time than a rho unit on the same modulus, so a call that spends its
whole effort on one CPU takes no longer than rho alone would. Effort counts
units of work, not wall time: the same effort decides the same inputs on
any machine and at any worker count.

ECM runs the curves of one composite through _ordered_map, the worker map
that the mate search and the enumeration share; its docstring states the
contract. The gcds are taken in curve order, each curve charged and counted
as serial ECM would, so every factor, charge and budget error is the same
at every worker count.

Deterministic given the input: the rho walk, the ECM curves and the
large-input primality rounds are seeded from the number being processed,
never from global state, so concurrent or repeated runs always agree.
"""

from __future__ import annotations

import os
import random
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, islice, repeat
from math import gcd, isqrt, prod
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

TRIAL_LIMIT = 10**6
# effort units (rho steps; see the module docstring) before giving up
DEFAULT_FACTOR_EFFORT = 4_000_000
# rho's share of the effort: rho needs about 2^16 units for a prime near 10^10,
# where an ECM curve at the first stage becomes the cheaper way to find it
RHO_SHARE = 1 << 16

# the twelve-prime base set decides primality exactly below this bound
_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461
_FIXED_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_RANDOM_ROUNDS = 64
_SEED_SALT = 0x77616C6B73706563  # stable across sessions

_T = TypeVar("_T")
_R = TypeVar("_R")


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

    @property
    def square_witness(self) -> int | None:
        """The smallest prime dividing value twice, or None when value is
        square-free."""
        return next((p for p, e in self.factors if e >= 2), None)


# primes per block product; 64, 128 and 256 measured within noise
_BLOCK = 128


@lru_cache(maxsize=None)
def _sieve() -> tuple[array, list[int]]:
    """The primes to TRIAL_LIMIT, as one array of 4-byte unsigned ints, and
    the product of each run of _BLOCK of them (the last run may be shorter):
    block i covers primes[i * _BLOCK:(i + 1) * _BLOCK]. The sieve flags odd
    numbers only: odd[i] stands for 2i + 1, so an odd prime p strikes every
    p-th flag from p^2 // 2, the index of p^2."""
    odd = bytearray([1]) * ((TRIAL_LIMIT + 1) // 2)
    odd[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(TRIAL_LIMIT) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            first = p * p // 2
            odd[first::p] = bytes(len(range(first, len(odd), p)))
    primes = array("I", [2])
    primes.extend(compress(range(1, TRIAL_LIMIT + 1, 2), odd))
    del odd  # free the flags before building the products, so both never peak together
    return primes, [prod(primes[i:i + _BLOCK]) for i in range(0, len(primes), _BLOCK)]


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
    input-seeded random rounds above it (error probability < 4^-64), their
    bases drawn one at a time, so a composite stops at its first witness."""
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
    bases: Iterable[int]
    if x < _DETERMINISTIC_BOUND:
        bases = _FIXED_BASES
    else:
        rng = random.Random(x ^ _SEED_SALT)
        bases = (rng.randrange(2, x - 1) for _ in range(_RANDOM_ROUNDS))
    return not any(_mr_witness(x, a, d, r) for a in bases)


def _brent_rho(m: int, budget: list[int]) -> int:
    """Nontrivial divisor of odd composite m, Brent's cycle variant with
    batched gcds. Charges each round before squaring it, one unit of
    budget[0] per f-evaluation, and raises when the charge leaves budget[0]
    negative, so a round the budget cannot pay for is never squared."""
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
            budget[0] -= r
            if budget[0] < 0:
                raise FactorizationBudgetError(
                    f"effort cap hit while splitting a {len(str(m))}-digit composite"
                )
            for _ in range(r):
                y = (y * y + c) % m
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


# (B1, B2, curves): stage-1 and stage-2 bounds, run in order; the last stage
# repeats until the effort runs out. B1 > D/2, so every giant step index is
# at least 1, and B2 stays within the trial-division sieve.
_ECM_STAGES = ((2_000, 150_000, 40), (11_000, TRIAL_LIMIT, 150),
               (50_000, TRIAL_LIMIT, None))
# effort units per multiplication, as a fraction. Measured on 20-160-digit
# moduli (Python 3.11): a multiplication took 0.41-0.73 of the time of a rho
# unit, median 0.54, so at 3/4 an ECM unit is no slower than a rho unit.
_ECM_UNITS_PER_MUL = (3, 4)
_ECM_D = 2310  # stage-2 giant step, 2*3*5*7*11
_ECM_BABIES = tuple(j for j in range(1, _ECM_D // 2, 2) if gcd(j, _ECM_D) == 1)


@dataclass(frozen=True)
class _EcmPlan:
    """What every curve at one (B1, B2) stage shares."""

    k: int  # lcm(1..B1), the stage-1 multiplier
    giants: tuple[tuple[int, bytes], ...]  # (i, indices into _ECM_BABIES)
    units: int  # effort charged per curve


@lru_cache(maxsize=None)
def _ecm_plan(b1: int, b2: int) -> _EcmPlan:
    primes = _sieve()[0]
    k = 1
    for p in primes:
        if p > b1:
            break
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    # each prime q in (B1, B2] is i*D +- j with j a baby step, j < D/2
    index = {j: t for t, j in enumerate(_ECM_BABIES)}
    giants: dict[int, bytearray] = {}
    for q in primes[bisect_right(primes, b1):bisect_right(primes, b2)]:
        i = (q + _ECM_D // 2) // _ECM_D
        giants.setdefault(i, bytearray()).append(index[abs(q - i * _ECM_D)])
    steps = tuple((i, bytes(js)) for i, js in sorted(giants.items()))
    # multiplications per curve, inversions aside: 10 per ladder bit in
    # stage 1 and in the ladders to 2, D, i0*D and (i0+1)*D; 6 per odd
    # multiple below D/2 and per giant step; 3 per point normalized; 1 per
    # prime in (B1, B2]
    i0, i1 = steps[0][0], steps[-1][0]
    ladders = sum(n.bit_length() for n in (k, 2, _ECM_D, i0 * _ECM_D, (i0 + 1) * _ECM_D))
    muls = (10 * ladders + 6 * (_ECM_D // 4 + i1 - i0)
            + 3 * (len(_ECM_BABIES) + i1 - i0 + 2)
            + sum(len(js) for _, js in steps))
    num, den = _ECM_UNITS_PER_MUL
    return _EcmPlan(k, steps, -(-muls * num // den))


def _ladder(k: int, x: int, a24: int, m: int) -> tuple[int, int]:
    """x-only Montgomery ladder on By^2 = x^3 + Ax^2 + x mod m, a24 = (A+2)/4:
    the projective x of kP, as (X, Z), for P = (x : 1). It holds R0 = nP and
    R1 = (n+1)P from n = 0, where 0 is (1 : 0); the doubling and _add's
    formulas are inlined, because this loop is most of a curve's time."""
    x0, z0, x1, z1 = 1, 0, x, 1
    for b in bin(k)[2:]:
        if b == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        # (R0, R1) <- (2 R0, R0 + R1), the difference R1 - R0 being P
        u = (x0 - z0) * (x1 + z1) % m
        v = (x0 + z0) * (x1 - z1) % m
        s = (x0 + z0) * (x0 + z0) % m
        d = (x0 - z0) * (x0 - z0) % m
        t = s - d
        x0, z0 = s * d % m, t * (d + a24 * t % m) % m
        x1, z1 = (u + v) * (u + v) % m, x * ((u - v) * (u - v) % m) % m
        if b == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


def _add(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int],
         m: int) -> tuple[int, int]:
    """Projective x of P + Q from those of P, Q and P - Q."""
    u = (p[0] - p[1]) * (q[0] + q[1]) % m
    v = (p[0] + p[1]) * (q[0] - q[1]) % m
    return diff[1] * ((u + v) * (u + v) % m) % m, diff[0] * ((u - v) * (u - v) % m) % m


def _normalize(points: list[tuple[int, int]], m: int) -> tuple[int, list[int]]:
    """(g, xs): g = gcd(m, product of every Z) and, when g = 1, the affine
    X/Z mod m of each point, from one inversion (Montgomery's batch trick)."""
    prefix = [1]
    for _, z in points:
        prefix.append(prefix[-1] * z % m)
    g = gcd(prefix[-1], m)
    if g != 1:
        return g, []
    inv = pow(prefix[-1], -1, m)
    xs = [0] * len(points)
    for t in range(len(points) - 1, -1, -1):
        x, z = points[t]
        xs[t] = x * (inv * prefix[t] % m) % m
        inv = inv * z % m
    return 1, xs


def _ecm_curve(m: int, sigma: int, plan: _EcmPlan) -> int:
    """gcd of m with what one curve finds: 1 (nothing), m (every prime at
    once) or a proper divisor. Suyama's parametrization (Montgomery 1987)
    gives the curve a group order divisible by 12."""
    u = (sigma * sigma - 5) % m
    v = 4 * sigma % m
    # P = (u^3 : v^3) and a24 = (v - u)^3 (3u + v) / (16 u^3 v), over one
    # common denominator 16 u^3 v^3
    den = 16 * u ** 3 * v ** 3 % m
    g = gcd(den, m)
    if g != 1:
        return g
    inv = pow(den, -1, m)
    x = 16 * u ** 6 * inv % m
    a24 = (v - u) ** 3 * (3 * u + v) * v * v * inv % m
    # stage 1: Q = lcm(1..B1) P
    g, xs = _normalize([_ladder(plan.k, x, a24, m)], m)
    if g != 1:
        return g
    q = xs[0]
    # stage 2: if Q has prime order r in (B1, B2] mod p, then r = i D +- j
    # for a baby step j, i D Q = -+j Q mod p, and p divides x(i D Q) - x(j Q);
    # one such factor per prime
    double = _ladder(2, q, a24, m)
    babies = []  # j Q for each j in _ECM_BABIES
    prev = cur = (q, 1)  # Q is also the difference in 3Q = Q + 2Q
    for j in range(1, _ECM_D // 2, 2):
        if gcd(j, _ECM_D) == 1:
            babies.append(cur)
        prev, cur = cur, _add(cur, double, prev, m)
    i0, i1 = plan.giants[0][0], plan.giants[-1][0]
    step = _ladder(_ECM_D, q, a24, m)
    giants = [_ladder(i * _ECM_D, q, a24, m) for i in (i0, i0 + 1)]
    while len(giants) <= i1 - i0:
        giants.append(_add(giants[-1], step, giants[-2], m))
    g, xs = _normalize(babies + giants, m)
    if g != 1:
        return g
    acc = 1
    for i, js in plan.giants:
        xg = xs[len(babies) + i - i0]
        for t in js:
            acc = acc * (xg - xs[t]) % m
    return gcd(acc, m)


def _ecm_curves(m: int, budget: int, done: int) -> Iterator[tuple[_EcmPlan, int]]:
    """(plan, sigma) of each curve that budget effort units pay for, in
    curve order: the plans follow _ECM_STAGES from curve number done on, and
    each sigma is the next draw of a generator seeded from m. Every ECM
    worker enumerates this same sequence."""
    rng = random.Random(m ^ _SEED_SALT)
    stages = chain.from_iterable(repeat((b1, b2)) if curves is None else repeat((b1, b2), curves)
                                 for b1, b2, curves in _ECM_STAGES)
    for b1, b2 in islice(stages, done, None):
        plan = _ecm_plan(b1, b2)
        if budget < plan.units:
            return
        budget -= plan.units
        yield plan, rng.randrange(6, m - 1)


_inside = False  # True while a map on two or more processes runs fn, in any of them


def _workers() -> int:
    """Processes to spread an _ordered_map over: one per CPU this process
    may run on, or 1 inside the function of a map on two or more processes,
    so workers never nest, and 1 where os.fork or os.sched_getaffinity is
    missing or another thread is alive, since a forked child keeps only the
    forking thread, and a lock another thread held stays taken in it."""
    if (_inside or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _call_inside(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
    """[fn(item) for item in items], run as the function of a map on two or
    more processes: _workers() reads 1 meanwhile."""
    global _inside
    outer, _inside = _inside, True
    try:
        return [fn(item) for item in items]
    finally:
        _inside = outer


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a worker, set as its
    __cause__ where the map raises it."""


def _worker(fn: Callable[[_T], _R], batches: Iterable[Sequence[_T]], out: int,
            inherited: list[int]) -> NoReturn:
    """Body of a forked worker: writes one pickled list of results per batch
    to fd out, or, when fn raises, (the exception, its traceback text) if
    that pickles, and stops. It first closes the read ends of every pipe, so
    a write fails once the caller is gone, and it leaves only by os._exit,
    so it never flushes the buffers or runs the clean-up it copied."""
    import pickle

    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(out, "wb") as f:
            for batch in batches:
                try:
                    results: list | tuple = _call_inside(fn, batch)
                except Exception as exc:
                    import traceback  # only a failing worker pays for it
                    results = (exc, traceback.format_exc())
                try:
                    f.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
                except Exception:  # the caller reports that nothing was sent
                    break
                f.flush()
                if isinstance(results, tuple):
                    break
    finally:
        os._exit(0)


def _stop_workers(pids: list[int], readers: list[BinaryIO]) -> None:
    """Kill and reap every worker, and close the pipes they wrote to."""
    if not readers:
        return
    import signal  # here, not at the top: it adds 1.5 ms to every start-up

    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    for reader in readers:
        reader.close()
    pids.clear()
    readers.clear()


def _ordered_map(fn: Callable[[_T], _R], items: Iterable[_T], label: str,
                 batch: int = 1) -> Iterator[_R]:
    """Yield fn(item) for every item, in item order, computed on up to
    _workers() processes.

    The items are cut into batches of `batch` consecutive items, and batch t
    runs in worker t mod k. k is _workers(), but no more than the batches,
    so a map of one batch forks nothing; each caller makes a batch worth
    at least a fork and reap, about 3 ms. Worker 0 is this process. The
    others are children forked when the map starts, so they see fn and the
    items as they are then; each draws the items itself, from its copy of
    the iterator, so they are never held whole, and streams its batches'
    results back through a pipe, pickled, as it finishes them. This process
    takes the batches in order, running its own as it reaches them and
    reading the others', so what it yields is the same at every k. With
    k = 1 nothing is forked or pickled, and fn runs on each item here, as
    the caller draws it.

    Inside fn, _workers() reads 1 only when the map runs on two or more
    processes, here and in every child, so workers never nest: a map or an
    ECM that fn reaches then forks nothing. At k = 1, fn runs as if the
    caller called it, so a map of one batch leaves a map or an ECM that fn
    reaches free to fork. The caller may stop reading early, and must then
    close() the generator. When it is closed or finished, or fn raises
    here, every child is killed and reaped, so no child outlives the map.
    When fn raises in a child, the map raises that exception, as at k = 1,
    once it reaches that child's batch, with the child's traceback text as
    its __cause__, or RuntimeError naming `label` when the child died or
    its exception does not pickle; it never waits on a dead child and
    yields nothing past the last whole batch. A fork or pipe that fails stops the children already
    forked, and every batch runs here, with the same results. fn and the
    items must not rely on state changed after the fork, the results must
    pickle, and the caller runs one map at a time, since a child forked
    while another map is open would hold that map's pipes.
    """
    it = iter(items)
    batches = iter(lambda: list(islice(it, batch)), [])  # ends at the empty batch
    head = list(islice(batches, _workers()))  # the batches that decide k
    k = len(head)
    batches = chain(head, batches)
    pids: list[int] = []
    readers: list[BinaryIO] = []
    try:
        if k > 1:
            import pickle
            try:
                for i in range(1, k):
                    r, w = os.pipe()
                    readers.append(os.fdopen(r, "rb"))
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _worker(fn, islice(batches, i, None, k), w,
                                    [reader.fileno() for reader in readers])
                        pids.append(pid)
                    finally:
                        os.close(w)
            except OSError:
                # no process or pipe to spare: every batch runs here
                _stop_workers(pids, readers)
                k = 1
        if k == 1:
            yield from map(fn, chain.from_iterable(batches))
            return
        for t, part in enumerate(batches):
            if t % k == 0:
                results = _call_inside(fn, part)
            else:
                try:
                    results = pickle.load(readers[t % k - 1])
                except Exception:  # a dead child, or an error that does not unpickle
                    raise RuntimeError(f"{label} worker {t % k} stopped before "
                                       f"item {t * batch}; it sent no error")
                if isinstance(results, tuple):  # (exception, traceback text)
                    raise results[0] from _RemoteTraceback(results[1])
            yield from results
    finally:
        _stop_workers(pids, readers)


def _ecm(m: int, budget: list[int], done: list[int]) -> int:
    """Nontrivial divisor of odd composite m by Lenstra's elliptic-curve
    method, over the curves of _ecm_curves(m, budget[0], done[0]), run by
    _ordered_map, each returning its units and its gcd. The results are
    taken in curve order: each curve's units are charged to budget[0] and
    the curve counted in done[0] before the next result is read, and the
    first proper divisor is returned, so the divisor, the charge and the
    budget error are those of running every curve here, at every worker
    count. Raises FactorizationBudgetError when the budget pays for no
    further curve, and RuntimeError when a worker stops early."""
    results = _ordered_map(lambda curve: (curve[0].units, _ecm_curve(m, curve[1], curve[0])),
                           _ecm_curves(m, budget[0], done[0]), "ECM")
    try:
        for units, g in results:
            budget[0] -= units
            done[0] += 1
            if 1 < g < m:
                return g
    finally:
        results.close()
    raise FactorizationBudgetError(
        f"effort cap hit while splitting a {len(str(m))}-digit composite")


def factorize(x: int, *, effort: int = DEFAULT_FACTOR_EFFORT) -> Factorization:
    """Full factorization into primes, proved below 3.18e23 and probable (64
    seeded Miller-Rabin rounds) above: trial division by primes to 10^6, rho
    on at most RHO_SHARE of the effort, then ECM on the rest, each cofactor
    left tested once for primality. Trial division walks the blocks of
    _sieve() in order, up to the first block whose least prime squared
    exceeds the cofactor, or until the cofactor, tested first and after each
    block that divides it when above TRIAL_LIMIT, is a probable prime; a
    block whose product is coprime to the cofactor is skipped with one gcd.

    Raises FactorizationBudgetError when the effort runs out; never returns
    a guessed or partial factorization. For effort <= RHO_SHARE, ECM never
    runs; past it, a perfect-square cofactor is split by its square root
    instead of by ECM."""
    if x < 1:
        raise ValueError("factorization is defined for positive integers")
    primes, products = _sieve()
    counts: dict[int, int] = {}
    rem = x
    # the square bound settles a cofactor of at most TRIAL_LIMIT within two
    # blocks, so only a larger one is worth a primality test
    prime = rem > TRIAL_LIMIT and is_probable_prime(rem)
    for start, block in zip(range(0, len(primes), _BLOCK), products):
        if prime or primes[start] ** 2 > rem:
            break
        g = gcd(rem, block)
        if g == 1:
            continue
        # g is the product of the block's primes that divide rem
        for p in primes[start:start + _BLOCK]:
            if g % p == 0:
                g //= p
                while rem % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    rem //= p
                if g == 1:
                    break
        prime = rem > TRIAL_LIMIT and is_probable_prime(rem)
    if prime or 1 < rem <= TRIAL_LIMIT:
        counts[rem] = 1
    elif rem > 1:
        share = min(effort, RHO_SHARE)
        budget = [share]
        done = None  # ECM's curve count, once rho has spent its share
        pending = [rem]  # known composites, so no cofactor is tested twice
        while pending:
            mcand = pending.pop()
            if done is None:
                try:
                    d = _brent_rho(mcand, budget)
                except FactorizationBudgetError:
                    budget[0] += effort - share
                    if budget[0] < 0:
                        raise
                    done = [0]
            if done is not None:
                # ECM needs as long for p in p^2 as for any factor of p's
                # size; a square root splits it at once
                d = isqrt(mcand)
                if d * d != mcand:
                    d = _ecm(mcand, budget, done)
            for f in (d, mcand // d):
                if f <= TRIAL_LIMIT or is_probable_prime(f):
                    counts[f] = counts.get(f, 0) + 1
                else:
                    pending.append(f)
    return Factorization(x, tuple(sorted(counts.items())))

