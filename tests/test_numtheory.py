"""Primality, factorization, and square-free tests against a sieve oracle."""

import json
import os
import random
import select
import signal
import threading
import time
import tracemalloc
from contextlib import contextmanager
from itertools import chain, repeat
from math import prod

import pytest

from conftest import reference_factorize, reference_sieve
from walkspec import numtheory
from walkspec.criterion import AlphaParam, criterion_check, report_to_json
from walkspec.graphs import parse_graph6
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
# ECM workers
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _serial_ecm_curves(m, budget, schedule):
    """(plan, sigma) of each curve that serial ECM ran on m, before the
    curves were spread over processes: bounds from a schedule iterator that
    every composite of one factorization shared, sigmas drawn from an
    m-seeded generator, each curve paid for before it ran."""
    rng = random.Random(m ^ numtheory._SEED_SALT)
    out = []
    while True:
        plan = numtheory._ecm_plan(*next(schedule))
        if budget < plan.units:
            return out
        budget -= plan.units
        out.append((plan, rng.randrange(6, m - 1)))


def test_ecm_curves_follow_the_serial_schedule():
    rng = random.Random(307)
    units = [numtheory._ecm_plan(b1, b2).units for b1, b2, _ in numtheory._ECM_STAGES]
    for m in (prod((514062274673, 26247507633517, 45514326819323)),
              _random_prime(rng, 20) * _random_prime(rng, 25)):
        for done in (0, 3, 39, 40, 189, 190, 500):
            for budget in (0, units[0] - 1, units[0], 5 * units[1] + 7, 4_000_000):
                schedule = chain.from_iterable(
                    repeat((b1, b2)) if c is None else repeat((b1, b2), c)
                    for b1, b2, c in numtheory._ECM_STAGES)
                for _ in range(done):
                    next(schedule)
                assert (list(numtheory._ecm_curves(m, budget, done))
                        == _serial_ecm_curves(m, budget, schedule)), (m, done, budget)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process once seconds have passed."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _ecm_effort_points(monkeypatch, x):
    """Efforts one unit below, at and one unit above the cumulative charge
    of each curve that factorize(x) runs at the default effort, and one
    curve beyond: ECM's budget is the effort less what rho spent."""
    calls = []
    real = numtheory._ecm_curves

    def spy(m, budget, done):
        calls.append((budget, done))
        return real(m, budget, done)

    monkeypatch.setattr(numtheory, "_workers", lambda: 1)
    monkeypatch.setattr(numtheory, "_ecm_curves", spy)
    factorize(x)
    monkeypatch.setattr(numtheory, "_ecm_curves", real)
    rho_spent = numtheory.DEFAULT_FACTOR_EFFORT - calls[0][0]
    run = max(done for _, done in calls) + 2  # the last split, and one more
    charges = [plan.units for plan, _ in real(x, numtheory.DEFAULT_FACTOR_EFFORT, 0)][:run]
    points = []
    for t in range(run):
        total = rho_spent + sum(charges[:t + 1])
        points += [total - 1, total, total + 1]
    return points


@needs_fork
def test_ecm_result_does_not_depend_on_worker_count(monkeypatch):
    """Seeded composites that only ECM splits, at efforts around each curve's
    cumulative charge: one, two and three workers give an equal
    factorization or an equal budget error, and leave no child behind.
    Rho's share is cut to 2^10 units, so that rho takes milliseconds at
    each effort and ECM does the rest."""
    monkeypatch.setattr(numtheory, "RHO_SHARE", 1 << 10)
    real_fork = os.fork

    def no_fork():
        raise AssertionError("forked with one worker")

    rng = random.Random(308)
    composites = [prod(_random_prime(rng, rng.randint(11, 13)) for _ in range(3))
                  for _ in range(3)]
    outcomes = set()
    for x in composites:
        for effort in _ecm_effort_points(monkeypatch, x):
            seen = []
            for k in (1, 2, 3):
                monkeypatch.setattr(numtheory, "_workers", lambda k=k: k)
                monkeypatch.setattr(os, "fork", no_fork if k == 1 else real_fork)
                with _deadline(120):
                    seen.append(_outcome(factorize, x, effort))
                _assert_no_children()
            assert seen[1] == seen[0] and seen[2] == seen[0], (x, effort)
            outcomes.add(isinstance(seen[0], str))
    assert outcomes == {False, True}  # both paths were exercised


@needs_fork
def test_order_16_report_bytes_do_not_depend_on_worker_count(monkeypatch):
    g = parse_graph6("OVgwclKjqV@?jdl||L`Lu")
    texts = set()
    for k in (1, 2, 3):
        monkeypatch.setattr(numtheory, "_workers", lambda k=k: k)
        texts.add(json.dumps(report_to_json(criterion_check(g, AlphaParam(2, 3)))))
        _assert_no_children()
    assert len(texts) == 1


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="no os.fork or os.sched_getaffinity")
def test_one_ecm_worker_while_another_thread_runs():
    """A fork copies only the forking thread, so ECM forks no worker while
    another thread is alive; otherwise it takes one per CPU it may use."""
    assert numtheory._workers() == len(os.sched_getaffinity(0))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert numtheory._workers() == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


def _two_20_digit_primes():
    # stage-1 curves at B1 = 2000 all but never split this
    rng = random.Random(309)
    return _random_prime(rng, 20) * _random_prime(rng, 20)


@needs_fork
def test_no_ecm_worker_outlives_factorize(monkeypatch):
    """After a split, after a budget error and after an exception in this
    process's own curve, every worker has been reaped."""
    monkeypatch.setattr(numtheory, "_workers", lambda: 3)
    primes = (514062274673, 26247507633517, 45514326819323)
    assert factorize(prod(primes)).factors == tuple((p, 1) for p in primes)
    _assert_no_children()
    hard = _two_20_digit_primes()
    # rho spends 2^17 - 1 units before it gives up; this pays for 5 curves
    effort = (1 << 17) - 1 + 5 * numtheory._ecm_plan(2_000, 150_000).units
    with pytest.raises(FactorizationBudgetError):
        factorize(hard, effort=effort)
    _assert_no_children()

    parent = os.getpid()
    real = numtheory._ecm_curve

    def fails_here(m, sigma, plan):
        if os.getpid() == parent:
            raise ZeroDivisionError("curve failed")
        return real(m, sigma, plan)

    monkeypatch.setattr(numtheory, "_ecm_curve", fails_here)
    with pytest.raises(ZeroDivisionError):
        factorize(hard)
    _assert_no_children()


@needs_fork
def test_a_failed_fork_leaves_every_curve_here(monkeypatch):
    """When the second fork fails, the first worker is stopped and every
    curve runs in this process, with the same result."""
    monkeypatch.setattr(numtheory, "_workers", lambda: 3)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError("no process to spare")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    primes = (514062274673, 26247507633517, 45514326819323)
    assert factorize(prod(primes)).factors == tuple((p, 1) for p in primes)
    assert len(forks) >= 2
    _assert_no_children()


@needs_fork
def test_a_curve_that_fails_in_a_worker_raises_here(monkeypatch):
    """A worker that dies before sending its result ends the search with an
    error, and one whose curve raises ends it with that exception: the
    parent neither waits for it nor returns a factor."""
    monkeypatch.setattr(numtheory, "_workers", lambda: 2)
    parent = os.getpid()
    real = numtheory._ecm_curve

    def dies_there(m, sigma, plan):
        if os.getpid() != parent:
            os._exit(3)
        return real(m, sigma, plan)

    def fails_there(m, sigma, plan):
        if os.getpid() != parent:
            raise ZeroDivisionError("curve failed")
        return real(m, sigma, plan)

    monkeypatch.setattr(numtheory, "_ecm_curve", dies_there)
    with _deadline(60), pytest.raises(RuntimeError, match="ECM worker 1 stopped"):
        factorize(_two_20_digit_primes())
    _assert_no_children()
    monkeypatch.setattr(numtheory, "_ecm_curve", fails_there)
    with _deadline(60), pytest.raises(ZeroDivisionError, match="curve failed"):
        factorize(_two_20_digit_primes())
    _assert_no_children()


@needs_fork
def test_an_orphaned_worker_exits_at_its_next_write(monkeypatch):
    """SIGKILL a process while its ECM worker runs a curve: the worker's
    next write finds no reader, and it exits, long before its curves run
    out. A pipe that only the two processes hold open reads end-of-file
    once both are gone."""
    monkeypatch.setattr(numtheory, "_workers", lambda: 2)
    hard = _two_20_digit_primes()
    alive_r, alive_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the process to kill; its worker is its own child
        try:
            os.close(alive_r)
            me = os.getpid()

            def curve(m, sigma, plan):
                if os.getpid() == me:
                    time.sleep(60)
                else:
                    os.write(alive_w, b"%d\n" % os.getpid())
                    time.sleep(0.2)
                return 1

            numtheory._ecm_curve = curve
            factorize(hard, effort=10 ** 9)  # thousands of 0.2 s curves
        finally:
            os._exit(0)
    os.close(alive_w)
    worker = None
    try:
        assert select.select([alive_r], [], [], 30)[0], "the worker never started"
        worker = int(os.read(alive_r, 64).split()[0])
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pid = None
        deadline = time.monotonic() + 10
        while True:  # the worker's pid at each curve, until end-of-file
            left = deadline - time.monotonic()
            assert left > 0 and select.select([alive_r], [], [], left)[0], \
                "the worker outlived its parent"
            if not os.read(alive_r, 64):
                break
        worker = None
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if worker is not None:
            try:
                os.kill(worker, signal.SIGKILL)
            except ProcessLookupError:
                pass
        os.close(alive_r)


# ---------------------------------------------------------------------------
# the ordered worker map that ECM and the mate search share
# ---------------------------------------------------------------------------


def _where(x):
    """(x squared, pid of the process that ran x)."""
    return x * x, os.getpid()


@needs_fork
def test_ordered_map_runs_item_t_in_worker_t_mod_k(monkeypatch):
    """Every result arrives in item order at every k, batch t running in
    worker t mod k, worker 0 being this process, whether the items come as
    a list or from a generator."""
    items = list(range(37))
    parent = os.getpid()
    for batch, source in ((1, list), (4, iter), (40, list)):
        for k in (1, 2, 3):
            monkeypatch.setattr(numtheory, "_workers", lambda k=k: k)
            out = list(numtheory._ordered_map(_where, source(items), "test", batch))
            _assert_no_children()
            assert [sq for sq, _ in out] == [x * x for x in items]
            pids = [pid for _, pid in out]
            workers = min(k, -(-len(items) // batch))
            for x, pid in zip(items, pids):
                assert (pid == parent) == (x // batch % workers == 0), (batch, k, x)
                assert pid == pids[x % (batch * workers)]
            assert len(set(pids)) == workers


@needs_fork
def test_ordered_map_forks_nothing_below_min_items(monkeypatch):
    def no_fork():
        raise AssertionError("forked for too few items")

    monkeypatch.setattr(numtheory, "_workers", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    out = list(numtheory._ordered_map(_where, list(range(9)), "test", 1, 10))
    assert out == [(x * x, os.getpid()) for x in range(9)]
    assert list(numtheory._ordered_map(_where, [], "test")) == []


@needs_fork
def test_no_worker_outlives_the_map(monkeypatch):
    """After a map that finishes, one the caller stops reading, and one
    whose function raises here, every worker has been reaped; a worker
    blocked on a full pipe is killed, not waited for."""
    monkeypatch.setattr(numtheory, "_workers", lambda: 3)
    assert list(numtheory._ordered_map(_where, list(range(20)), "test"))[-1][0] == 361
    _assert_no_children()

    results = numtheory._ordered_map(lambda x: bytes(1 << 20), list(range(30)), "test")
    assert len(next(results)) == 1 << 20
    with _deadline(60):
        results.close()
    _assert_no_children()

    parent = os.getpid()

    def fails_here(x):
        if os.getpid() == parent and x == 6:
            raise ZeroDivisionError("item failed")
        return x

    with pytest.raises(ZeroDivisionError):
        list(numtheory._ordered_map(fails_here, list(range(20)), "test"))
    _assert_no_children()


@needs_fork
def test_a_failure_in_a_worker_raises_here(monkeypatch):
    """A worker whose function raises ends the map with that exception, as
    at one worker; one that dies, or whose exception does not pickle, ends
    it with RuntimeError. The caller neither waits for the worker nor
    returns a partial list."""
    monkeypatch.setattr(numtheory, "_workers", lambda: 2)
    parent = os.getpid()

    class Local(Exception):
        """Pickled by name, which a class local to a function has not."""

    def fails_there(x):
        if os.getpid() != parent and x == 5:
            raise ZeroDivisionError("item failed")
        return x

    def dies_there(x):
        if os.getpid() != parent and x == 5:
            os._exit(3)
        return x

    def fails_unpicklably_there(x):
        if os.getpid() != parent and x == 5:
            raise Local("item failed")
        return x

    with _deadline(60), pytest.raises(ZeroDivisionError, match="^item failed$"):
        list(numtheory._ordered_map(fails_there, list(range(20)), "test"))
    _assert_no_children()
    for fn in (dies_there, fails_unpicklably_there):
        with _deadline(60), pytest.raises(
                RuntimeError, match="^test worker 1 stopped before item 5; it sent no error$"):
            list(numtheory._ordered_map(fn, list(range(20)), "test"))
        _assert_no_children()


@needs_fork
def test_a_failed_second_fork_runs_every_item_here(monkeypatch):
    monkeypatch.setattr(numtheory, "_workers", lambda: 3)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError("no process to spare")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    out = list(numtheory._ordered_map(_where, list(range(20)), "test"))
    assert out == [(x * x, os.getpid()) for x in range(20)]
    assert len(forks) == 2
    _assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="no os.fork or os.sched_getaffinity")
def test_the_worker_count_reads_1_inside_a_mapped_function(monkeypatch):
    """Workers never nest: inside the mapped function, here and in every
    child, the count is 1, and it is restored when the map ends or fails."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert numtheory._workers() == 3

    def count(x):
        return numtheory._workers(), os.getpid()

    out = list(numtheory._ordered_map(count, list(range(9)), "test"))
    assert [k for k, _ in out] == [1] * 9
    assert len({pid for _, pid in out}) == 3
    _assert_no_children()
    assert numtheory._workers() == 3

    def fails(x):
        raise ZeroDivisionError("item failed")

    with pytest.raises(ZeroDivisionError):
        list(numtheory._ordered_map(fails, list(range(9)), "test"))
    _assert_no_children()
    assert numtheory._workers() == 3


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
