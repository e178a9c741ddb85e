import os
import pathlib
import random
from functools import lru_cache
from itertools import combinations, compress
from math import gcd, isqrt, prod
from operator import mul

import pytest

from walkspec.graphs import Graph, GraphParseError, _encode_order, degree_vector
from walkspec.linalg import IntMatrix, SingularMatrixError, _echelon
from walkspec import numtheory
from walkspec.numtheory import (
    DEFAULT_FACTOR_EFFORT,
    TRIAL_LIMIT,
    _BLOCK,
    _SEED_SALT,
    Factorization,
    FactorizationBudgetError,
    _sieve,
    is_probable_prime,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# c = nextprime(10^19) * nextprime(3 * 10^19): the default effort cannot split it
HARD_ALPHA = "1/300000000000000001940000000000000002091"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def at_each_worker_count(monkeypatch, run) -> list:
    """[run() with the worker count of numtheory's map set to 1, 2 and 3].
    With one worker a fork fails the call; with more, run() must fork; no
    child is left after any call."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    real_fork = os.fork
    forks = []

    def no_fork():
        raise AssertionError("forked with one worker")

    def fork():
        forks.append(None)
        return real_fork()

    out = []
    for k in (1, 2, 3):
        forks.clear()
        monkeypatch.setattr(numtheory, "_workers", lambda k=k: k)
        monkeypatch.setattr(os, "fork", no_fork if k == 1 else fork)
        out.append(run())
        assert k == 1 or forks, f"nothing forked with {k} workers"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(os, "fork", real_fork)
    return out


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Each edge (u, v), u < v, drawn in row-major order with probability p."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def complement(g: Graph) -> Graph:
    edges = set(g.edges)
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if (u, v) not in edges])


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex map old -> perm[old]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


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


# The plain-integer Smith elimination that ran on every singular or
# non-square matrix before the bounded-entry path covered all shapes, kept
# verbatim (names aside) as the reference that path's results must match.


def _xgcd(u: int, v: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(u, v) >= 0 and x*u + y*v = g."""
    r0, r1 = u, v
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


def _reference_eliminate(a: list[list[int]], rows: int, cols: int) -> None:
    """Diagonalize `a` in place by unimodular row and column operations.

    Each non-divisible clear is a single 2x2 Bezout block (det 1), so the
    pivot strictly shrinks instead of walking a remainder chain through the
    whole row.
    """

    def row_sub(i: int, q: int, j: int) -> None:
        # row i -= q * row j
        rj = a[j]
        a[i] = [x - q * y for x, y in zip(a[i], rj)]

    def col_sub(j: int, q: int, i: int) -> None:
        # col j -= q * col i
        for row in a:
            row[j] -= q * row[i]

    def bezout_row(t: int, i: int, p: int, b: int) -> int:
        # rows (t, i) <- [[x, y], [-b/g, p/g]] @ rows
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        rt, ri = a[t], a[i]
        a[t] = [x * u + y * v for u, v in zip(rt, ri)]
        a[i] = [pg * v - bg * u for u, v in zip(rt, ri)]
        return g

    def bezout_col(t: int, j: int, p: int, b: int) -> int:
        # cols (t, j) <- cols @ [[x, -b/g], [y, p/g]]
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        for row in a:
            u, v = row[t], row[j]
            row[t] = x * u + y * v
            row[j] = pg * v - bg * u
        return g

    size = min(rows, cols)
    for t in range(size):
        # move the smallest-magnitude nonzero of the trailing block to (t, t)
        best = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    x = -x if x < 0 else x
                    if best is None or x < best[0]:
                        best = (x, i, j)
                        if x == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            while True:
                p = a[t][t]
                for i in range(t + 1, rows):
                    b = a[i][t]
                    if b:
                        q, r = divmod(b, p)
                        if r:
                            p = bezout_row(t, i, p, b)
                        elif q:
                            row_sub(i, q, t)
                p = a[t][t]
                dirty = False
                for j in range(t + 1, cols):
                    b = a[t][j]
                    if b:
                        q, r = divmod(b, p)
                        if r:
                            # recombining full columns re-dirties column t
                            p = bezout_col(t, j, p, b)
                            dirty = True
                        elif q:
                            col_sub(j, q, t)
                if not dirty:
                    break
            p = a[t][t]
            offender = None
            for i in range(t + 1, rows):
                if any(x % p for x in a[i][t + 1:cols]):
                    offender = i
                    break
            if offender is None:
                break
            row_sub(t, -1, offender)  # row t += offending row, then re-clear


def plain_smith_divisors(m):
    """Invariant factors by plain integer elimination, entries unreduced."""
    a = m.to_lists()
    _reference_eliminate(a, m.rows, m.cols)
    return tuple(a[i][i] for i in range(min(m.rows, m.cols)))


# The modular Smith elimination, by row and column operations that also make
# each pivot divide the trailing block, that ran before the row-only
# diagonal replaced it, kept verbatim (names aside) as the reference the
# new kernel's divisors must match.


def _reference_modular_eliminate(a: list[list[int]], rows: int, cols: int, mod: int) -> None:
    """Diagonalize `a`, entries in [0, mod), in place by unimodular row and
    column operations, reducing every updated entry into [0, mod) again.

    Each non-divisible clear is a single 2x2 Bezout block (det 1), so the
    pivot strictly shrinks instead of walking a remainder chain through the
    whole row. The caller owns mapping the residue diagonal back to true
    divisors.
    """

    def row_sub(i: int, q: int, j: int) -> None:
        # row i -= q * row j
        a[i] = [(x - q * y) % mod for x, y in zip(a[i], a[j])]

    def col_sub(j: int, q: int, i: int) -> None:
        # col j -= q * col i
        for row in a:
            row[j] = (row[j] - q * row[i]) % mod

    def bezout_row(t: int, i: int, p: int, b: int) -> int:
        # rows (t, i) <- [[x, y], [-b/g, p/g]] @ rows
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        rt, ri = a[t], a[i]
        a[t] = [(x * u + y * v) % mod for u, v in zip(rt, ri)]
        a[i] = [(pg * v - bg * u) % mod for u, v in zip(rt, ri)]
        return g

    def bezout_col(t: int, j: int, p: int, b: int) -> int:
        # cols (t, j) <- cols @ [[x, -b/g], [y, p/g]]
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        for row in a:
            u, v = row[t], row[j]
            row[t] = (x * u + y * v) % mod
            row[j] = (pg * v - bg * u) % mod
        return g

    size = min(rows, cols)
    for t in range(size):
        # move the smallest nonzero of the trailing block to (t, t)
        best = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
                    if x == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            while True:
                p = a[t][t]
                for i in range(t + 1, rows):
                    b = a[i][t]
                    if b:
                        q, r = divmod(b, p)
                        if r:
                            p = bezout_row(t, i, p, b)
                        elif q:
                            row_sub(i, q, t)
                p = a[t][t]
                dirty = False
                for j in range(t + 1, cols):
                    b = a[t][j]
                    if b:
                        q, r = divmod(b, p)
                        if r:
                            # recombining full columns re-dirties column t
                            p = bezout_col(t, j, p, b)
                            dirty = True
                        elif q:
                            col_sub(j, q, t)
                if not dirty:
                    break
            p = a[t][t]
            offender = None
            for i in range(t + 1, rows):
                if any(x % p for x in a[i][t + 1:cols]):
                    offender = i
                    break
            if offender is None:
                break
            row_sub(t, -1, offender)  # row t += offending row, then re-clear


def modular_smith_divisors(m) -> tuple[int, ...]:
    """Invariant factors of m: nonnegative, each dividing the next, one per
    min(rows, cols), zeros trailing.

    One bounded-entry path for every shape and rank. The fraction-free
    echelon gives the rank r and a nonzero r x r minor; with d = |minor|,
    every nonzero invariant factor divides d, since s_1 ... s_r is the gcd
    of all r x r minors. So every entry may be reduced mod d after each
    elementary operation, where plain elimination can grow them
    exponentially. The residue diagonal fixes the group of m over Z/d, so
    gcd(diagonal, d), sorted into a chain, is s_1, ..., s_r followed by d
    once per zero factor; those become 0 again.
    """
    rows, cols = m.rows, m.cols
    size = min(rows, cols)
    r, minor = _echelon(m.to_lists())
    d = abs(minor)
    if d == 1:
        return (1,) * r + (0,) * (size - r)
    a = [[x % d for x in row] for row in m._data]
    _reference_modular_eliminate(a, rows, cols, d)
    out = [gcd(a[i][i], d) for i in range(size)]
    # the residue diagonal determines the group, but only prime by prime;
    # pairwise gcd/lcm sweeps sort the exponents into a chain
    changed = True
    while changed:
        changed = False
        for i in range(size - 1):
            x, y = out[i], out[i + 1]
            if y % x:
                g = gcd(x, y)
                out[i], out[i + 1] = g, x * y // g
                changed = True
    if d % prod(out[:r]) or any(x != d for x in out[r:]):
        raise AssertionError("modular elimination lost a divisor")
    return tuple(out[:r]) + (0,) * (size - r)


# The Gauss-Jordan fraction-free solve and the Gauss-Jordan rank over F_p
# that ran before both went through the two remaining elimination kernels,
# kept verbatim (names aside) as the references those kernels must match.


def reference_solve_fraction_free(a: IntMatrix, b: IntMatrix) -> tuple[int, IntMatrix]:
    """(det a, X) with a @ X == det(a) * b, so X = adj(a) @ b.

    Gauss-Jordan form of Bareiss's elimination on the augmented rows [a | b]:
    step k clears column k above and below the pivot, and every interior
    division by the previous pivot is exact. Raises SingularMatrixError when
    det a = 0.
    """
    if not a.is_square or a.rows != b.rows:
        raise ValueError("solve requires a square matrix and a right side "
                         "with as many rows")
    n = a.rows
    rows = [list(ra + rb) for ra, rb in zip(a._data, b._data)]
    sign = 1
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                raise SingularMatrixError("matrix is singular")
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for i in range(n):
            if i != k:
                lead = rows[i][k]
                rows[i] = [(x * pivot - lead * y) // prev
                           for x, y in zip(rows[i], top)]
        prev = pivot
    # every diagonal entry is now det of the row-swapped a, i.e. sign * det a
    return sign * prev, IntMatrix([[sign * x for x in r[n:]] for r in rows])


def reference_rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank over the field of p elements; p must (probably) be prime."""
    if p < 2 or not numtheory.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    a = [[x % p for x in row] for row in m._data]
    rows, cols = m.rows, m.cols
    rank = 0
    for j in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][j]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][j], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][j]:
                f = a[i][j]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


# The sieve that flagged every integer to TRIAL_LIMIT and kept its primes in a
# list of ints, before the odd-only sieve and the 4-byte array, kept verbatim
# (name aside) as the reference the trial-division tables must equal.


@lru_cache(maxsize=None)
def reference_sieve() -> tuple[list[int], list[int]]:
    """The primes to TRIAL_LIMIT, and the product of each run of _BLOCK of
    them (the last run may be shorter): block i covers primes[i * _BLOCK:
    (i + 1) * _BLOCK]."""
    flags = bytearray([1]) * (TRIAL_LIMIT + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(TRIAL_LIMIT) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    primes = list(compress(range(TRIAL_LIMIT + 1), flags))
    del flags  # 1 MB: free it before building the products, so both never peak together
    return primes, [prod(primes[i:i + _BLOCK]) for i in range(0, len(primes), _BLOCK)]


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
    for p in _sieve()[0]:
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


# The bigint trace recursion that computed every characteristic polynomial
# before a Hessenberg reduction modulo a Mersenne prime, and then Berkowitz's
# recurrence, replaced it, kept verbatim (names aside) as the reference that
# the kernel's results must match.


def reference_charpoly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients (c0, ..., cn) of det(xI - m), cn = 1, by trace recursion.

    Step k divides the running trace by k; the quotient is exact because the
    coefficients are integers for any integer matrix. The running product
    lives in plain row lists, and adding c*I touches only its diagonal.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    rows = m._data
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = [list(r) for r in rows]  # m @ I
    for k in range(1, n + 1):
        t = sum(work[i][i] for i in range(n))
        if t % k:
            raise AssertionError("trace recursion divided inexactly")
        c = -(t // k)
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                work[i][i] += c
            cols = list(zip(*work))
            work = [[sum(map(mul, r, col)) for col in cols] for r in rows]
    return tuple(coeffs)


# The scaled matrix, the walk matrix and the spectrum key's moment pass as
# they were built through IntMatrix products before the power columns came
# straight from each graph's neighbor rows, kept verbatim (names aside, the
# moment pass cut out of spectrum_key, and the walk matrix's columns packed
# by zip rather than by a column constructor) as the references that
# kernel's results must match.


def reference_alpha_matrix(g, alpha) -> IntMatrix:
    """Integral matrix a*D + b*A, the c_alpha-scaled alpha blend of degrees
    and adjacencies."""
    a, b = alpha.a, alpha.b
    degs = degree_vector(g)
    rows = g.adjacency_rows()
    return IntMatrix([[b * rows[i][j] if i != j else a * degs[i]
                       for j in range(g.n)] for i in range(g.n)])


def _reference_power_columns(m: IntMatrix, v: list[int], kmax: int) -> list[list[int]]:
    """The vectors v, M v, ..., M^kmax v (just v when kmax < 1)."""
    cols = [v]
    for _ in range(kmax):
        v = list(m.matvec(v))
        cols.append(v)
    return cols


def reference_walk_matrix(g, alpha) -> IntMatrix:
    """Normalized walk matrix: columns 1, M1/c, ..., M^(n-1)1/c for the
    scaled matrix M. Integral for every graph since M1 = c*d."""
    n = g.n
    cols: list[list[int]] = [[1] * n]
    if n > 1:
        cols += _reference_power_columns(reference_alpha_matrix(g, alpha),
                                         list(degree_vector(g)), n - 2)
    return IntMatrix(list(zip(*cols)))


def reference_walk_moments(g, alpha) -> list[int]:
    """The moments 1^T M^k 1, k < n, of the scaled matrix M, as the
    spectrum key computed them."""
    n = g.n
    m = reference_alpha_matrix(g, alpha)
    return [sum(v) for v in _reference_power_columns(m, [1] * n, n - 1)]


# The graph6 decoder that unpacked the edge bytes into a list of single bits
# before they were folded into one integer, kept verbatim (names aside) as
# the reference that decoder's graphs and errors must match, and the order
# header decoder with one loop per header length that it called, kept
# verbatim (name aside) as the reference for the one-path header decoder.


def reference_decode_order(data: bytes) -> tuple[int, int]:
    """Return (n, offset of first edge byte)."""
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise GraphParseError(
                f"extended order header truncated at byte offset {len(data)}"
            )
        n = 0
        for k in range(2, 8):
            n = n << 6 | (data[k] - 63)
        return n, 8
    if len(data) < 4:
        raise GraphParseError(
            f"extended order header truncated at byte offset {len(data)}"
        )
    n = 0
    for k in range(1, 4):
        n = n << 6 | (data[k] - 63)
    return n, 4


def reference_parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line (an optional '>>graph6<<' prefix is accepted)."""
    if isinstance(text, str):
        text = text.strip()
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphParseError(
                f"non-ASCII character {text[exc.start]!r} at offset {exc.start}"
            ) from None
    else:
        data = bytes(text).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise GraphParseError("empty graph6 input")
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphParseError(f"invalid graph6 byte {byte!r} at byte offset {off}")
    n, off = reference_decode_order(data)
    if n < 1:
        raise GraphParseError("vertex count must be positive")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    have = len(data) - off
    if have != nbytes:
        raise GraphParseError(
            f"expected {nbytes} edge bytes for order {n}, got {have}"
            f" (edge data starts at byte offset {off})"
        )
    edges = []
    idx = 0
    bit_src = data[off:]
    bits = []
    for byte in bit_src:
        group = byte - 63
        for shift in (5, 4, 3, 2, 1, 0):
            bits.append(group >> shift & 1)
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    for t in range(nbits, len(bits)):
        if bits[t]:
            raise GraphParseError(
                f"nonzero padding bit at byte offset {off + t // 6}"
            )
    return Graph(n, edges)


# The graph6 encoder that folded its edge bits into an integer one bit at a
# time, and the packer that cut that integer into bytes one shift at a time,
# before base64 did the packing, kept verbatim (names aside) as the
# references that encoder's and packer's bytes must match.


def reference_pack_graph6(n: int, bits: int) -> bytes:
    """graph6 of order n whose n(n-1)/2 edge bits, first bit most
    significant, are the integer bits."""
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits <<= pad
    return _encode_order(n) + bytes(
        [(bits >> s & 63) + 63 for s in range(nbits + pad - 6, -1, -6)])


def reference_encode_graph6(g: Graph) -> str:
    bits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | (g._rows[i] >> j & 1)
    return reference_pack_graph6(g.n, bits).decode("ascii")
