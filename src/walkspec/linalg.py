"""Exact linear algebra over arbitrary-precision integers.

Everything here is pure bigint arithmetic: fraction-free determinants and
linear solves, integer characteristic polynomials, ranks over prime fields,
and the invariant factors (Smith divisors) of integer matrices. No floating
point.

Two elimination kernels do all of it but the characteristic polynomial.
Bareiss's fraction-free row echelon gives the determinant, the solve (on
[a | b], then back substitution), and the rank and nonzero minor whose
modulus bounds the Smith elimination. A row-only diagonalization of
residues gives the Smith divisors modulo that minor, sorted into a chain
by a gcd/lcm sweep, and, modulo a prime, the rank as its pivot count.

The characteristic polynomial comes from a Hessenberg reduction by
similarity modulo a Mersenne prime P. Every eigenvalue is at most the
largest absolute row sum R in absolute value, so every coefficient is at
most (1 + R)^n; with P above twice that, the residues in (-P/2, P/2] are
the integer coefficients themselves, and the result is exact.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul
from typing import Sequence

from . import numtheory


class SingularMatrixError(ArithmeticError):
    """A solve was requested for a matrix with zero determinant."""


class IntMatrix:
    """Immutable dense matrix of Python ints; any other entry type, bool
    included, is a TypeError rather than a silent conversion. A matrix
    without rows is 0 x 0, so a k x 0 matrix (k > 0) has no transpose."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence[int]]):
        packed = tuple(map(tuple, data))
        cols = len(packed[0]) if packed else 0
        for r in packed:
            if len(r) != cols:
                raise ValueError("ragged rows")
            for x in r:
                if type(x) is not int:
                    raise TypeError(f"matrix entry {x!r} is not an int")
        self.rows = len(packed)
        self.cols = cols
        self._data = packed

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._data[i][j]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def transpose(self) -> IntMatrix:
        if self.rows and not self.cols:
            raise ValueError(f"the transpose of a {self.rows} x 0 matrix is "
                             f"0 x {self.rows}, which IntMatrix cannot hold")
        return IntMatrix([[self._data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other._data))
        return IntMatrix([[sum(map(mul, r, c)) for c in cols] for r in self._data])

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, r, v)) for r in self._data)

    def scaled(self, k: int) -> IntMatrix:
        return IntMatrix([[k * x for x in r] for r in self._data])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self._data == other._data
                and self.cols == other.cols)

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


# ---------------------------------------------------------------------------
# determinant, solve and characteristic polynomial
# ---------------------------------------------------------------------------


def _echelon(a: list[list[int]]) -> tuple[int, int]:
    """(rank r, last pivot) of the rows `a`, reduced in place to Bareiss's
    fraction-free row echelon.

    A column with no pivot in the remaining rows is skipped; every interior
    division is still exact, because each entry stays a minor of the input.
    Pivot columns increase strictly, with zeros left of each pivot. The last
    pivot is the nonzero r x r minor on the pivot rows and columns (1 when
    r = 0), signed as the determinant when a is square and nonsingular.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    sign = 1
    prev = 1
    r = 0
    for k in range(cols):
        if r == rows:
            break
        if a[r][k] == 0:
            for i in range(r + 1, rows):
                if a[i][k]:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                continue
        top = a[r]
        pivot = top[k]
        for i in range(r + 1, rows):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, cols):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
            row[k] = 0
        prev = pivot
        r += 1
    return r, sign * prev


def det_bareiss(m: IntMatrix) -> int:
    """Determinant: the last pivot of the fraction-free echelon when it has
    full rank, else 0."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    r, minor = _echelon(m.to_lists())
    return minor if r == m.rows else 0


def solve_fraction_free(a: IntMatrix, b: IntMatrix) -> tuple[int, IntMatrix]:
    """(det a, X) with a @ X == det(a) * b, so X = adj(a) @ b.

    The fraction-free echelon of the rows [a | b] has strictly increasing
    pivot columns, so a is singular, and SingularMatrixError is raised,
    exactly when its entry at row n-1, column n-1 is 0. Otherwise back
    substitution solves U X = det(a) * b' for the echelon's U and b'; every
    division is exact, because X is integral.
    """
    if not a.is_square or a.rows != b.rows:
        raise ValueError("solve requires a square matrix and a right side "
                         "with as many rows")
    n = a.rows
    rows = [list(ra + rb) for ra, rb in zip(a._data, b._data)]
    _, det = _echelon(rows)
    if n and rows[n - 1][n - 1] == 0:
        raise SingularMatrixError("matrix is singular")
    x: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        row = rows[i]
        acc = [det * v for v in row[n:]]
        for u, done in zip(row[i + 1:n], x[i + 1:]):
            acc = [s - u * t for s, t in zip(acc, done)]
        x[i] = [s // row[i] for s in acc]
    return det, IntMatrix(x)


# Exponents e of the Mersenne primes 2^e - 1 from 61 on, every one proven
# prime (OEIS A000043), so no primality test runs and nothing is computed at
# import.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
    756839, 859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917,
    20996011, 24036583, 25964951, 30402457, 32582657, 37156667, 42643801,
    43112609, 57885161, 74207281, 77232917, 82589933, 136279841,
)


def charpoly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients (c0, ..., cn) of det(xI - m), cn = 1, exactly, from one
    Hessenberg reduction modulo a prime P above twice a coefficient bound.

    With R the largest absolute row sum, every eigenvalue has |l| <= R, so
    |c_(n-k)| = |e_k(l_1, ..., l_n)| <= C(n, k) R^k <= (1 + R)^n = B. P is
    the smallest tabulated Mersenne prime 2^e - 1 above 2B, so each
    coefficient is the one residue mod P in (-P/2, P/2].
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    r = max((sum(map(abs, row)) for row in m._data), default=0)
    bits = ((1 + r) ** m.rows).bit_length()
    # 2^e - 1 > 2B exactly when e exceeds the bit length of B
    e = next((e for e in _MERSENNE_EXPONENTS if e > bits), None)
    if e is None:
        raise ValueError(f"a {bits}-bit coefficient bound exceeds every "
                         "tabulated Mersenne prime")
    p = (1 << e) - 1
    half = p >> 1
    coeffs = _charpoly_mod([[x % p for x in row] for row in m._data], p)
    return tuple(c - p if c > half else c for c in coeffs)


def _charpoly_mod(a: list[list[int]], p: int) -> list[int]:
    """Coefficients (c0, ..., cn) of det(xI - a) mod the prime p, in [0, p);
    the residue rows `a` are reduced in place (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, Alg. 2.2.9).

    Similarity mod p brings `a` to upper Hessenberg form H, column by column:
    a pivot below the subdiagonal is swapped onto it (rows and columns
    alike), the rows below it are cleared, and the inverse row operations
    are applied to the pivot's column; a column with no pivot is already
    reduced. Then p_0 = 1 and
    p_k = (x - h_kk) p_(k-1) - sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) p_(i-1),
    1-indexed, and p_n is the characteristic polynomial.
    """
    n = len(a)
    for k in range(1, n - 1):
        j = k - 1
        piv = next((i for i in range(k, n) if a[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        top = a[k][j:]
        inv = pow(top[0], -1, p)
        mults = []
        for i in range(k + 1, n):
            row = a[i]
            u = row[j] * inv % p
            if u:
                row[j:] = [(x - u * y) % p for x, y in zip(row[j:], top)]
                mults.append((i, u))
        if mults:
            for row in a:
                row[k] = (row[k] + sum(u * row[i] for i, u in mults)) % p
    polys = [[1]]
    for k in range(n):
        prev = polys[k]
        h = a[k][k]
        nxt = [-h * c for c in prev] + [0]
        for i, c in enumerate(prev):
            nxt[i + 1] += c
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * a[i + 1][i] % p
            if not t:
                break
            f = t * a[i][k] % p
            for d, c in enumerate(polys[i]):
                nxt[d] -= f * c
        polys.append([c % p for c in nxt])
    return polys[n]


# ---------------------------------------------------------------------------
# residue diagonal: Smith divisors and rank mod p
# ---------------------------------------------------------------------------


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


def _diagonal(a: list[list[int]], mod: int) -> list[int]:
    """Pivots of a diagonal form of `a`, entries in [0, mod), reached by
    unimodular row operations mod `mod` on `a` or on its transpose.

    The smallest nonzero residue moves to the top row, and row operations
    clear its column; a non-divisible entry takes one 2x2 Bezout block (det
    1), so the pivot strictly shrinks to a gcd. When the pivot divides its
    whole row, column operations would change only that row, so it is
    recorded and its row and column dropped. Otherwise the block is
    transposed and the clear repeats. Pivots of an all-zero trailing block
    are missing from the result.
    """
    out = []
    while a and a[0]:
        p, i = min((min(filter(None, row), default=mod), i)
                   for i, row in enumerate(a))
        if p == mod:
            break
        a[0], a[i] = a[i], a[0]
        j = a[0].index(p)
        while True:
            top = a[0]
            for i in range(1, len(a)):
                row = a[i]
                b = row[j]
                if b:
                    q, r = divmod(b, p)
                    if r:
                        # rows (0, i) <- [[x, y], [-b/g, p/g]] @ rows
                        g, x, y = _xgcd(p, b)
                        pg, bg = p // g, b // g
                        a[i] = [(pg * v - bg * u) % mod for u, v in zip(top, row)]
                        top = [(x * u + y * v) % mod for u, v in zip(top, row)]
                        p = g
                    else:
                        a[i] = [(v - q * u) % mod for u, v in zip(top, row)]
            a[0] = top
            if not any(x % p for x in top):
                break
            a = [list(col) for col in zip(*a)]
            a[0], a[j] = a[j], a[0]
            j = 0
        out.append(p)
        del a[0]
        for row in a:
            del row[j]
    return out


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank over the field of p elements, p (probably) prime: the pivot
    count of the residue diagonal mod p."""
    if p < 2 or not numtheory.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return len(_diagonal([[x % p for x in row] for row in m._data], p))


def smith_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of m: nonnegative, each dividing the next, one per
    min(rows, cols), zeros trailing.

    One bounded-entry path for every shape and rank. The fraction-free
    echelon gives the rank r and a nonzero r x r minor; with d = |minor|,
    every nonzero invariant factor divides d, since s_1 ... s_r is the gcd
    of all r x r minors. So every entry may be reduced mod d after each
    row operation, where plain elimination can grow them exponentially.
    Row operations on m and on its transpose reach a diagonal mod d, which
    need not be a divisor chain; any diagonal form fixes the group of m
    over Z/d, so gcd(diagonal, d), padded with d for the pivots not found
    and sorted into a chain by the gcd/lcm sweep, is s_1, ..., s_r followed
    by d once per zero factor; those become 0 again.
    """
    size = min(m.rows, m.cols)
    r, minor = _echelon(m.to_lists())
    d = abs(minor)
    out = [gcd(x, d) for x in _diagonal([[x % d for x in row] for row in m._data], d)]
    out += [d] * (size - len(out))
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
