"""Exact linear algebra over arbitrary-precision integers.

Everything here is pure bigint arithmetic: fraction-free determinants and
linear solves, characteristic polynomials of symmetric matrices, ranks
over prime fields, and the invariant factors (Smith divisors) of integer
matrices. No floating point.

Two elimination kernels do all of it but the characteristic polynomial.
Bareiss's fraction-free row echelon gives the determinant, the solve (on
[a | b], then back substitution), and the rank and nonzero minor whose
modulus bounds the Smith elimination. A row-only diagonalization of
residues gives the Smith divisors modulo that minor, sorted into a chain
by a gcd/lcm sweep, and, modulo a prime, the rank as its pivot count.

The characteristic polynomial comes from Berkowitz's recurrence, which
builds it block by block from products and sums alone, so it needs no
division, modulus or coefficient bound.
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


def charpoly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients (c0, ..., cn) of det(xI - m), cn = 1, of a symmetric
    matrix m, exactly, by Berkowitz's division-free recurrence (Inf.
    Process. Lett. 18, 1984). Any other matrix is a ValueError.

    Let p be the coefficients of the leading r x r block A's polynomial,
    highest degree first, and let the next block be [[A, C], [R, d]]. Its
    polynomial is the lower-triangular Toeplitz matrix with first column
    (1, -d, -RC, -RAC, ..., -RA^(r-1)C) times p. As m is symmetric, so is
    A, and R = C^T, so RA^i = (A^iC)^T, and each RA^kC is the dot product
    of A^iC and A^jC with i = k // 2 and j = k - i: one list of powers
    A^jC, up to about r/2, serves both sides. Only products and sums of
    integers occur, so no step rounds or reduces.
    """
    rows = m._data
    # a non-square matrix differs from its transpose in shape
    if rows != tuple(zip(*rows)):
        raise ValueError("characteristic polynomial requires a symmetric "
                         "matrix")
    p = [1]
    for r, row in enumerate(rows):
        # C and its powers hold r entries, so each map stops at column r
        block = rows[:r]
        powers = [[x[r] for x in block]]  # A^j C for j = 0, 1, ...
        t = [1, -row[r]]
        for k in range(r):
            i = k // 2
            if k - i == len(powers):
                powers.append([sum(map(mul, x, powers[-1])) for x in block])
            t.append(-sum(map(mul, powers[i], powers[k - i])))
        p = [sum(map(mul, t[i::-1], p)) for i in range(r + 2)]
    return tuple(reversed(p))


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
