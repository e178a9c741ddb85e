"""Exact linear algebra over arbitrary-precision integers.

Everything here is pure bigint arithmetic: fraction-free determinants and
linear solves, integer characteristic polynomials, ranks over prime fields,
and the invariant factors (Smith divisors) of integer matrices. No floating
point.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

from . import numtheory


class SingularMatrixError(ArithmeticError):
    """A solve was requested for a matrix with zero determinant."""


class IntMatrix:
    """Immutable dense matrix of Python ints."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence[int]]):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        packed = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            packed.append(tuple(int(x) for x in r))
        self.rows = rows
        self.cols = cols
        self._data = tuple(packed)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> IntMatrix:
        rows = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(rows)])

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> IntMatrix:
        k = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(k)]
                    for i in range(k)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._data)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def transpose(self) -> IntMatrix:
        return IntMatrix([[self._data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose()._data
        return IntMatrix([[sum(map(mul, r, c)) for c in bt] for r in self._data])

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, r, v)) for r in self._data)

    def scaled(self, k: int) -> IntMatrix:
        return IntMatrix([[k * x for x in r] for r in self._data])

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        return sum(self._data[i][i] for i in range(self.rows))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self._data == other._data
                and self.cols == other.cols)

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


# ---------------------------------------------------------------------------
# determinant and characteristic polynomial
# ---------------------------------------------------------------------------


def det_bareiss(m: IntMatrix) -> int:
    """Bareiss's fraction-free Gaussian elimination; every interior division
    is exact."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row = a[i]
            top = a[k]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def solve_fraction_free(a: IntMatrix, b: IntMatrix) -> tuple[int, IntMatrix]:
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


def charpoly(m: IntMatrix) -> tuple[int, ...]:
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


# ---------------------------------------------------------------------------
# modular rank
# ---------------------------------------------------------------------------


def rank_mod_p(m: IntMatrix, p: int) -> int:
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


# ---------------------------------------------------------------------------
# Smith divisors
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


def _eliminate(a: list[list[int]], rows: int, cols: int,
               mod: int | None = None) -> None:
    """Diagonalize `a` in place by unimodular row and column operations.

    Each non-divisible clear is a single 2x2 Bezout block (det 1), so the
    pivot strictly shrinks instead of walking a remainder chain through the
    whole row.

    With `mod` set, every updated entry is reduced into [0, mod); the caller
    owns mapping the residue diagonal back to true divisors.
    """

    def row_sub(i: int, q: int, j: int) -> None:
        # row i -= q * row j
        rj = a[j]
        if mod is None:
            a[i] = [x - q * y for x, y in zip(a[i], rj)]
        else:
            a[i] = [(x - q * y) % mod for x, y in zip(a[i], rj)]

    def col_sub(j: int, q: int, i: int) -> None:
        # col j -= q * col i
        if mod is None:
            for row in a:
                row[j] -= q * row[i]
        else:
            for row in a:
                row[j] = (row[j] - q * row[i]) % mod

    def bezout_row(t: int, i: int, p: int, b: int) -> int:
        # rows (t, i) <- [[x, y], [-b/g, p/g]] @ rows
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        rt, ri = a[t], a[i]
        if mod is None:
            a[t] = [x * u + y * v for u, v in zip(rt, ri)]
            a[i] = [pg * v - bg * u for u, v in zip(rt, ri)]
        else:
            a[t] = [(x * u + y * v) % mod for u, v in zip(rt, ri)]
            a[i] = [(pg * v - bg * u) % mod for u, v in zip(rt, ri)]
        return g

    def bezout_col(t: int, j: int, p: int, b: int) -> int:
        # cols (t, j) <- cols @ [[x, -b/g], [y, p/g]]
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        if mod is None:
            for row in a:
                u, v = row[t], row[j]
                row[t] = x * u + y * v
                row[j] = pg * v - bg * u
        else:
            for row in a:
                u, v = row[t], row[j]
                row[t] = (x * u + y * v) % mod
                row[j] = (pg * v - bg * u) % mod
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


def smith_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of m: nonnegative, each dividing the next, one per
    min(rows, cols), zeros trailing.

    A square nonsingular input takes a bounded-entry path: with d = |det m|,
    d * I lies in the column lattice (m @ adj(m) = det(m) * I), so every
    entry may be reduced mod d after each elementary operation and the true
    divisors recovered as gcd(diagonal, d). Intermediate entries then never
    exceed d, where the plain elimination can grow them exponentially.
    """
    rows, cols = m.rows, m.cols
    if m.is_square and rows:
        d = abs(det_bareiss(m))
        if d == 1:
            return (1,) * rows
        if d:
            a = [[x % d for x in row] for row in m._data]
            _eliminate(a, rows, cols, mod=d)
            out = [gcd(a[i][i], d) for i in range(rows)]
            # the residue diagonal determines the group, but only prime by
            # prime; pairwise gcd/lcm sweeps sort the exponents into a chain
            changed = True
            while changed:
                changed = False
                for i in range(rows - 1):
                    x, y = out[i], out[i + 1]
                    if y % x:
                        g = gcd(x, y)
                        out[i], out[i + 1] = g, x * y // g
                        changed = True
            prod = 1
            for x in out:
                prod *= x
            if prod != d:
                raise AssertionError("modular elimination lost a divisor")
            return tuple(out)
    a = m.to_lists()
    _eliminate(a, rows, cols)
    return tuple(a[i][i] for i in range(min(rows, cols)))
