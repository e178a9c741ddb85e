"""Arithmetic certification of generalized alpha-spectrum determination.

For rational alpha = a/c in [0, 1), the c-scaled matrix a*D + (c-a)*A is
integral, and its normalized walk matrix has columns 1, d, M d, M^2 d, ...
(using M @ 1 = c*d, so the division by c never happens explicitly). The
verdict logic examines N = det/2^floor(n/2): integral, odd, square-free,
plus full rank mod every odd prime dividing c. With a and c odd (1/3, 3/5,
...), b is even, so mod 2 M = D and M^k d = D^k d = d (as d_i^(k+1) = d_i).
Subtracting column d from M d, ..., M^(n-2) d keeps det W and makes those
n - 2 columns even: rank_2 W <= 2 and 2^(n-2) | det W, so N is an even
integer once n - 2 > floor(n/2), n >= 5, and no such graph is certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from math import gcd
from typing import Iterable, Iterator

from . import numtheory
from .graphs import Graph, degree_vector, is_connected
from .linalg import IntMatrix, charpoly, det_bareiss, rank_mod_p


@dataclass(frozen=True)
class AlphaParam:
    """Reduced rational alpha = num/den with 0 <= alpha < 1.

    c_alpha is the scaling denominator; a and b are the integer weights of
    the degree and adjacency parts of the scaled matrix a*D + b*A.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise ValueError("denominator must be positive")
        if not 0 <= self.num < self.den:
            raise ValueError("alpha must satisfy 0 <= alpha < 1")
        if gcd(self.num, self.den) != 1:
            raise ValueError("alpha must be in lowest terms; use AlphaParam.make")

    @classmethod
    def make(cls, num: int, den: int) -> AlphaParam:
        if den == 0:
            raise ValueError("denominator must be nonzero")
        f = Fraction(num, den)
        return cls(f.numerator, f.denominator)

    @classmethod
    def parse(cls, text: str) -> AlphaParam:
        f = Fraction(text.strip())
        return cls.make(f.numerator, f.denominator)

    @property
    def c_alpha(self) -> int:
        return self.den

    @property
    def a(self) -> int:
        return self.num

    @property
    def b(self) -> int:
        return self.den - self.num

    @cached_property
    def odd_primes(self) -> tuple[int, ...]:
        """Ascending odd primes dividing the denominator, factored on first
        use and kept. When the factorization runs out of effort, this raises
        FactorizationBudgetError and keeps nothing."""
        return tuple(p for p, _ in numtheory.factorize(self.den).factors if p != 2)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


ALPHA_ZERO = AlphaParam(0, 1)
ALPHA_HALF = AlphaParam(1, 2)


def alpha_matrix(g: Graph, alpha: AlphaParam) -> IntMatrix:
    """Integral matrix a*D + b*A, the c_alpha-scaled alpha blend of degrees
    and adjacencies."""
    a, b = alpha.a, alpha.b
    rows = [[b * x for x in row] for row in g.adjacency_rows()]
    for i, d in enumerate(degree_vector(g)):
        rows[i][i] = a * d
    return IntMatrix(rows)


def _power_columns(g: Graph, alpha: AlphaParam) -> Iterator[list[int]]:
    """The vectors d, M d, M^2 d, ... without end, for the scaled matrix M
    and the degree vector d, each entry one row sum over the neighbors."""
    rows = g.adjacency_rows()
    v = [sum(row) for row in rows]
    diag = [alpha.a * d for d in v]
    b = alpha.b
    while True:
        yield v
        v = [x * y + b * sum(compress(v, row)) for x, y, row in zip(diag, v, rows)]


def walk_matrix(g: Graph, alpha: AlphaParam) -> IntMatrix:
    """Normalized walk matrix: columns 1, M1/c, ..., M^(n-1)1/c for the
    scaled matrix M. Integral for every graph since M1 = c*d."""
    return IntMatrix(list(zip([1] * g.n, *islice(_power_columns(g, alpha), g.n - 1))))


# an integer's code: a header byte, 0x80 + size for x >= 0, where size is
# the byte length of |x| (0 for x = 0), then |x| big-endian in size bytes;
# a size of 127 or more takes the escape header 0xFF and then the size in 8
# bytes. A negative x is coded as |x| with every byte complemented, which
# makes its header 0x7F - size (0x00 when escaped) and its magnitude
# 2^(8 size) - 1 + x. Byte order is then integer order, and no code is a
# prefix of another, so concatenated codes compare as the integer tuples do.
_ESCAPE_SIZE = 127
_NOT = bytes(range(255, -1, -1))


def _pack(coefficients: Iterable[int]) -> bytearray:
    """The codes of the integers, one after another."""
    out = bytearray()
    for x in coefficients:
        size = (x.bit_length() + 7) // 8
        if size < _ESCAPE_SIZE:  # header and magnitude as one number
            code = ((0x80 + size << 8 * size) + x if x >= 0
                    else (0x80 - size << 8 * size) - 1 + x)
            out += code.to_bytes(size + 1, "big")
        else:
            code = b"\xff" + size.to_bytes(8, "big") + abs(x).to_bytes(size, "big")
            out += code if x >= 0 else code.translate(_NOT)
    return out


def _escaped_size(data: bytes, i: int) -> int:
    """The size written after the escape header at data[i]."""
    size = data[i + 1:i + 9]
    return int.from_bytes(size if data[i] else size.translate(_NOT), "big")


def _stops(data: bytes) -> Iterator[int]:
    """Where each code in data ends, read from the headers alone."""
    i, end = 0, len(data)
    while i < end:
        head = data[i]
        if 0 < head < 0xFF:
            i += 1 + (head - 0x80 if head > 0x7F else 0x7F - head)
        else:
            i += 9 + _escaped_size(data, i)
        yield i


def _unpack(data: bytes) -> list[int]:
    """The integers whose codes _pack wrote into data."""
    out = []
    append, from_bytes = out.append, int.from_bytes  # local: once per printed key
    i, end = 0, len(data)
    while i < end:
        head = data[i]
        if 0 < head < 0xFF:
            start = i + 1
            i = start + (head - 0x80 if head > 0x7F else 0x7F - head)
        else:
            start = i + 9
            i = start + _escaped_size(data, i)
        x = from_bytes(data[start:i], "big")
        append(x if head > 0x7F else x + 1 - (1 << 8 * (i - start)))
    return out


def _poly_codes(key: bytes) -> bytes:
    """The codes of key's graph polynomial, found without decoding: two keys
    of one order share them exactly when they share that polynomial."""
    stops = list(_stops(key))
    return key[:stops[len(stops) // 2 - 1]]


def key_polynomials(key: bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (poly, poly_complement) of a spectrum key, ascending coefficients."""
    coefficients = _unpack(key)
    half = len(coefficients) // 2
    return tuple(coefficients[:half]), tuple(coefficients[half:])


def _key_json(key: bytes) -> dict[str, list[str]]:
    """The key's two polynomials, coefficients as decimal strings, from one decoding."""
    poly, poly_complement = key_polynomials(key)
    return {"poly": list(map(str, poly)), "poly_complement": list(map(str, poly_complement))}


def spectrum_key(g: Graph, alpha: AlphaParam) -> bytes:
    """Characteristic polynomials poly and poly_complement of the scaled
    matrix for the graph and for its complement, as one byte string: the
    codes (see _pack) of their ascending coefficients, one after the other.
    Equal keys mean equal generalized alpha-spectra; keys of one order are
    equal, and sort, exactly as their (poly, poly_complement) tuples do.
    key_polynomials decodes a key.

    poly is computed directly. The complement's scaled matrix is
    s*I + b*J - M with s = a(n-1) - b, so poly_complement is (-1)^n q(s - x),
    where, by the matrix determinant lemma,
    q(y) = det(yI - M + bJ) = p(y) + b 1^T adj(yI - M) 1 for p = charpoly(M).
    Cayley-Hamilton gives adj(yI - M) = sum_{i=1..n} p_i sum_{k<i}
    y^(i-1-k) M^k, so the second term needs only the moments
    mu_k = 1^T M^k 1: mu_0 = n, and, since M1 = c*d, mu_k = c * 1^T M^(k-1) d,
    c times the sum of column k of the walk matrix. All of it is integer
    arithmetic.
    """
    n = g.n
    c = alpha.c_alpha
    p = charpoly(alpha_matrix(g, alpha))
    mu = [n, *(c * sum(v) for v in islice(_power_columns(g, alpha), n - 1))]
    return bytes(_pack(p + _complement_charpoly(p, mu, alpha)))


def _complement_charpoly(p: tuple[int, ...], mu: list[int],
                         alpha: AlphaParam) -> tuple[int, ...]:
    """(-1)^n q(s - x) from p and the moments; see spectrum_key."""
    n = len(p) - 1
    b = alpha.b
    q = list(p)
    for i in range(1, n + 1):
        bp = b * p[i]
        for k in range(i):
            q[i - 1 - k] += bp * mu[k]
    s = alpha.a * (n - 1) - b
    for i in range(n):  # Taylor shift: q(y) becomes q(y + s)
        for j in range(n - 1, i - 1, -1):
            q[j] += s * q[j + 1]
    return tuple(c if (n - t) % 2 == 0 else -c for t, c in enumerate(q))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    CERTIFIED_DGAS = "CERTIFIED_DGAS"
    FAILS_ARITHMETIC = "FAILS_ARITHMETIC"
    EXCLUDED_CASE = "EXCLUDED_CASE"
    SINGULAR_WALK_MATRIX = "SINGULAR_WALK_MATRIX"
    SMALL_ORDER = "SMALL_ORDER"
    UNDECIDED_FACTORIZATION = "UNDECIDED_FACTORIZATION"


@dataclass(frozen=True)
class CriterionReport:
    """Everything the verdict was decided from, witnesses included."""

    n: int
    alpha: AlphaParam
    det_walk: int
    reduced: Fraction  # det_walk / 2^floor(n/2)
    reduced_integral: bool
    is_odd: bool
    is_square_free: bool | None  # None: not evaluated (singular/non-integral/budget)
    square_witness: int | None  # smallest prime appearing squared
    factorization: tuple[tuple[int, int], ...] | None  # of |reduced|
    factorization_complete: bool
    prime_ranks: tuple[tuple[int, int], ...]  # (p, rank mod p) for odd p | c_alpha
    connected: bool
    walk: IntMatrix = field(repr=False, compare=False)  # normalized W

    @property
    def arithmetic_ok(self) -> bool:
        """The full arithmetic criterion, independent of order or parity
        gating: reduced determinant integral, odd, square-free, and full
        rank mod every odd prime dividing c_alpha."""
        return (self.reduced_integral and self.is_odd
                and self.is_square_free is True
                and all(r == self.n for _, r in self.prime_ranks))

    @property
    def verdict(self) -> Verdict:
        """Read off the facts, first match wins: small order, singular walk
        matrix, an unfinished factorization (of an odd reduced determinant,
        the only one factored), the arithmetic criterion failing, the
        even-order/odd-c exclusion, and else certified."""
        c = self.alpha.c_alpha
        if self.n < 5:
            return Verdict.SMALL_ORDER
        if self.det_walk == 0:
            return Verdict.SINGULAR_WALK_MATRIX
        if not self.factorization_complete:
            return Verdict.UNDECIDED_FACTORIZATION
        if not self.arithmetic_ok:
            return Verdict.FAILS_ARITHMETIC
        if self.n % 2 == 0 and c % 2 == 1 and c >= 3:
            return Verdict.EXCLUDED_CASE
        return Verdict.CERTIFIED_DGAS


def criterion_check(g: Graph, alpha: AlphaParam, *,
                    factor_effort: int = numtheory.DEFAULT_FACTOR_EFFORT
                    ) -> CriterionReport:
    """The facts that decide determination-by-spectrum for one graph at one
    alpha; the report's verdict is read off them (CriterionReport.verdict).
    Only an odd reduced determinant is factored, and a factorization that
    runs out of effort leaves factorization_complete False."""
    w = walk_matrix(g, alpha)
    n = g.n
    det = det_bareiss(w)
    reduced = Fraction(det, 2 ** (n // 2))
    integral = reduced.denominator == 1
    odd = integral and int(reduced) % 2 != 0
    square_free: bool | None = None
    witness: int | None = None
    factors: tuple[tuple[int, int], ...] | None = None
    complete = True
    if det != 0 and odd:
        try:
            fact = numtheory.factorize(abs(int(reduced)), effort=factor_effort)
            factors = fact.factors
            witness = fact.square_witness
            square_free = witness is None
        except numtheory.FactorizationBudgetError:
            complete = False
    ranks = tuple((p, n if det % p else rank_mod_p(w, p))  # rank < n only if p | det
                  for p in alpha.odd_primes)
    return CriterionReport(
        n=n, alpha=alpha, det_walk=det, reduced=reduced,
        reduced_integral=integral, is_odd=odd, is_square_free=square_free,
        square_witness=witness, factorization=factors,
        factorization_complete=complete, prime_ranks=ranks,
        connected=is_connected(g), walk=w)


def report_to_json(report: CriterionReport) -> dict:
    """Flat JSON-ready dict; big integers as decimal strings."""
    return {
        "schema": 1,
        "n": report.n,
        "alpha": str(report.alpha),
        "c_alpha": report.alpha.c_alpha,
        "verdict": report.verdict.value,
        "det_walk": str(report.det_walk),
        "reduced": str(report.reduced),  # an integral Fraction prints bare
        "reduced_integral": report.reduced_integral,
        "is_odd": report.is_odd,
        "is_square_free": report.is_square_free,
        "square_witness": (None if report.square_witness is None
                           else str(report.square_witness)),
        "factorization": (None if report.factorization is None else
                          [[str(p), e] for p, e in report.factorization]),
        "factorization_complete": report.factorization_complete,
        "prime_ranks": [[str(p), r] for p, r in report.prime_ranks],
        "connected": report.connected,
    }
