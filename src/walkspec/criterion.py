"""Arithmetic certification of generalized alpha-spectrum determination.

For rational alpha = a/c in [0, 1), the c-scaled matrix a*D + (c-a)*A is
integral, and its normalized walk matrix has columns 1, d, M d, M^2 d, ...
(using M @ 1 = c*d, so the division by c never happens explicitly). The
verdict logic examines det/2^floor(n/2): integral, odd, square-free, plus
full rank mod every odd prime dividing c.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

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

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


ALPHA_ZERO = AlphaParam(0, 1)
ALPHA_HALF = AlphaParam(1, 2)


def alpha_matrix(g: Graph, alpha: AlphaParam) -> IntMatrix:
    """Integral matrix a*D + b*A, the c_alpha-scaled alpha blend of degrees
    and adjacencies."""
    a, b = alpha.a, alpha.b
    degs = degree_vector(g)
    rows = g.adjacency_rows()
    return IntMatrix([[b * rows[i][j] if i != j else a * degs[i]
                       for j in range(g.n)] for i in range(g.n)])


def _power_columns(m: IntMatrix, v: list[int], kmax: int) -> list[list[int]]:
    """The vectors v, M v, ..., M^kmax v (just v when kmax < 1)."""
    cols = [v]
    for _ in range(kmax):
        v = list(m.matvec(v))
        cols.append(v)
    return cols


def walk_matrix(g: Graph, alpha: AlphaParam) -> IntMatrix:
    """Normalized walk matrix: columns 1, M1/c, ..., M^(n-1)1/c for the
    scaled matrix M. Integral for every graph since M1 = c*d."""
    n = g.n
    cols: list[list[int]] = [[1] * n]
    if n > 1:
        cols += _power_columns(alpha_matrix(g, alpha), list(degree_vector(g)), n - 2)
    return IntMatrix.from_columns(cols)


class AuxWalkMatrices(NamedTuple):
    """Truncated companions of the normalized walk matrix.

    half: the first ceil(n/2) power columns for even n (powers 0..n/2-1),
    powers 1..(n-1)/2 for odd n. even: the even-power columns (0 included
    for even n). doubled: all n columns with the all-ones column doubled.
    """

    half: IntMatrix
    even: IntMatrix
    doubled: IntMatrix


def auxiliary_walk_matrices(g: Graph, alpha: AlphaParam) -> AuxWalkMatrices:
    n = g.n
    if n < 2:
        raise ValueError("auxiliary walk matrices need at least 2 vertices")
    # power_cols[k] = M^k 1 / c  (computed as M^(k-1) d for k >= 1)
    power_cols = [[1] * n] + _power_columns(
        alpha_matrix(g, alpha), list(degree_vector(g)), n - 2)
    if n % 2 == 0:
        half_exps = range(0, n // 2)
        even_exps = range(0, n, 2)
    else:
        half_exps = range(1, (n - 1) // 2 + 1)
        even_exps = range(2, n, 2)
    half = IntMatrix.from_columns([power_cols[e] for e in half_exps])
    even = IntMatrix.from_columns([power_cols[e] for e in even_exps])
    doubled = IntMatrix.from_columns(
        [[2] * n] + [power_cols[e] for e in range(1, n)])
    return AuxWalkMatrices(half, even, doubled)


class SpectrumKey(NamedTuple):
    """Characteristic polynomials (ascending coefficients) of the scaled
    matrix for the graph and for its complement; equal keys mean equal
    generalized alpha-spectra.

    spectrum_key computes poly directly and derives poly_complement from
    poly and the walk moments; see there.
    """

    poly: tuple[int, ...]
    poly_complement: tuple[int, ...]


def spectrum_key(g: Graph, alpha: AlphaParam) -> SpectrumKey:
    """Spectrum key from one characteristic polynomial and n walk moments.

    The complement's scaled matrix is s*I + b*J - M with s = a(n-1) - b, so
    its characteristic polynomial is (-1)^n q(s - x), where, by the matrix
    determinant lemma, q(y) = det(yI - M + bJ) = p(y) + b 1^T adj(yI - M) 1
    for p = charpoly(M). Cayley-Hamilton gives
    adj(yI - M) = sum_{i=1..n} p_i sum_{k<i} y^(i-1-k) M^k, so the second
    term needs only the moments mu_k = 1^T M^k 1. All of it is integer
    arithmetic, and the result equals charpoly(alpha_matrix(complement(g))).
    """
    n = g.n
    m = alpha_matrix(g, alpha)
    p = charpoly(m)
    mu = [sum(v) for v in _power_columns(m, [1] * n, n - 1)]
    return SpectrumKey(p, _complement_charpoly(p, mu, alpha))


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
    verdict: Verdict

    @property
    def arithmetic_ok(self) -> bool:
        """The full arithmetic criterion, independent of order or parity
        gating: reduced determinant integral, odd, square-free, and full
        rank mod every odd prime dividing c_alpha."""
        return (self.reduced_integral and self.is_odd
                and self.is_square_free is True
                and all(r == self.n for _, r in self.prime_ranks))


def criterion_check(g: Graph, alpha: AlphaParam, *,
                    factor_effort: int | None = None) -> CriterionReport:
    """Decide determination-by-spectrum for one graph at one alpha.

    Verdict precedence: small order, then singular walk matrix, then the
    arithmetic tests (with an undecided escape when the factorization
    budget expires), then the even-order/odd-c exclusion, then certified.
    """
    return _report_from_walk(g, alpha, walk_matrix(g, alpha), factor_effort)


def _report_from_walk(g: Graph, alpha: AlphaParam, w: IntMatrix,
                      factor_effort: int | None) -> CriterionReport:
    """criterion_check given the normalized walk matrix w of g."""
    effort = numtheory.DEFAULT_FACTOR_EFFORT if factor_effort is None else factor_effort
    n = g.n
    c = alpha.c_alpha
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
            fact = numtheory.factorize(abs(int(reduced)), effort=effort)
            factors = fact.factors
            square_free, witness = True, None
            for p, e in factors:
                if e >= 2:
                    square_free, witness = False, p
                    break
        except numtheory.FactorizationBudgetError:
            complete = False
    ranks = tuple((p, rank_mod_p(w, p)) for p in numtheory.odd_prime_divisors(c))

    if n < 5:
        verdict = Verdict.SMALL_ORDER
    elif det == 0:
        verdict = Verdict.SINGULAR_WALK_MATRIX
    elif not integral or not odd:
        verdict = Verdict.FAILS_ARITHMETIC
    elif not complete:
        verdict = Verdict.UNDECIDED_FACTORIZATION
    elif not square_free:
        verdict = Verdict.FAILS_ARITHMETIC
    elif any(r < n for _, r in ranks):
        verdict = Verdict.FAILS_ARITHMETIC
    elif n % 2 == 0 and c % 2 == 1 and c >= 3:
        verdict = Verdict.EXCLUDED_CASE
    else:
        verdict = Verdict.CERTIFIED_DGAS

    return CriterionReport(
        n=n, alpha=alpha, det_walk=det, reduced=reduced,
        reduced_integral=integral, is_odd=odd, is_square_free=square_free,
        square_witness=witness, factorization=factors,
        factorization_complete=complete, prime_ranks=ranks,
        connected=is_connected(g), verdict=verdict)


def report_to_json(report: CriterionReport) -> dict:
    """Flat JSON-ready dict; big integers as decimal strings."""
    red = report.reduced
    return {
        "schema": 1,
        "n": report.n,
        "alpha": str(report.alpha),
        "c_alpha": report.alpha.c_alpha,
        "verdict": report.verdict.value,
        "det_walk": str(report.det_walk),
        "reduced": str(red.numerator) if red.denominator == 1 else str(red),
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
