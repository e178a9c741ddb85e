"""Differential checks of the spectrum-key kernels against slower references.

The list-level characteristic polynomial is checked against the matrix-object
trace recursion it replaced, and the derived complement polynomial against
the characteristic polynomial of the complement's scaled matrix.
"""

import random

import pytest

from walkspec.criterion import AlphaParam, alpha_matrix, spectrum_key
from walkspec.graphs import Graph, complement, enumerate_graphs
from walkspec.linalg import IntMatrix, charpoly

ALPHAS = tuple(AlphaParam.parse(t) for t in ("0", "1/2", "2/3", "3/4", "5/6"))


def _charpoly_reference(m: IntMatrix) -> tuple[int, ...]:
    """Trace recursion on IntMatrix objects: work = m @ work + c*I."""
    n = m.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = IntMatrix.identity(n)
    for k in range(1, n + 1):
        work = m @ work
        t = work.trace()
        assert t % k == 0
        c = -(t // k)
        coeffs[n - k] = c
        if k < n:
            work = work + IntMatrix.identity(n).scaled(c)
    return tuple(coeffs)


def _random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.random()
    return Graph(n, [(i, j) for j in range(n) for i in range(j)
                     if rng.random() < p])


def test_charpoly_matches_reference_on_random_matrices():
    rng = random.Random(3031)
    orders = list(range(0, 13)) * 3 + [16, 20, 25, 31, 40]
    for n in orders:
        lo, hi = rng.choice(((-9, 9), (0, 1), (-1000, 1000)))
        m = IntMatrix([[rng.randint(lo, hi) for _ in range(n)]
                       for _ in range(n)])
        assert charpoly(m) == _charpoly_reference(m), n


def test_charpoly_matches_reference_on_symmetric_matrices():
    rng = random.Random(3032)
    for n in (1, 2, 5, 8, 13, 21, 40):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        m = IntMatrix(rows)
        assert charpoly(m) == _charpoly_reference(m), n


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_derived_complement_poly_exhaustive_small_orders(alpha):
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            key = spectrum_key(g, alpha)
            assert key.poly == charpoly(alpha_matrix(g, alpha))
            want = charpoly(alpha_matrix(complement(g), alpha))
            assert key.poly_complement == want, (g, alpha)


def test_derived_complement_poly_random_pool():
    rng = random.Random(3033)
    for n in range(8, 21):
        for _ in range(4):
            g = _random_graph(rng, n)
            alpha = rng.choice(ALPHAS)
            want = charpoly(alpha_matrix(complement(g), alpha))
            assert spectrum_key(g, alpha).poly_complement == want, (g, alpha)
