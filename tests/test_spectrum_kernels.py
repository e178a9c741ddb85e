"""Differential checks of the spectrum-key kernels against slower references.

`linalg.charpoly` runs Berkowitz's division-free recurrence over the
integers, and takes symmetric matrices only. It is checked against the
bigint trace recursion on every small graph, on seeded symmetric matrices
with small and huge entries, on scaled identity and all-R matrices with
coefficients near 2^607, and on block-diagonal matrices. Where that
recursion is too slow, scaling checks it: charpoly(kM) has the
coefficients c_j k^(n-j) of charpoly(M). The derived complement
polynomial is checked against the characteristic polynomial of the
complement's scaled matrix.

The walk matrix, the scaled matrix and the spectrum key's walk moments come
from power columns built straight from each graph's neighbor rows; they are
checked against the IntMatrix product construction they replaced.
"""

import random
from math import comb
from operator import itemgetter

import pytest

from conftest import (HARD_ALPHA, complement, random_graph,
                      reference_alpha_matrix, reference_charpoly,
                      reference_walk_matrix, reference_walk_moments)
from walkspec.criterion import (AlphaParam, _complement_charpoly, _pack,
                                _poly_codes, _unpack, alpha_matrix,
                                key_polynomials, spectrum_key, walk_matrix)
from walkspec.graphs import Graph, enumerate_graphs
from walkspec.linalg import IntMatrix, charpoly

ALPHAS = tuple(AlphaParam.parse(t) for t in ("0", "1/2", "2/3", "3/4", "5/6"))

# c = 100000000003 * 200000000041: (1 + R)^7 passes 2^127 at order 7
BIG_C_ALPHA = AlphaParam.parse("1/20000000004700000000123")


def _random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.random()
    return Graph(n, [(i, j) for j in range(n) for i in range(j)
                     if rng.random() < p])


def _iroot(x: int, k: int) -> int:
    """Largest r >= 0 with r^k <= x."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _mirrored(rows: list[list[int]]) -> IntMatrix:
    """The symmetric matrix with the upper triangle of `rows`."""
    return IntMatrix([[rows[min(i, j)][max(i, j)] for j in range(len(rows))]
                      for i in range(len(rows))])


def _bound_bits(m: IntMatrix) -> int:
    r = max((sum(map(abs, row)) for row in m.to_lists()), default=0)
    return ((1 + r) ** m.rows).bit_length()


@pytest.mark.parametrize("alpha", ALPHAS[:4] + (BIG_C_ALPHA,), ids=str)
def test_charpoly_matches_reference_exhaustive_small_orders(alpha):
    widest = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            m = alpha_matrix(g, alpha)
            assert charpoly(m) == reference_charpoly(m), (g, alpha)
            widest = max(widest, _bound_bits(m))
    if alpha is BIG_C_ALPHA:
        assert widest > 127


def test_charpoly_matches_reference_on_random_matrices():
    rng = random.Random(3031)
    orders = list(range(0, 13)) * 3 + [16, 20, 25, 31, 40]
    for n in orders:
        lo, hi = rng.choice(((-9, 9), (0, 1), (-1000, 1000)))
        m = _mirrored([[rng.randint(lo, hi) for _ in range(n)]
                       for _ in range(n)])
        assert charpoly(m) == reference_charpoly(m), n


def test_charpoly_matches_reference_on_huge_entries():
    rng = random.Random(3034)
    for n in list(range(0, 13)) * 2:
        bound = 10 ** rng.choice((6, 18, 30))
        m = _mirrored([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        assert charpoly(m) == reference_charpoly(m), n


def test_charpoly_matches_reference_on_symmetric_matrices():
    rng = random.Random(3032)
    for n in (1, 2, 5, 8, 13, 21, 40):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        m = IntMatrix(rows)
        assert charpoly(m) == reference_charpoly(m), n


def test_charpoly_at_the_coefficient_bound():
    # R*I has (x - R)^n, coefficients C(n, k) (-R)^k; with R at the n-th
    # root of 2^e - 2, |(-R)^n| passes half of the prime 2^e - 1, so a
    # recurrence modulo that prime, lifted to (-P/2, P/2], would wrap
    for e in (61, 89, 107, 127, 521, 607):
        for n in (1, 2, 3, 5, 8):
            root = _iroot((1 << e) - 2, n)
            for r in (root - 1, root, root + 1):
                for s in (r, -r):
                    want = tuple(comb(n, k) * (-s) ** (n - k)
                                 for k in range(n + 1))
                    m = IntMatrix.identity(n).scaled(s)
                    assert charpoly(m) == want, (e, n, s)
                    assert reference_charpoly(m) == want
                # the all-R matrix: x^(n-1) (x - nR)
                m = IntMatrix([[r] * n for _ in range(n)])
                want = (0,) * (n - 1) + (-n * r, 1)
                assert charpoly(m) == reference_charpoly(m) == want, (e, n, r)
    # for small R the middle coefficients outgrow R^n: C(64, 32) and
    # C(59, 39) 2^39 pass 2^60, while R^n stays below it
    for s, n in ((1, 64), (-1, 64), (2, 59), (-2, 59)):
        want = tuple(comb(n, k) * (-s) ** (n - k) for k in range(n + 1))
        assert charpoly(IntMatrix.identity(n).scaled(s)) == want, (s, n)


def test_charpoly_matches_reference_on_block_diagonal_matrices():
    # beside a diagonal block the rest of its rows and columns is zero, so
    # each leading block that ends where a diagonal block ends has C = 0,
    # and its Toeplitz column is (1, -d, 0, ..., 0)
    rng = random.Random(3035)
    for _ in range(60):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        n = sum(sizes)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        start = 0
        for size in sizes:
            for i in range(start + size, n):
                for j in range(start, start + size):
                    rows[i][j] = rows[j][i] = 0
            start += size
        m = _mirrored(rows)
        assert charpoly(m) == reference_charpoly(m), m
    for n in (3, 6):
        zero = IntMatrix([[0] * n for _ in range(n)])
        assert charpoly(zero) == (0,) * n + (1,)
        upper = IntMatrix([[rng.randint(-9, 9) if j > i else 0
                            for j in range(n)] for i in range(n)])
        assert upper != upper.transpose()
        with pytest.raises(ValueError):
            charpoly(upper)


def test_charpoly_smallest_orders():
    assert charpoly(IntMatrix([])) == reference_charpoly(IntMatrix([])) == (1,)
    for x in (0, 1, -1, 10 ** 40, -(10 ** 40)):
        assert charpoly(IntMatrix([[x]])) == (-x, 1)
    rng = random.Random(3036)
    for _ in range(50):
        a, b, c, d = (rng.randint(-10 ** 20, 10 ** 20) for _ in range(4))
        m = IntMatrix([[a, b], [b, d]])
        assert charpoly(m) == (a * d - b * b, -(a + d), 1)
    # no modulus caps the entries: a 136,279,842-bit entry is exact too
    big = 1 << 136279841
    assert charpoly(IntMatrix([[big]])) == (-big, 1)


def test_charpoly_of_scaled_matrices_with_huge_entries():
    # det(xI - kM) = k^n det((x/k)I - M), so charpoly(kM) has c_j k^(n-j);
    # with k = 10^52 + 1 the trace recursion is too slow to compare with
    rng = random.Random(3038)
    k = 10 ** 52 + 1
    for n, alpha in zip((24, 32, 40), ALPHAS[1:]):
        m = alpha_matrix(random_graph(rng, n), alpha)
        want = tuple(c * k ** (n - j) for j, c in enumerate(charpoly(m)))
        assert charpoly(m.scaled(k)) == want, (n, alpha)


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_derived_complement_poly_exhaustive_small_orders(alpha):
    # and the keys of one order, each held as one byte string, are equal and
    # sort exactly as the (poly, poly_complement) tuples do
    for n in range(1, 8):
        pairs = []
        for g in enumerate_graphs(n):
            key = spectrum_key(g, alpha)
            poly = charpoly(alpha_matrix(g, alpha))
            want = charpoly(alpha_matrix(complement(g), alpha))
            assert key_polynomials(key) == (poly, want), (g, alpha)
            pairs.append((key, (poly, want)))
        assert len({k for k, _ in pairs}) == len({t for _, t in pairs}) == len(set(pairs))
        assert sorted(pairs) == sorted(pairs, key=itemgetter(1)), (n, alpha)


def test_derived_complement_poly_random_pool():
    rng = random.Random(3033)
    for n in range(8, 21):
        for _ in range(4):
            g = _random_graph(rng, n)
            alpha = rng.choice(ALPHAS)
            want = charpoly(alpha_matrix(complement(g), alpha))
            assert key_polynomials(spectrum_key(g, alpha))[1] == want, (g, alpha)


def test_key_codes_order_as_integers_and_tuples():
    """An integer's code decodes to it, codes sort as the integers do, and
    concatenated codes compare and sort as the integer tuples do. Magnitudes
    of 126 bytes take a one-byte header, of 127 bytes and more the escape."""
    rng = random.Random(3039)
    edges = [0, 1, 255, 256]
    for size in (126, 127, 128):
        edges += [1 << 8 * (size - 1), (1 << 8 * size) - 1]
    ints = edges + [-x for x in edges]
    ints += [rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 1200))
             for _ in range(400)]
    for x in ints:
        assert _unpack(_pack([x])) == [x], x
    assert sorted(ints, key=lambda x: bytes(_pack([x]))) == sorted(ints)
    small = [-257, -256, -255, -1, 0, 1, 255, 256, 257]
    tuples = [tuple(rng.choice((rng.choice(small), rng.choice(ints)))
                    for _ in range(rng.randint(0, 4))) for _ in range(300)]
    codes = {t: bytes(_pack(t)) for t in tuples}
    for t in tuples:
        assert _unpack(codes[t]) == list(t), t
        u = rng.choice(tuples)
        assert (codes[t] < codes[u], codes[t] == codes[u]) == (t < u, t == u), (t, u)
    assert sorted(tuples, key=codes.__getitem__) == sorted(tuples)
    for _ in range(100):  # a key's two halves, decoded and split off
        n = rng.randint(1, 5)
        poly, poly_complement = (tuple(rng.choice(ints) for _ in range(n))
                                 for _ in range(2))
        key = bytes(_pack(poly + poly_complement))
        assert key_polynomials(key) == (poly, poly_complement)
        assert _poly_codes(key) == _pack(poly)


@pytest.mark.parametrize("alpha", ALPHAS[:4] + (AlphaParam.parse(HARD_ALPHA),), ids=str)
def test_walk_kernel_matches_reference(alpha):
    rng = random.Random(3037)
    pool = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    pool += [_random_graph(rng, n) for n in range(8, 27)]
    for g in pool:
        assert alpha_matrix(g, alpha) == reference_alpha_matrix(g, alpha), (g, alpha)
        assert walk_matrix(g, alpha) == reference_walk_matrix(g, alpha), (g, alpha)
        # the key's poly is charpoly(alpha_matrix(g)), which the tests above
        # check; the walk moments decide its complement poly
        poly, poly_complement = key_polynomials(spectrum_key(g, alpha))
        mu = reference_walk_moments(g, alpha)
        assert poly_complement == _complement_charpoly(poly, mu, alpha), (g, alpha)
