"""Exact linear algebra kernels checked against independent small oracles."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from conftest import (det_cofactor, modular_smith_divisors, plain_smith_divisors,
                      reference_rank_mod_p, reference_solve_fraction_free,
                      relabel, smith_reference)
from walkspec.criterion import AlphaParam, criterion_check, walk_matrix
from walkspec.graphs import Graph
from walkspec.linalg import (
    IntMatrix,
    SingularMatrixError,
    charpoly,
    det_bareiss,
    rank_mod_p,
    smith_divisors,
    solve_fraction_free,
)


def _rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_int_matrix_layout():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1, 2] == 6
    assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert m.transpose().transpose() == m
    assert not m.is_square


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a.matvec([1, 2, 3])
    # entries are never truncated or coerced (int() would turn 3/2 into 1)
    for bad in (Fraction(3, 2), 0.9, 2.5, True, "7", None):
        with pytest.raises(TypeError):
            IntMatrix([[1, 0], [0, bad]])
    with pytest.raises(TypeError):
        det_bareiss(IntMatrix([[2.5, 0], [0, 2.5]]))
    for empty in ([], ()):
        m = IntMatrix(empty)
        assert (m.rows, m.cols, m.to_lists()) == (0, 0, [])
    assert IntMatrix([]).transpose() == IntMatrix([])
    # a 0 x k matrix has no representation, so k x 0 has no transpose
    for k in (1, 3):
        with pytest.raises(ValueError):
            IntMatrix([[]] * k).transpose()
    m = IntMatrix([[1, 2], [3, 4]]) @ IntMatrix([[], []])
    assert (m.rows, m.cols) == (2, 0)


def test_int_matrix_arithmetic():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    assert a.scaled(3).to_lists() == [[3, 6], [9, 12]]
    assert a.matvec([1, -1]) == (-1, -1)
    rng = random.Random(101)
    for _ in range(30):
        x = _rand_matrix(rng, 3, 2)
        y = _rand_matrix(rng, 2, 4)
        assert (x @ y).transpose() == y.transpose() @ x.transpose()


def test_int_matrix_equality_and_hash():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a == IntMatrix([[1, 2], [3, 4]])
    assert a != IntMatrix([[1, 2], [3, 5]])
    assert a != [[1, 2], [3, 4]]
    assert hash(a) == hash(IntMatrix([[1, 2], [3, 4]]))
    assert len({a, IntMatrix([[1, 2], [3, 4]])}) == 1


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------


def test_det_known_values():
    assert det_bareiss(IntMatrix([[5]])) == 5
    assert det_bareiss(IntMatrix.identity(4)) == 1
    assert det_bareiss(IntMatrix([[1, 2], [3, 4]])) == -2
    # triangular: product of the diagonal
    assert det_bareiss(IntMatrix([[2, 7, 1], [0, 3, 5], [0, 0, 4]])) == 24
    # repeated row
    assert det_bareiss(IntMatrix([[1, 2], [1, 2]])) == 0
    # odd permutation
    assert det_bareiss(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])) == -1
    with pytest.raises(ValueError):
        det_bareiss(IntMatrix([[1, 2]]))


def test_det_matches_cofactor_expansion():
    """Bareiss agrees with textbook Laplace expansion on small matrices."""
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n, n)
        assert det_bareiss(m) == det_cofactor(m.to_lists())


def test_det_is_multiplicative():
    rng = random.Random(203)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, n)
        b = _rand_matrix(rng, n, n)
        assert det_bareiss(a @ b) == det_bareiss(a) * det_bareiss(b)
        assert det_bareiss(a.transpose()) == det_bareiss(a)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def test_charpoly_known_values():
    # x^2 - 1 for the order-2 swap, x^3 - 2x for the path on 3 vertices
    assert charpoly(IntMatrix([[0, 1], [1, 0]])) == (-1, 0, 1)
    assert charpoly(IntMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])) == (0, -2, 0, 1)
    assert charpoly(IntMatrix([[3]])) == (-3, 1)
    # the kernel takes symmetric matrices only
    for m in ([[1, 2]], [[0, 1], [0, 0]], [[1, 2, 3], [2, 0, 1], [3, 4, 5]]):
        with pytest.raises(ValueError):
            charpoly(IntMatrix(m))


def test_charpoly_matches_determinant_at_sample_points():
    """charpoly(m) evaluated at x equals det(xI - m) computed independently,
    for symmetric m."""
    rng = random.Random(204)
    for _ in range(80):
        n = rng.randint(1, 5)
        upper = _rand_matrix(rng, n, n)
        m = IntMatrix([[upper[min(i, j), max(i, j)] for j in range(n)]
                       for i in range(n)])
        coeffs = charpoly(m)
        assert len(coeffs) == n + 1
        assert coeffs[n] == 1
        assert coeffs[n - 1] == -sum(m[i, i] for i in range(n))
        assert coeffs[0] == (-1) ** n * det_bareiss(m)
        for x in (-3, -1, 0, 1, 2, 5):
            shifted = IntMatrix([[(x if i == j else 0) - m[i, j]
                                  for j in range(n)] for i in range(n)])
            value = sum(c * x ** k for k, c in enumerate(coeffs))
            assert value == det_bareiss(shifted)


# ---------------------------------------------------------------------------
# rank over a prime field
# ---------------------------------------------------------------------------


def _rank_by_kernel_count(m, p):
    # kernel of an F_p map has size p^(cols - rank); count it exhaustively
    count = 0
    for vec in iproduct(range(p), repeat=m.cols):
        if all(sum(m[i, j] * vec[j] for j in range(m.cols)) % p == 0
               for i in range(m.rows)):
            count += 1
    k = 0
    while count > 1:
        assert count % p == 0
        count //= p
        k += 1
    return m.cols - k


def test_rank_mod_p_known_values():
    assert rank_mod_p(IntMatrix.identity(3), 2) == 3
    assert rank_mod_p(IntMatrix([[2, 0], [0, 2]]), 2) == 0
    assert rank_mod_p(IntMatrix([[1, 1], [1, 1]]), 3) == 1
    assert rank_mod_p(IntMatrix([[1, 2], [3, 4]]), 2) == 1
    assert rank_mod_p(IntMatrix([[1, 2], [3, 4]]), 3) == 2
    assert rank_mod_p(IntMatrix([[6, 10, 15]]), 5) == 1
    for bad in (1, 4, 9):
        with pytest.raises(ValueError):
            rank_mod_p(IntMatrix.identity(2), bad)
    # no rows, and rows without columns
    assert rank_mod_p(IntMatrix([]), 3) == 0
    assert rank_mod_p(IntMatrix([[], []]), 3) == 0


def test_rank_mod_p_matches_exhaustive_kernel():
    rng = random.Random(206)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        m = _rand_matrix(rng, rows, cols, -7, 7)
        assert rank_mod_p(m, p) == _rank_by_kernel_count(m, p)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_known_values():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert smith_reference(m) == (2, 6, 12)
    assert smith_divisors(m) == (2, 6, 12)
    assert smith_divisors(IntMatrix([[0]])) == (0,)
    assert smith_divisors(IntMatrix([[6]])) == (6,)
    assert smith_divisors(IntMatrix([[0, 0, 0], [0, 0, 0]])) == (0, 0)
    assert smith_divisors(IntMatrix.identity(4)) == (1, 1, 1, 1)
    assert smith_divisors(IntMatrix([])) == ()
    assert smith_divisors(IntMatrix([[], []])) == ()
    assert smith_divisors(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert smith_divisors(IntMatrix([[6, 0], [0, 4]])) == (2, 12)


def _check_chain(divisors):
    for x, y in zip(divisors, divisors[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    assert all(x >= 0 for x in divisors)


def _smith_case(rng, kind):
    n = rng.randint(1, 5)
    if kind == "non-square":
        return _rand_matrix(rng, n, rng.choice([c for c in range(1, 6) if c != n]))
    while True:
        data = _rand_matrix(rng, n, n).to_lists()
        if kind == "zero-row":
            data[rng.randrange(n)] = [0] * n
        elif kind == "singular":
            # the last row is a combination of earlier rows (zero when n = 1)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            a, b = data[0], data[rng.randrange(max(n - 1, 1))]
            data[-1] = [p * x + q * y for x, y in zip(a, b)] if n > 1 else [0]
        m = IntMatrix(data)
        if kind != "nonsingular" or det_bareiss(m):
            return m


def test_smith_divisors_match_determinantal_divisors():
    """Differential test against the determinantal-divisor reference over
    square nonsingular, square singular, non-square and zero-row matrices."""
    rng = random.Random(207)
    for trial in range(240):
        kind = ("nonsingular", "singular", "non-square", "zero-row")[trial % 4]
        m = _smith_case(rng, kind)
        divisors = smith_divisors(m)
        assert len(divisors) == min(m.rows, m.cols)
        _check_chain(divisors)
        assert divisors == smith_reference(m), (kind, m)
        if kind in ("singular", "zero-row"):
            assert divisors[-1] == 0


def test_smith_divisors_modular_path():
    """The bounded-entry square path agrees with the determinantal divisors."""
    rng = random.Random(208)
    done = 0
    while done < 80:
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n, n)
        d = det_bareiss(m)
        if d == 0:
            continue
        done += 1
        divisors = smith_divisors(m)
        assert divisors == smith_reference(m)
        prod = 1
        for x in divisors:
            prod *= x
        assert prod == abs(d)
    # one larger instance so the modulus actually exceeds the entries
    m = _rand_matrix(random.Random(209), 6, 6, -40, 40)
    assert det_bareiss(m) != 0
    assert smith_divisors(m) == smith_reference(m)


def _twin_walk_matrix(rng, n, alpha):
    # a random graph on n - 1 vertices plus a false twin of vertex 0 (same
    # neighbors, not adjacent to it): two equal rows make W singular
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
             if rng.random() < 0.5]
    edges += [(j, n - 1) for i, j in edges if i == 0]
    return walk_matrix(Graph(n, edges), alpha)


@pytest.mark.parametrize("alpha", ["0", "1/2", "2/3"])
def test_smith_divisors_match_plain_elimination_on_singular_walks(alpha):
    """The bounded-entry path agrees with plain integer elimination on
    singular walk matrices, where the modulus is a proper minor."""
    rng = random.Random(212)
    alpha = AlphaParam.parse(alpha)
    for n in range(8, 25):
        w = _twin_walk_matrix(rng, n, alpha)
        assert det_bareiss(w) == 0
        divisors = smith_divisors(w)
        assert divisors[-1] == 0
        assert divisors == plain_smith_divisors(w), (n, w)


def _low_rank(rng, rows, cols, rank, digits):
    big = 10 ** digits
    left = _rand_matrix(rng, rows, rank, -big, big)
    right = _rand_matrix(rng, rank, cols, -3, 3)
    return left @ right


def test_smith_divisors_match_plain_elimination_on_big_entries():
    """Rank-deficient and non-square matrices up to 12 x 20 with 30-digit
    entries, against plain integer elimination."""
    rng = random.Random(213)
    for trial in range(24):
        rows, cols = rng.randint(1, 12), rng.randint(1, 20)
        if trial % 2:
            m = _rand_matrix(rng, rows, cols, -10 ** 30, 10 ** 30)
        else:
            m = _low_rank(rng, rows, cols, rng.randint(1, min(rows, cols)), 30)
        divisors = smith_divisors(m)
        _check_chain(divisors)
        assert divisors == plain_smith_divisors(m), m


def test_smith_divisors_match_modular_reference_on_walks():
    """The row-only diagonal agrees with the row-and-column modular
    elimination it replaced, on seeded walk matrices of orders 8..32."""
    rng = random.Random(214)
    nonsingular = 0
    for n in range(8, 33, 4):
        for alpha in ("0", "1/2", "2/3", "3/4"):
            for _ in range(2):
                g = Graph(n, [(u, v) for v in range(n) for u in range(v)
                              if rng.random() < 0.5])
                w = walk_matrix(g, AlphaParam.parse(alpha))
                divisors = smith_divisors(w)
                assert divisors == modular_smith_divisors(w), (n, alpha, g.edges)
                nonsingular += divisors[-1] != 0
    # both singular and nonsingular walk matrices were compared
    assert 0 < nonsingular < 56


def test_smith_divisors_match_modular_reference_on_shapes():
    """Random shapes from 1 x 1 to 7 x 7, rows and columns included, at full
    and deficient rank, against the replaced modular elimination."""
    rng = random.Random(215)
    shapes = [(1, k) for k in range(1, 8)] + [(k, 1) for k in range(1, 8)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(400)]
    for trial, (rows, cols) in enumerate(shapes):
        if trial % 3 == 0:
            m = _low_rank(rng, rows, cols, rng.randint(1, min(rows, cols)), 2)
        elif trial % 3 == 1:
            # shared small factors make the pivots' gcds and chain nontrivial
            m = IntMatrix([[rng.choice((0, 0, 2, 4, 6, 8, 12, -18))
                            for _ in range(cols)] for _ in range(rows)])
        else:
            m = _rand_matrix(rng, rows, cols, -10 ** 6, 10 ** 6)
        divisors = smith_divisors(m)
        _check_chain(divisors)
        assert divisors == modular_smith_divisors(m), m


def test_det_rejects_non_square():
    for rows, cols in ((1, 2), (2, 1), (3, 5), (12, 20)):
        m = IntMatrix([[1] * cols for _ in range(rows)])
        with pytest.raises(ValueError):
            det_bareiss(m)


# ---------------------------------------------------------------------------
# prime-square congruence
# ---------------------------------------------------------------------------


def _solvable_exhaustive(m, p):
    # search every x in (Z/p^2)^n that is nonzero mod p
    n = m.rows
    mod = p * p
    for vec in iproduct(range(mod), repeat=n):
        if all(x % p == 0 for x in vec):
            continue
        if all(sum(m[i, j] * vec[j] for j in range(n)) % mod == 0
               for i in range(n)):
            return True
    return False


def _congruence_solvable(m, p):
    # m x = 0 mod p^2 has a solution x not vanishing mod p exactly when p^2
    # divides the last Smith divisor (zero included)
    return smith_divisors(m)[-1] % (p * p) == 0


def test_congruence_solvable_known():
    assert _congruence_solvable(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 4]]), 2)
    assert _congruence_solvable(IntMatrix([[9, 0], [0, 1]]), 3)
    assert _congruence_solvable(IntMatrix([[0, 0], [0, 0]]), 2)
    assert not _congruence_solvable(IntMatrix.identity(3), 2)
    assert not _congruence_solvable(IntMatrix.identity(2).scaled(2), 2)


def test_congruence_solvable_matches_exhaustive_search():
    rng = random.Random(210)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3])
        m = _rand_matrix(rng, n, n, -6, 6)
        if rng.random() < 0.4:
            m = m.scaled(p)  # push divisors toward multiples of p
        assert _congruence_solvable(m, p) == _solvable_exhaustive(m, p)


# ---------------------------------------------------------------------------
# fraction-free solve
# ---------------------------------------------------------------------------


def test_solve_fraction_free_known():
    a = IntMatrix([[1, 2], [3, 4]])
    det, x = solve_fraction_free(a, IntMatrix.identity(2))
    assert det == -2
    assert x == IntMatrix([[4, -2], [-3, 1]])  # det * inverse, the adjugate
    det, x = solve_fraction_free(a, IntMatrix([[5], [6]]))
    assert (det, x) == (-2, IntMatrix([[8], [-9]]))
    # a zero leading pivot takes a row swap, which flips the sign back
    det, x = solve_fraction_free(IntMatrix([[0, 1], [1, 0]]), IntMatrix([[2], [3]]))
    assert (det, x) == (-1, IntMatrix([[-3], [-2]]))
    with pytest.raises(SingularMatrixError):
        solve_fraction_free(IntMatrix([[1, 2], [2, 4]]), IntMatrix.identity(2))
    with pytest.raises(ValueError):
        solve_fraction_free(IntMatrix([[1, 2]]), IntMatrix([[1]]))
    with pytest.raises(ValueError):
        solve_fraction_free(a, IntMatrix([[1, 2, 3]]))
    assert issubclass(SingularMatrixError, ArithmeticError)


def test_solve_fraction_free_edge_shapes():
    # the empty system: det of the 0 x 0 matrix is 1
    assert solve_fraction_free(IntMatrix([]), IntMatrix([])) == (1, IntMatrix([]))
    # a right side without columns gives n x 0
    det, x = solve_fraction_free(IntMatrix([[1, 2], [3, 4]]), IntMatrix([[], []]))
    assert (det, x, x.rows, x.cols) == (-2, IntMatrix([[], []]), 2, 0)
    # [a | b] has full row rank, so its echelon finds a pivot in every row,
    # but row 1's lies in b's columns
    with pytest.raises(SingularMatrixError):
        solve_fraction_free(IntMatrix([[1, 2], [2, 4]]), IntMatrix([[1], [0]]))
    with pytest.raises(SingularMatrixError):
        solve_fraction_free(IntMatrix([[0, 0], [0, 0]]), IntMatrix.identity(2))


def test_solve_fraction_free_random():
    rng = random.Random(211)
    done = 0
    while done < 120:
        n = rng.randint(1, 8)
        a = _rand_matrix(rng, n, n, -4, 4)
        b = _rand_matrix(rng, n, rng.randint(1, n + 1))
        want = det_bareiss(a)
        if want == 0:
            with pytest.raises(SingularMatrixError):
                solve_fraction_free(a, b)
            continue
        done += 1
        det, x = solve_fraction_free(a, b)
        assert det == want
        assert a @ x == b.scaled(det)


# ---------------------------------------------------------------------------
# solve and rank against the Gauss-Jordan loops they replaced
# ---------------------------------------------------------------------------

DIFF_ALPHAS = ("0", "1/2", "2/3", "3/4", "10/11")
DIFF_PRIMES = (2, 3, 5, 11)


def _random_graph(rng, n):
    return Graph(n, [(u, v) for v in range(n) for u in range(v)
                     if rng.random() < 0.5])


def _walk_pool():
    """Seeded walk matrices of orders 8..24 at every alpha above, plus
    singular twin-vertex walk matrices of the same orders."""
    rng = random.Random(216)
    pool = []
    for n in range(8, 25):
        for alpha in map(AlphaParam.parse, DIFF_ALPHAS):
            pool.append((_random_graph(rng, n), alpha))
    twins = [(n, AlphaParam.parse(DIFF_ALPHAS[n % 5])) for n in range(8, 25)]
    return pool, [_twin_walk_matrix(rng, n, alpha) for n, alpha in twins]


def test_solve_and_rank_match_gauss_jordan_on_walks():
    pool, twins = _walk_pool()
    rng = random.Random(217)
    divided = singular = 0
    for w in [walk_matrix(g, alpha) for g, alpha in pool] + twins:
        det = det_bareiss(w)
        for p in DIFF_PRIMES:
            assert rank_mod_p(w, p) == reference_rank_mod_p(w, p), (w, p)
            divided += det % p == 0
        b = _rand_matrix(rng, w.rows, rng.randint(1, 3), -10 ** 6, 10 ** 6)
        if det == 0:
            singular += 1
            for solve in (solve_fraction_free, reference_solve_fraction_free):
                with pytest.raises(SingularMatrixError):
                    solve(w, b)
            continue
        assert solve_fraction_free(w, b) == reference_solve_fraction_free(w, b)
    # singular matrices, and primes dividing a nonzero or zero det, all came up
    assert singular >= len(twins) and divided > 4 * singular


def test_criterion_prime_ranks_match_gauss_jordan():
    """criterion_check reads rank n off det W when p does not divide it."""
    pool, _ = _walk_pool()
    divided = 0
    for g, alpha in pool:
        if alpha.c_alpha == 1:
            continue
        report = criterion_check(g, alpha, factor_effort=0)
        assert report.prime_ranks == tuple(
            (p, reference_rank_mod_p(report.walk, p))
            for p in (3, 11) if alpha.c_alpha % p == 0), (g.edges, alpha)
        divided += any(report.det_walk % p == 0 for p, _ in report.prime_ranks)
    assert divided > 0


def test_certificate_solves_match_gauss_jordan():
    """W(g)^T U = W(h)^T for seeded order-8 pairs, and for relabeled pairs at
    orders 12..24, where det W(g) times a permutation matrix is the answer."""
    rng = random.Random(218)
    alpha = AlphaParam.parse("1/2")
    done = 0
    while done < 12:
        wg = walk_matrix(_random_graph(rng, 8), alpha).transpose()
        wh = walk_matrix(_random_graph(rng, 8), alpha).transpose()
        if det_bareiss(wg) == 0:
            continue
        done += 1
        assert solve_fraction_free(wg, wh) == reference_solve_fraction_free(wg, wh)
    for n in range(12, 25, 3):
        g = _random_graph(rng, n)
        wg = walk_matrix(g, alpha)
        det = det_bareiss(wg)
        if det == 0:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        wh = walk_matrix(relabel(g, perm), alpha)
        got = solve_fraction_free(wg.transpose(), wh.transpose())
        assert got == reference_solve_fraction_free(wg.transpose(), wh.transpose())
        assert got == (det, IntMatrix([[det * (perm[u] == v) for v in range(n)]
                                       for u in range(n)]))
        done += 1
    assert done >= 15
