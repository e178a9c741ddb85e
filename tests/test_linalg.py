"""Exact linear algebra kernels checked against independent small oracles."""

import random
from itertools import product as iproduct

import pytest

from conftest import det_cofactor, smith_reference
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
    assert m.row(0) == (1, 2, 3)
    assert m.column(2) == (3, 6)
    assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert m.transpose().transpose() == m
    assert not m.is_square
    assert IntMatrix.from_columns([[1, 4], [2, 5], [3, 6]]) == m
    assert IntMatrix.diagonal([7, 8]).to_lists() == [[7, 0], [0, 8]]


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a.matvec([1, 2, 3])
    with pytest.raises(ValueError):
        b.trace()


def test_int_matrix_arithmetic():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    assert a.scaled(3).to_lists() == [[3, 6], [9, 12]]
    assert a.matvec([1, -1]) == (-1, -1)
    assert a.trace() == 5
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
    with pytest.raises(ValueError):
        charpoly(IntMatrix([[1, 2]]))


def test_charpoly_matches_determinant_at_sample_points():
    """charpoly(m) evaluated at x equals det(xI - m) computed independently."""
    rng = random.Random(204)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n, n)
        coeffs = charpoly(m)
        assert len(coeffs) == n + 1
        assert coeffs[n] == 1
        assert coeffs[n - 1] == -m.trace()
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
    assert smith_divisors(IntMatrix.diagonal([2, 3])) == (1, 6)
    assert smith_divisors(IntMatrix.diagonal([6, 4])) == (2, 12)


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
    assert _congruence_solvable(IntMatrix.diagonal([1, 1, 4]), 2)
    assert _congruence_solvable(IntMatrix.diagonal([9, 1]), 3)
    assert _congruence_solvable(IntMatrix.diagonal([0, 0]), 2)
    assert not _congruence_solvable(IntMatrix.identity(3), 2)
    assert not _congruence_solvable(IntMatrix.diagonal([2, 2]), 2)


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
