import pathlib
from itertools import combinations
from math import gcd

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


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
