"""Walk matrices and the arithmetic certification criterion."""

import json
import random
from fractions import Fraction

import pytest

from conftest import read_fixture
from walkspec.criterion import (
    ALPHA_HALF,
    ALPHA_ZERO,
    AlphaParam,
    Verdict,
    alpha_matrix,
    auxiliary_walk_matrices,
    criterion_check,
    report_to_json,
    spectrum_key,
    walk_matrix,
)
from walkspec.graphs import (
    Graph,
    complement,
    degree_vector,
    enumerate_graphs,
    encode_graph6,
    parse_graph6,
    relabel,
)
from walkspec.linalg import IntMatrix, det_bareiss

ALPHAS = [AlphaParam.parse(s) for s in ("0", "1/2", "1/3", "2/3", "3/4", "5/6")]


def _random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# alpha parameters
# ---------------------------------------------------------------------------


def test_alpha_param_make_and_parse():
    a = AlphaParam.make(2, 4)
    assert (a.num, a.den) == (1, 2)
    assert AlphaParam.make(0, 7) == ALPHA_ZERO
    assert AlphaParam.parse("3/4") == AlphaParam(3, 4)
    assert AlphaParam.parse(" 5/6 ") == AlphaParam(5, 6)
    assert AlphaParam.parse("0") == ALPHA_ZERO
    assert AlphaParam.parse("0.75") == AlphaParam(3, 4)
    assert str(AlphaParam(5, 6)) == "5/6"
    assert ALPHA_HALF.c_alpha == 2
    assert (ALPHA_HALF.a, ALPHA_HALF.b) == (1, 1)
    assert (AlphaParam(3, 4).a, AlphaParam(3, 4).b) == (3, 1)
    assert ALPHA_ZERO.c_alpha == 1


def test_alpha_param_validation():
    with pytest.raises(ValueError):
        AlphaParam(2, 4)  # not reduced: the direct constructor refuses
    with pytest.raises(ValueError):
        AlphaParam(1, 1)
    with pytest.raises(ValueError):
        AlphaParam(-1, 2)
    with pytest.raises(ValueError):
        AlphaParam(1, -2)
    with pytest.raises(ValueError):
        AlphaParam.make(1, 1)
    with pytest.raises(ValueError):
        AlphaParam.make(7, 6)
    with pytest.raises(ValueError):
        AlphaParam.make(1, 0)
    with pytest.raises(ValueError):
        AlphaParam.parse("7/6")


# ---------------------------------------------------------------------------
# scaled matrix and walk matrices
# ---------------------------------------------------------------------------


def test_alpha_matrix_hand_values():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert alpha_matrix(p3, ALPHA_HALF).to_lists() == [
        [1, 1, 0], [1, 2, 1], [0, 1, 1]]
    c5 = parse_graph6("DqK")
    adj = IntMatrix(c5.adjacency_rows())
    assert alpha_matrix(c5, ALPHA_ZERO) == adj
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert alpha_matrix(k3, AlphaParam(2, 3)).to_lists() == [
        [4, 1, 1], [1, 4, 1], [1, 1, 4]]


def test_alpha_matrix_structure():
    rng = random.Random(401)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 8))
        alpha = rng.choice(ALPHAS)
        m = alpha_matrix(g, alpha)
        degs = degree_vector(g)
        assert m == m.transpose()
        for i in range(g.n):
            assert m[i, i] == alpha.a * degs[i]
            for j in range(g.n):
                if i != j:
                    assert m[i, j] in (0, alpha.b)


def _walk_oracle_columns(g, alpha):
    # definition-level recomputation: powers of alpha*D + (1-alpha)*A over
    # the rationals, scaled back by c^(k-1)
    af = Fraction(alpha.num, alpha.den)
    n = g.n
    rows = g.adjacency_rows()
    degs = degree_vector(g)
    aa = [[af * degs[i] if i == j else (1 - af) * rows[i][j]
           for j in range(n)] for i in range(n)]
    cols = [[Fraction(1)] * n]
    u = cols[0]
    for k in range(1, n):
        u = [sum(aa[i][j] * u[j] for j in range(n)) for i in range(n)]
        cols.append([x * alpha.c_alpha ** (k - 1) for x in u])
    return cols


def test_walk_matrix_matches_rational_definition():
    """The integer recursion equals the rational power construction."""
    rng = random.Random(402)
    for _ in range(80):
        g = _random_graph(rng, rng.randint(1, 7))
        alpha = rng.choice(ALPHAS)
        w = walk_matrix(g, alpha)
        oracle = _walk_oracle_columns(g, alpha)
        for k in range(g.n):
            column = w.column(k)
            assert all(x.denominator == 1 for x in oracle[k])
            assert tuple(int(x) for x in oracle[k]) == column


def test_raw_walk_matrix_scaling():
    """The unscaled walk matrix, columns M^k 1 built here from the scaled
    matrix, is the normalized one times diag(1, c, ..., c)."""
    rng = random.Random(403)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 7))
        alpha = rng.choice(ALPHAS)
        c = alpha.c_alpha
        w = walk_matrix(g, alpha)
        m = alpha_matrix(g, alpha)
        columns = [(1,) * g.n]
        while len(columns) < g.n:
            columns.append(m.matvec(columns[-1]))
        raw = IntMatrix.from_columns(columns)
        scale = IntMatrix.diagonal([1] + [c] * (g.n - 1))
        assert raw == w @ scale
        assert det_bareiss(raw) == c ** (g.n - 1) * det_bareiss(w)


def test_walk_matrix_hand_values():
    assert walk_matrix(Graph(1, []), ALPHA_ZERO) == IntMatrix([[1]])
    p3 = Graph(3, [(0, 1), (1, 2)])
    w = walk_matrix(p3, ALPHA_ZERO)
    assert w.column(0) == (1, 1, 1)
    assert w.column(1) == (1, 2, 1)
    assert w.column(2) == (2, 2, 2)
    assert det_bareiss(w) == 0
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert det_bareiss(walk_matrix(k3, ALPHA_HALF)) == 0


def test_auxiliary_walk_matrices():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    aux = auxiliary_walk_matrices(p4, ALPHA_ZERO)
    w = walk_matrix(p4, ALPHA_ZERO)
    # even order: half takes powers 0..n/2-1, even takes 0,2,..,n-2
    assert aux.half == IntMatrix.from_columns([w.column(0), w.column(1)])
    assert aux.half.column(1) == (1, 2, 2, 1)
    assert aux.even == IntMatrix.from_columns([w.column(0), w.column(2)])
    assert aux.doubled.column(0) == (2, 2, 2, 2)
    assert aux.doubled.column(3) == w.column(3)
    c5 = parse_graph6("DqK")
    aux5 = auxiliary_walk_matrices(c5, ALPHA_HALF)
    w5 = walk_matrix(c5, ALPHA_HALF)
    # odd order: half takes powers 1..(n-1)/2, even takes 2,4,..,n-1
    assert aux5.half == IntMatrix.from_columns([w5.column(1), w5.column(2)])
    assert aux5.even == IntMatrix.from_columns([w5.column(2), w5.column(4)])
    assert aux5.doubled.column(0) == (2,) * 5
    assert aux5.half.rows == 5 and aux5.half.cols == 2
    with pytest.raises(ValueError):
        auxiliary_walk_matrices(Graph(1, []), ALPHA_ZERO)


# ---------------------------------------------------------------------------
# spectrum keys
# ---------------------------------------------------------------------------


def test_spectrum_key_hand_value():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    key = spectrum_key(k3, ALPHA_ZERO)
    assert key.poly == (-2, -3, 0, 1)
    assert key.poly_complement == (0, 0, 0, 1)


def test_spectrum_key_complement_duality_and_invariance():
    rng = random.Random(405)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 7))
        alpha = rng.choice(ALPHAS)
        key = spectrum_key(g, alpha)
        flipped = spectrum_key(complement(g), alpha)
        assert (flipped.poly, flipped.poly_complement) == (key.poly_complement,
                                                          key.poly)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert spectrum_key(relabel(g, perm), alpha) == key


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_small_order_verdict():
    for g6 in ("@", "A_", "Bw", "C~", "Cr"):
        g = parse_graph6(g6)
        report = criterion_check(g, ALPHA_ZERO)
        assert report.verdict == Verdict.SMALL_ORDER


def test_singular_verdict():
    c5 = parse_graph6("DqK")
    report = criterion_check(c5, ALPHA_ZERO)
    assert report.verdict == Verdict.SINGULAR_WALK_MATRIX
    assert report.det_walk == 0
    assert not report.arithmetic_ok
    # every graph on 5 vertices has a symmetry, so all are singular
    for alpha in (ALPHA_ZERO, AlphaParam(2, 3)):
        for g in enumerate_graphs(5):
            assert criterion_check(g, alpha).verdict == Verdict.SINGULAR_WALK_MATRIX


def test_excluded_case_verdict():
    g = parse_graph6("E@Uw")
    report = criterion_check(g, AlphaParam(2, 3))
    assert report.verdict == Verdict.EXCLUDED_CASE
    assert report.arithmetic_ok
    assert report.prime_ranks == ((3, 6),)
    # the same graph at alpha = 0 is certified: the exclusion is purely the
    # even-order odd-c gate
    assert criterion_check(g, ALPHA_ZERO).verdict == Verdict.CERTIFIED_DGAS


def test_certified_odd_c_verdict():
    g = parse_graph6("F?Ciw")
    report = criterion_check(g, AlphaParam(2, 3))
    assert report.verdict == Verdict.CERTIFIED_DGAS
    assert report.det_walk == -119080
    assert report.prime_ranks == ((3, 7),)
    assert report.arithmetic_ok
    # disconnected witness: the criterion itself is connectivity-agnostic
    assert not report.connected


def test_undecided_factorization_verdict():
    g = parse_graph6(read_fixture("dgas13.g6").strip())
    report = criterion_check(g, AlphaParam(2, 3), factor_effort=0)
    assert report.verdict == Verdict.UNDECIDED_FACTORIZATION
    assert not report.factorization_complete
    assert report.is_square_free is None
    assert report.factorization is None


def test_certified_fixture_verdict():
    g = parse_graph6(read_fixture("dgas13.g6").strip())
    report = criterion_check(g, AlphaParam(2, 3))
    assert report.verdict == Verdict.CERTIFIED_DGAS
    assert report.det_walk == -970196140154594000088496079690560
    assert report.reduced == Fraction(report.det_walk, 2 ** 6)
    assert report.factorization == (
        (5, 1), (97, 1), (1367, 1), (10067, 1), (118189, 1),
        (132430201, 1), (145112609, 1))
    assert report.prime_ranks == ((3, 13),)
    assert report.arithmetic_ok


def test_verdict_scan_counts_small_orders():
    """Frozen verdict tallies over every graph on six vertices."""
    graphs = list(enumerate_graphs(6))
    assert len(graphs) == 156

    def tally(alpha):
        counts = {}
        for g in graphs:
            v = criterion_check(g, alpha).verdict
            counts[v] = counts.get(v, 0) + 1
        return counts

    at_zero = tally(ALPHA_ZERO)
    assert at_zero[Verdict.CERTIFIED_DGAS] == 8
    assert Verdict.EXCLUDED_CASE not in at_zero
    at_half = tally(ALPHA_HALF)
    assert at_half[Verdict.CERTIFIED_DGAS] == 4
    at_third = tally(AlphaParam(1, 3))
    assert at_third.get(Verdict.CERTIFIED_DGAS, 0) == 0
    assert at_third[Verdict.FAILS_ARITHMETIC] == 8
    assert at_third[Verdict.SINGULAR_WALK_MATRIX] == 148
    at_two_thirds = tally(AlphaParam(2, 3))
    assert at_two_thirds[Verdict.EXCLUDED_CASE] == 6
    excluded = [encode_graph6(g) for g in graphs
                if criterion_check(g, AlphaParam(2, 3)).verdict
                == Verdict.EXCLUDED_CASE]
    assert excluded[0] == "E@Uw"


def test_report_json_shape():
    g = parse_graph6("F?Ciw")
    report = criterion_check(g, AlphaParam(2, 3))
    payload = report_to_json(report)
    assert payload["schema"] == 1
    assert payload["n"] == 7
    assert payload["alpha"] == "2/3"
    assert payload["c_alpha"] == 3
    assert payload["verdict"] == "CERTIFIED_DGAS"
    assert payload["det_walk"] == "-119080"
    assert payload["reduced"] == "-14885"
    assert payload["prime_ranks"] == [["3", 7]]
    assert payload["factorization"] == [["5", 1], ["13", 1], ["229", 1]]
    assert json.loads(json.dumps(payload)) == payload
    # a fractional reduced value renders as a fraction string
    c5 = parse_graph6("DqK")
    zero = report_to_json(criterion_check(c5, ALPHA_ZERO))
    assert zero["verdict"] == "SINGULAR_WALK_MATRIX"
    assert zero["det_walk"] == "0"
