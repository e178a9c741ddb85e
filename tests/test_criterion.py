"""Walk matrices and the arithmetic certification criterion."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (HARD_ALPHA, complement, random_graph, read_fixture,
                      reference_factorize, relabel)
from walkspec import numtheory
from walkspec.criterion import (
    ALPHA_HALF,
    ALPHA_ZERO,
    AlphaParam,
    Verdict,
    alpha_matrix,
    criterion_check,
    report_to_json,
    spectrum_key,
    walk_matrix,
)
from walkspec.graphs import (
    Graph,
    degree_vector,
    enumerate_graphs,
    encode_graph6,
    parse_graph6,
)
from walkspec.linalg import IntMatrix, det_bareiss, rank_mod_p
from walkspec.numtheory import RHO_SHARE, FactorizationBudgetError

ALPHAS = [AlphaParam.parse(s) for s in ("0", "1/2", "1/3", "2/3", "3/4", "5/6")]


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


def test_alpha_odd_primes():
    expected = {1: (), 2: (), 8: (), 12: (3,), 45: (3, 5), 66: (3, 11), 70: (5, 7)}
    for c, primes in expected.items():
        alpha = ALPHA_ZERO if c == 1 else AlphaParam(1, c)
        assert alpha.odd_primes == primes


def test_alpha_odd_primes_leave_equality_and_hash_alone():
    a, b = AlphaParam(5, 66), AlphaParam.parse("5/66")
    assert a == b and hash(a) == hash(b)
    assert a.odd_primes == (3, 11)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert b.odd_primes == (3, 11)
    assert a == b and hash(a) == hash(b)
    assert a != AlphaParam(7, 66)


def test_alpha_odd_primes_of_an_unfactorable_denominator():
    alpha = AlphaParam.parse(HARD_ALPHA)
    with pytest.raises(FactorizationBudgetError):
        alpha.odd_primes
    assert "odd_primes" not in vars(alpha)  # the error is not cached


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
        g = random_graph(rng, rng.randint(1, 8))
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
        g = random_graph(rng, rng.randint(1, 7))
        alpha = rng.choice(ALPHAS)
        columns = walk_matrix(g, alpha).transpose().to_lists()
        oracle = _walk_oracle_columns(g, alpha)
        for k in range(g.n):
            assert all(x.denominator == 1 for x in oracle[k])
            assert [int(x) for x in oracle[k]] == columns[k]


def test_raw_walk_matrix_scaling():
    """The unscaled walk matrix, columns M^k 1 built here from the scaled
    matrix, is the normalized one times diag(1, c, ..., c)."""
    rng = random.Random(403)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        alpha = rng.choice(ALPHAS)
        c = alpha.c_alpha
        w = walk_matrix(g, alpha)
        m = alpha_matrix(g, alpha)
        columns = [(1,) * g.n]
        while len(columns) < g.n:
            columns.append(m.matvec(columns[-1]))
        raw = IntMatrix(list(zip(*columns)))
        scale = IntMatrix([[(c if i else 1) if i == j else 0 for j in range(g.n)]
                           for i in range(g.n)])
        assert raw == w @ scale
        assert det_bareiss(raw) == c ** (g.n - 1) * det_bareiss(w)


def test_walk_matrix_hand_values():
    assert walk_matrix(Graph(1, []), ALPHA_ZERO) == IntMatrix([[1]])
    p3 = Graph(3, [(0, 1), (1, 2)])
    w = walk_matrix(p3, ALPHA_ZERO)
    assert w.transpose().to_lists() == [[1, 1, 1], [1, 2, 1], [2, 2, 2]]
    assert det_bareiss(w) == 0
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert det_bareiss(walk_matrix(k3, ALPHA_HALF)) == 0


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
        g = random_graph(rng, rng.randint(1, 7))
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


def test_order_16_check_decided_by_ecm():
    """Rho alone leaves this check UNDECIDED_FACTORIZATION at the default
    effort; ECM splits the 39-digit cofactor, and the rank mod 3 fails."""
    g = parse_graph6("OVgwclKjqV@?jdl||L`Lu")
    report = criterion_check(g, AlphaParam(2, 3))
    assert report.verdict == Verdict.FAILS_ARITHMETIC
    assert report.factorization_complete and report.is_square_free
    assert report.factorization == (
        (3, 1), (5, 1), (11789, 1), (52583, 1), (514062274673, 1),
        (26247507633517, 1), (45514326819323, 1))
    assert report.prime_ranks == ((3, 15),)


def test_reports_decided_by_rho_are_unchanged(monkeypatch):
    """Differential: on a seeded pool of orders 10..22, every report that
    trial division plus rho alone decides is byte-identical at the default
    effort. Draws that rho alone cannot decide within reference_effort are
    skipped, because at the full default effort each takes seconds; a
    report decided there is decided identically at any larger effort."""
    reference_effort = 1_000_000
    rng = random.Random(2)
    compared = via_ecm = 0
    for alpha in (ALPHA_ZERO, ALPHA_HALF, AlphaParam(3, 4)):
        for _ in range(30):
            g = random_graph(rng, rng.randint(10, 22))
            with monkeypatch.context() as m:
                m.setattr(numtheory, "factorize", reference_factorize)
                ref = criterion_check(g, alpha, factor_effort=reference_effort)
            if not ref.factorization_complete:
                continue
            new = criterion_check(g, alpha)
            assert (json.dumps(report_to_json(new))
                    == json.dumps(report_to_json(ref))), encode_graph6(g)
            compared += 1
            if ref.factorization is not None:
                try:
                    reference_factorize(abs(int(ref.reduced)), effort=RHO_SHARE)
                except FactorizationBudgetError:
                    via_ecm += 1  # rho's share did not suffice: ECM split it
    assert compared >= 80 and via_ecm >= 2, (compared, via_ecm)


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


@pytest.mark.parametrize("alpha", ["1/3", "3/5"])
def test_odd_a_odd_c_reduced_determinant_is_even(alpha):
    """With a and c odd, W has rank at most 2 mod 2, so 2^(n-2) divides
    det W and N is an even integer for n >= 5 (the module docstring of
    walkspec.criterion)."""
    alpha = AlphaParam.parse(alpha)
    for n in (5, 6, 7):
        for g in enumerate_graphs(n):
            report = criterion_check(g, alpha)
            assert report.reduced.denominator == 1
            assert report.reduced % 2 == 0
            assert rank_mod_p(report.walk, 2) <= 2
            assert report.verdict != Verdict.CERTIFIED_DGAS


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
    half = replace(report, reduced=Fraction(-14885, 2), reduced_integral=False,
                   is_odd=False)
    assert report_to_json(half)["reduced"] == "-14885/2"
    assert report_to_json(half)["verdict"] == "FAILS_ARITHMETIC"
    c5 = parse_graph6("DqK")
    zero = report_to_json(criterion_check(c5, ALPHA_ZERO))
    assert zero["verdict"] == "SINGULAR_WALK_MATRIX"
    assert zero["det_walk"] == "0"
    assert zero["reduced"] == "0"
