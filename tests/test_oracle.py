"""Mate-class search, orthogonal certificates, and the exhaustive checker."""

import json
import random

import pytest

from conftest import FIXTURES, at_each_worker_count, random_graph, relabel
from walkspec import numtheory, oracle
from walkspec.criterion import (ALPHA_HALF, ALPHA_ZERO, AlphaParam, Verdict,
                                spectrum_key, walk_matrix)
from walkspec.graphs import (
    Graph,
    canonical_form,
    encode_graph6,
    enumerate_graphs,
    parse_graph6,
)
from walkspec.linalg import IntMatrix, SingularMatrixError, det_bareiss, smith_divisors
from walkspec.oracle import (
    CertificateError,
    build_U,
    find_mate_classes,
    verification_to_json,
    verify_theorem,
)

# mate pairs on 8 vertices whose source walk matrices are nonsingular,
# with the level of the unique certificate and the last Smith divisor
KNOWN_PAIRS = (
    ("G@QZt{", "G@U`}{", ALPHA_ZERO, 2, 8),
    ("G@PSP[", "GC?jQw", ALPHA_HALF, 2, 12),
    ("G?DLH{", "G?OXl[", ALPHA_HALF, 4, 40),
)

# the JSON "matrix" of each KNOWN_PAIRS certificate, recorded from the
# Fraction-based implementation the integer solve replaced
KNOWN_PAIR_MATRICES = (
    [["0", "1", "0", "0", "0", "0", "0", "0"],
     ["1/2", "0", "1/2", "0", "0", "1/2", "-1/2", "0"],
     ["0", "0", "1/2", "0", "1/2", "0", "1/2", "-1/2"],
     ["0", "0", "0", "1", "0", "0", "0", "0"],
     ["1/2", "0", "-1/2", "0", "0", "1/2", "1/2", "0"],
     ["1/2", "0", "0", "0", "1/2", "-1/2", "0", "1/2"],
     ["0", "0", "1/2", "0", "-1/2", "0", "1/2", "1/2"],
     ["-1/2", "0", "0", "0", "1/2", "1/2", "0", "1/2"]],
    [["1/2", "1/2", "1/2", "0", "0", "0", "-1/2", "0"],
     ["1/2", "1/2", "-1/2", "0", "0", "0", "1/2", "0"],
     ["0", "0", "0", "1/2", "1/2", "1/2", "0", "-1/2"],
     ["1/2", "-1/2", "1/2", "0", "0", "0", "1/2", "0"],
     ["0", "0", "0", "1/2", "1/2", "-1/2", "0", "1/2"],
     ["-1/2", "1/2", "1/2", "0", "0", "0", "1/2", "0"],
     ["0", "0", "0", "1/2", "-1/2", "1/2", "0", "1/2"],
     ["0", "0", "0", "-1/2", "1/2", "1/2", "0", "1/2"]],
    [["1/4", "3/4", "1/4", "-1/4", "-1/4", "1/4", "1/4", "-1/4"],
     ["3/4", "-1/4", "1/4", "1/4", "1/4", "1/4", "-1/4", "-1/4"],
     ["1/4", "1/4", "-1/4", "3/4", "-1/4", "-1/4", "1/4", "1/4"],
     ["-1/4", "1/4", "3/4", "1/4", "1/4", "-1/4", "-1/4", "1/4"],
     ["1/4", "1/4", "-1/4", "-1/4", "3/4", "-1/4", "1/4", "1/4"],
     ["-1/4", "1/4", "-1/4", "1/4", "1/4", "3/4", "-1/4", "1/4"],
     ["-1/4", "-1/4", "1/4", "1/4", "1/4", "1/4", "3/4", "-1/4"],
     ["1/4", "-1/4", "1/4", "-1/4", "-1/4", "1/4", "1/4", "3/4"]],
)


# ---------------------------------------------------------------------------
# mate classes
# ---------------------------------------------------------------------------


def test_find_mate_classes_small_orders():
    five = list(enumerate_graphs(5))
    at_zero = find_mate_classes(five, ALPHA_ZERO)
    assert len(at_zero) == 34
    assert all(not cls.nontrivial for cls in at_zero)
    at_half = find_mate_classes(five, ALPHA_HALF)
    assert sum(cls.nontrivial for cls in at_half) == 2
    six = list(enumerate_graphs(6))
    assert sum(cls.nontrivial for cls in find_mate_classes(six, ALPHA_ZERO)) == 0
    assert sum(cls.nontrivial for cls in find_mate_classes(six, ALPHA_HALF)) == 8


def test_find_mate_classes_dedups_isomorphic_input():
    g = parse_graph6("DqK")
    h = Graph(5, [(1, 2), (2, 3), (3, 4), (0, 4), (0, 1)])  # relabeled cycle
    classes = find_mate_classes([g, h], ALPHA_ZERO)
    assert len(classes) == 1
    assert len(classes[0].members) == 1


@pytest.mark.parametrize("alpha", [ALPHA_ZERO, ALPHA_HALF])
def test_grouping_matches_canonicalizing_every_graph(alpha):
    """Forms are computed only where the grouping needs them; the classes
    and plain-only groups equal those of a pass that canonicalizes all."""
    rng = random.Random(71)
    pool = list(enumerate_graphs(6))
    pool += [relabel(g, rng.sample(range(6), 6)) for g in rng.sample(pool, 40)]
    rng.shuffle(pool)
    by_key = {}
    for g in pool:
        key = spectrum_key(g, alpha)
        by_key.setdefault(key, {}).setdefault(canonical_form(g), g)
    expected = [(key, tuple(reps[f] for f in sorted(reps)))
                for key, reps in sorted(by_key.items())]
    assert [(c.key, c.members) for c in find_mate_classes(pool, alpha)] == expected
    by_poly = {}
    for key, members in expected:
        by_poly.setdefault(key.poly, []).extend(
            (canonical_form(g), key, g) for g in members)
    plain = [tuple(g for _, _, g in sorted(grp, key=lambda t: t[0]))
             for _, grp in sorted(by_poly.items())
             if len({key for _, key, _ in grp}) > 1]
    assert oracle._plain_only_classes(find_mate_classes(pool, alpha)) == plain


def test_find_mate_classes_validation():
    with pytest.raises(ValueError):
        find_mate_classes([Graph(2, []), Graph(3, [])], ALPHA_ZERO)
    with pytest.raises(ValueError):
        find_mate_classes([Graph(11, [])], ALPHA_ZERO)
    assert find_mate_classes([], ALPHA_ZERO) == []


def test_plain_cospectral_only_star_and_cycle():
    """The 4-star and the 4-cycle plus an isolate share the plain polynomial
    at alpha = 0 but not the complement polynomial."""
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    cycle_plus = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    groups = oracle._plain_only_classes(
        find_mate_classes(enumerate_graphs(5), ALPHA_ZERO))
    wanted = {canonical_form(star), canonical_form(cycle_plus)}
    assert any(wanted <= {canonical_form(g) for g in grp} for grp in groups)
    # as a full mate class they are separated, so neither counts as a mate
    classes = find_mate_classes([star, cycle_plus], ALPHA_ZERO)
    assert len(classes) == 2


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_build_U_identity_on_self():
    g = parse_graph6("E@Uw")
    cert = build_U(g, g, ALPHA_ZERO)
    assert cert.matrix == IntMatrix.identity(6)
    assert cert.level == 1
    assert cert.source == cert.target == "E@Uw"


def test_build_U_known_pairs():
    """Frozen certificate levels for the smallest nonsingular mate pairs."""
    for src, dst, alpha, want_level, want_last in KNOWN_PAIRS:
        g = parse_graph6(src)
        h = parse_graph6(dst)
        cert = build_U(g, h, alpha)
        assert cert.level == want_level
        assert cert.source == src and cert.target == dst
        last = smith_divisors(walk_matrix(g, alpha))[-1]
        assert last == want_last
        assert last % cert.level == 0
        # the exactness checks passed inside build_U; re-verify two of them
        # on the numerators, U = matrix / level
        u = cert.matrix
        assert u.transpose() @ u == IntMatrix.identity(g.n).scaled(cert.level ** 2)
        assert u.matvec([1] * g.n) == (cert.level,) * g.n


def test_build_U_known_pair_matrices_golden():
    for (src, dst, alpha, _, _), want in zip(KNOWN_PAIRS, KNOWN_PAIR_MATRICES):
        report = verify_theorem([parse_graph6(src), parse_graph6(dst)], alpha)
        (entry,) = verification_to_json(report)["pair_checks"]
        assert entry["matrix"] == want


@pytest.mark.parametrize("alpha", [ALPHA_ZERO, ALPHA_HALF, AlphaParam(2, 3)],
                         ids=str)
def test_build_U_relabeling_is_its_permutation(alpha):
    """For h = g relabeled by old -> perm[old], U^T W(g) = W(h) is solved by
    the permutation matrix with U[old, perm[old]] = 1, at level 1."""
    rng = random.Random(6117 + alpha.num)
    done = 0
    while done < 6:
        n = rng.randint(8, 12)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        if det_bareiss(walk_matrix(g, alpha)) == 0:
            continue
        done += 1
        perm = list(range(n))
        rng.shuffle(perm)
        cert = build_U(g, relabel(g, perm), alpha)
        assert cert.level == 1
        assert cert.matrix == IntMatrix([[int(perm[u] == v) for v in range(n)]
                                         for u in range(n)])


def test_build_U_validation():
    g = parse_graph6("E@Uw")
    with pytest.raises(ValueError):
        build_U(g, Graph(5, []), ALPHA_ZERO)
    k6 = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    with pytest.raises(ValueError):
        build_U(g, k6, ALPHA_ZERO)
    c5 = parse_graph6("DqK")
    with pytest.raises(SingularMatrixError):
        build_U(c5, c5, ALPHA_ZERO)
    assert issubclass(CertificateError, RuntimeError)


# ---------------------------------------------------------------------------
# exhaustive verification
# ---------------------------------------------------------------------------


def test_verify_theorem_order_five():
    five = list(enumerate_graphs(5))
    at_zero = verify_theorem(five, ALPHA_ZERO)
    assert at_zero.ok
    assert at_zero.graph_count == 34
    assert at_zero.nontrivial_classes == ()
    assert at_zero.pair_checks == ()
    assert at_zero.skipped_singular_pairs == 0
    assert at_zero.certified == ()
    at_half = verify_theorem(five, ALPHA_HALF)
    assert at_half.ok
    assert len(at_half.nontrivial_classes) == 2
    # every five-vertex walk matrix is singular, so every pair is skipped
    pairs = 0
    for idx in at_half.nontrivial_classes:
        size = len(at_half.classes[idx].members)
        pairs += size * (size - 1) // 2
    assert at_half.pair_checks == ()
    assert at_half.skipped_singular_pairs == pairs


def test_verify_theorem_order_six():
    report = verify_theorem(list(enumerate_graphs(6)), ALPHA_HALF)
    assert report.ok
    assert report.graph_count == 156
    assert len(report.certified) == 4
    assert report.nontrivial_classes == (12, 39, 50, 65, 82, 86, 133, 140)
    assert report.skipped_singular_pairs == 8
    assert report.pair_checks == ()
    verdict_map = dict(report.verdicts)
    assert len(verdict_map) == 156
    for g6 in report.certified:
        assert verdict_map[g6] == Verdict.CERTIFIED_DGAS


def test_verify_theorem_exercises_pair_checks():
    # a pool holding one known nonsingular mate pair produces one certificate
    src, dst, alpha, want_level, want_last = KNOWN_PAIRS[0]
    pool = [parse_graph6(src), parse_graph6(dst)]
    report = verify_theorem(pool, alpha)
    assert report.ok
    assert len(report.pair_checks) == 1
    pc = report.pair_checks[0]
    assert pc.certificate.level == want_level
    assert pc.last_divisor == want_last
    assert pc.level_divides_last_divisor
    assert not pc.source_arithmetic_ok
    assert pc.no_odd_prime_in_level is None


def test_verify_theorem_computes_per_graph_work_once(monkeypatch):
    # keys come from one pass over the pool, canonical forms only for the
    # graphs that share a key, and each graph's walk matrix is built once,
    # for its verdict and, in a mate pair, for its certificate and Smith
    # divisors; each graph is encoded once, for its verdict, and the
    # certificate and JSON reuse that name
    import walkspec.criterion as criterion
    import walkspec.oracle as oracle
    calls = {"spectrum_key": 0, "canonical_form": 0, "walk_matrix": 0,
             "encode_graph6": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # the counts are of calls in this process, so no worker may take any
    monkeypatch.setattr(numtheory, "_workers", lambda: 1)
    for name in calls:
        counted(oracle, name)
    counted(criterion, "walk_matrix")
    src, dst, alpha, _, _ = KNOWN_PAIRS[0]
    pool = [parse_graph6(src), parse_graph6(dst), parse_graph6("G?????"),
            parse_graph6("G~~~~{")]
    report = verify_theorem(pool, alpha)
    payload = verification_to_json(report)
    assert report.ok
    assert len(report.pair_checks) == 1
    assert len(report.verdicts) == len(pool)
    # only the mate pair shares a polynomial (and a key); the empty and
    # complete graphs are alone with theirs
    assert calls == {"spectrum_key": len(pool),
                     "canonical_form": 2,
                     "walk_matrix": len(report.verdicts),
                     "encode_graph6": len(pool)}
    assert [cls["members"] for cls in payload["classes"]] == \
        [[encode_graph6(g) for g in cls.members] for cls in report.classes]
    # the 4-star and the 4-cycle plus an isolate share the plain polynomial
    # under different keys: the report computes no form for them, and the
    # JSON writer computes both, to order their plain-only group
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    cycle_plus = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    calls["canonical_form"] = 0
    report = verify_theorem([star, cycle_plus], ALPHA_ZERO)
    assert calls["canonical_form"] == 0
    payload = verification_to_json(report)
    assert calls["canonical_form"] == 2
    assert payload["plain_only_groups"] == [
        [encode_graph6(g) for g in sorted((star, cycle_plus), key=canonical_form)]]


def test_mate_search_does_not_depend_on_worker_count(monkeypatch):
    """A seeded order-8 pool with relabeled duplicates, so that the dedup
    through canonical forms crosses workers: every class, verdict and
    certificate is the same at every worker count."""
    rng = random.Random(2311)
    mates8 = (FIXTURES.parent / "perfbench" / "data" / "mates8_alpha_1-2.g6").read_text()
    pool = rng.sample([parse_graph6(line) for line in mates8.split()], 200)
    pool += [random_graph(rng, 8) for _ in range(400)]
    pool += [relabel(g, rng.sample(range(8), 8)) for g in rng.sample(pool, 300)]
    rng.shuffle(pool)

    def search():
        return (verification_to_json(verify_theorem(pool, ALPHA_HALF)),
                find_mate_classes(pool, ALPHA_ZERO))

    outs = at_each_worker_count(monkeypatch, search)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert outs[0][0]["nontrivial_classes"] and outs[0][0]["ok"]
    assert len(outs[0][1]) < len(pool) - 250  # the duplicates were merged


def test_a_certificate_error_keeps_its_type_at_every_worker_count(monkeypatch):
    """A CertificateError raised while a worker checks a class reaches the
    caller of verify_theorem as itself, as it does with one worker."""
    mates8 = (FIXTURES.parent / "perfbench" / "data" / "mates8_alpha_1-2.g6").read_text()
    pool = [parse_graph6(line) for line in mates8.split()]
    # batch t of classes is checked in worker t mod k; only the classes
    # that both 2 and 3 workers leave to a child fail
    classes = find_mate_classes(pool, ALPHA_HALF)
    in_child = {encode_graph6(g) for i, cls in enumerate(classes)
                if i // oracle._PER_BATCH % 2 and i // oracle._PER_BATCH % 3
                for g in cls.members}
    real = oracle._certificate

    def fails(g, h, wg, wh, alpha, source, target):
        if source in in_child:
            raise CertificateError("certificate is not orthogonal")
        return real(g, h, wg, wh, alpha, source, target)

    monkeypatch.setattr(oracle, "_certificate", fails)

    def check():
        with pytest.raises(CertificateError, match="^certificate is not orthogonal$"):
            verify_theorem(pool, ALPHA_HALF)

    at_each_worker_count(monkeypatch, check)


def test_verification_json_shape():
    report = verify_theorem(list(enumerate_graphs(4)), ALPHA_ZERO)
    payload = verification_to_json(report)
    assert payload["schema"] == 1
    assert payload["alpha"] == "0/1"
    assert payload["graph_count"] == 11
    assert payload["class_count"] == len(payload["classes"])
    assert payload["ok"] is True
    assert payload["counterexamples"] == []
    for cls in payload["classes"]:
        assert all(isinstance(c, str) for c in cls["poly"])
        assert cls["members"]
    assert json.loads(json.dumps(payload)) == payload
    src, dst, alpha, _, _ = KNOWN_PAIRS[2]
    pair_report = verify_theorem([parse_graph6(src), parse_graph6(dst)], alpha)
    pair_payload = verification_to_json(pair_report)
    entry = pair_payload["pair_checks"][0]
    assert entry["level"] == "4"
    assert entry["last_divisor"] == "40"
    assert entry["matrix"][0][0].count("/") <= 1
