"""Graph container, graph6 codec, canonical labeling, and enumeration."""

import random
import tracemalloc

import networkx as nx
import pytest

from walkspec.graphs import (CANONICAL_CAP, ENUMERATION_CAP, Graph,
                             GraphParseError, _decode_order, _encode_order,
                             _pack_graph6, _representatives, canonical_form,
                             degree_vector, encode_graph6, enumerate_graphs,
                             is_connected, parse_edge_list, parse_graph6)

from conftest import (complement, random_graph, read_fixture,
                      reference_decode_order, reference_encode_graph6,
                      reference_pack_graph6, reference_parse_graph6, relabel)

# counts of graphs on n nodes up to isomorphism, and connected ones
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


# ---------------------------------------------------------------------------
# container basics
# ---------------------------------------------------------------------------


def test_graph_normalizes_and_validates():
    g = Graph(4, [(2, 0), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    assert repr(g) == "Graph(n=4, edges=[(0, 2), (1, 3)])"
    # the checks run in this order: order, loop, range, duplicate
    cases = [
        (-1, [], "vertex count must be positive"),
        (0, [(0, 0)], "vertex count must be positive"),
        (3, [(0, 0)], "loop at vertex 0"),
        (3, [(0, 1), (5, 5)], "loop at vertex 5"),
        (3, [(0, 5)], "edge (0, 5) out of range for 3 vertices"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        (3, [(1, 0), (0, 1)], "duplicate edge (0, 1)"),
    ]
    # Graph is the one validator: parse_edge_list adds only the token rules
    for n, edges, message in cases:
        text = " ".join(map(str, [n, *(x for edge in edges for x in edge)]))
        for build in (lambda: Graph(n, edges), lambda: parse_edge_list(text)):
            with pytest.raises(GraphParseError) as exc:
                build()
            assert str(exc.value) == message
    # every pair is read before Graph runs, so a token fault beats a loop
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("3 0 0 1 x")
    assert str(exc.value) == "edge tokens '1' 'x' are not integers"
    # a token is ASCII digits after an optional sign: int() alone would read
    # underscores and every Unicode decimal digit, Arabic-Indic or fullwidth
    tokens = [
        ("5 0 0_4", "edge tokens '0' '0_4' are not integers"),
        ("1_0", "vertex count '1_0' is not an integer"),
        ("٥ ٠ ١", "vertex count '٥' is not an integer"),
        ("5 ٠ ١", "edge tokens '٠' '١' are not integers"),
        ("５ 0 1", "vertex count '５' is not an integer"),
        ("5 0 １", "edge tokens '0' '１' are not integers"),
        ("5 0 1.0", "edge tokens '0' '1.0' are not integers"),
        ("5 0 +-1", "edge tokens '0' '+-1' are not integers"),
        ("3 0 -1", "edge (0, -1) out of range for 3 vertices"),  # Graph's message
    ]
    for text, message in tokens:
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message, text
    assert parse_edge_list("+3 +0 2 1 -0") == Graph(3, [(0, 2), (1, 0)])


def test_edges_are_the_sorted_normalized_input():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 20)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        rng.shuffle(pairs)
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
        assert g.edges == tuple(sorted(pairs))
        assert Graph(g.n, g.edges) == g


def test_enumerated_pool_holds_one_adjacency_copy():
    """An order-7 pool costs its neighbor bitmasks, not a second edge copy."""
    _representatives(7)  # the cached canonical forms are not counted
    tracemalloc.start()
    try:
        pool = list(enumerate_graphs(7))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pool) == ALL_COUNTS[7]
    assert held / len(pool) < 400


def test_graph_equality_and_hash():
    g = Graph(3, [(0, 1)])
    h = Graph(3, [(1, 0)])
    assert g == h and hash(g) == hash(h)
    assert g != Graph(4, [(0, 1)])


def test_degree_vector_and_complement():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert degree_vector(p3) == (1, 2, 1)
    c = complement(p3)
    assert c.edges == ((0, 2),)
    assert complement(c) == p3


def test_relabel_and_connectivity():
    p3 = Graph(3, [(0, 1), (1, 2)])
    # old vertex i becomes perm[i]
    r = relabel(p3, [2, 0, 1])
    assert r.edges == ((0, 1), (0, 2))
    assert is_connected(p3)
    assert not is_connected(Graph(3, [(0, 1)]))
    assert is_connected(Graph(1))


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------


def test_parse_known_encodings():
    k3 = parse_graph6("Bw")
    assert k3 == Graph(3, [(0, 1), (0, 2), (1, 2)])
    p3 = parse_graph6("Bg")
    assert p3 == Graph(3, [(0, 1), (1, 2)])
    c5 = parse_graph6("DqK")
    assert degree_vector(c5) == (2, 2, 2, 2, 2)
    assert is_connected(c5)


def test_parse_accepts_header_and_bytes():
    assert parse_graph6(">>graph6<<Bw") == parse_graph6(b"Bw")


def test_roundtrip_small_random():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert parse_graph6(encode_graph6(g)) == g


def test_roundtrip_long_order_form():
    # n >= 63 switches the header to the 3-byte form
    rng = random.Random(5)
    g = random_graph(rng, 100, 0.05)
    enc = encode_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g


def test_roundtrip_against_networkx():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 11), rng.random())
        ours = encode_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges}


def test_parse_rejects_malformed():
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("B")  # missing adjacency byte
    with pytest.raises(GraphParseError):
        parse_graph6("Bww")  # trailing byte
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("not-a-graph\x01")
    assert "byte" in str(exc.value)
    with pytest.raises(GraphParseError):
        parse_graph6("~~????")  # huge-order header without its payload
    # nonzero padding bits
    with pytest.raises(GraphParseError):
        parse_graph6("B" + chr(63 + 0b111111))


def test_parse_rejects_nonzero_padding_named_offset():
    # K2: one adjacency bit then five pad bits that must stay zero
    ok = parse_graph6("A_")
    assert ok == Graph(2, [(0, 1)])
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("A" + chr(63 + 0b100001))
    assert "padding" in str(exc.value)


def _parse_outcome(parse, data):
    """The graph a decoder returns, or the type and message of its error."""
    try:
        return parse(data)
    except Exception as exc:
        return type(exc), str(exc)


def test_parse_matches_reference_on_valid_forms():
    for n in range(1, 9):
        for form in _representatives(n):
            assert parse_graph6(form) == reference_parse_graph6(form), form
    rng = random.Random(43)
    for n in [*range(1, 41), 63, 100, 300]:
        for _ in range(3):
            enc = encode_graph6(random_graph(rng, n))
            assert parse_graph6(enc) == reference_parse_graph6(enc), enc


def test_encode_matches_reference():
    """The base64 packer and the string-built edge integer against the
    bit-loop encoder and byte-by-byte packer they replaced: on every
    canonical form of order <= 8, which the packer itself produced, and on
    seeded graphs and edge-bit integers across the one-byte and '~' order
    headers."""
    for n in range(1, 9):
        for form in _representatives(n):
            g = parse_graph6(form)
            assert encode_graph6(g) == reference_encode_graph6(g) == form.decode(), form
    rng = random.Random(44)
    for n in [*range(1, 41), 62, 63, 64, 100, 300]:
        g = random_graph(rng, n)
        assert encode_graph6(g) == reference_encode_graph6(g), n
        nbits = n * (n - 1) // 2
        for bits in (0, (1 << nbits) - 1, rng.getrandbits(nbits)):
            assert _pack_graph6(n, bits) == reference_pack_graph6(n, bits), (n, bits)


def test_decode_order_matches_reference_on_every_header_length():
    """The one-path order decoder against the one-loop-per-length reference,
    at both ends of the one-byte, '~' and '~~' headers, and on every
    truncation of each multi-byte header."""
    for n in (1, 62, 63, 64, 4095, 258047, 258048, 2 ** 36 - 1):
        head = _encode_order(n)
        assert _decode_order(head) == reference_decode_order(head) == (n, len(head))
        for k in range(1, len(head)):
            outcome = _parse_outcome(_decode_order, head[:k])
            assert outcome == _parse_outcome(reference_decode_order, head[:k]), head[:k]


def test_parse_matches_reference_on_malformed_input():
    bad = ["", "~", "~?", "~??", "~???", "~~", "~~?", "~~????", "~~?????",
           "@?", "A", "A__", "B", "Bww", "not-a-graph\x01", "Dq\u00e9", ">>graph6<<"]
    for n in (2, 3, 5, 8):
        nbits = n * (n - 1) // 2
        pad = -nbits % 6
        for g in (Graph(n), complement(Graph(n))):
            enc = encode_graph6(g)
            bad += [enc[:-1], enc + "?", enc + "~"]
            last = ord(enc[-1]) - 63
            bad += [enc[:-1] + chr(63 + (last | pattern))
                    for pattern in range(1, 1 << pad)]
    rng = random.Random(47)
    for n in (40, 63, 100):
        enc = encode_graph6(random_graph(rng, n))
        bad += [enc[:-1], enc + "?"]
    for text in bad:
        ours = _parse_outcome(parse_graph6, text)
        assert isinstance(ours, tuple), text
        assert ours == _parse_outcome(reference_parse_graph6, text), text


def test_parse_rejects_non_ascii_text_named_offset():
    # 'e' with an acute accent must not be replaced by '?' and parsed as Dq?
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("Dq\u00e9")
    assert "offset 2" in str(exc.value)
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("  \u00e9Dq")
    assert "offset 0" in str(exc.value)


# ---------------------------------------------------------------------------
# edge list format
# ---------------------------------------------------------------------------


def test_edge_list_parses():
    g = parse_edge_list("4\n0 1\n2 3\n")
    assert g == Graph(4, [(0, 1), (2, 3)])
    # order token alone is a valid empty graph
    assert parse_edge_list("3") == Graph(3)
    # separators are any whitespace
    assert parse_edge_list("3 0 1 1 2") == Graph(3, [(0, 1), (1, 2)])


def test_edge_list_rejects_malformed():
    for text in ("", "x", "3 0", "3 0 0", "3 0 7", "3 0 1 1 0", "2 0 one"):
        with pytest.raises(GraphParseError):
            parse_edge_list(text)


# ---------------------------------------------------------------------------
# canonical labeling and isomorphism
# ---------------------------------------------------------------------------


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_nonisomorphic():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_form(p4) != canonical_form(star)
    # same degree sequence, different graphs: C6 vs 2*K3
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    kk = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert canonical_form(c6) != canonical_form(kk)


def test_canonical_form_agrees_with_networkx_isomorphism():
    rng = random.Random(91)
    pairs = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.random())
        h = random_graph(rng, n, rng.random())
        ours = canonical_form(g) == canonical_form(h)
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(n))
        nxh = nx.Graph(list(h.edges))
        nxh.add_nodes_from(range(n))
        assert ours == nx.is_isomorphic(nxg, nxh)
        pairs += ours
    assert pairs  # the sample must exercise at least one isomorphic pair


def test_canonical_cap_enforced():
    with pytest.raises(ValueError):
        canonical_form(Graph(CANONICAL_CAP + 1))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_match_literature():
    for n, want in ALL_COUNTS.items():
        assert sum(1 for _ in enumerate_graphs(n)) == want


def test_connected_enumeration_counts():
    for n, want in CONNECTED_COUNTS.items():
        got = sum(1 for _ in enumerate_graphs(n, connected_only=True))
        assert got == want


def test_enumeration_is_isomorph_free():
    seen = set()
    for g in enumerate_graphs(6):
        form = canonical_form(g)
        assert form not in seen
        seen.add(form)


def test_enumeration_cap_enforced():
    with pytest.raises(ValueError):
        list(enumerate_graphs(ENUMERATION_CAP + 1))


def test_fixture_files_decode():
    g14 = parse_graph6(read_fixture("dgas14.g6").strip())
    g13 = parse_graph6(read_fixture("dgas13.g6").strip())
    assert g14.n == 14 and g13.n == 13
    assert parse_edge_list(read_fixture("dgas14.edges")) == g14
    assert parse_edge_list(read_fixture("dgas13.edges")) == g13
    assert is_connected(g14) and is_connected(g13)
