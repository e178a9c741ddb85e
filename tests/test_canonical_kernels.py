"""Differential checks of the pruned canonical-form search and enumerator.

The brute-force canonical_form and _representatives they replaced are kept
below verbatim, with the graph6 encoder they used, as the references. The
pruned search must compute the same function: the same canonical bytes, the
same representatives and the same enumeration order.
"""

import random
from math import factorial, prod

import networkx as nx
import pytest

from walkspec import graphs
from walkspec.graphs import (CANONICAL_CAP, Graph, _representatives,
                             canonical_form, degree_vector, encode_graph6,
                             enumerate_graphs, parse_graph6)

from conftest import at_each_worker_count, relabel

# graphs on 8 nodes up to isomorphism, and connected ones (OEIS A000088, A001349)
COUNT_8 = 12346
CONNECTED_8 = 11117


def _encode_graph6_reference(g: Graph) -> str:
    out = bytearray(_encode_order_reference(g.n))
    group = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            group = group << 1 | (g._rows[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group = 0
                filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return out.decode("ascii")


def _encode_order_reference(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError("order too large for graph6")


def _canonical_form_reference(g: Graph) -> bytes:
    """Brute force: every degree-respecting labeling, cut only by the bound."""
    n = g.n
    if n > CANONICAL_CAP:
        raise ValueError(f"canonical form supports at most {CANONICAL_CAP} vertices")
    rows = g._rows
    degs = degree_vector(g)
    profile = sorted(degs)
    cols = [0] * n
    placed = [0] * n
    best: list[int] | None = None

    def rec(k: int, used: int) -> None:
        nonlocal best
        if k == n:
            if best is None or cols < best:
                best = cols[:]
            return
        cands = []
        want = profile[k]
        for v in range(n):
            if used >> v & 1 or degs[v] != want:
                continue
            c = 0
            rv = rows[v]
            for i in range(k):
                c = c << 1 | (rv >> placed[i] & 1)
            cands.append((c, v))
        cands.sort()
        for c, v in cands:
            cols[k] = c
            if best is not None and cols[: k + 1] > best[: k + 1]:
                break
            placed[k] = v
            rec(k + 1, used | 1 << v)

    rec(0, 0)
    assert best is not None
    edges = []
    for k in range(1, n):
        c = best[k]
        for i in range(k):
            if c >> (k - 1 - i) & 1:
                edges.append((i, k))
    return _encode_graph6_reference(Graph(n, edges)).encode("ascii")


_reference_cache: dict[int, tuple[bytes, ...]] = {}


def _representatives_reference(n: int) -> tuple[bytes, ...]:
    """Canonicalize every one-vertex extension of every smaller representative."""
    if n not in _reference_cache:
        if n == 1:
            _reference_cache[1] = (_canonical_form_reference(Graph(1)),)
        else:
            found: set[bytes] = set()
            for form in _representatives_reference(n - 1):
                g = parse_graph6(form)
                for mask in range(1 << (n - 1)):
                    extra = [(i, n - 1) for i in range(n - 1) if mask >> i & 1]
                    found.add(_canonical_form_reference(Graph(n, g.edges + tuple(extra))))
            _reference_cache[n] = tuple(sorted(found))
    return _reference_cache[n]


def _shuffled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _multipartite(parts: list[int]) -> Graph:
    """Complete multipartite graph; one part per entry of parts."""
    side = [k for k, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if side[u] != side[v]])


def _disjoint_cliques(sizes: list[int]) -> Graph:
    side = [k for k, size in enumerate(sizes) for _ in range(size)]
    n = len(side)
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if side[u] == side[v]])


def _threshold(dominating: list[bool]) -> Graph:
    """Add vertices in turn, each isolated or joined to all earlier ones."""
    n = len(dominating)
    return Graph(n, [(u, v) for v in range(n) if dominating[v] for u in range(v)])


def _twin_rich_families(rng: random.Random, n: int) -> list[Graph]:
    a = rng.randint(0, n)
    parts = []
    left = n
    while left:
        parts.append(rng.randint(1, left))
        left -= parts[-1]
    graphs = [_disjoint_cliques(parts), _multipartite(parts),
              _threshold([rng.random() < 0.5 for _ in range(n)])]
    if 0 < a < n:
        graphs.append(_multipartite([a, n - a]))
    return graphs


def test_encode_graph6_matches_reference():
    rng = random.Random(0x96)
    for _ in range(400):
        n = rng.randint(1, 70)
        p = rng.random()
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        assert encode_graph6(g) == _encode_graph6_reference(g)


def test_pruned_form_matches_reference_on_every_extension():
    """Every one-vertex extension of every representative of order <= 6,
    under a seeded relabeling: the 11,290 graphs the old enumerator
    canonicalized on its way to order 7."""
    rng = random.Random(0xC4)
    checked = 0
    for n in range(1, 7):
        for form in _representatives_reference(n):
            parent = parse_graph6(form)
            for mask in range(1 << n):
                extra = tuple((i, n) for i in range(n) if mask >> i & 1)
                g = _shuffled(rng, Graph(n + 1, parent.edges + extra))
                assert canonical_form(g) == _canonical_form_reference(g), encode_graph6(g)
                checked += 1
    assert checked == 11290


def test_pruned_form_matches_reference_on_random_graphs():
    # edge densities near 0 or 1 leave large tying vertex classes, which the
    # reference walks in factorial time; the families below cover those
    rng = random.Random(0x5EED)
    for _ in range(300):
        n = rng.randint(1, CANONICAL_CAP)
        p = rng.uniform(0.2, 0.8)
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        assert canonical_form(g) == _canonical_form_reference(g), encode_graph6(g)


def _nx(g: Graph) -> nx.Graph:
    out = nx.Graph(list(g.edges))
    out.add_nodes_from(range(g.n))
    return out


def _twin_labelings(g: Graph) -> int:
    """Product of k! over the classes of mutual twins: labelings that tie."""
    rows = g._rows
    classes: list[list[int]] = []
    for v in range(g.n):
        for cls in classes:
            u = cls[0]
            if rows[v] & ~(1 << u) == rows[u] & ~(1 << v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return prod(factorial(len(cls)) for cls in classes)


@pytest.mark.parametrize("n", range(1, CANONICAL_CAP + 1))
def test_pruned_form_matches_reference_on_twin_rich_families(n):
    """The reference walks every tying labeling; beyond 8! of them it is too
    slow, and the pruned form is checked for relabeling invariance and for
    parsing back to an isomorphic graph instead."""
    rng = random.Random(n)
    full = [(u, v) for v in range(n) for u in range(v)]
    graphs = [Graph(n), Graph(n, full)]
    for _ in range(4):
        graphs += _twin_rich_families(rng, n)
    for g in graphs:
        h = _shuffled(rng, g)
        form = canonical_form(g)
        assert canonical_form(h) == form, encode_graph6(g)
        if _twin_labelings(g) <= factorial(8):
            assert _canonical_form_reference(h) == form, encode_graph6(g)
        else:
            back = parse_graph6(form)
            assert nx.is_isomorphic(_nx(back), _nx(g))
    assert canonical_form(Graph(n)) == encode_graph6(Graph(n)).encode("ascii")
    assert canonical_form(Graph(n, full)) == encode_graph6(Graph(n, full)).encode("ascii")


@pytest.mark.parametrize("n", range(1, 8))
def test_representatives_match_reference(n):
    assert _representatives(n) == _representatives_reference(n)


def test_representatives_do_not_depend_on_worker_count(monkeypatch):
    def enumerate_afresh():
        monkeypatch.setattr(graphs, "_enum_cache", {})
        return [_representatives(n) for n in range(1, 8)]

    outs = at_each_worker_count(monkeypatch, enumerate_afresh)
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_enumerator_extends_by_maximum_degree_vertices_only(monkeypatch):
    extensions = []

    def spy(n, rows):
        extensions.append([r.bit_count() for r in rows])
        return canonical_rows(n, rows)

    canonical_rows = graphs._canonical_rows
    monkeypatch.setattr(graphs, "_canonical_rows", spy)
    monkeypatch.setattr(graphs, "_enum_cache", {})
    assert _representatives(6) == _representatives_reference(6)
    assert extensions
    for degs in extensions:
        assert degs[-1] == max(degs), degs


def test_order_8_counts_match_oeis():
    assert sum(1 for _ in enumerate_graphs(8)) == COUNT_8
    assert sum(1 for _ in enumerate_graphs(8, connected_only=True)) == CONNECTED_8
