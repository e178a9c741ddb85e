"""Simple undirected graphs: construction, graph6 codec, canonical forms, enumeration.

Vertices are 0..n-1. Graphs are immutable; adjacency is stored once, as
per-vertex neighbor bitmasks, and the edge tuple is derived from them. The
graph6 decoder reads the order header and the edge bytes as bit strings.
"""

from __future__ import annotations

from base64 import b64encode
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .numtheory import _ordered_map

CANONICAL_CAP = 10  # canonical labeling search bound
ENUMERATION_CAP = 8  # exhaustive enumeration bound


class GraphParseError(ValueError):
    """Malformed graph input: graph6 or edge-list text, or edges that break
    the simple-graph rules; the message names the offending position."""


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise GraphParseError("vertex count must be positive")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphParseError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"edge ({u}, {v}) out of range for {n} vertices")
            if rows[u] >> v & 1:
                raise GraphParseError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v) with u < v, in lexicographic order."""
        return tuple((u, v) for u, r in enumerate(self._rows)
                     for v in range(u + 1, self.n) if r >> v & 1)

    def adjacency_rows(self) -> list[list[int]]:
        """Dense 0/1 adjacency matrix as row lists."""
        return [[self._rows[i] >> j & 1 for j in range(self.n)] for i in range(self.n)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def degree_vector(g: Graph) -> tuple[int, ...]:
    return tuple(r.bit_count() for r in g._rows)


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    full = (1 << g.n) - 1
    while frontier:
        nxt = 0
        v = 0
        f = frontier
        while f:
            if f & 1:
                nxt |= g._rows[v]
            f >>= 1
            v += 1
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------
# Order header: n <= 62 is one byte n+63; 63 <= n <= 258047 is '~' plus three
# bytes of 6-bit big-endian groups; beyond that '~~' plus six such bytes.
# Edge bits follow: the strict upper triangle read column by column
# (x(0,1), x(0,2), x(1,2), x(0,3), ...), packed six bits per byte, MSB first,
# zero-padded to a byte boundary. Every byte is offset by 63.


# each graph6 byte's 6-bit group as a bit string, indexed by the byte; bytes
# below 63 are rejected before any lookup
_BITS = ("",) * 63 + tuple(format(k, "06b") for k in range(64))


def _decode_order(data: bytes) -> tuple[int, int]:
    """Return (n, offset of first edge byte)."""
    if data[0] != 126:
        return data[0] - 63, 1
    start, end = (2, 8) if data[1:2] == b"~" else (1, 4)
    if len(data) < end:
        raise GraphParseError(
            f"extended order header truncated at byte offset {len(data)}"
        )
    return int("".join(map(_BITS.__getitem__, data[start:end])), 2), end


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line (an optional '>>graph6<<' prefix is accepted)."""
    if isinstance(text, str):
        text = text.strip()
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphParseError(
                f"non-ASCII character {text[exc.start]!r} at offset {exc.start}"
            ) from None
    else:
        data = bytes(text).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise GraphParseError("empty graph6 input")
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphParseError(f"invalid graph6 byte {byte!r} at byte offset {off}")
    n, off = _decode_order(data)
    if n < 1:
        raise GraphParseError("vertex count must be positive")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    have = len(data) - off
    if have != nbytes:
        raise GraphParseError(
            f"expected {nbytes} edge bytes for order {n}, got {have}"
            f" (edge data starts at byte offset {off})"
        )
    bits = "".join(map(_BITS.__getitem__, data[off:]))
    if "1" in bits[nbits:]:  # every padding bit lies in the last byte
        raise GraphParseError(f"nonzero padding bit at byte offset {off + nbytes - 1}")
    walk = iter(bits)  # x(0,1), x(0,2), x(1,2), x(0,3), ...
    edges = [(i, j) for j in range(1, n) for i in range(j) if next(walk) == "1"]
    return Graph(n, edges)


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError("order too large for graph6")


# base64 cuts bytes into the same 6-bit groups, MSB first; only the alphabet
# differs, so its digits 0..63 are translated into the bytes 63..126
_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


def _pack_graph6(n: int, bits: int) -> bytes:
    """graph6 of order n whose n(n-1)/2 edge bits, first bit most
    significant, are the integer bits."""
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    size = (groups + 3) // 4 * 3  # whole base64 blocks of 3 bytes
    data = (bits << (8 * size - nbits)).to_bytes(size, "big")
    return _encode_order(n) + b64encode(data)[:groups].translate(_FROM_BASE64)


def encode_graph6(g: Graph) -> str:
    rows = g._rows
    bits = "".join("1" if rows[i] >> j & 1 else "0"
                   for j in range(1, g.n) for i in range(j))
    return _pack_graph6(g.n, int(bits or "0", 2)).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list format: first token is n, remaining token pairs are edges
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    tokens = text.split()
    if not tokens:
        raise GraphParseError("empty edge-list input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise GraphParseError(f"vertex count {tokens[0]!r} is not an integer") from None
    rest = tokens[1:]
    if len(rest) % 2:
        raise GraphParseError("odd token count: edge lines must be 'u v' pairs")
    edges = []
    for k in range(0, len(rest), 2):
        try:
            u, v = int(rest[k]), int(rest[k + 1])
        except ValueError:
            raise GraphParseError(
                f"edge tokens {rest[k]!r} {rest[k + 1]!r} are not integers"
            ) from None
        edges.append((u, v))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# canonical labeling and enumeration
# ---------------------------------------------------------------------------


def _canonical_rows(n: int, rows: Sequence[int]) -> bytes:
    """canonical_form on neighbor bitmasks rows[0..n-1]; no validation.

    A labeling is built position by position. Position k takes an unplaced
    vertex of the k-th smallest degree, and its column is the bit string of
    its adjacencies to positions 0..k-1. The concatenated columns form one
    integer, the graph6 edge bits, so a prefix is compared with the best
    labeling found so far by a shift. A branch whose prefix exceeds the best
    one's is cut, since no completion of it can be smaller.

    Twin pruning: if an unplaced vertex w has the same neighbors as an
    already explored candidate v at the same position, apart from v and w
    themselves (rows[w] & ~(1 << v) == rows[v] & ~(1 << w)), then swapping
    v and w is an automorphism fixing every placed vertex. It maps the
    labelings under w onto those under v with the same columns, so w's
    subtree is skipped without changing the minimum.
    """
    degs = [r.bit_count() for r in rows]
    order = sorted(range(n), key=degs.__getitem__)
    # the candidates for position k: every vertex of the k-th smallest degree
    classes = [[v for v in order if degs[v] == degs[u]] for u in order]
    total = n * (n - 1) // 2
    placed = [0] * n
    best = (1 << total) - 1  # no labeling exceeds the complete graph's bits

    def rec(k: int, prefix: int, used: int) -> None:
        nonlocal best
        if k == n:
            best = prefix  # only prefixes within the bound get here
            return
        cands = []
        for v in classes[k]:
            if used >> v & 1:
                continue
            c = 0
            rv = rows[v]
            for i in range(k):
                c = c << 1 | (rv >> placed[i] & 1)
            cands.append((c, v))
        cands.sort()
        shift = total - k * (k + 1) // 2
        explored: list[int] = []
        last = -1
        for c, v in cands:
            child = prefix << k | c
            if child > best >> shift:
                break
            rv = rows[v]
            if c != last:  # twins share their column
                explored = [v]
                last = c
            elif any(rv & ~(1 << u) == rows[u] & ~(1 << v) for u in explored):
                continue
            else:
                explored.append(v)
            placed[k] = v
            rec(k + 1, child, used | 1 << v)

    rec(0, 0, 0)
    return _pack_graph6(n, best)


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 bytes: minimal edge bit-string over degree-respecting relabelings.

    Positions are filled in ascending degree order, so only permutations mapping
    the degree profile onto itself compete; the lexicographic minimum over that
    family is constant on isomorphism classes. Output compares equal exactly for
    isomorphic graphs and parses back as a canonical representative. The search
    skips a candidate whose twin (a vertex with the same other neighbors) was
    already tried at the same position: swapping twins is an automorphism, so
    both subtrees reach the same labelings (see _canonical_rows).
    """
    if g.n > CANONICAL_CAP:
        raise ValueError(f"canonical form supports at most {CANONICAL_CAP} vertices")
    return _canonical_rows(g.n, g._rows)


# parents per batch of the enumeration map, about the cost of a fork:
# extending an order-6 parent takes about 0.7 ms, an order-5 one 0.35 ms
_PARENTS_PER_BATCH = 4


def _extensions(form: bytes) -> set[bytes]:
    """Canonical forms of the extensions of the graph with canonical form
    `form` by one new vertex of maximum degree, as _representatives needs.

    Twin pruning: call u and v twins when their neighbors agree apart from
    each other, rows[u] & ~(1 << v) == rows[v] & ~(1 << u), as in
    _canonical_rows. This is an equivalence: if u ~ v and v ~ w, every
    other vertex sees u, v and w alike, u ~ v gives adj(u, w) = adj(v, w)
    and v ~ w gives adj(u, v) = adj(u, w), so the three pairs are adjacent
    alike and u ~ w. So within a class every pair is adjacent alike, and
    every outside vertex sees all of it or none: any permutation of a class
    is an automorphism s of the parent. Joining the new vertex to s(mask)
    gives the extension by mask relabeled by s, which has the same
    canonical form; and s keeps popcount(mask) and every degree, so the
    admissibility rule of _representatives holds for s(mask) exactly when
    it holds for mask. A mask meets each class in some of its vertices, and
    a product of such permutations, one per class, moves them to each
    class's first vertices; so only masks that take a prefix of every class
    are joined.
    """
    g = parse_graph6(form)
    m = g.n
    n = m + 1
    bit = 1 << m
    parent = g._rows
    degs = degree_vector(g)
    top = max(degs)
    ties = sum(1 << i for i in range(m) if degs[i] == top)
    prefixes = []  # per twin class, the masks of its first 0, 1, ... vertices
    seen = 0
    for v in range(m):
        if seen >> v & 1:
            continue
        prefix = [0]
        for w in range(v, m):
            if parent[w] & ~(1 << v) == parent[v] & ~(1 << w):
                prefix.append(prefix[-1] | 1 << w)
        prefixes.append(prefix)
        seen |= prefix[-1]
    found = set()
    for parts in product(*prefixes):
        mask = sum(parts)
        k = mask.bit_count()
        if k < top or (k == top and mask & ties):
            continue
        rows = [r | bit if mask >> i & 1 else r for i, r in enumerate(parent)]
        rows.append(mask)
        found.add(_canonical_rows(n, rows))
    return found


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[bytes, ...]:
    """Sorted canonical forms of all graphs on n vertices.

    Every graph has a vertex v of maximum degree, and deleting v leaves a
    graph isomorphic to some representative P on n - 1 vertices. So only the
    extensions of each P by a new vertex of maximum degree are needed: the
    new vertex joins a mask of P's vertices, and no old vertex i may end with
    deg_P(i) + [i in mask] > popcount(mask). With top the maximum degree of
    P, that holds exactly when popcount(mask) > top, or popcount(mask) == top
    and the mask avoids every vertex of degree top. The parents are
    extended on every worker of numtheory._ordered_map.
    """
    if n == 1:
        return (_canonical_rows(1, (0,)),)
    found: set[bytes] = set()
    for forms in _ordered_map(_extensions, _representatives(n - 1),
                              "enumeration", _PARENTS_PER_BATCH):
        found |= forms
    return tuple(sorted(found))


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on n vertices, in canonical order."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration supports 1..{ENUMERATION_CAP} vertices")
    for form in _representatives(n):
        g = parse_graph6(form)
        if connected_only and not is_connected(g):
            continue
        yield g
