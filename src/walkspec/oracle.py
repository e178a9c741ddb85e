"""Exhaustive cospectral-mate search and rational orthogonal certificates.

A mate class groups non-isomorphic graphs sharing a generalized alpha
spectrum. For a mate pair with nonsingular walk matrices there is a unique
rational orthogonal U with U^T W(G) = W(H). It is kept as an integer matrix
over one common denominator, its level (the lcm of the entry denominators),
which is 1 exactly when U is a permutation, i.e. when the graphs are
isomorphic. verify_theorem cross-checks the certification verdicts against
an exhaustive search and the level arithmetic against the walk matrix's last
Smith divisor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import numtheory
from .criterion import (AlphaParam, Verdict, _key_json, _poly_codes,
                        alpha_matrix, criterion_check, spectrum_key,
                        walk_matrix)
from .graphs import CANONICAL_CAP, Graph, canonical_form, encode_graph6
from .linalg import IntMatrix, smith_divisors, solve_fraction_free
from .numtheory import _ordered_map


class CertificateError(RuntimeError):
    """A built certificate failed its own exactness checks."""


class PoolError(ValueError):
    """A pool the mate search cannot take: mixed orders, or more vertices
    than canonical forms support."""


@dataclass(frozen=True, slots=True)
class MateClass:
    """All pairwise non-isomorphic graphs sharing one spectrum key."""

    key: bytes
    members: tuple[Graph, ...]

    @property
    def nontrivial(self) -> bool:
        return len(self.members) > 1


@dataclass(frozen=True)
class OrthogonalCertificate:
    """Unique rational orthogonal U with U^T W(source) = W(target), as
    U = matrix / level with level >= 1 and gcd(level, entries) = 1."""

    matrix: IntMatrix
    level: int
    source: str  # graph6 of the source graph
    target: str  # graph6 of the target graph


# graphs (or classes) per batch of a per-graph map, about the cost of a
# fork (3 ms): at order 7 a spectrum key, or a class check, takes 0.1-0.3 ms
# and a canonical form about 0.05 ms, so forms go 4 * _PER_BATCH a batch
_PER_BATCH = 16


def _forms(graphs: Sequence[Graph]) -> Iterator[bytes]:
    """The canonical form of each graph, all computed before the first is
    read."""
    return iter(list(_ordered_map(canonical_form, graphs, "canonical form",
                                  4 * _PER_BATCH)))


def find_mate_classes(graphs: Iterable[Graph], alpha: AlphaParam) -> list[MateClass]:
    """Group graphs of one fixed order by spectrum key, one representative
    per isomorphism class, classes sorted by key and members by canonical
    form.

    Isomorphic graphs share a spectrum key, so a class needs dedup and
    member order only where two or more pool graphs share its key; forms
    are computed for those graphs alone. Keys and forms are computed on
    every worker of numtheory._ordered_map.
    """
    pool = list(graphs)
    if not pool:
        return []
    n = pool[0].n
    if any(g.n != n for g in pool):
        raise PoolError("all graphs must have the same order")
    if n > CANONICAL_CAP:
        raise PoolError(f"mate search supports at most {CANONICAL_CAP} vertices")
    keys = list(_ordered_map(lambda g: spectrum_key(g, alpha), pool,
                             "spectrum key", _PER_BATCH))
    shared = Counter(keys)
    forms = _forms([g for g, key in zip(pool, keys) if shared[key] > 1])
    reps: dict[tuple[bytes, bytes | None], Graph] = {}
    for g, key in zip(pool, keys):
        reps.setdefault((key, next(forms) if shared[key] > 1 else None), g)
    return [MateClass(key, tuple(reps[rep] for rep in run))
            for key, run in groupby(sorted(reps), itemgetter(0))]


def _plain_only_classes(classes: Iterable[MateClass]) -> list[tuple[Graph, ...]]:
    """Groups cospectral for the graph polynomial alone but split by the
    complement polynomial: the members of the classes, two or more, that
    share a graph polynomial, ordered by canonical form. The classes come
    sorted by key, so those sharing a polynomial are adjacent; graphs with
    different keys are never isomorphic, so no member needs dedup."""
    runs = (list(run) for _, run in groupby(classes, lambda cls: _poly_codes(cls.key)))
    groups = [[g for cls in run for g in cls.members] for run in runs if len(run) > 1]
    members = [g for grp in groups for g in grp]
    form = dict(zip(members, _forms(members)))
    return [tuple(sorted(grp, key=form.__getitem__)) for grp in groups]


def build_U(g: Graph, h: Graph, alpha: AlphaParam) -> OrthogonalCertificate:
    """Solve U^T W(g) = W(h) for the unique rational orthogonal U and verify
    it exactly: U^T U = I, U 1 = 1, U^T M(g) U = M(h). Raises
    SingularMatrixError when W(g) is singular."""
    if g.n != h.n:
        raise ValueError("graphs must have the same order")
    if spectrum_key(g, alpha) != spectrum_key(h, alpha):
        raise ValueError("graphs do not share a spectrum key")
    return _certificate(g, h, walk_matrix(g, alpha), walk_matrix(h, alpha),
                        alpha, encode_graph6(g), encode_graph6(h))


def _certificate(g: Graph, h: Graph, wg: IntMatrix, wh: IntMatrix,
                 alpha: AlphaParam, source: str, target: str
                 ) -> OrthogonalCertificate:
    """build_U past its guards, given the normalized walk matrices and the
    graph6 names of g and h.

    The raw walk matrix is the normalized one times diag(1, c, ..., c), which
    cancels from U^T W(g) = W(h); so W(g)^T U = W(h)^T, and the fraction-free
    solve gives U = X / det W(g), reduced here to lowest terms. The three
    identities are checked on the numerators, scaled by level^2 or level.
    """
    det, x = solve_fraction_free(wg.transpose(), wh.transpose())
    rows = x.to_lists()
    common = gcd(det, *(v for r in rows for v in r))
    if det < 0:
        common = -common
    u = IntMatrix([[v // common for v in r] for r in rows])
    lev = det // common
    ut = u.transpose()
    if ut @ u != IntMatrix.identity(g.n).scaled(lev * lev):
        raise CertificateError("certificate is not orthogonal")
    if u.matvec([1] * g.n) != (lev,) * g.n:
        raise CertificateError("certificate does not fix the all-ones vector")
    if ut @ alpha_matrix(g, alpha) @ u != alpha_matrix(h, alpha).scaled(lev * lev):
        raise CertificateError("certificate does not conjugate the scaled matrices")
    return OrthogonalCertificate(matrix=u, level=lev, source=source, target=target)


@dataclass(frozen=True)
class PairCheck:
    """Level arithmetic for one mate pair with nonsingular walk matrices."""

    certificate: OrthogonalCertificate
    last_divisor: int  # last Smith divisor of the source's normalized walk matrix
    source_arithmetic_ok: bool

    @property
    def level_divides_last_divisor(self) -> bool:
        return self.last_divisor % self.certificate.level == 0

    @property
    def no_odd_prime_in_level(self) -> bool | None:
        """None when the source fails the arithmetic criterion."""
        if not self.source_arithmetic_ok:
            return None
        # level >= 1 has no odd prime factor iff it is a power of two
        level = self.certificate.level
        return level & (level - 1) == 0


@dataclass(frozen=True)
class VerificationReport:
    """Exhaustive cross-check of verdicts against the mate search."""

    alpha: AlphaParam
    graph_count: int
    classes: tuple[MateClass, ...]
    verdicts: tuple[tuple[str, Verdict], ...]  # (graph6, verdict) per member
    pair_checks: tuple[PairCheck, ...]
    skipped_singular_pairs: int
    counterexamples: tuple[str, ...]

    @property
    def certified(self) -> tuple[str, ...]:
        return tuple(g6 for g6, v in self.verdicts if v == Verdict.CERTIFIED_DGAS)

    @property
    def nontrivial_classes(self) -> tuple[int, ...]:
        """Indices into classes."""
        return tuple(i for i, cls in enumerate(self.classes) if cls.nontrivial)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


# what verify_theorem's check of one class adds to its report: (graph6,
# verdict) per member, counterexamples, pair checks and skipped pairs
_ClassCheck = tuple[list[tuple[str, Verdict]], list[str], list[PairCheck], int]


def _check_class(cls: MateClass, alpha: AlphaParam, factor_effort: int) -> _ClassCheck:
    verdicts: list[tuple[str, Verdict]] = []
    counterexamples: list[str] = []
    pair_checks: list[PairCheck] = []
    skipped = 0
    names = [encode_graph6(g) for g in cls.members]
    # the report's W serves all of the member's pairs
    reports = [criterion_check(g, alpha, factor_effort=factor_effort)
               for g in cls.members]
    for g6, rep in zip(names, reports):
        verdicts.append((g6, rep.verdict))
        if rep.verdict == Verdict.CERTIFIED_DGAS and cls.nontrivial:
            others = [h6 for h6 in names if h6 != g6]
            counterexamples.append(
                f"certified graph {g6} shares its spectrum key with "
                f"{', '.join(others)}")
    # class membership already proves equal keys
    for (g, g6, rg), (h, h6, rh) in combinations(
            zip(cls.members, names, reports), 2):
        if rg.det_walk == 0 or rh.det_walk == 0:
            skipped += 1
            continue
        pc = PairCheck(_certificate(g, h, rg.walk, rh.walk, alpha, g6, h6),
                       smith_divisors(rg.walk)[-1], rg.arithmetic_ok)
        cert = pc.certificate
        if not pc.level_divides_last_divisor:
            counterexamples.append(
                f"level {cert.level} of pair {cert.source} -> "
                f"{cert.target} does not divide the last Smith "
                f"divisor {pc.last_divisor}")
        if pc.no_odd_prime_in_level is False:
            counterexamples.append(
                f"odd prime divides level {cert.level} of pair "
                f"{cert.source} -> {cert.target} though the "
                f"source passes the arithmetic criterion")
        pair_checks.append(pc)
    return verdicts, counterexamples, pair_checks, skipped


def verify_theorem(graphs: Iterable[Graph], alpha: AlphaParam, *,
                   factor_effort: int = numtheory.DEFAULT_FACTOR_EFFORT
                   ) -> VerificationReport:
    """Check every certified graph sits alone in its mate class and every
    built certificate obeys the expected level arithmetic. The classes are
    checked on every worker of numtheory._ordered_map, and their results
    joined in class order."""
    pool = list(graphs)
    classes = tuple(find_mate_classes(pool, alpha))
    verdicts: list[tuple[str, Verdict]] = []
    counterexamples: list[str] = []
    pair_checks: list[PairCheck] = []
    skipped = 0
    for part in _ordered_map(lambda cls: _check_class(cls, alpha, factor_effort),
                             classes, "class check", _PER_BATCH):
        verdicts += part[0]
        counterexamples += part[1]
        pair_checks += part[2]
        skipped += part[3]
    return VerificationReport(
        alpha=alpha, graph_count=len(pool), classes=classes,
        verdicts=tuple(verdicts), pair_checks=tuple(pair_checks),
        skipped_singular_pairs=skipped,
        counterexamples=tuple(counterexamples))


def verification_to_json(report: VerificationReport) -> dict:
    """JSON-ready dict; polynomial coefficients and levels as decimal
    strings, certificate entries as num/den strings in lowest terms.

    The sections that grow with the pool are the report's own tuples, or
    iterators over it that format each item only when it is read, so a
    writer that streams them never holds the payload whole beside the
    report. The plain-only groups' canonical forms are computed here,
    before anything is read, so a failure there comes before the first
    byte is written.
    """
    def pair(pc: PairCheck) -> dict:
        cert = pc.certificate
        return {
            "source": cert.source,
            "target": cert.target,
            "level": str(cert.level),
            "last_divisor": str(pc.last_divisor),
            "level_divides_last_divisor": pc.level_divides_last_divisor,
            "source_arithmetic_ok": pc.source_arithmetic_ok,
            "no_odd_prime_in_level": pc.no_odd_prime_in_level,
            "matrix": [[str(Fraction(x, cert.level)) for x in row]
                       for row in cert.matrix.to_lists()],
        }

    groups = _plain_only_classes(report.classes)
    # the verdicts name every class member once, class by class
    names = (g6 for g6, _ in report.verdicts)
    return {
        "schema": 1,
        "alpha": str(report.alpha),
        "graph_count": report.graph_count,
        "class_count": len(report.classes),
        "classes": ({
            **_key_json(cls.key),
            "members": [next(names) for _ in cls.members],
        } for cls in report.classes),
        "verdicts": ([g6, v.value] for g6, v in report.verdicts),
        "certified": report.certified,
        "nontrivial_classes": report.nontrivial_classes,
        "pair_checks": map(pair, report.pair_checks),
        "skipped_singular_pairs": report.skipped_singular_pairs,
        "plain_only_groups": ([encode_graph6(g) for g in grp] for grp in groups),
        "counterexamples": report.counterexamples,
        "ok": report.ok,
    }
