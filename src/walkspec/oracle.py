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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .criterion import (AlphaParam, CriterionReport, SpectrumKey, Verdict,
                        _report_from_walk, alpha_matrix, spectrum_key,
                        walk_matrix)
from .graphs import CANONICAL_CAP, Graph, canonical_form, encode_graph6
from .linalg import IntMatrix, smith_divisors, solve_fraction_free


class CertificateError(RuntimeError):
    """A built certificate failed its own exactness checks."""


@dataclass(frozen=True)
class MateClass:
    """All pairwise non-isomorphic graphs sharing one spectrum key."""

    key: SpectrumKey
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


def _keyed_pool(graphs: Iterable[Graph],
                alpha: AlphaParam) -> list[tuple[Graph, SpectrumKey, bytes]]:
    """(graph, spectrum key, canonical form) for every graph of one order,
    each computed once; the grouping functions below share this pass."""
    pool = list(graphs)
    if not pool:
        return []
    n = pool[0].n
    if any(g.n != n for g in pool):
        raise ValueError("all graphs must have the same order")
    if n > CANONICAL_CAP:
        raise ValueError(f"mate search supports at most {CANONICAL_CAP} vertices")
    return [(g, spectrum_key(g, alpha), canonical_form(g)) for g in pool]


def _mate_classes(keyed: list[tuple[Graph, SpectrumKey, bytes]]) -> list[MateClass]:
    groups: dict[SpectrumKey, dict[bytes, Graph]] = {}
    for g, key, form in keyed:
        groups.setdefault(key, {}).setdefault(form, g)
    out = []
    for key in sorted(groups):
        reps = groups[key]
        members = tuple(reps[form] for form in sorted(reps))
        out.append(MateClass(key, members))
    return out


def _plain_only_classes(keyed: list[tuple[Graph, SpectrumKey, bytes]]
                        ) -> list[tuple[Graph, ...]]:
    by_poly: dict[tuple[int, ...], dict[bytes, tuple[Graph, SpectrumKey]]] = {}
    for g, key, form in keyed:
        by_poly.setdefault(key.poly, {}).setdefault(form, (g, key))
    out = []
    for poly in sorted(by_poly):
        reps = by_poly[poly]
        if len(reps) < 2:
            continue
        keys = {key for _, key in reps.values()}
        if len(keys) > 1:
            out.append(tuple(reps[form][0] for form in sorted(reps)))
    return out


def find_mate_classes(graphs: Iterable[Graph], alpha: AlphaParam) -> list[MateClass]:
    """Group graphs of one fixed order by spectrum key, one representative
    per isomorphism class, classes sorted by key and members by canonical
    form."""
    return _mate_classes(_keyed_pool(graphs, alpha))


def plain_cospectral_only_classes(graphs: Iterable[Graph],
                                  alpha: AlphaParam) -> list[tuple[Graph, ...]]:
    """Groups cospectral for the graph polynomial alone but split by the
    complement polynomial; informational companion to find_mate_classes."""
    return _plain_only_classes(_keyed_pool(graphs, alpha))


def build_U(g: Graph, h: Graph, alpha: AlphaParam) -> OrthogonalCertificate:
    """Solve U^T W(g) = W(h) for the unique rational orthogonal U and verify
    it exactly: U^T U = I, U 1 = 1, U^T M(g) U = M(h). Raises
    SingularMatrixError when W(g) is singular."""
    if g.n != h.n:
        raise ValueError("graphs must have the same order")
    if spectrum_key(g, alpha) != spectrum_key(h, alpha):
        raise ValueError("graphs do not share a spectrum key")
    return _certificate(g, h, walk_matrix(g, alpha), walk_matrix(h, alpha), alpha)


def _certificate(g: Graph, h: Graph, wg: IntMatrix, wh: IntMatrix,
                 alpha: AlphaParam) -> OrthogonalCertificate:
    """build_U past its guards, given the normalized walk matrices.

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
    return OrthogonalCertificate(
        matrix=u, level=lev, source=encode_graph6(g), target=encode_graph6(h))


@dataclass(frozen=True)
class PairCheck:
    """Level arithmetic for one mate pair with nonsingular walk matrices."""

    certificate: OrthogonalCertificate
    last_divisor: int  # last Smith divisor of the source's normalized walk matrix
    level_divides_last_divisor: bool
    source_arithmetic_ok: bool
    no_odd_prime_in_level: bool | None  # None when the arithmetic criterion fails


@dataclass(frozen=True)
class VerificationReport:
    """Exhaustive cross-check of verdicts against the mate search."""

    alpha: AlphaParam
    graph_count: int
    classes: tuple[MateClass, ...]
    verdicts: tuple[tuple[str, Verdict], ...]  # (graph6, verdict) per member
    certified: tuple[str, ...]
    nontrivial_classes: tuple[int, ...]  # indices into classes
    pair_checks: tuple[PairCheck, ...]
    skipped_singular_pairs: int
    plain_only_groups: tuple[tuple[str, ...], ...]
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _odd_part_is_one(x: int) -> bool:
    while x % 2 == 0:
        x //= 2
    return x == 1


def verify_theorem(graphs: Iterable[Graph], alpha: AlphaParam, *,
                   factor_effort: int | None = None) -> VerificationReport:
    """Check every certified graph sits alone in its mate class and every
    built certificate obeys the expected level arithmetic."""
    pool = list(graphs)
    keyed = _keyed_pool(pool, alpha)
    classes = tuple(_mate_classes(keyed))
    verdicts: list[tuple[str, Verdict]] = []
    counterexamples: list[str] = []
    certified: list[str] = []
    nontrivial: list[int] = []
    pair_checks: list[PairCheck] = []
    skipped = 0
    for idx, cls in enumerate(classes):
        size = len(cls.members)
        if size > 1:
            nontrivial.append(idx)
        reports: list[CriterionReport] = []
        walks: list[IntMatrix] = []
        for g in cls.members:
            g6 = encode_graph6(g)
            # one W per member serves its report and all of its pairs
            w = walk_matrix(g, alpha)
            rep = _report_from_walk(g, alpha, w, factor_effort)
            walks.append(w)
            reports.append(rep)
            verdicts.append((g6, rep.verdict))
            if rep.verdict == Verdict.CERTIFIED_DGAS:
                certified.append(g6)
                if size > 1:
                    others = [encode_graph6(h) for h in cls.members if h is not g]
                    counterexamples.append(
                        f"certified graph {g6} shares its spectrum key with "
                        f"{', '.join(others)}")
        if size > 1:
            # class membership already proves equal keys
            for i in range(size):
                for j in range(i + 1, size):
                    if reports[i].det_walk == 0 or reports[j].det_walk == 0:
                        skipped += 1
                        continue
                    cert = _certificate(cls.members[i], cls.members[j],
                                        walks[i], walks[j], alpha)
                    last = smith_divisors(walks[i])[-1]
                    divides = last % cert.level == 0
                    if not divides:
                        counterexamples.append(
                            f"level {cert.level} of pair {cert.source} -> "
                            f"{cert.target} does not divide the last Smith "
                            f"divisor {last}")
                    src_ok = reports[i].arithmetic_ok
                    no_odd: bool | None = None
                    if src_ok:
                        no_odd = _odd_part_is_one(cert.level)
                        if not no_odd:
                            counterexamples.append(
                                f"odd prime divides level {cert.level} of pair "
                                f"{cert.source} -> {cert.target} though the "
                                f"source passes the arithmetic criterion")
                    pair_checks.append(PairCheck(
                        certificate=cert, last_divisor=last,
                        level_divides_last_divisor=divides,
                        source_arithmetic_ok=src_ok,
                        no_odd_prime_in_level=no_odd))
    plain = tuple(tuple(encode_graph6(g) for g in grp)
                  for grp in _plain_only_classes(keyed))
    return VerificationReport(
        alpha=alpha, graph_count=len(pool), classes=classes,
        verdicts=tuple(verdicts), certified=tuple(certified),
        nontrivial_classes=tuple(nontrivial), pair_checks=tuple(pair_checks),
        skipped_singular_pairs=skipped, plain_only_groups=plain,
        counterexamples=tuple(counterexamples))


def verification_to_json(report: VerificationReport) -> dict:
    """JSON-ready dict; polynomial coefficients and levels as decimal
    strings, certificate entries as num/den strings in lowest terms."""
    def poly(p: Sequence[int]) -> list[str]:
        return [str(c) for c in p]

    classes = []
    for cls in report.classes:
        classes.append({
            "poly": poly(cls.key.poly),
            "poly_complement": poly(cls.key.poly_complement),
            "members": [encode_graph6(g) for g in cls.members],
        })
    pairs = []
    for pc in report.pair_checks:
        cert = pc.certificate
        pairs.append({
            "source": cert.source,
            "target": cert.target,
            "level": str(cert.level),
            "last_divisor": str(pc.last_divisor),
            "level_divides_last_divisor": pc.level_divides_last_divisor,
            "source_arithmetic_ok": pc.source_arithmetic_ok,
            "no_odd_prime_in_level": pc.no_odd_prime_in_level,
            "matrix": [[str(Fraction(x, cert.level)) for x in row]
                       for row in cert.matrix.to_lists()],
        })
    return {
        "schema": 1,
        "alpha": str(report.alpha),
        "graph_count": report.graph_count,
        "class_count": len(report.classes),
        "classes": classes,
        "verdicts": [[g6, v.value] for g6, v in report.verdicts],
        "certified": list(report.certified),
        "nontrivial_classes": list(report.nontrivial_classes),
        "pair_checks": pairs,
        "skipped_singular_pairs": report.skipped_singular_pairs,
        "plain_only_groups": [list(grp) for grp in report.plain_only_groups],
        "counterexamples": list(report.counterexamples),
        "ok": report.ok,
    }
