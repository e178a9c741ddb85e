"""Exhaustive cospectral-mate search and rational orthogonal certificates.

A mate class groups non-isomorphic graphs sharing a generalized alpha
spectrum. For a mate pair with nonsingular walk matrices there is a unique
rational orthogonal U with U^T W(G) = W(H); its level (the lcm of its entry
denominators) is 1 exactly when U is a permutation, i.e. when the graphs are
isomorphic. verify_theorem cross-checks the certification verdicts against
an exhaustive search and the level arithmetic against the walk matrix's last
Smith divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import numtheory
from .criterion import (AlphaParam, CriterionReport, SpectrumKey, Verdict,
                        alpha_matrix, criterion_check, raw_walk_matrix,
                        spectrum_key, walk_matrix)
from .graphs import (CANONICAL_CAP, Graph, canonical_form, encode_graph6,
                     enumerate_graphs)
from .linalg import (IntMatrix, RationalMatrix, SingularMatrixError,
                     det_bareiss, rational_inverse, smith_divisors)


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
    """Unique rational orthogonal U with U^T W(source) = W(target)."""

    matrix: RationalMatrix
    level: int
    source: str  # graph6 of the source graph
    target: str  # graph6 of the target graph


def level(u: RationalMatrix) -> int:
    """Lcm of the denominators of the entries (all in lowest terms)."""
    return u.denominator_lcm()


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
    it exactly: U^T U = I, U 1 = 1, U^T M(g) U = M(h)."""
    if g.n != h.n:
        raise ValueError("graphs must have the same order")
    if spectrum_key(g, alpha) != spectrum_key(h, alpha):
        raise ValueError("graphs do not share a spectrum key")
    if det_bareiss(walk_matrix(g, alpha)) == 0:
        raise SingularMatrixError("walk matrix of the source graph is singular")
    wg = raw_walk_matrix(g, alpha)
    wh = raw_walk_matrix(h, alpha)
    ut = RationalMatrix.from_int_matrix(wh) @ rational_inverse(wg)
    u = ut.transpose()
    if not (ut @ u).is_identity():
        raise CertificateError("certificate is not orthogonal")
    ones = [1] * g.n
    if u.matvec(ones) != tuple(ones):
        raise CertificateError("certificate does not fix the all-ones vector")
    mg = RationalMatrix.from_int_matrix(alpha_matrix(g, alpha))
    mh = RationalMatrix.from_int_matrix(alpha_matrix(h, alpha))
    if ut @ mg @ u != mh:
        raise CertificateError("certificate does not conjugate the scaled matrices")
    return OrthogonalCertificate(
        matrix=u, level=level(u),
        source=encode_graph6(g), target=encode_graph6(h))


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
        for g in cls.members:
            g6 = encode_graph6(g)
            rep = criterion_check(g, alpha, factor_effort=factor_effort)
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
            for i in range(size):
                for j in range(i + 1, size):
                    if reports[i].det_walk == 0 or reports[j].det_walk == 0:
                        skipped += 1
                        continue
                    g, h = cls.members[i], cls.members[j]
                    cert = build_U(g, h, alpha)
                    last = smith_divisors(walk_matrix(g, alpha))[-1]
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
    strings, certificate entries as num/den strings."""
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
        u = pc.certificate.matrix
        pairs.append({
            "source": pc.certificate.source,
            "target": pc.certificate.target,
            "level": str(pc.certificate.level),
            "last_divisor": str(pc.last_divisor),
            "level_divides_last_divisor": pc.level_divides_last_divisor,
            "source_arithmetic_ok": pc.source_arithmetic_ok,
            "no_odd_prime_in_level": pc.no_odd_prime_in_level,
            "matrix": [[str(u[i, j]) for j in range(u.cols)]
                       for i in range(u.rows)],
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
