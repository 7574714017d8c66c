"""Independent certification of an enumeration output.

An artifact-evaluation tool: given a graph and a claimed set of maximal
bicliques (e.g. a ``BicliqueWriter`` output file), certify that the
claim is

- **sound** — every listed pair is a biclique and maximal;
- **duplicate-free**;
- **complete** — nothing is missing, checked against an independent
  re-enumeration (a different algorithm than the one that produced the
  claim, by default).

Exposed on the CLI as ``gmbe verify <graph> <bicliques-file>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import BicliqueCollector, imbea, mbea, oombea
from .core.bicliques import Biclique, verify_biclique
from .graph.bipartite import BipartiteGraph

__all__ = [
    "VerificationReport",
    "check_edge_cover",
    "parse_biclique_file",
    "verify_enumeration",
]

_ENUMERATORS = {"oombea": oombea, "imbea": imbea, "mbea": mbea}


@dataclass
class VerificationReport:
    """Outcome of certifying a claimed biclique set."""

    n_claimed: int
    duplicates: int = 0
    not_bicliques: list[Biclique] = field(default_factory=list)
    not_maximal: list[Biclique] = field(default_factory=list)
    missing: list[Biclique] = field(default_factory=list)
    spurious: list[Biclique] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.duplicates == 0
            and not self.not_bicliques
            and not self.not_maximal
            and not self.missing
            and not self.spurious
        )

    def summary(self) -> str:
        if self.ok:
            return f"OK: {self.n_claimed} maximal bicliques certified"
        parts = [f"FAILED ({self.n_claimed} claimed):"]
        if self.duplicates:
            parts.append(f"  {self.duplicates} duplicates")
        if self.not_bicliques:
            parts.append(f"  {len(self.not_bicliques)} are not bicliques")
        if self.not_maximal:
            parts.append(f"  {len(self.not_maximal)} are not maximal")
        if self.missing:
            parts.append(f"  {len(self.missing)} maximal bicliques missing")
        if self.spurious:
            parts.append(f"  {len(self.spurious)} not found by re-enumeration")
        return "\n".join(parts)


def parse_biclique_file(path: str | Path) -> list[Biclique]:
    """Parse a :class:`repro.core.BicliqueWriter` output file.

    Lines look like ``1,2,3 | 4,5``; blank lines and ``#`` comments are
    ignored.
    """
    out: list[Biclique] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "|" not in s:
            raise ValueError(f"line {lineno}: expected 'L | R', got {s!r}")
        left_s, right_s = s.split("|", 1)
        try:
            left = [int(x) for x in left_s.strip().split(",") if x]
            right = [int(x) for x in right_s.strip().split(",") if x]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer id in {s!r}") from exc
        out.append(Biclique.make(left, right))
    return out


def verify_enumeration(
    graph: BipartiteGraph,
    claimed: Sequence[Biclique] | Iterable[Biclique],
    *,
    reference_algorithm: str = "oombea",
    deep_check: bool = True,
) -> VerificationReport:
    """Certify ``claimed`` as exactly the maximal bicliques of ``graph``.

    Parameters
    ----------
    reference_algorithm:
        Which independent enumerator to compare against (``oombea``,
        ``imbea`` or ``mbea``).
    deep_check:
        Also verify each claimed pair structurally (biclique-ness and
        maximality) — quadratic per biclique; disable for very large
        claims where the set comparison alone suffices.
    """
    if reference_algorithm not in _ENUMERATORS:
        raise ValueError(
            f"unknown reference {reference_algorithm!r}; "
            f"choose from {sorted(_ENUMERATORS)}"
        )
    claimed_list = list(claimed)
    report = VerificationReport(n_claimed=len(claimed_list))
    claimed_set = set(claimed_list)
    report.duplicates = len(claimed_list) - len(claimed_set)

    if deep_check:
        for b in claimed_set:
            is_bc, is_max = verify_biclique(graph, b.left, b.right)
            if not is_bc:
                report.not_bicliques.append(b)
            elif not is_max:
                report.not_maximal.append(b)

    collector = BicliqueCollector()
    _ENUMERATORS[reference_algorithm](graph, collector)
    truth = collector.as_set()
    report.missing = sorted(truth - claimed_set)
    report.spurious = sorted(claimed_set - truth)
    return report


def check_edge_cover(
    graph: BipartiteGraph, bicliques: Iterable
) -> list[tuple[int, int]]:
    """Edges of ``graph`` that lie in none of ``bicliques``.

    Every edge ``(u, v)`` extends to at least one maximal biclique, so a
    complete enumeration covers every edge: a non-empty result proves
    bicliques are missing, without a second enumeration.  ``bicliques``
    holds ``(left, right)`` pairs in the graph's own labels.  Returns the
    uncovered edges as sorted ``(u, v)`` pairs (empty when covered).
    """
    n_v = graph.n_v
    us = np.repeat(np.arange(graph.n_u, dtype=np.int64), graph.degrees_u)
    # CSR rows are sorted, so the packed edge keys are ascending.
    edge_keys = us * n_v + graph.u_indices
    covered = np.zeros(len(edge_keys), dtype=bool)
    if len(edge_keys) == 0:
        return []
    for left, right in bicliques:
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        keys = (left[:, None] * n_v + right[None, :]).ravel()
        idx = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
        covered[idx[edge_keys[idx] == keys]] = True
    missing = edge_keys[~covered]
    return [(int(k // n_v), int(k % n_v)) for k in missing]
