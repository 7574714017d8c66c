"""Compact executed-lineage storage for checkpoint provenance.

The checkpoint snapshot must remember which subtree tasks *already*
executed, so the resumed emission ledger can suppress their replays.
Lineages are root-to-task paths in the enumeration tree — exactly the
shape LCP rows compress — so instead of an explicit list of full
paths the v2 wire format stores them as LCP-compressed rows:

``pack_lineages`` sorts the lineages and writes each as
``[lcp, *suffix]`` where ``lcp`` is the longest common prefix with the
previous row.  Sibling tasks share all but their last component, so on
real enumerations most rows collapse to ``[depth-1, last]``.  The rows
are plain JSON int lists — no framing needed, the set is read whole.
"""

from __future__ import annotations

__all__ = ["pack_lineages", "unpack_lineages"]


def pack_lineages(lineages) -> list:
    """Encode an iterable of int-tuple lineages as LCP rows.

    Output order is sorted (which maximizes shared prefixes); callers
    treating ``executed`` as a set lose nothing.
    """
    rows = []
    prev: tuple = ()
    for lin in sorted(tuple(int(x) for x in l) for l in lineages):
        n = min(len(lin), len(prev))
        lcp = 0
        while lcp < n and lin[lcp] == prev[lcp]:
            lcp += 1
        rows.append([lcp, *lin[lcp:]])
        prev = lin
    return rows


def unpack_lineages(rows) -> list:
    """Decode :func:`pack_lineages` rows back to a list of tuples."""
    out = []
    prev: tuple = ()
    for row in rows:
        if not row or not isinstance(row[0], int) or row[0] < 0:
            raise ValueError(f"malformed lineage row {row!r}: expected [lcp, *suffix]")
        lcp = row[0]
        if lcp > len(prev):
            raise ValueError(
                f"malformed lineage row {row!r}: lcp {lcp} exceeds previous "
                f"lineage length {len(prev)}"
            )
        lin = prev[:lcp] + tuple(int(x) for x in row[1:])
        out.append(lin)
        prev = lin
    return out
