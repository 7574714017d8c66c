"""Content-addressed result cache with an LRU byte budget.

Entries are keyed by ``(graph fingerprint, algorithm, config signature,
min_left, min_right)`` — the full identity of a query — so a hit is
*always* byte-identical to re-running the enumeration: two structurally
different graphs can never collide (the fingerprint hashes the CSR
arrays), and any knob that could matter is part of the key.

Invalidation is tag-driven: the broker registers each
:class:`~repro.streaming.DynamicBipartiteGraph` under a name and
:meth:`ResultCache.watch`\\ es it; every successful edge mutation drops
the entries carrying that graph's tag — and *only* those — so a cache
hit against a stale snapshot of a mutated graph is impossible even
before the fingerprint change makes the old entries unreachable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from ..api import as_bipartite_graph
from ..gmbe import GMBEConfig
from ..graph import BipartiteGraph
from ..store import StoredResultSet

__all__ = ["CacheStats", "ResultCache", "graph_fingerprint"]

# Fixed per-entry charge (key + bookkeeping) on top of the store's
# encoded payload.  An estimate — the budget is a lever, not an audit.
_BYTES_PER_ENTRY = 160


def graph_fingerprint(data) -> str:
    """Content hash identifying a graph for cache keying."""
    graph = data if isinstance(data, BipartiteGraph) else as_bipartite_graph(data)
    return graph.fingerprint


@dataclass
class CacheStats:
    """Counters the metrics layer folds into its snapshot."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class _Entry:
    store: StoredResultSet
    nbytes: int
    tag: Hashable | None


class ResultCache:
    """LRU result cache bounded by an estimated byte budget."""

    def __init__(self, max_bytes: int = 64 << 20) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._current_bytes = 0
        self.stats = CacheStats()
        self._watched: list[tuple[object, object]] = []

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    @staticmethod
    def make_key(
        graph: BipartiteGraph,
        algorithm: str,
        config: GMBEConfig,
        min_left: int,
        min_right: int,
    ) -> tuple:
        return (
            graph.fingerprint,
            algorithm,
            config.signature(),
            int(min_left),
            int(min_right),
        )

    # ------------------------------------------------------------------
    # Core LRU operations
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> StoredResultSet | None:
        """Cached store, or ``None``; a hit refreshes recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.store

    def put(
        self, key: tuple, store: StoredResultSet, tag: Hashable | None = None
    ) -> bool:
        """Insert (or refresh) an entry; returns False if it can't fit.

        The entry is charged its encoded ``store.nbytes`` plus a fixed
        per-entry overhead.
        """
        encoded = getattr(store, "nbytes", None)
        if encoded is None:
            raise TypeError(
                f"ResultCache holds StoredResultSet values, "
                f"got {type(store).__name__}"
            )
        nbytes = _BYTES_PER_ENTRY + int(encoded)
        if nbytes > self.max_bytes:
            return False  # would evict everything and still not fit
        old = self._entries.pop(key, None)
        if old is not None:
            self._current_bytes -= old.nbytes
        self._entries[key] = _Entry(store, nbytes, tag)
        self._current_bytes += nbytes
        self.stats.puts += 1
        while self._current_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._current_bytes -= evicted.nbytes
            self.stats.evictions += 1
        return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_tag(self, tag: Hashable) -> int:
        """Drop every entry carrying ``tag``; returns how many."""
        doomed = [k for k, e in self._entries.items() if e.tag == tag]
        for k in doomed:
            entry = self._entries.pop(k)
            self._current_bytes -= entry.nbytes
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def watch(self, dynamic_graph, tag: Hashable):
        """Drop ``tag``'s entries whenever ``dynamic_graph`` mutates.

        Returns the attached listener (handy for detaching in tests via
        :meth:`DynamicBipartiteGraph.remove_update_listener`).
        """

        def _on_update(op: str, u: int, v: int) -> None:
            self.invalidate_tag(tag)

        dynamic_graph.add_update_listener(_on_update)
        self._watched.append((dynamic_graph, _on_update))
        return _on_update

    def unwatch_all(self) -> None:
        """Detach every listener this cache registered."""
        for graph, fn in self._watched:
            graph.remove_update_listener(fn)
        self._watched.clear()

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._entries.clear()
        self._current_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def current_bytes(self) -> int:
        return self._current_bytes

    def snapshot(self) -> dict:
        return {
            "entries": len(self._entries),
            "current_bytes": self._current_bytes,
            "max_bytes": self.max_bytes,
            **self.stats.as_dict(),
        }
