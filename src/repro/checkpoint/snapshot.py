"""Versioned enumeration snapshots: format, validation, atomic I/O.

A :class:`Snapshot` captures everything a resumed run needs to finish
an interrupted enumeration bit-identically:

- identity guards: format version, graph fingerprint, config
  signature, device name, GPU count — a resume against the wrong
  graph/config/topology fails with an actionable error instead of
  silently producing a different biclique set;
- the frontier: ``root_cursor`` (next V vertex to pull from the shared
  atomic counter) and one :class:`TaskRecord` per pending subtree task
  (lineage, L/R/candidate arrays, retry count);
- the output so far: every emitted biclique in emission order, as one
  ragged block (prepared-graph ids plus per-record lengths, per side)
  that seeds the resumed run's output, plus the set of lineages that
  already executed, which seeds the ledger's per-task dedup so nothing
  is emitted twice;
- continuity state: work counters, elapsed simulated cycles, and the
  fault plan's ``(seed, cursor)`` so injected faults continue from
  where they stopped.

Files are JSON (arrays as int lists), written atomically via a temp
file + ``os.replace`` so a crash mid-write never corrupts the previous
good snapshot.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..core.bicliques import RaggedBicliques, _offsets
from ..store.provenance import pack_lineages, unpack_lineages

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Snapshot",
    "TaskRecord",
    "load_checkpoint",
    "save_checkpoint",
]

#: Bump on any incompatible change to the snapshot schema.
#: v2: ``executed`` (explicit lineage lists) became ``executed_paths``
#: (LCP-compressed rows, see :mod:`repro.store.provenance`).
#: v3: ``emissions`` (one ``[lineage, seq, left, right]`` row per
#: biclique) became one ragged block: ``left``/``right`` ids and
#: ``left_lens``/``right_lens`` per-record lengths.
CHECKPOINT_VERSION = 3

_KIND = "gmbe-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or incompatible with this run."""


@dataclass
class TaskRecord:
    """One pending subtree task, serialized (prepared-graph ids)."""

    lineage: tuple
    left: list
    right: list
    cands: list
    counts: list
    needs_check: bool
    retries: int = 0

    def to_dict(self) -> dict:
        return {
            "lineage": list(self.lineage),
            "left": [int(x) for x in self.left],
            "right": [int(x) for x in self.right],
            "cands": [int(x) for x in self.cands],
            "counts": [int(x) for x in self.counts],
            "needs_check": bool(self.needs_check),
            "retries": int(self.retries),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskRecord":
        try:
            return cls(
                lineage=tuple(data["lineage"]),
                left=data["left"],
                right=data["right"],
                cands=data["cands"],
                counts=data["counts"],
                needs_check=bool(data["needs_check"]),
                retries=int(data.get("retries", 0)),
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed task record: {exc}") from exc


@dataclass
class Snapshot:
    """Full resumable state of one interrupted enumeration."""

    graph_fingerprint: str
    config_signature: list
    device_name: str
    n_gpus: int
    root_cursor: int
    n_roots: int
    tasks: list = field(default_factory=list)       # list[TaskRecord]
    #: every biclique emitted so far, in emission order (prepared ids)
    emissions: RaggedBicliques = field(
        default_factory=lambda: RaggedBicliques.from_bicliques(())
    )
    #: lineages whose execute() already delivered emissions — seeds the
    #: ledger's per-task dedup on resume.  Kept separate from
    #: ``emissions`` because a root's own biclique is emitted at pull
    #: time, before its task executes.
    executed: list = field(default_factory=list)    # list[tuple]
    counters: dict = field(default_factory=dict)
    fault_plan: dict | None = None
    elapsed_cycles: float = 0.0
    tasks_executed: int = 0
    tasks_split: int = 0
    version: int = CHECKPOINT_VERSION

    def to_json(self) -> str:
        block = self.emissions
        return json.dumps({
            "kind": _KIND,
            "version": self.version,
            "graph_fingerprint": self.graph_fingerprint,
            "config_signature": [[k, v] for k, v in self.config_signature],
            "device_name": self.device_name,
            "n_gpus": self.n_gpus,
            "root_cursor": self.root_cursor,
            "n_roots": self.n_roots,
            "tasks": [t.to_dict() for t in self.tasks],
            "emissions": {
                "left": block.left.tolist(),
                "left_lens": np.diff(block.left_ptr).tolist(),
                "right": block.right.tolist(),
                "right_lens": np.diff(block.right_ptr).tolist(),
            },
            # Executed lineages are enumeration-tree paths: store them as
            # LCP-compressed rows (store.provenance), not full lists.
            "executed_paths": pack_lineages(self.executed),
            "counters": self.counters,
            "fault_plan": self.fault_plan,
            "elapsed_cycles": self.elapsed_cycles,
            "tasks_executed": self.tasks_executed,
            "tasks_split": self.tasks_split,
        })

    @classmethod
    def from_json(cls, text: str, *, source: str = "<string>") -> "Snapshot":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {source} is corrupt or truncated (not valid "
                f"JSON: {exc}); delete it and restart without --resume"
            ) from exc
        if not isinstance(data, dict) or data.get("kind") != _KIND:
            raise CheckpointError(
                f"checkpoint {source} is not a GMBE checkpoint (missing "
                f"'kind': '{_KIND}'); was it written by this tool?"
            )
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {source} has format version {version!r}, this "
                f"build reads version {CHECKPOINT_VERSION}; re-run the "
                f"enumeration from scratch to produce a fresh checkpoint"
            )
        required = (
            "graph_fingerprint", "config_signature", "device_name",
            "n_gpus", "root_cursor", "n_roots",
        )
        missing = [k for k in required if k not in data]
        if missing:
            raise CheckpointError(
                f"checkpoint {source} is incomplete (missing fields: "
                f"{', '.join(missing)}); it was likely truncated mid-write "
                f"— delete it and restart without --resume"
            )
        try:
            return cls(
                graph_fingerprint=str(data["graph_fingerprint"]),
                config_signature=[
                    (str(k), v) for k, v in data["config_signature"]
                ],
                device_name=str(data["device_name"]),
                n_gpus=int(data["n_gpus"]),
                root_cursor=int(data["root_cursor"]),
                n_roots=int(data["n_roots"]),
                tasks=[TaskRecord.from_dict(t) for t in data.get("tasks", ())],
                emissions=_read_emissions(data),
                executed=_read_executed_paths(data),
                counters=dict(data.get("counters", {})),
                fault_plan=data.get("fault_plan"),
                elapsed_cycles=float(data.get("elapsed_cycles", 0.0)),
                tasks_executed=int(data.get("tasks_executed", 0)),
                tasks_split=int(data.get("tasks_split", 0)),
                version=int(version),
            )
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {source} has malformed fields ({exc}); delete "
                f"it and restart without --resume"
            ) from exc

    # ------------------------------------------------------------------
    def validate_against(
        self, *, graph_fingerprint: str, config_signature, device_name: str,
        n_gpus: int,
    ) -> None:
        """Guard a resume: the run must match the snapshot's identity."""
        if self.graph_fingerprint != graph_fingerprint:
            raise CheckpointError(
                "checkpoint was written for a different graph (fingerprint "
                f"{self.graph_fingerprint[:12]}… != {graph_fingerprint[:12]}…)"
                "; resuming would silently merge results of two inputs"
            )
        ours = {str(k): _plain(v) for k, v in config_signature}
        theirs = {str(k): _plain(v) for k, v in self.config_signature}
        if ours != theirs:
            diff = sorted(
                k for k in set(ours) | set(theirs)
                if ours.get(k) != theirs.get(k)
            )
            raise CheckpointError(
                "checkpoint was written under a different GMBEConfig "
                f"(differing knobs: {', '.join(diff) or 'field set'}); "
                "resume with the original config or restart from scratch"
            )
        if self.device_name != device_name or self.n_gpus != n_gpus:
            raise CheckpointError(
                f"checkpoint was written for {self.n_gpus}x "
                f"{self.device_name}, this run uses {n_gpus}x {device_name}; "
                "timing continuity would be meaningless — restart or match "
                "the original topology"
            )


def _read_executed_paths(data: dict) -> list:
    """Decode the v2 ``executed_paths`` rows into lineage tuples."""
    try:
        return unpack_lineages(data.get("executed_paths", ()))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint has malformed executed_paths rows ({exc}); delete "
            f"it and restart without --resume"
        ) from exc


def _read_emissions(data: dict) -> RaggedBicliques:
    """Decode the v3 ``emissions`` block: per side, non-negative ids
    and per-record lengths that sum to the id count."""
    block = data.get("emissions")
    if block is None:
        return RaggedBicliques.from_bicliques(())
    try:
        if not isinstance(block, dict):
            raise TypeError("emissions is not an object")
        left, left_ptr = _read_side(block, "left")
        right, right_ptr = _read_side(block, "right")
        if len(left_ptr) != len(right_ptr):
            raise ValueError("left and right record counts differ")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint has a malformed emissions block ({exc}); delete "
            f"it and restart without --resume"
        ) from exc
    return RaggedBicliques(left, left_ptr, right, right_ptr)


def _read_side(block: dict, side: str) -> tuple[np.ndarray, np.ndarray]:
    """One side's ids and record offsets."""
    ids, lens = (_int_list(block, name) for name in (side, f"{side}_lens"))
    if lens.sum() != len(ids):
        raise ValueError(
            f"{side}_lens sum to {lens.sum()}, not the {len(ids)} {side} ids"
        )
    return ids, _offsets(lens)


def _int_list(block: dict, name: str) -> np.ndarray:
    values = block.get(name)
    if not isinstance(values, list):
        raise TypeError(f"{name} is not a list")
    arr = np.array(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
        raise TypeError(f"{name} holds values that are not int64 integers")
    if (arr < 0).any():
        raise ValueError(f"{name} holds a negative value")
    return arr.astype(np.int64)


def _plain(value):
    """JSON-normalize a signature value (tuples→lists, numpy→python)."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def save_checkpoint(path, snapshot: Snapshot) -> None:
    """Atomically and *durably* write ``snapshot`` to ``path``.

    Temp file + fsync + rename + directory fsync: the rename gives
    atomicity against a crash of *this* process, but only flushing the
    containing directory makes the new name itself survive a machine
    crash — without it a power loss after SIGKILL-under-test could
    resurface the previous (or no) checkpoint and break the
    bit-identical-resume guarantee.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(snapshot.to_json())
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = None
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        os.fsync(dir_fd)
    except OSError:
        # Some filesystems/platforms refuse directory fsync; the data
        # fsync above already happened, so degrade silently.
        pass
    finally:
        if dir_fd is not None:
            os.close(dir_fd)


def load_checkpoint(path) -> Snapshot:
    """Read and validate a snapshot; :class:`CheckpointError` on trouble."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise CheckpointError(
            f"checkpoint {path} does not exist; run without --resume to "
            f"start fresh (a checkpoint is created as the run progresses)"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
    return Snapshot.from_json(text, source=path)
