"""Persistent content-addressed store of tuned configurations.

A :class:`TunedConfig` is the tuner's output: the winning
:class:`~repro.gmbe.GMBEConfig` plus everything needed to trust and
reproduce it — the graph fingerprint and device topology it was tuned
for, the tuner version, the seed and budget, the trial count, and the
incumbent-vs-default cycle counts.

The store keys entries by ``sha256(graph fingerprint × device key ×
tuner version)``: a content address, so structurally different graphs
can never share a tuned config, a topology change (different board or
GPU count) never reuses a stale one, and bumping
:data:`TUNER_VERSION` retires every entry produced by an older search
algorithm at once.  Files are atomic JSON (temp file + ``os.replace``),
exactly like :mod:`repro.checkpoint.snapshot` — a crash mid-write never
corrupts the previous good entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from ..gmbe import GMBEConfig
from ..gpusim.device import DeviceSpec

__all__ = [
    "TUNER_VERSION",
    "TunedConfig",
    "TunedConfigStore",
    "TuningStoreError",
    "default_store",
    "device_key",
    "store_key",
]

#: Bump on any change to the search algorithm, the search space, or the
#: trial scoring that could move the incumbent: old entries are then
#: unreachable (different content address) and re-tuned on demand.
TUNER_VERSION = 3  # v3: cycle-neutral batch_tasks left the search space

_KIND = "gmbe-tuned-config"

#: Environment override for the default store location.
STORE_ENV_VAR = "GMBE_TUNING_STORE"


class TuningStoreError(RuntimeError):
    """A tuned-config entry is corrupt or incompatible with this build."""


def device_key(device: DeviceSpec, n_gpus: int) -> str:
    """Topology part of the store key, e.g. ``"A100x1"``."""
    return f"{device.name}x{int(n_gpus)}"


def store_key(
    graph_fingerprint: str, dev_key: str, tuner_version: int = TUNER_VERSION
) -> str:
    """Content address of one (graph, topology, tuner) combination."""
    payload = f"{graph_fingerprint}\x00{dev_key}\x00{tuner_version}"
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class TunedConfig:
    """A tuned configuration with full provenance."""

    config: GMBEConfig
    graph_fingerprint: str
    device_key: str
    seed: int
    trials: int
    #: full-run modeled cycles of the winning config
    incumbent_cycles: float
    #: full-run modeled cycles of :data:`~repro.gmbe.DEFAULT_CONFIG`
    default_cycles: float
    tuner_version: int = TUNER_VERSION
    #: graph features, budget, and per-trial history (JSON-safe dicts)
    provenance: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Default-over-tuned cycle ratio (>= 1.0 by construction)."""
        if self.incumbent_cycles <= 0:
            return 1.0
        return self.default_cycles / self.incumbent_cycles

    def key(self) -> str:
        return store_key(
            self.graph_fingerprint, self.device_key, self.tuner_version
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": _KIND,
                "tuner_version": self.tuner_version,
                "config": json.loads(self.config.to_json()),
                "graph_fingerprint": self.graph_fingerprint,
                "device_key": self.device_key,
                "seed": self.seed,
                "trials": self.trials,
                "incumbent_cycles": self.incumbent_cycles,
                "default_cycles": self.default_cycles,
                "provenance": self.provenance,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, *, source: str = "<string>") -> "TunedConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TuningStoreError(
                f"tuned config {source} is corrupt (not valid JSON: {exc}); "
                f"delete it and re-run 'gmbe tune'"
            ) from exc
        if not isinstance(data, dict) or data.get("kind") != _KIND:
            raise TuningStoreError(
                f"tuned config {source} is not a GMBE tuned-config entry "
                f"(missing 'kind': '{_KIND}')"
            )
        try:
            return cls(
                config=GMBEConfig.from_dict(data["config"]),
                graph_fingerprint=str(data["graph_fingerprint"]),
                device_key=str(data["device_key"]),
                seed=int(data["seed"]),
                trials=int(data["trials"]),
                incumbent_cycles=float(data["incumbent_cycles"]),
                default_cycles=float(data["default_cycles"]),
                tuner_version=int(data["tuner_version"]),
                provenance=dict(data.get("provenance", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningStoreError(
                f"tuned config {source} has malformed fields ({exc}); "
                f"delete it and re-run 'gmbe tune'"
            ) from exc


class TunedConfigStore:
    """Directory of tuned-config JSON files, one per content address."""

    def __init__(self, root) -> None:
        self.root = os.fspath(root)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # ------------------------------------------------------------------
    def get(
        self,
        graph_fingerprint: str,
        dev_key: str,
        *,
        tuner_version: int = TUNER_VERSION,
    ) -> TunedConfig | None:
        """The stored entry, or ``None`` on a miss.

        A corrupt or incompatible file raises :class:`TuningStoreError`
        (deleting it is the fix) rather than silently re-tuning — a
        store that quietly loses entries would mask real problems.
        """
        key = store_key(graph_fingerprint, dev_key, tuner_version)
        path = self.path_for(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise TuningStoreError(
                f"tuned config {path} is unreadable: {exc}"
            ) from exc
        entry = TunedConfig.from_json(text, source=path)
        # The address encodes these, but a hand-copied file could lie.
        if (
            entry.graph_fingerprint != graph_fingerprint
            or entry.device_key != dev_key
            or entry.tuner_version != tuner_version
        ):
            raise TuningStoreError(
                f"tuned config {path} does not match its content address "
                f"(expected graph {graph_fingerprint[:12]}…/{dev_key}/"
                f"v{tuner_version}, found {entry.graph_fingerprint[:12]}…/"
                f"{entry.device_key}/v{entry.tuner_version}); delete it "
                f"and re-run 'gmbe tune'"
            )
        return entry

    def put(self, entry: TunedConfig) -> str:
        """Atomically persist ``entry``; returns the file path."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(entry.key())
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(entry.to_json())
            fh.write("\n")
        os.replace(tmp, path)
        return path

    def entries(self) -> list[TunedConfig]:
        """Every readable entry (sorted by key, for stable listings)."""
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            with open(path, "r", encoding="utf-8") as fh:
                out.append(TunedConfig.from_json(fh.read(), source=path))
        return out

    def __len__(self) -> int:
        if not os.path.isdir(self.root):
            return 0
        return sum(
            1 for name in os.listdir(self.root) if name.endswith(".json")
        )


def default_store() -> TunedConfigStore:
    """The ambient store: ``$GMBE_TUNING_STORE`` or a user-cache dir."""
    root = os.environ.get(STORE_ENV_VAR)
    if not root:
        root = os.path.join(
            os.path.expanduser("~"), ".cache", "gmbe", "tuned"
        )
    return TunedConfigStore(root)
