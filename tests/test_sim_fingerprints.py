"""Pinned simulation fingerprints of the 12 registry graphs.

Each fingerprint holds what a kernel change must keep identical: the
hash of the emission sequence a per-emission user sink sees, the
maximal-biclique count, the :class:`~repro.core.Counters`, the
simulated time, the makespan in cycles and the executed task count.
They cover every registry graph at scales 0.1 and 0.5 under ``task``
scheduling.

Regenerate ``sim_fingerprints.json`` (only after a change that is
*meant* to move the simulation; record each use in CHANGES.md) with::

    PYTHONPATH=src python tests/test_sim_fingerprints.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.registry import DATASET_ORDER, load
from repro.gmbe import GMBEConfig, gmbe_gpu

PINNED = Path(__file__).with_name("sim_fingerprints.json")
SCALES = (0.1, 0.5)


def fingerprint(code: str, scale: float) -> dict:
    h = hashlib.blake2b(digest_size=16)

    def sink(left, right) -> None:
        h.update(np.asarray(left, dtype=np.int64).tobytes())
        h.update(b"|")
        h.update(np.asarray(right, dtype=np.int64).tobytes())
        h.update(b";")

    res = gmbe_gpu(load(code, scale=scale), sink,
                   config=GMBEConfig(scheduling="task"))
    report = res.extras["report"]
    return {
        "emissions": h.hexdigest(),
        "n_maximal": res.n_maximal,
        "counters": vars(res.counters),
        "sim_time": res.sim_time,
        "makespan_cycles": report.makespan_cycles,
        "tasks_executed": report.tasks_executed,
    }


def _key(code: str, scale: float) -> str:
    return f"{code}@{scale}"


_CASES = [(code, scale) for scale in SCALES for code in DATASET_ORDER]


@pytest.mark.parametrize("code,scale", _CASES,
                         ids=[_key(c, s) for c, s in _CASES])
def test_simulation_matches_pinned_fingerprint(code, scale):
    pinned = json.loads(PINNED.read_text())[_key(code, scale)]
    assert fingerprint(code, scale) == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    table = {_key(c, s): fingerprint(c, s) for c, s in _CASES}
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} fingerprints to {PINNED}")
