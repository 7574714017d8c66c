"""Pinned simulation fingerprints.

Each fingerprint holds what a kernel change must keep identical: the
hash of the emission sequence a per-emission user sink sees, the
maximal-biclique count, the :class:`~repro.core.Counters`, the
simulated time, the makespan in cycles and the executed task count.
The cases are:

- every registry graph at scales 0.1 and 0.5 under ``task`` scheduling;
- the six perfbench inputs under ``task`` scheduling;
- WA@1.0 and Mti@1.0 with ``set_backend="bitset"``, with
  ``batch_tasks="off"`` and on two GPUs;
- WA@1.0 and Mti@1.0 under a seeded fault plan (SM crashes and queue
  drops, with split bounds small enough that Mti splits), which also
  pins the requeue count and the fault-log length;
- WA@1.0, Mti@1.0 and GH@0.3 with ``bound_height=2, bound_size=4``,
  checkpointing without a halt, and halted after 7 tasks then resumed
  (the resumed run's delivered sequence is hashed), which pin the
  order of the checkpoint and replay paths;
- every registry graph at 0.1 under ``warp`` and ``block`` scheduling
  (``slow``).

Regenerate ``sim_fingerprints.json`` (only after a change that is
*meant* to move the simulation; record each use in CHANGES.md) with::

    PYTHONPATH=src python tests/test_sim_fingerprints.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.registry import DATASET_ORDER, load
from repro.gmbe import GMBEConfig, gmbe_gpu
from repro.gpusim.faults import FaultPlan

PINNED = Path(__file__).with_name("sim_fingerprints.json")
SCALES = (0.1, 0.5)
PERFBENCH_INPUTS = (("GH", 0.3), ("EE", 0.35), ("GH", 0.2),
                    ("TM", 0.75), ("WA", 1.0), ("Mti", 1.0))
SPARSE = (("WA", 1.0), ("Mti", 1.0))
CHECKPOINTED = SPARSE + (("GH", 0.3),)

#: variant name -> (``GMBEConfig`` fields, extra ``gmbe_gpu`` arguments)
VARIANTS = {
    "task": ({"scheduling": "task"}, {}),
    "warp": ({"scheduling": "warp"}, {}),
    "block": ({"scheduling": "block"}, {}),
    "bitset": ({"set_backend": "bitset"}, {}),
    "unbatched": ({"batch_tasks": "off"}, {}),
    "2gpu": ({}, {"n_gpus": 2}),
    # small bounds so Mti splits and its queue drops fire
    "faults": ({"bound_height": 2, "bound_size": 4}, {}),
    "checkpoint": ({"bound_height": 2, "bound_size": 4}, {}),
    "resume": ({"bound_height": 2, "bound_size": 4}, {}),
}


def _fault_plan() -> FaultPlan:
    return FaultPlan(seed=7, p_sm_crash=0.01, p_queue_drop=0.05,
                     max_faults=24)


def fingerprint(code: str, scale: float, variant: str = "task") -> dict:
    h = hashlib.blake2b(digest_size=16)

    def sink(left, right) -> None:
        h.update(np.asarray(left, dtype=np.int64).tobytes())
        h.update(b"|")
        h.update(np.asarray(right, dtype=np.int64).tobytes())
        h.update(b";")

    fields, kwargs = VARIANTS[variant]
    config = GMBEConfig(**fields)
    graph = load(code, scale=scale)
    if variant == "faults":
        kwargs = {"fault_plan": _fault_plan()}
    with tempfile.TemporaryDirectory() as tmp:
        if variant in ("checkpoint", "resume"):
            kwargs = {"checkpoint_path": os.path.join(tmp, "run.ckpt")}
        if variant == "resume":
            halted = gmbe_gpu(graph, config=config, halt_after_tasks=7,
                              **kwargs)
            assert halted.extras["halted"]
            kwargs["resume"] = True
        res = gmbe_gpu(graph, sink, config=config, **kwargs)
    report = res.extras["report"]
    out = {
        "emissions": h.hexdigest(),
        "n_maximal": res.n_maximal,
        "counters": vars(res.counters),
        "sim_time": res.sim_time,
        "makespan_cycles": report.makespan_cycles,
        "tasks_executed": report.tasks_executed,
    }
    if variant == "faults":
        out["tasks_requeued"] = report.tasks_requeued
        out["fault_events"] = len(report.fault_log.events)
    return out


def _key(code: str, scale: float, variant: str = "task") -> str:
    name = f"{code}@{scale}"
    return name if variant == "task" else f"{name}/{variant}"


_CASES = (
    [(code, scale, "task") for scale in SCALES for code in DATASET_ORDER]
    + [(code, scale, "task") for code, scale in PERFBENCH_INPUTS]
    + [(code, scale, v) for v in ("bitset", "unbatched", "2gpu", "faults")
       for code, scale in SPARSE]
    + [(code, scale, v) for v in ("checkpoint", "resume")
       for code, scale in CHECKPOINTED]
)
_SLOW_CASES = [(code, 0.1, v) for v in ("warp", "block")
               for code in DATASET_ORDER]
_ALL = _CASES + _SLOW_CASES


@pytest.mark.parametrize(
    "code,scale,variant",
    [pytest.param(*case, id=_key(*case)) for case in _CASES]
    + [pytest.param(*case, id=_key(*case), marks=pytest.mark.slow)
       for case in _SLOW_CASES],
)
def test_simulation_matches_pinned_fingerprint(code, scale, variant):
    pinned = json.loads(PINNED.read_text())[_key(code, scale, variant)]
    assert fingerprint(code, scale, variant) == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    table = {_key(*case): fingerprint(*case) for case in _ALL}
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} fingerprints to {PINNED}")
