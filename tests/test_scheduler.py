"""Tests for the persistent-thread scheduler with synthetic tasks."""

import pytest

from repro.gpusim import DeviceSpec, ExecOutcome, PersistentThreadScheduler
from repro.gpusim.faults import FaultPlan

TINY = DeviceSpec(
    "tiny",
    n_sms=2,
    global_mem_bytes=1 << 30,
    clock_hz=1e9,
    warps_per_sm=2,
    local_queue_cycles=0,
    global_queue_cycles=0,
)


def make_roots(costs_and_tasks):
    def gen():
        yield from costs_and_tasks

    return gen()


class TestBasicScheduling:
    def test_single_task(self):
        sched = PersistentThreadScheduler(
            [TINY], 2, make_roots([(0.0, "t1")]),
            lambda task, dev: ExecOutcome(cycles=10.0),
        )
        report = sched.run()
        assert report.makespan_cycles == 10.0
        assert report.tasks_executed == 1

    def test_parallel_tasks_overlap(self):
        tasks = [(0.0, f"t{i}") for i in range(4)]
        sched = PersistentThreadScheduler(
            [TINY], 2, make_roots(tasks),
            lambda task, dev: ExecOutcome(cycles=10.0),
        )
        report = sched.run()
        # 4 units, 4 tasks of 10 cycles -> all in parallel
        assert report.makespan_cycles == 10.0

    def test_more_tasks_than_units(self):
        tasks = [(0.0, f"t{i}") for i in range(8)]
        sched = PersistentThreadScheduler(
            [TINY], 2, make_roots(tasks),
            lambda task, dev: ExecOutcome(cycles=10.0),
        )
        assert sched.run().makespan_cycles == 20.0

    def test_dedup_roots_charged_but_skipped(self):
        tasks = [(5.0, None), (0.0, "real")]
        executed = []

        def execute(task, dev):
            executed.append(task)
            return ExecOutcome(cycles=1.0)

        sched = PersistentThreadScheduler([TINY], 2, make_roots(tasks), execute)
        report = sched.run()
        assert executed == ["real"]
        assert report.tasks_executed == 1

    def test_children_executed(self):
        """A task that splits into children; children run after parent."""
        seen = []

        def execute(task, dev):
            seen.append(task)
            if task == "parent":
                return ExecOutcome(
                    cycles=10.0, children=[(5.0, "c1"), (10.0, "c2")]
                )
            return ExecOutcome(cycles=3.0)

        sched = PersistentThreadScheduler(
            [TINY], 2, make_roots([(0.0, "parent")]), execute
        )
        report = sched.run()
        assert set(seen) == {"parent", "c1", "c2"}
        assert report.tasks_split == 1
        # c1 available at 5, runs 3 cycles on an idle warp -> ends at 8;
        # c2 available at 10 -> ends at 13
        assert report.makespan_cycles == pytest.approx(13.0)

    def test_child_waits_for_availability(self):
        def execute(task, dev):
            if task == "p":
                return ExecOutcome(cycles=100.0, children=[(100.0, "c")])
            return ExecOutcome(cycles=1.0)

        sched = PersistentThreadScheduler([TINY], 1, make_roots([(0.0, "p")]), execute)
        # only 2 units (1 per SM); child can't start before cycle 100
        assert sched.run().makespan_cycles == pytest.approx(101.0)

    def test_multi_device_roots_shared(self):
        tasks = [(0.0, f"t{i}") for i in range(8)]
        sched = PersistentThreadScheduler(
            [TINY, TINY], 2, make_roots(tasks),
            lambda task, dev: ExecOutcome(cycles=10.0),
        )
        report = sched.run()
        assert report.makespan_cycles == 10.0  # 8 units across 2 devices
        assert len(report.per_device_cycles) == 2

    def test_requires_devices(self):
        with pytest.raises(ValueError):
            PersistentThreadScheduler([], 1, make_roots([]), lambda t, d: None)

    def test_root_pull_surcharge_delays_device(self):
        tasks = [(0.0, f"t{i}") for i in range(4)]
        plain = PersistentThreadScheduler(
            [TINY], 2, make_roots(list(tasks)),
            lambda task, dev: ExecOutcome(cycles=10.0),
        ).run()
        taxed = PersistentThreadScheduler(
            [TINY], 2, make_roots(list(tasks)),
            lambda task, dev: ExecOutcome(cycles=10.0),
            root_pull_surcharges=[5.0],
        ).run()
        assert taxed.makespan_cycles == plain.makespan_cycles + 5.0

    def test_surcharge_length_validated(self):
        with pytest.raises(ValueError):
            PersistentThreadScheduler(
                [TINY, TINY], 1, make_roots([]),
                lambda t, d: ExecOutcome(cycles=1.0),
                root_pull_surcharges=[1.0],
            )


class TestLoadBalanceShape:
    def test_one_giant_task_bounds_makespan_without_split(self):
        tasks = [(0.0, "giant")] + [(0.0, f"s{i}") for i in range(6)]

        def execute(task, dev):
            return ExecOutcome(cycles=100.0 if task == "giant" else 1.0)

        sched = PersistentThreadScheduler([TINY], 2, make_roots(tasks), execute)
        assert sched.run().makespan_cycles == 100.0

    def test_split_giant_task_balances(self):
        tasks = [(0.0, "giant")] + [(0.0, f"s{i}") for i in range(6)]

        def execute(task, dev):
            if task == "giant":
                return ExecOutcome(
                    cycles=4.0, children=[(4.0, f"piece{i}") for i in range(4)]
                )
            if str(task).startswith("piece"):
                return ExecOutcome(cycles=25.0)
            return ExecOutcome(cycles=1.0)

        sched = PersistentThreadScheduler([TINY], 2, make_roots(tasks), execute)
        # pieces run concurrently on the 4 units: ~4 + 25 + change
        assert sched.run().makespan_cycles < 60.0


class TestRetirement:
    """A unit that finds no work after the roots are done retires; once
    every device queue is empty and no dropped task was recovered, no
    unit can run again.  Each case pins the whole schedule of a
    two-device workload across that moment."""

    @staticmethod
    def run_two_devices(roots, children, **kwargs):
        """``children[name]`` are ``(offset, child)`` pairs; a task runs
        as many cycles as its name has characters."""
        ran = []

        def execute(task, dev):
            ran.append((task, dev))
            return ExecOutcome(
                cycles=float(len(task)), children=children.get(task, [])
            )

        report = PersistentThreadScheduler(
            [TINY, TINY], 2, make_roots(roots), execute, **kwargs
        ).run()
        return report, ran

    def test_queues_empty_while_roots_remain(self):
        # the split's children drain before the root stream ends, so
        # units that find empty queues keep pulling roots
        roots = ([(0.0, "split")] + [(1.0, None), (0.0, "rootA")]
                 + [(2.0, f"r{i:02d}") for i in range(12)])
        children = {"split": [(1.0, "c1"), (2.0, "c22")]}
        report, ran = self.run_two_devices(roots, children)
        assert report.makespan_cycles == 11.0
        assert report.per_device_cycles == [10.0, 11.0]
        assert report.tasks_executed == 16
        assert ran == [
            ("split", 0), ("rootA", 1), ("r00", 0), ("r01", 1), ("r02", 0),
            ("r03", 1), ("r04", 0), ("r05", 1), ("c1", 0), ("r06", 0),
            ("r07", 1), ("c22", 0), ("r08", 1), ("r09", 0), ("r10", 1),
            ("r11", 1),
        ]

    def test_one_device_still_holds_queued_work(self):
        # device 1's child becomes ready long after device 0 retired
        roots = [(0.0, "a"), (0.0, "late")]
        children = {"late": [(50.0, "child_of_late")]}
        report, ran = self.run_two_devices(roots, children)
        assert report.makespan_cycles == 63.0
        assert report.per_device_cycles == [1.0, 63.0]
        assert report.tasks_executed == 3
        assert ran == [("a", 0), ("late", 1), ("child_of_late", 1)]

    def test_dropped_task_recovered_before_the_drain(self):
        roots = [(0.0, "parent"), (0.0, "b")]
        children = {"parent": [(3.0, "kid")]}
        report, ran = self.run_two_devices(
            roots, children, lineage_of=lambda p: p,
            fault_plan=FaultPlan(1, p_queue_drop=1.0, max_faults=1),
        )
        assert [e.kind for e in report.fault_log.events] == [
            "queue_drop", "requeue"
        ]
        assert report.makespan_cycles == 6.0
        assert report.per_device_cycles == [6.0, 1.0]
        assert report.tasks_executed == 3
        assert report.tasks_requeued == 1
        assert ran == [("parent", 0), ("b", 1), ("kid", 0)]
