"""Tests for the simulated multi-core pool."""

import pytest

from repro.parallel import PoolSchedule, schedule_tasks


class TestScheduleTasks:
    def test_single_worker_sums(self):
        s = schedule_tasks([3, 4, 5], 1)
        assert s.makespan == 12.0
        assert s.core_loads == [12.0]

    def test_perfect_split(self):
        s = schedule_tasks([5, 5, 5, 5], 2)
        assert s.makespan == 10.0

    def test_greedy_assignment_order(self):
        # arrival order matters: [9, 1, 1, 1] on 2 cores -> 9 vs 3
        s = schedule_tasks([9, 1, 1, 1], 2)
        assert s.makespan == 9.0

    def test_empty(self):
        s = schedule_tasks([], 4)
        assert s.makespan == 0.0

    def test_overhead_added_per_task(self):
        s = schedule_tasks([1, 1], 1, per_task_overhead=0.5)
        assert s.makespan == 3.0

    def test_efficiency(self):
        s = schedule_tasks([5, 5], 2)
        assert s.efficiency == pytest.approx(1.0)
        s = schedule_tasks([10], 2)
        assert s.efficiency == pytest.approx(0.5)

    def test_busy_cores_at(self):
        s = schedule_tasks([4, 2], 2)
        assert s.busy_cores_at(1.0) == 2
        assert s.busy_cores_at(3.0) == 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            schedule_tasks([1], 0)

    def test_makespan_never_below_critical_values(self):
        costs = [7, 3, 2, 8, 1]
        for n in (1, 2, 3, 10):
            s = schedule_tasks(costs, n)
            assert s.makespan >= max(costs)
            assert s.makespan >= sum(costs) / n - 1e-9

    def test_deterministic(self):
        a = schedule_tasks([3, 1, 4, 1, 5], 3)
        b = schedule_tasks([3, 1, 4, 1, 5], 3)
        assert a.intervals == b.intervals

