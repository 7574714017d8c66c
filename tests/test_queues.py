"""Tests for the two-level task-queue model."""

import pytest

from repro.gpusim import TwoLevelTaskQueue


class TestPushPop:
    def test_local_first(self):
        q = TwoLevelTaskQueue(2)
        q.push(0, 0.0, "a")
        got = q.pop_ready(0, 1.0)
        assert got == ("a", "local")

    def test_not_ready_before_avail(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 5.0, "later")
        assert q.pop_ready(0, 1.0) is None
        assert q.pop_ready(0, 5.0) == ("later", "local")

    def test_fifo_by_avail_time(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 3.0, "b")
        q.push(0, 1.0, "a")
        assert q.pop_ready(0, 10.0)[0] == "a"
        assert q.pop_ready(0, 10.0)[0] == "b"

    def test_spill_to_global_when_full(self):
        q = TwoLevelTaskQueue(1, local_capacity=2)
        assert q.push(0, 0.0, "a") == "local"
        assert q.push(0, 0.0, "b") == "local"
        assert q.push(0, 0.0, "c") == "global"
        assert q.stats.spills == 1

    def test_other_sm_reads_global(self):
        q = TwoLevelTaskQueue(2, local_capacity=0)
        q.push(0, 0.0, "x")  # forced global
        assert q.pop_ready(1, 1.0) == ("x", "global")

    def test_pop_earliest_waits(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 9.0, "future")
        payload, avail, level = q.pop_earliest(0)
        assert payload == "future" and avail == 9.0 and level == "local"

    def test_pop_earliest_steals_from_sibling(self):
        q = TwoLevelTaskQueue(2)
        q.push(0, 2.0, "sibling-task")
        got = q.pop_earliest(1)
        assert got is not None and got[0] == "sibling-task"

    def test_pop_earliest_empty(self):
        q = TwoLevelTaskQueue(2)
        assert q.pop_earliest(0) is None

    def test_pop_earliest_none_once_every_local_queue_emptied(self):
        """Items leave the local queues by every route (ready pop,
        earliest pop, steal, SM drain, full drain); afterwards no SM
        finds a task and the idle lookups charge nothing."""
        q = TwoLevelTaskQueue(3, local_capacity=2)
        for sm, avail, payload in [
            (0, 0.0, "a"), (0, 1.0, "b"), (1, 0.0, "c"), (2, 4.0, "d"),
        ]:
            q.push(sm, avail, payload)
        assert q.pop_ready(0, 0.5)[0] == "a"
        assert q.pop_earliest(0)[0] == "b"
        assert q.pop_earliest(0)[0] == "c"  # stolen from SM 1
        assert q.drain_sm(2) == ["d"]
        assert len(q) == 0
        before = vars(q.stats).copy()
        assert all(q.pop_earliest(sm) is None for sm in range(3))
        assert vars(q.stats) == before
        q.push(1, 0.0, "e")
        q.requeue(2.0, "f")
        assert sorted(q.drain_all()) == ["e", "f"]
        assert len(q) == 0 and q.pop_earliest(2) is None

    def test_pop_earliest_steals_earliest_sibling_lowest_sm_on_ties(self):
        q = TwoLevelTaskQueue(4)
        q.push(1, 5.0, "late")
        q.push(2, 2.0, "tie-sm2")
        q.push(3, 2.0, "tie-sm3")
        q.push(3, 1.0, "earliest")
        got = [q.pop_earliest(0) for _ in range(4)]
        assert got == [
            ("earliest", 1.0, "global"),
            ("tie-sm2", 2.0, "global"),
            ("tie-sm3", 2.0, "global"),
            ("late", 5.0, "global"),
        ]
        assert q.stats.global_dequeues == q.stats.spills == 4
        assert len(q) == 0 and q.pop_earliest(0) is None

    def test_len(self):
        q = TwoLevelTaskQueue(2, local_capacity=1)
        q.push(0, 0.0, 1)
        q.push(0, 0.0, 2)
        q.push(1, 0.0, 3)
        assert len(q) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TwoLevelTaskQueue(1, local_capacity=-1)


class TestStats:
    def test_op_counts(self):
        q = TwoLevelTaskQueue(1, local_capacity=1)
        q.push(0, 0.0, "a")
        q.push(0, 0.0, "b")  # spills
        q.pop_ready(0, 1.0)
        q.pop_ready(0, 1.0)
        s = q.stats
        assert s.local_enqueues == 1 and s.global_enqueues == 1
        assert s.local_dequeues + s.global_dequeues == 2
        assert s.total_ops == 4

    def test_requeues_counted_separately_from_pushes(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 0.0, "fresh")
        q.requeue(1.0, "retry")
        s = q.stats
        # a recovery re-enqueue is not fresh work: it must not inflate
        # the enqueue counters the contention model is built on
        assert s.requeues == 1
        assert s.local_enqueues + s.global_enqueues == 1
        assert s.total_ops == 1  # requeues excluded

    def test_requeued_task_is_poppable(self):
        q = TwoLevelTaskQueue(2)
        q.requeue(2.0, "retry")
        assert q.pop_ready(0, 1.0) is None  # not before avail_time
        got = q.pop_ready(0, 2.0)
        assert got is not None and got[0] == "retry"

    def test_drain_sm_empties_local_queue(self):
        q = TwoLevelTaskQueue(2)
        q.push(0, 0.0, "a")
        q.push(0, 1.0, "b")
        q.push(1, 0.0, "other-sm")
        drained = q.drain_sm(0)
        assert sorted(drained) == ["a", "b"]
        assert q.pop_ready(0, 5.0) is None  # SM 0 now empty
        assert q.pop_ready(1, 5.0)[0] == "other-sm"  # SM 1 untouched

    def test_drain_all_returns_everything(self):
        q = TwoLevelTaskQueue(2, local_capacity=1)
        q.push(0, 0.0, "a")
        q.push(0, 0.0, "spilled")  # forced global
        q.push(1, 0.0, "b")
        drained = q.drain_all()
        assert sorted(drained) == ["a", "b", "spilled"]
        assert len(q) == 0
