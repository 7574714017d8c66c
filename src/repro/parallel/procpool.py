"""Supervised spawn-based process pool: crash-isolated shard execution.

Worker threads share one interpreter — a worker that segfaults, is
OOM-killed, or wedges in native code takes the whole host process (and
every other shard) with it, and the GIL caps wall-clock scaling at 1x.
:class:`ProcessWorkerPool` runs each worker as a ``spawn`` OS process
behind a ``submit``/``drain``/``shutdown`` future surface; a worker can
die — or be ``kill -9``-ed on purpose — without corrupting the pool.

Supervision model (DESIGN.md §12):

- every worker owns two pipes: a duplex **task pipe** (pickled
  ``(fn, args, kwargs)`` in, ``(ok, value, error)`` out) and a one-way
  **heartbeat pipe** a daemon thread in the worker beats on every
  ``SupervisorPolicy.heartbeat_interval`` seconds;
- one parent-side monitor thread multiplexes every pipe through
  :func:`multiprocessing.connection.wait` and keeps a
  :class:`Supervisor` ledger of last-beat and task-start times;
- a worker whose process exits is a **crash** (its task's future fails
  with :class:`WorkerCrashError`); one that stays alive but silent past
  ``heartbeat_timeout`` — a SIGSTOP, a native deadlock — or that holds
  one task past ``task_deadline`` is **hung**: the supervisor SIGKILLs
  it and the future fails with :class:`WorkerHungError`;
- dead workers are **restarted with exponential backoff**, at most
  ``max_restarts`` times per slot; a slot that exhausts its budget is
  retired, and when every slot is retired the pool is **broken**:
  queued futures fail with :class:`PoolBrokenError` and further
  submissions are refused.

The pool supervises *workers*; it never re-runs a task whose process
died mid-flight (the work may not be idempotent — and for shards,
re-running means *resuming from a checkpoint*, which only the caller
knows how to do).  Task-level retry and poison-task quarantine live in
:class:`~repro.sharding.ShardCoordinator`.

Exceptions raised *inside* a task are not supervision events: they are
serialized (type name, message, remote traceback) and surface as
:class:`RemoteTaskError` on the future, exactly as a thread pool would
propagate them — the worker stays alive and takes the next task.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from concurrent.futures import wait as cf_wait
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable

__all__ = [
    "PoolBrokenError",
    "ProcessWorkerPool",
    "RemoteTaskError",
    "Supervisor",
    "SupervisorPolicy",
    "WorkerCrashError",
    "WorkerHungError",
    "set_heartbeat_aux_provider",
]


class WorkerCrashError(RuntimeError):
    """A worker process died (crash, OOM kill, SIGKILL) mid-task."""

    def __init__(self, message: str, *, worker_id: int | None = None,
                 exitcode: int | None = None) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.exitcode = exitcode


class WorkerHungError(WorkerCrashError):
    """A worker stopped heartbeating (or blew its task deadline) and
    was killed by the supervisor."""


class RemoteTaskError(RuntimeError):
    """A task raised inside its worker process.

    The remote traceback travels as a PEP 678 note — the original
    exception object cannot cross the process boundary reliably, but
    where it happened must not be lost.
    """

    def __init__(self, message: str, *, exc_type: str | None = None) -> None:
        super().__init__(message)
        self.exc_type = exc_type


class PoolBrokenError(RuntimeError):
    """Every worker slot exhausted its restart budget; the pool is dead."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Health-detection and restart knobs for one pool.

    Attributes
    ----------
    heartbeat_interval:
        Seconds between worker heartbeats.
    heartbeat_timeout:
        A worker silent this long is declared hung and killed.  Counts
        from spawn too, so it must cover worker boot (interpreter start
        plus imports) — keep it a comfortable multiple of the interval.
    task_deadline:
        Optional wall-clock budget per task; a worker holding one task
        longer is killed (``None`` = unbounded).
    max_restarts:
        Restart budget *per worker slot*; the slot is retired once
        spent.
    restart_backoff_base, restart_backoff_multiplier, restart_backoff_max:
        Respawn ``k`` of a slot waits
        ``base * multiplier**(k-1)`` seconds, capped at ``max`` —
        a crash-looping environment must not busy-spin fork bombs.
    tick:
        Monitor wakeup period when no pipe is ready; bounds how stale a
        verdict can be.
    """

    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 15.0
    task_deadline: float | None = None
    max_restarts: int = 3
    restart_backoff_base: float = 0.1
    restart_backoff_multiplier: float = 2.0
    restart_backoff_max: float = 2.0
    tick: float = 0.05

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError("task_deadline must be positive or None")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.restart_backoff_base < 0 or self.restart_backoff_max < 0:
            raise ValueError("backoff values must be non-negative")
        if self.restart_backoff_multiplier < 1.0:
            raise ValueError("restart_backoff_multiplier must be >= 1")
        if self.tick <= 0:
            raise ValueError("tick must be positive")

    def restart_backoff(self, restart_index: int) -> float:
        """Backoff before the ``restart_index``-th respawn (1-based)."""
        delay = self.restart_backoff_base * (
            self.restart_backoff_multiplier ** (restart_index - 1)
        )
        return min(delay, self.restart_backoff_max)


class Supervisor:
    """Watchdog ledger: who beat when, who runs what, who may restart.

    Pure bookkeeping over an injectable clock — the pool feeds it
    beats/task events and asks for verdicts; it never touches processes
    itself, which is what makes it unit-testable with a fake clock.
    Events (``spawn``/``death``/``hang``/``restart``/``retire``/
    ``broken``) fan out to the optional ``on_event`` callback — the
    coordinator maps them onto ``supervisor.*`` telemetry counters.
    ``on_event`` is a plain attribute: a pool shared across runs gets
    each run's recorder installed for that run only.
    """

    def __init__(
        self,
        policy: SupervisorPolicy,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_event: Callable[[str, dict], None] | None = None,
    ) -> None:
        self.policy = policy
        self._clock = clock
        self.on_event = on_event
        self._last_beat: dict[int, float] = {}
        self._task_started: dict[int, float] = {}
        self._restarts: dict[int, int] = {}
        self.deaths = 0
        self.hangs = 0
        self.deadline_kills = 0
        self.restarts_total = 0
        self.retired = 0
        self.spawned = 0

    # ------------------------------------------------------------------
    def emit(self, kind: str, **info) -> None:
        on_event = self.on_event
        if on_event is not None:
            try:
                on_event(kind, info)
            except Exception:
                pass  # an observer must never take the supervisor down

    def register(self, worker_id: int) -> None:
        """A worker process was (re)spawned; its boot counts as a beat."""
        self._last_beat[worker_id] = self._clock()
        self._task_started.pop(worker_id, None)
        self.spawned += 1
        self.emit("spawn", worker=worker_id)

    def beat(self, worker_id: int) -> None:
        self._last_beat[worker_id] = self._clock()

    def task_started(self, worker_id: int) -> None:
        self._task_started[worker_id] = self._clock()

    def task_finished(self, worker_id: int) -> None:
        self._task_started.pop(worker_id, None)

    def verdict(self, worker_id: int, *, alive: bool) -> str | None:
        """Health call for one worker: None (fine), ``"dead"``,
        ``"hung"`` (missed heartbeats), or ``"deadline"``."""
        if not alive:
            return "dead"
        now = self._clock()
        last = self._last_beat.get(worker_id)
        if last is not None and now - last > self.policy.heartbeat_timeout:
            return "hung"
        started = self._task_started.get(worker_id)
        deadline = self.policy.task_deadline
        if (started is not None and deadline is not None
                and now - started > deadline):
            return "deadline"
        return None

    def note_death(self, worker_id: int, reason: str) -> None:
        """Record a death verdict in the counters and event stream."""
        self.deaths += 1
        if reason == "hung":
            self.hangs += 1
        elif reason == "deadline":
            self.deadline_kills += 1
        self._task_started.pop(worker_id, None)
        self.emit("death", worker=worker_id, reason=reason)

    def plan_restart(self, worker_id: int) -> float | None:
        """Respawn instant for a dead worker, or ``None`` when the
        slot's restart budget is spent (the slot retires)."""
        used = self._restarts.get(worker_id, 0)
        if used >= self.policy.max_restarts:
            self.retired += 1
            self.emit("retire", worker=worker_id, restarts=used)
            return None
        self._restarts[worker_id] = used + 1
        self.restarts_total += 1
        return self._clock() + self.policy.restart_backoff(used + 1)

    def restarts(self, worker_id: int) -> int:
        return self._restarts.get(worker_id, 0)

    def per_worker(self) -> dict[int, dict]:
        """Liveness/restart detail by worker id (health snapshots)."""
        now = self._clock()
        out: dict[int, dict] = {}
        for worker_id in sorted(set(self._last_beat) | set(self._restarts)):
            last = self._last_beat.get(worker_id)
            out[worker_id] = {
                "restarts": self._restarts.get(worker_id, 0),
                "last_beat_age_s": None if last is None else now - last,
            }
        return out

    def summary(self) -> dict:
        """Counter snapshot (the pool exposes this as ``stats()``)."""
        return {
            "spawned": self.spawned,
            "deaths": self.deaths,
            "hangs": self.hangs,
            "deadline_kills": self.deadline_kills,
            "restarts": self.restarts_total,
            "retired": self.retired,
        }


# ----------------------------------------------------------------------
# Worker side (runs in the spawned child; must stay import-light)
# ----------------------------------------------------------------------

#: Optional zero-arg callable returning a picklable payload to piggyback
#: on each heartbeat.  The *running task* installs it (e.g.
#: ``run_shard_task`` flushes its buffered telemetry here) so a worker
#: that is later SIGKILLed still left its last records with the parent.
_AUX_PROVIDER: Callable[[], object] | None = None


def set_heartbeat_aux_provider(provider: Callable[[], object] | None) -> None:
    """Install (or clear, with ``None``) this process's heartbeat
    payload provider.  Meaningful only inside a pool worker; harmless
    anywhere else."""
    global _AUX_PROVIDER
    _AUX_PROVIDER = provider


def _heartbeat_loop(hb_conn, interval: float, stop: threading.Event) -> None:
    while not stop.is_set():
        payload = None
        provider = _AUX_PROVIDER
        if provider is not None:
            try:
                payload = provider()
            except Exception:
                payload = None  # a broken provider must not stop beats
        try:
            hb_conn.send((os.getpid(), payload))
        except (BrokenPipeError, OSError):
            return  # parent is gone; nothing left to report to
        except Exception:
            # The payload would not pickle; the beat itself must go out.
            try:
                hb_conn.send((os.getpid(), None))
            except (BrokenPipeError, OSError):
                return
        stop.wait(interval)


def _worker_main(worker_id: int, conn, hb_conn, heartbeat_interval: float) -> None:
    """Child entry: beat, then loop recv → execute → send until EOF."""
    stop = threading.Event()
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(hb_conn, heartbeat_interval, stop),
        name=f"procpool-heartbeat-{worker_id}",
        daemon=True,
    )
    beater.start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:  # graceful shutdown
                break
            task_id, fn, args, kwargs = msg
            try:
                value = fn(*args, **kwargs)
                reply = (task_id, True, value, None)
            except BaseException as exc:
                reply = (
                    task_id, False, None,
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                )
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break  # parent is gone
            except Exception as exc:
                # The *result* would not pickle; the parent must still
                # get an answer or its future would hang forever.
                conn.send((
                    task_id, False, None,
                    (
                        type(exc).__name__,
                        f"task result could not be serialized: {exc}",
                        traceback.format_exc(),
                    ),
                ))
    finally:
        stop.set()


def _warm_import(module_names, sleep_s: float = 0.0):
    """Warm-up task: pay a worker's import cost ahead of real work."""
    import importlib

    for name in module_names:
        importlib.import_module(name)
    if sleep_s > 0:
        time.sleep(sleep_s)
    return os.getpid()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Task:
    __slots__ = ("task_id", "future", "label", "payload")

    def __init__(self, task_id, future, label, payload):
        self.task_id = task_id
        self.future = future
        self.label = label
        self.payload = payload  # (fn, args, kwargs) — kept for requeue


class _Slot:
    __slots__ = ("worker_id", "process", "conn", "hb", "task",
                 "respawn_at", "kill_reason")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.hb = None
        self.task: _Task | None = None
        #: monotonic instant to respawn at; None while live or retired
        self.respawn_at: float | None = None
        #: set when the supervisor kills the process on purpose, so the
        #: subsequent death is reported as hung, not crashed
        self.kill_reason: str | None = None

    @property
    def live(self) -> bool:
        return self.process is not None

    @property
    def retired(self) -> bool:
        return self.process is None and self.respawn_at is None


class ProcessWorkerPool:
    """Supervised pool of ``spawn`` worker processes.

    The submitted functions and their arguments must be picklable
    module-level callables: ``submit(fn, *args, worker_label=...,
    **kwargs)`` returns a future, ``active``/``completed``/
    ``outstanding`` account for the work, ``drain``/``shutdown`` stop
    it — plus supervision (see the module docstring for the
    crash/hang/restart model).
    """

    def __init__(
        self,
        n_workers: int = 4,
        *,
        policy: SupervisorPolicy | None = None,
        on_event: Callable[[str, dict], None] | None = None,
        on_aux: Callable[[int, object], None] | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        #: called as ``on_aux(worker_id, payload)`` for every non-None
        #: heartbeat payload (see :func:`set_heartbeat_aux_provider`).
        #: Runs on the monitor thread under the pool lock — handlers
        #: must be quick and must not call back into the pool.
        self.on_aux = on_aux
        self.policy = policy if policy is not None else SupervisorPolicy()
        self._ctx = multiprocessing.get_context("spawn")
        self.supervisor = Supervisor(self.policy, on_event=on_event)
        # Reentrant: resolving a future fires its done callbacks (e.g.
        # our own _discard) synchronously on the monitor thread, while
        # the monitor already holds the lock.
        self._lock = threading.RLock()
        self._queue: deque[_Task] = deque()
        self._outstanding: set[Future] = set()
        self._slots = [_Slot(i) for i in range(n_workers)]
        self._conn_to_slot: dict = {}
        self._task_ids = itertools.count()
        self._completed = 0
        self._stopping = False
        self._broken = False
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        with self._lock:
            for slot in self._slots:
                self._spawn_locked(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="procpool-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable,
        /,
        *args,
        worker_label: str | None = None,
        **kwargs,
    ) -> Future:
        """Schedule ``fn(*args, **kwargs)`` on a worker process.

        ``fn`` and its arguments must pickle (module-level functions;
        no live telemetry/locks).  ``worker_label`` names the unit of
        work and is attached as a PEP 678 note to any crash or remote
        error.
        """
        future: Future = Future()
        with self._lock:
            if self._stopping:
                raise RuntimeError("pool is shut down")
            if self._broken:
                raise PoolBrokenError(
                    "every worker slot exhausted its restart budget"
                )
            task = _Task(
                next(self._task_ids), future, worker_label,
                (fn, args, kwargs),
            )
            self._queue.append(task)
            self._outstanding.add(future)
        future.add_done_callback(self._discard)
        self._wake()
        return future

    def _discard(self, future: Future) -> None:
        with self._lock:
            self._outstanding.discard(future)
            self._completed += 1

    @property
    def completed(self) -> int:
        """Tasks resolved (any outcome) since the pool started."""
        with self._lock:
            return self._completed

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet resolved (queued or running)."""
        with self._lock:
            return len(self._outstanding)

    @property
    def broken(self) -> bool:
        """True once every slot retired; submissions are refused."""
        with self._lock:
            return self._broken

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for every outstanding task; True if fully drained."""
        with self._lock:
            pending = set(self._outstanding)
        if not pending:
            return True
        done, not_done = cf_wait(pending, timeout=timeout)
        return not not_done

    def shutdown(self, wait: bool = True) -> bool:
        """Stop the pool; True if every task finished before shutdown.

        ``wait=True`` waits for all outstanding work and ``wait=False``
        does not wait.  Work still running when the pool stops is not
        abandoned: worker processes are killed and their futures fail
        with :class:`PoolBrokenError`, so no caller is ever left waiting
        on a future nothing will resolve.
        """
        if wait:
            drained = self.drain(None)
        else:
            drained = self.outstanding == 0
        with self._lock:
            if self._stopping:
                return drained
            self._stopping = True
        self._wake()
        self._monitor.join(timeout=30.0)
        return drained

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Extra introspection (chaos tests, coordinator, benchmarks)
    # ------------------------------------------------------------------
    def worker_pids(self) -> dict[int, int]:
        """Live worker pids by slot id (chaos tests aim SIGKILL here)."""
        with self._lock:
            return {
                s.worker_id: s.process.pid
                for s in self._slots
                if s.process is not None and s.process.pid is not None
            }

    def running_labels(self) -> dict[int, str | None]:
        """``worker_label`` of the task each busy worker is running."""
        with self._lock:
            return {
                s.worker_id: s.task.label
                for s in self._slots
                if s.task is not None
            }

    def stats(self) -> dict:
        """Supervision counters (spawns, deaths, hangs, restarts...)
        plus per-slot liveness/restart detail under ``"workers"``."""
        summary = self.supervisor.summary()
        with self._lock:
            per = self.supervisor.per_worker()
            workers = {}
            for slot in self._slots:
                detail = per.get(
                    slot.worker_id,
                    {"restarts": 0, "last_beat_age_s": None},
                )
                workers[slot.worker_id] = {
                    "alive": slot.live,
                    "retired": slot.retired,
                    "pid": (slot.process.pid
                            if slot.process is not None else None),
                    **detail,
                }
        summary["workers"] = workers
        return summary

    def warm(
        self,
        modules: tuple[str, ...] = (),
        *,
        hold_s: float = 0.5,
        timeout: float | None = 60.0,
    ) -> bool:
        """Pay every worker's interpreter-boot + import cost up front.

        Submits one import task per worker; ``hold_s`` keeps each busy
        long enough that all slots get one (benchmarks call this so
        measured wall-clock excludes one-time spawn cost).
        """
        futures = [
            self.submit(_warm_import, tuple(modules), hold_s,
                        worker_label="warmup")
            for _ in range(self.n_workers)
        ]
        done, not_done = cf_wait(futures, timeout=timeout)
        return not not_done

    # ------------------------------------------------------------------
    # Monitor internals (single thread; state mutations under the lock)
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (BrokenPipeError, OSError):
            pass

    def _spawn_locked(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        parent_hb, child_hb = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot.worker_id, child_conn, child_hb,
                  self.policy.heartbeat_interval),
            name=f"procpool-worker-{slot.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        child_hb.close()
        slot.process = process
        slot.conn = parent_conn
        slot.hb = parent_hb
        slot.task = None
        slot.respawn_at = None
        slot.kill_reason = None
        self._conn_to_slot[parent_conn] = slot
        self._conn_to_slot[parent_hb] = slot
        self.supervisor.register(slot.worker_id)

    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    break
                now = time.monotonic()
                for slot in self._slots:
                    if (slot.respawn_at is not None
                            and now >= slot.respawn_at):
                        self._spawn_locked(slot)
                        self.supervisor.emit(
                            "restart", worker=slot.worker_id,
                            restarts=self.supervisor.restarts(slot.worker_id),
                        )
                self._dispatch_locked()
                readers = [self._wake_r]
                for slot in self._slots:
                    if slot.live:
                        readers.append(slot.conn)
                        readers.append(slot.hb)
            try:
                ready = connection.wait(readers, timeout=self.policy.tick)
            except OSError:
                ready = []  # a pipe died between listing and waiting
            with self._lock:
                for reader in ready:
                    self._service_locked(reader)
                self._health_check_locked()
        self._teardown()

    def _dispatch_locked(self) -> None:
        for slot in self._slots:
            if not self._queue:
                return
            if not slot.live or slot.task is not None:
                continue
            task = self._queue.popleft()
            if not task.future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            try:
                slot.conn.send(
                    (task.task_id,) + task.payload
                )
            except (BrokenPipeError, OSError):
                # Worker died before the task left the parent: nothing
                # executed, so the task is safe to give to another slot.
                self._queue.appendleft(task)
                self._handle_death_locked(slot, "dead")
                continue
            except Exception as exc:
                # The payload would not pickle — a caller bug, not a
                # worker fault.
                if task.label is not None:
                    exc.add_note(
                        f"[repro.parallel.ProcessWorkerPool] failed to "
                        f"serialize task: {task.label}"
                    )
                task.future.set_exception(exc)
                continue
            slot.task = task
            self.supervisor.task_started(slot.worker_id)

    def _service_locked(self, reader) -> None:
        if reader is self._wake_r:
            try:
                while self._wake_r.poll():
                    self._wake_r.recv_bytes()
            except (EOFError, OSError):
                pass
            return
        slot = self._conn_to_slot.get(reader)
        if slot is None or not slot.live:
            return  # already handled as a death this round
        if reader is slot.hb:
            try:
                while slot.hb.poll():
                    _pid, payload = slot.hb.recv()
                    self.supervisor.beat(slot.worker_id)
                    # a beat's payload carries optional task telemetry
                    if payload is not None and self.on_aux is not None:
                        try:
                            self.on_aux(slot.worker_id, payload)
                        except Exception:
                            pass  # observer bug; never kill the monitor
            except (EOFError, OSError):
                self._handle_death_locked(slot, "dead")
            return
        try:
            task_id, ok, value, err = slot.conn.recv()
        except (EOFError, OSError):
            self._handle_death_locked(slot, "dead")
            return
        task = slot.task
        if task is None or task.task_id != task_id:
            return  # stale reply from a pre-kill task; nobody waits on it
        slot.task = None
        self.supervisor.task_finished(slot.worker_id)
        if ok:
            task.future.set_result(value)
        else:
            exc_type, message, remote_tb = err
            exc = RemoteTaskError(
                f"{exc_type}: {message}", exc_type=exc_type
            )
            exc.add_note(
                "remote traceback (worker process "
                f"{slot.worker_id}):\n{remote_tb.rstrip()}"
            )
            if task.label is not None:
                exc.add_note(
                    f"[repro.parallel.ProcessWorkerPool] raised while "
                    f"running: {task.label}"
                )
            task.future.set_exception(exc)

    def _health_check_locked(self) -> None:
        for slot in self._slots:
            if not slot.live:
                continue
            verdict = self.supervisor.verdict(
                slot.worker_id, alive=slot.process.is_alive()
            )
            if verdict is None:
                continue
            if verdict in ("hung", "deadline"):
                slot.kill_reason = verdict
                try:
                    slot.process.kill()
                except (OSError, ValueError):
                    pass
                slot.process.join(timeout=5.0)
            self._handle_death_locked(slot, verdict)

    def _handle_death_locked(self, slot: _Slot, verdict: str) -> None:
        process = slot.process
        if process is None:
            return
        reason = slot.kill_reason or (
            verdict if verdict in ("hung", "deadline") else "crash"
        )
        self._close_slot_pipes(slot)
        slot.process = None
        process.join(timeout=1.0)
        exitcode = process.exitcode
        self.supervisor.note_death(slot.worker_id, reason)
        task = slot.task
        slot.task = None
        self.supervisor.task_finished(slot.worker_id)
        if task is not None:
            if reason in ("hung", "deadline"):
                why = (
                    "missed heartbeats "
                    f"(> {self.policy.heartbeat_timeout:g}s silent)"
                    if reason == "hung"
                    else "task deadline "
                    f"({self.policy.task_deadline:g}s) exceeded"
                )
                exc: WorkerCrashError = WorkerHungError(
                    f"worker {slot.worker_id} killed by supervisor: {why}",
                    worker_id=slot.worker_id,
                    exitcode=exitcode,
                )
            else:
                exc = WorkerCrashError(
                    f"worker {slot.worker_id} died with exit code "
                    f"{exitcode} while running a task",
                    worker_id=slot.worker_id,
                    exitcode=exitcode,
                )
            if task.label is not None:
                exc.add_note(
                    f"[repro.parallel.ProcessWorkerPool] worker died "
                    f"while running: {task.label}"
                )
            task.future.set_exception(exc)
        respawn_at = self.supervisor.plan_restart(slot.worker_id)
        slot.respawn_at = respawn_at
        slot.kill_reason = None
        if respawn_at is None and all(
            s.retired for s in self._slots
        ):
            self._broken = True
            self.supervisor.emit("broken")
            while self._queue:
                queued = self._queue.popleft()
                if queued.future.set_running_or_notify_cancel():
                    queued.future.set_exception(PoolBrokenError(
                        "every worker slot exhausted its restart budget"
                    ))

    def _close_slot_pipes(self, slot: _Slot) -> None:
        for conn_attr in ("conn", "hb"):
            conn_obj = getattr(slot, conn_attr)
            if conn_obj is None:
                continue
            self._conn_to_slot.pop(conn_obj, None)
            try:
                conn_obj.close()
            except OSError:
                pass
            setattr(slot, conn_attr, None)

    def _teardown(self) -> None:
        """Final monitor step after ``shutdown``: stop every worker and
        resolve every future that could otherwise wait forever."""
        with self._lock:
            while self._queue:
                task = self._queue.popleft()
                task.future.cancel()
            for slot in self._slots:
                if not slot.live:
                    continue
                if slot.task is None:
                    try:
                        slot.conn.send(None)  # graceful: finish and exit
                    except (BrokenPipeError, OSError):
                        pass
                else:
                    try:
                        slot.process.kill()
                    except (OSError, ValueError):
                        pass
                    slot.task.future.set_exception(PoolBrokenError(
                        "pool shut down before the task finished"
                    ))
                    slot.task = None
            for slot in self._slots:
                if slot.live:
                    slot.process.join(timeout=5.0)
                    if slot.process.is_alive():
                        try:
                            slot.process.kill()
                        except (OSError, ValueError):
                            pass
                        slot.process.join(timeout=5.0)
                    self._close_slot_pipes(slot)
                    slot.process = None
                slot.respawn_at = None
        for wake in (self._wake_r, self._wake_w):
            try:
                wake.close()
            except OSError:
                pass
