"""Discrete-event engine with generator-based processes.

A *process* is a Python generator.  It advances by yielding one of:

- :class:`Delay` -- resume after a fixed amount of simulated time,
- :class:`SimFuture` -- resume when the future is resolved; the ``yield``
  expression evaluates to the future's value,
- another :class:`SimProcess` -- resume when that process terminates; the
  ``yield`` evaluates to its return value (exceptions propagate).

Subroutines compose with ``yield from`` and return values through
``return`` / ``StopIteration`` as usual, which lets the higher layers (MPI,
PETSc) be written in a direct blocking style::

    def worker(comm):
        data = yield from comm.recv(source=0, tag=7)
        yield Delay(1e-6)           # charge some CPU time
        yield from comm.send(data, dest=2, tag=7)

The engine is fully deterministic: events at equal timestamps fire in the
order they were scheduled.  Events due at the current time (zero delays,
and delays too small to move the clock) skip the heap and wait in a FIFO
ready queue; :meth:`Engine.run` fires the heap's entries for the current
time before the queue, which is exactly the heap's ``(time, seq)`` order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class SimulationDeadlock(SimulationError):
    """Raised by :meth:`Engine.run` when live processes remain but no event
    can ever fire again (e.g. a receive whose matching send never happens).

    The message names every still-alive process and what it is blocked on;
    :attr:`blocked` carries the same data as ``(process_name, waiting_on)``
    pairs so harnesses (e.g. ``repro.faults.chaos``) can assert on it.
    """

    def __init__(self, message: str, blocked: Optional[list] = None):
        super().__init__(message)
        #: ``[(process_name, description_of_wait_target), ...]``
        self.blocked: list = blocked or []


class Delay:
    """Yieldable command: resume the process after ``duration`` sim-seconds.

    A negative duration is an error; zero is allowed and schedules the
    resumption at the current time (after already-queued events at that time).
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"negative delay: {duration!r}")
        self.duration = float(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.duration!r})"


class SimFuture:
    """A one-shot container for a value produced at some simulated time.

    Processes wait on a future by yielding it.  Multiple processes may wait
    on the same future; all are resumed (in wait order) when it resolves.
    """

    __slots__ = ("engine", "_value", "_exception", "_done", "_callbacks",
                 "name", "_cancelled")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._done = False
        self._callbacks: list[Callable[["SimFuture"], None]] = []
        self.name = name
        self._cancelled = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` resolved this future before its event."""
        return self._cancelled

    def cancel(self) -> bool:
        """Resolve the future *now* with ``None`` and mark it cancelled.

        Used to abandon races (e.g. a retransmit timer whose ack arrived
        first).  Safe against the original event firing later: timers
        created by :meth:`Engine.timeout` guard their event with a
        ``done`` check, so nothing resolves twice.  Returns False if the
        future had already resolved.
        """
        if self._done:
            return False
        self._cancelled = True
        self.set_result(None)
        return True

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"future {self.name!r} not resolved")
        if self._exception is not None:
            raise self._exception
        return self._value

    def set_result(self, value: Any = None) -> None:
        """Resolve the future immediately (at the current simulated time)."""
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._exception = exc
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)


class SimProcess:
    """A running generator, driven by the engine.

    Yielding a ``SimProcess`` from another process joins it.  The process'
    return value is available as :attr:`result` once :attr:`done`.
    """

    __slots__ = ("engine", "gen", "name", "done", "result", "_exception",
                 "_waiters", "_blocked_on")

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        self.engine = engine
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self._exception: Optional[BaseException] = None
        self._waiters: list[Callable[["SimProcess"], None]] = []
        #: what the process is currently suspended on (SimFuture, SimProcess
        #: or None for a Delay); read by the deadlock diagnostics
        self._blocked_on: Any = None

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def add_done_callback(self, cb: Callable[["SimProcess"], None]) -> None:
        if self.done:
            cb(self)
        else:
            self._waiters.append(cb)

    def _finish(self, result: Any, exc: Optional[BaseException]) -> None:
        self.done = True
        self.result = result
        self._exception = exc
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            cb(self)


class Engine:
    """The discrete-event scheduler.

    Typical use::

        eng = Engine()
        procs = [eng.spawn(worker(i)) for i in range(4)]
        eng.run()
        print(eng.now, [p.result for p in procs])
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: future events: ``(time, seq, fn)`` with ``time > now`` when pushed
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        #: events due at ``now``, in the order they were scheduled
        self._ready: deque[Callable[[], None]] = deque()
        self._live: dict[SimProcess, None] = {}  # insertion-ordered set
        #: instrumentation counters (read by repro.prof; cheap to maintain)
        self.events_fired = 0
        self.processes_spawned = 0

    @property
    def _live_processes(self) -> int:
        return len(self._live)

    def live_processes(self) -> list[SimProcess]:
        """Processes spawned but not yet finished (spawn order)."""
        return list(self._live)

    # -- scheduling primitives ------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` simulated seconds.

        An event that does not move the clock (``now + delay == now``) joins
        the ready queue; any other goes on the heap.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        now = self.now
        t = now + delay
        if t == now:
            self._ready.append(fn)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (t, self._seq, fn))

    def future(self, name: str = "") -> SimFuture:
        return SimFuture(self, name)

    def timeout(self, delay: float) -> SimFuture:
        """A future that resolves after ``delay`` sim-seconds.

        The future may be resolved earlier by the caller (``set_result`` /
        ``cancel``) without harm: the scheduled event checks ``done``
        before firing, so a timer abandoned by a race (ack-before-timeout)
        never resolves twice.
        """
        fut = self.future(f"timeout({delay})")

        def fire() -> None:
            if not fut.done:
                fut.set_result(None)

        self.schedule(delay, fire)
        return fut

    # -- processes -------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> SimProcess:
        """Register a generator as a process; it starts at the current time."""
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        proc = SimProcess(self, gen, name or getattr(gen, "__name__", "proc"))
        self._live[proc] = None
        self.processes_spawned += 1
        self.schedule(0.0, lambda: self._step(proc, _SEND, None))
        return proc

    def kill(self, proc: SimProcess, exc: Optional[BaseException] = None) -> bool:
        """Terminate ``proc`` immediately (simulated rank crash).

        Closes the underlying generator (``finally`` blocks run, releasing
        any held resources such as ports) and finishes the process with
        ``exc`` as its exception (or a plain ``None`` result when no
        exception is given).  Joiners are woken; a stale resume callback
        from whatever the process was blocked on becomes a no-op.  Returns
        False if the process had already finished.
        """
        if proc.done:
            return False
        try:
            proc.gen.close()
        except Exception:  # noqa: BLE001 - a dying rank must not kill the sim
            pass
        self._live.pop(proc, None)
        proc._blocked_on = None
        proc._finish(None, exc)
        return True

    def _step(self, proc: SimProcess, mode: int, payload: Any) -> None:
        if proc.done:
            return  # killed while a resume callback was in flight
        proc._blocked_on = None
        try:
            if mode == _SEND:
                cmd = proc.gen.send(payload)
            else:
                cmd = proc.gen.throw(payload)
        except StopIteration as stop:
            self._live.pop(proc, None)
            proc._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagated to joiners
            self._live.pop(proc, None)
            had_waiters = bool(proc._waiters)
            proc._finish(None, exc)
            if not had_waiters:
                # nobody joined this process: abort the simulation loudly
                # rather than swallowing the error
                raise
            return
        self._dispatch(proc, cmd)

    def _dispatch(self, proc: SimProcess, cmd: Any) -> None:
        # Resumptions from futures/processes are trampolined through the
        # ready queue (at the current time) rather than run synchronously:
        # long chains of already-resolved futures would otherwise recurse
        # arbitrarily deep through set_result -> callback -> step -> ...
        if isinstance(cmd, Delay):
            self.schedule(cmd.duration, lambda: self._step(proc, _SEND, None))
        elif isinstance(cmd, SimFuture):
            proc._blocked_on = cmd
            cmd.add_done_callback(
                lambda fut: self.schedule(
                    0.0, lambda: self._resume_from_future(proc, fut)
                )
            )
        elif isinstance(cmd, SimProcess):
            proc._blocked_on = cmd
            cmd.add_done_callback(
                lambda p: self.schedule(
                    0.0, lambda: self._resume_from_process(proc, p)
                )
            )
        else:
            err = SimulationError(
                f"process {proc.name!r} yielded {cmd!r}; expected Delay, "
                "SimFuture or SimProcess"
            )
            self.schedule(0.0, lambda: self._step(proc, _THROW, err))

    def _resume_from_future(self, proc: SimProcess, fut: SimFuture) -> None:
        if fut._exception is not None:
            self._step(proc, _THROW, fut._exception)
        else:
            self._step(proc, _SEND, fut._value)

    def _resume_from_process(self, proc: SimProcess, child: SimProcess) -> None:
        if child._exception is not None:
            self._step(proc, _THROW, child._exception)
        else:
            self._step(proc, _SEND, child.result)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Fire events until none is left; return the final simulated time.

        At each time the heap's entries for ``now`` fire first, then the
        ready queue drains, and only then does the clock advance.  A heap
        entry for ``now`` was pushed before the clock reached ``now``, so
        its seq is lower than that of anything in the ready queue: this is
        the heap's ``(time, seq)`` order.

        Raises :class:`SimulationDeadlock` if processes remain alive with no
        event left (they are waiting on futures nobody will resolve).
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        while True:
            while heap and heap[0][0] == self.now:
                self.events_fired += 1
                heappop(heap)[2]()
            while ready:
                self.events_fired += 1
                popleft()()
            if not heap:
                break
            t = heap[0][0]
            if until is not None and t > until:
                # stop the clock at `until`; the entry stays queued
                self.now = until
                return self.now
            self.now = t
        if self._live:
            blocked = [(p.name, _describe_wait(p._blocked_on))
                       for p in self._live]
            shown = blocked[:_DEADLOCK_DETAIL_LIMIT]
            details = "; ".join(f"{name!r} waiting on {what}"
                                for name, what in shown)
            if len(blocked) > len(shown):
                details += f"; ... and {len(blocked) - len(shown)} more"
            raise SimulationDeadlock(
                f"{len(blocked)} process(es) blocked forever at "
                f"t={self.now}: {details}",
                blocked=blocked,
            )
        return self.now

    def run_all(self, gens: Iterable[Generator], names: Optional[list[str]] = None) -> list[Any]:
        """Spawn every generator, run to completion, return their results."""
        gens = list(gens)
        names = names or [f"p{i}" for i in range(len(gens))]
        procs = [self.spawn(g, n) for g, n in zip(gens, names)]
        self.run()
        out = []
        for p in procs:
            if p._exception is not None:
                raise p._exception
            out.append(p.result)
        return out


_SEND = 0
_THROW = 1

#: cap on per-process detail in a SimulationDeadlock message
_DEADLOCK_DETAIL_LIMIT = 16


def _describe_wait(target: Any) -> str:
    """Human-readable description of what a process is suspended on."""
    if isinstance(target, SimFuture):
        return f"future {target.name!r}" if target.name else "an unnamed future"
    if isinstance(target, SimProcess):
        return f"process {target.name!r}"
    return "a pending event"
