"""Differential test of the engine's ready queue against a heap-only engine.

:class:`HeapOnlyEngine` keeps the scheduler as it was before the ready
queue: every event, zero-delay or not, is a ``(time, seq, fn)`` heap entry.
Hypothesis generates process scripts -- zero delays, delays that round to
``now``, equal-time positive delays, nested spawns and joins, timeouts that
are cancelled, kills, processes that abort the run, futures nobody resolves
-- and runs each on both engines, stopping and resuming with
``run(until=...)``.  Both must fire the same events in the same order, count
the same ``events_fired``, end at the same ``now`` and report the same
blocked processes on deadlock.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.engine import (
    _DEADLOCK_DETAIL_LIMIT,
    Delay,
    Engine,
    SimulationDeadlock,
    _describe_wait,
)


class HeapOnlyEngine(Engine):
    """The scheduler before the ready queue: one heap for every event."""

    def schedule(self, delay: float, fn) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def run(self, until: Optional[float] = None) -> float:
        while self._heap:
            t, _seq, fn = heapq.heappop(self._heap)
            if until is not None and t > until:
                heapq.heappush(self._heap, (t, _seq, fn))
                self.now = until
                return self.now
            self.now = t
            self.events_fired += 1
            fn()
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


#: 1e-300 rounds to ``now`` at any now >= ~1e-284 but not at 0; 0.1 + 0.2
#: and 0.3 land on different floats, 0.25 + 0.25 and 0.5 on the same one
DELAYS = (0.0, 1e-300, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0)

delay = st.sampled_from(DELAYS)
action = st.one_of(
    st.tuples(st.just("delay"), delay),
    st.tuples(st.just("spawn"), st.integers(0, 7)),
    st.tuples(st.just("join")),
    # timeout(d); cancel mode 0: never, 1: at once, 2: by an event
    st.tuples(st.just("timeout"), delay, st.integers(0, 2), delay),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("resolve"), st.integers(0, 2)),
    st.tuples(st.just("kill"), st.integers(0, 15), st.booleans()),
    st.tuples(st.just("callback"), delay),
    # several events scheduled back to back, without yielding in between
    st.tuples(st.just("burst"), st.lists(delay, min_size=2, max_size=4)),
    st.tuples(st.just("raise")),
)
scripts = st.lists(st.lists(action, max_size=6), min_size=1, max_size=6)
untils = st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 1.5)),
                  max_size=3).map(sorted)


class Boom(RuntimeError):
    pass


class World:
    """One run of ``scripts`` on one engine; ``log`` is the firing order."""

    def __init__(self, engine: Engine, scripts: List[list]):
        self.eng = engine
        self.scripts = scripts
        self.log: List[tuple] = []
        self.procs: List[Any] = []
        self.futures = [engine.future(f"shared{k}") for k in range(3)]

    def note(self, *what: Any) -> None:
        self.log.append((self.eng.now.hex(), *what))

    def spawn(self, index: int, name: str) -> Any:
        proc = self.eng.spawn(self.body(index, name), name)
        self.procs.append(proc)
        return proc

    def body(self, index: int, name: str):
        eng = self.eng
        children: List[Any] = []
        for step, act in enumerate(self.scripts[index]):
            self.note(name, step, act[0])
            kind = act[0]
            if kind == "delay":
                yield Delay(act[1])
            elif kind == "spawn":
                # scripts only spawn later scripts, so spawning terminates
                later = len(self.scripts) - index - 1
                if later:
                    child = index + 1 + act[1] % later
                    children.append(self.spawn(child, f"{name}.{step}"))
            elif kind == "join" and children:
                try:
                    result = yield children.pop(0)
                    self.note(name, step, "joined", repr(result))
                except Exception as exc:  # noqa: BLE001 - logged and compared
                    self.note(name, step, "join raised", type(exc).__name__)
            elif kind == "timeout":
                fut = eng.timeout(act[1])
                if act[2] == 1:
                    fut.cancel()
                elif act[2] == 2:
                    eng.schedule(act[3], fut.cancel)
                yield fut
                self.note(name, step, "timeout cancelled", fut.cancelled)
            elif kind == "wait":
                value = yield self.futures[act[1]]
                self.note(name, step, "woke", value)
            elif kind == "resolve":
                fut = self.futures[act[1]]
                if not fut.done:
                    fut.set_result(f"{name}.{step}")
            elif kind == "kill" and self.procs:
                target = self.procs[act[1] % len(self.procs)]
                if target.name != name:  # a process cannot close itself
                    exc = Boom(f"killed by {name}") if act[2] else None
                    self.note(name, step, "kill", target.name,
                              eng.kill(target, exc))
            elif kind == "callback":
                eng.schedule(act[1],
                             lambda n=name, s=step: self.note(n, s, "callback"))
            elif kind == "burst":
                for i, d in enumerate(act[1]):
                    eng.schedule(d, lambda n=name, s=step, i=i:
                                 self.note(n, s, "burst", i))
            elif kind == "raise":
                raise Boom(f"{name} step {step}")
        return name


def play(engine: Engine, scripts: List[list], untils: List[float]) -> dict:
    """Run ``scripts`` on ``engine`` through every stop in ``untils`` and
    then to the end; a run aborted by a raising process is resumed."""
    world = World(engine, scripts)
    for i in range(len(scripts)):
        world.spawn(i, f"p{i}")
    outcome: dict = {"stops": []}
    for stop in [*untils, None]:
        for _attempt in range(len(scripts) * 8 + 2):
            try:
                outcome["stops"].append(("ran", engine.run(until=stop).hex()))
                break
            except Boom as exc:
                outcome["stops"].append(("aborted", str(exc),
                                         engine.now.hex()))
            except SimulationDeadlock as exc:
                outcome["stops"].append(("deadlock", str(exc), exc.blocked))
                break
        if stop is not None:
            # work submitted between runs, at the stopped clock
            world.spawn(0, f"late{stop}")
            engine.schedule(0.0, lambda s=stop: world.note("between", s))
    outcome.update(log=world.log, events_fired=engine.events_fired,
                   now=engine.now.hex(),
                   results=[(p.name, p.done, repr(p.result),
                             type(p.exception).__name__) for p in world.procs])
    return outcome


@settings(max_examples=300, deadline=None)
@given(scripts, untils)
def test_ready_queue_fires_in_heap_order(scripts, untils):
    assert play(Engine(), scripts, untils) == \
        play(HeapOnlyEngine(), scripts, untils)


def test_tiny_delay_at_nonzero_now_uses_the_ready_queue():
    """At ``now = 1.0`` a 1e-300 delay does not move the clock: it queues
    behind the events already ready and ahead of the ones scheduled after
    it, exactly where its heap seq would put it."""
    eng = Engine()
    order = []

    def ready_event():
        eng.schedule(1e-300, lambda: order.append("tiny"))
        eng.schedule(0.0, lambda: order.append("zero, scheduled after"))
        assert len(eng._ready) == 2
        assert all(t > eng.now for t, _seq, _fn in eng._heap)
        order.append("ready")

    eng.schedule(1.0, lambda: eng.schedule(0.0, ready_event))
    eng.schedule(1.0, lambda: order.append("heap, same time"))
    eng.schedule(1.0 + 1e-15, lambda: order.append("later"))
    eng.run(until=1.0)
    assert order == ["heap, same time", "ready", "tiny",
                     "zero, scheduled after"]
    assert eng.now == 1.0 and not eng._ready
    eng.run()
    assert order[-1] == "later" and eng.events_fired == 6


def test_heap_entries_due_now_fire_before_the_ready_queue_after_an_abort():
    """A raising event leaves same-time heap entries behind; resuming the
    run fires them before the zero-delay events queued meanwhile."""
    order = []

    def raiser():
        eng.schedule(0.0, lambda: order.append("zero-delay"))
        raise Boom("abort")

    for eng in (Engine(), HeapOnlyEngine()):
        order.clear()
        eng.schedule(1.0, raiser)
        eng.schedule(1.0, lambda: order.append("heap, same time"))
        try:
            eng.run()
        except Boom:
            pass
        eng.run()
        assert order == ["heap, same time", "zero-delay"]
