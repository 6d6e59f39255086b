"""Host-time attribution by layer, measured from outside the program.

:class:`Tracer` installs wrappers around the public entry points of each
layer of ``repro`` (listed in :data:`ENTRY_POINTS`) and around every
process the simulation engine spawns.  Each wrapped call is a span with a
name, a start, an end and the span it was called from.  A generator entry
point (``yield from comm.send(...)``) is one span whose time is the sum of
the host time over that generator's resumptions.

A span's *self time* is its time minus the time of the spans nested in it;
a layer's self time is the sum over its spans.  The harness opens one root
span per pass (layer ``bench``), so the layer self times tile the traced
pass exactly, up to float rounding.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every original object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: the layers, in report order; ``bench`` is the harness's own share
LAYERS = ("simtime", "datatypes", "p2p", "collectives", "petsc", "prof",
          "apps", "numpy", "bench")

#: Comm methods that enter the collectives layer (each delegates at once
#: into ``repro.mpi.collectives``); every other public Comm method is p2p
COLLECTIVE_METHODS = (
    "barrier", "bcast", "allreduce", "gather_obj", "allgatherv", "alltoallw",
    "reduce", "allreduce_array", "scan", "gatherv", "scatterv", "allgather",
    "alltoall", "sparse_alltoall",
)

#: numpy functions called by ``repro`` (ufuncs and types are left alone:
#: their attributes, e.g. ``np.add.reduce``, are used as objects)
NUMPY_FUNCTIONS = (
    "all", "any", "arange", "argmax", "argsort", "array", "array_equal",
    "ascontiguousarray", "asarray", "clip", "concatenate", "count_nonzero",
    "cumsum", "diff", "empty", "empty_like", "flatnonzero", "frombuffer",
    "full", "hstack", "isin", "ix_", "linspace", "max", "mean", "meshgrid",
    "ones", "prod", "repeat", "searchsorted", "stack", "sum", "take", "tile",
    "unique", "where", "zeros", "zeros_like",
)

#: layer -> entry-point specs.  ``module:name`` is a function,
#: ``module:Class.method`` one method, ``module:Class.*`` every public
#: method (and ``__init__``) the class defines, and ``module:*`` every
#: public function and class the module exports in ``__all__``.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "simtime": (
        "repro.simtime.engine:Engine.run",
        "repro.simtime.network:NetworkModel.transfer",
        "repro.simtime.network:NetworkModel.compute",
    ),
    "datatypes": (
        "repro.datatypes.packing:TypedBuffer.*",
        "repro.datatypes.ir:compile_datatype",
        "repro.datatypes.engine:engine_for",
        "repro.datatypes.engine:make_engine",
        "repro.datatypes.engine:unpack_stage_cost",
        "repro.datatypes.engine:_EngineBase.plan",
        "repro.datatypes.typemap:Datatype.*",
        "repro.datatypes.typemap:Contiguous.__init__",
        "repro.datatypes.typemap:Vector.__init__",
        "repro.datatypes.typemap:HVector.__init__",
        "repro.datatypes.typemap:Indexed.__init__",
        "repro.datatypes.typemap:HIndexed.__init__",
        "repro.datatypes.typemap:IndexedBlock.__init__",
        "repro.datatypes.typemap:Struct.__init__",
        "repro.datatypes.typemap:Subarray.__init__",
        "repro.datatypes.typemap:Resized.__init__",
    ),
    "p2p": (
        "repro.mpi.comm:Cluster.__init__",
        "repro.mpi.comm:Cluster.run",
        "repro.mpi.comm:Comm.*",
        "repro.mpi.request:Request.*",
    ),
    "collectives": tuple(f"repro.mpi.comm:Comm.{m}" for m in COLLECTIVE_METHODS),
    "petsc": ("repro.petsc:*",),
    "prof": (
        "repro.prof:Profiler.*",
        "repro.prof.session:report",
        "repro.prof.session:write_chrome_trace",
    ),
    "apps": ("repro.apps:*",),
    "numpy": tuple(f"numpy:{f}" for f in NUMPY_FUNCTIONS),
}

#: module prefix -> layer, for the generators the engine spawns as
#: processes (most specific prefix first)
MODULE_LAYERS = (
    ("repro.simtime", "simtime"),
    ("repro.datatypes", "datatypes"),
    ("repro.mpi.collectives", "collectives"),
    ("repro.mpi.algorithms", "collectives"),
    ("repro.mpi", "p2p"),
    ("repro.petsc", "petsc"),
    ("repro.prof", "prof"),
    ("repro.apps", "apps"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "bench"


def _public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


class Tracer:
    """Span recorder over wrapped layer entry points.

    ``stats[key] = [calls, span seconds, self seconds]`` per entry point,
    keyed ``"<layer>:<name>"``.  :meth:`reset` clears them between passes.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        #: frames of the running spans: [child seconds, span id]; the
        #: bottom frame catches time spent outside any pass
        self.stack: List[list] = [[0.0, 0]]
        self._next_id = 0
        #: (span id, key, parent id, start, end, seconds) of finished
        #: spans while recording; None when not recording
        self.spans: Optional[List[tuple]] = None
        self.span_cap = 0
        #: zero-delay engine events scheduled
        self.zero_delay = 0
        #: clusters built while installed, with their zero-byte transfers
        self.clusters: List[Any] = []
        self.zero_byte = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- accounting -----------------------------------------------------

    def reset(self, record_spans: int = 0) -> None:
        for row in self.stats.values():
            row[0] = row[1] = row[2] = 0
        self.zero_delay = 0
        self.zero_byte = 0
        self.clusters = []
        self.spans = [] if record_spans else None
        self.span_cap = record_spans

    def _row(self, key: str) -> List[float]:
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def _new_span(self) -> int:
        self._next_id += 1
        return self._next_id

    def _log(self, sid: int, key: str, parent: int, start: float,
             end: float, seconds: float) -> None:
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, key, parent, start, end, seconds))

    def open_root(self) -> list:
        """Open the root span of one pass (layer ``bench``)."""
        frame = [0.0, self._new_span(), clock()]
        self.stack.append(frame)
        return frame

    def close_root(self, frame: list) -> None:
        seconds = clock() - frame[2]
        if self.stack.pop() is not frame:
            raise RuntimeError("unbalanced span stack")
        row = self._row("bench:pass")
        row[0] += 1
        row[1] += seconds
        row[2] += seconds - frame[0]

    def layer_self(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, row in self.stats.items():
            out[key.split(":", 1)[0]] += row[2]
        return out

    def layer_calls(self, layer: str) -> int:
        return int(sum(row[0] for key, row in self.stats.items()
                       if key.startswith(layer + ":")))

    def calls(self, key: str) -> int:
        return int(self.stats.get(key, (0,))[0])

    def span_seconds(self, key: str) -> float:
        return float(self.stats.get(key, (0, 0.0))[1])

    # -- wrappers -------------------------------------------------------

    def wrap_function(self, key: str, fn: Callable) -> Callable:
        row = self._row(key)
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row[0] += 1
            parent = stack[-1]
            frame = [0.0, tracer._new_span()]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                row[1] += dt
                row[2] += dt - frame[0]
                parent[0] += dt
                if tracer.spans is not None:
                    tracer._log(frame[1], key, parent[1], t0, t1, dt)

        return traced

    def wrap_generator(self, key: str, gen) -> Any:
        """A generator that forwards to ``gen``, timing each resumption."""
        row = self._row(key)
        row[0] += 1
        return self._timed(key, row, gen, self.stack[-1][1])

    def _timed(self, key: str, row: List[float], gen, parent_id: int):
        stack = self.stack
        sid = self._new_span()
        first = last = None
        busy = 0.0
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                parent = stack[-1]
                frame = [0.0, sid]
                stack.append(frame)
                t0 = clock()
                try:
                    out = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t1 = clock()
                    stack.pop()
                    dt = t1 - t0
                    busy += dt
                    row[1] += dt
                    row[2] += dt - frame[0]
                    parent[0] += dt
                    if first is None:
                        first = t0
                    last = t1
                try:
                    value, error = (yield out), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    value, error = None, exc
        finally:
            if self.spans is not None and first is not None:
                self._log(sid, key, parent_id, first, last, busy)

    def wrap_generator_function(self, key: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.wrap_generator(key, fn(*args, **kwargs))

        return traced

    def _wrap(self, key: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator_function(key, fn)
        return self.wrap_function(key, fn)

    # -- installation ---------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, name: str, new: Callable) -> None:
        """Replace ``module.name`` and every ``from module import name``
        alias of it inside ``repro``."""
        old = getattr(module, name)
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "")
            if mod is module or mname == "repro" or mname.startswith("repro."):
                if getattr(mod, name, None) is old:
                    self._patch(mod, name, new)

    def _patch_method(self, cls: type, name: str, key: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(key, raw.__func__))
        elif inspect.isfunction(raw):
            new = self._wrap(key, raw)
        else:
            return  # properties, slots and plain attributes stay as they are
        self._patch(cls, name, new)

    def _targets(self) -> List[Tuple[str, Any, Optional[type], str]]:
        """Resolve :data:`ENTRY_POINTS` to (layer, module, class, name).

        Explicit specs are resolved first, so a method they name (the
        collective methods of ``Comm``) is not claimed again by a ``*``.
        """
        explicit, starred = [], []
        for layer, specs in ENTRY_POINTS.items():
            for spec in specs:
                modname, _, path = spec.partition(":")
                module = importlib.import_module(modname)
                cname, _, meth = path.rpartition(".")
                if path == "*":
                    for name in module.__all__:
                        obj = getattr(module, name)
                        if inspect.isfunction(obj):
                            explicit.append((layer, module, None, name))
                        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                            starred += [(layer, module, obj, m)
                                        for m in obj.__dict__ if _public(m)]
                elif meth == "*":
                    cls = getattr(module, cname)
                    starred += [(layer, module, cls, m)
                                for m in cls.__dict__ if _public(m)]
                else:
                    cls = getattr(module, cname) if cname else None
                    explicit.append((layer, module, cls, meth))
        seen, out = set(), []
        for layer, module, cls, name in explicit + starred:
            ident = (id(cls), name) if cls else id(getattr(module, name))
            if ident not in seen:
                seen.add(ident)
                out.append((layer, module, cls, name))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module, cls, name in self._targets():
            if cls is None:
                self._patch_function(module, name, self._wrap(
                    f"{layer}:{name}", getattr(module, name)))
            else:
                self._patch_method(cls, name, f"{layer}:{cls.__name__}.{name}")
        self._install_engine_hooks()

    def _install_engine_hooks(self) -> None:
        from repro.mpi.comm import Cluster
        from repro.simtime.engine import Engine

        tracer = self
        spawn, schedule = Engine.spawn, Engine.schedule
        init = Cluster.__dict__["__init__"]  # already the traced wrapper

        def traced_spawn(engine, gen, name=""):
            frame = getattr(gen, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame else ""
            label = getattr(gen, "__qualname__", "process")
            key = f"{layer_of_module(module)}:process {label}"
            return spawn(engine, tracer.wrap_generator(key, gen),
                         name or getattr(gen, "__name__", "proc"))

        def counted_schedule(engine, delay, fn):
            if delay == 0:
                tracer.zero_delay += 1
            return schedule(engine, delay, fn)

        def on_transfer(event) -> None:
            if event.nbytes == 0:
                tracer.zero_byte += 1

        def observed_init(cluster, *args, **kwargs):
            init(cluster, *args, **kwargs)
            cluster.net.add_transfer_listener(on_transfer)
            tracer.clusters.append(cluster)

        self._patch(Engine, "spawn", traced_spawn)
        self._patch(Engine, "schedule", counted_schedule)
        self._patch(Cluster, "__init__", functools.wraps(init)(observed_init))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
