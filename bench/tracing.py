"""Span tracing of the finsemi layers, applied from outside the package.

`traced(tracer)` replaces every public function of the eight finsemi
modules by a wrapper that records one span per call, wherever the
function is referenced: module globals (so calls between modules and the
CLI's argparse dispatch see the wrapper), the package namespace, and the
dispatch tables that hold functions (`decomposition.CHECKS`,
`properties._PREDICATES`, `cli._ZOO_FAMILIES`).  Leaving the block puts
the original functions back.

Generator functions get a wrapper that records one span per `next()`, so
the time spent producing each item is charged to the generator and not
to whoever consumes it.

Spans stay in memory as parallel arrays and are written out once, at the
end of a run.  Each span has a name, start and end (perf_counter_ns), the
index of its parent span (-1 at the root) and the id of the operation it
belongs to.  Pool workers forked from a traced process record into their
own copy of the tracer, which is discarded, so a traced multi-worker
pass shows the parent's wait as the self time of `run_checks`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

MODULES = (
    "core",
    "relations",
    "congruence",
    "properties",
    "decomposition",
    "enumeration",
    "zoo",
    "cli",
)


class Tracer:
    """In-memory span store plus the per-function counters that spans
    cannot carry (generator creations, exceptions, distinct arguments)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self._stack: list[int] = []
        self.trace_id = 0
        self.calls: dict[str, int] = {}
        self.yields: dict[str, int] = {}
        self.raised: dict[tuple[str, str], int] = {}
        self.distinct: dict[str, set] = {}

    def new_operation(self) -> None:
        """Start a new trace id; spans opened from now on belong to it."""
        self.trace_id += 1

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def durations_ns(self, name: str) -> list[int]:
        """Duration of every span with this name, in order."""
        i = self._name_ids.get(name)
        return [e - s for n, s, e in zip(self.name_of, self.start, self.end) if n == i]

    def self_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the time covered by its
        direct children.  Spans nest strictly (one thread), so the
        children's cover is the sum of their durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = dur[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, int] = {}
        for i, ns in enumerate(own):
            name = self.names[self.name_of[i]]
            out[name] = out.get(name, 0) + ns
        return out

    def write(self, path) -> None:
        """One line per span: trace_id parent name start_ns end_ns."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# trace_id parent_index name start_ns end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.trace[i]} {self.parent[i]} {self.names[self.name_of[i]]} "
                    f"{self.start[i]} {self.end[i]}\n"
                )


def _wrap(tracer: Tracer, name: str, fn):
    name_id = tracer._name_id(name)
    calls = tracer.calls
    calls.setdefault(name, 0)

    if inspect.isgeneratorfunction(fn):
        tracer.yields.setdefault(name, 0)

        def resume(it):
            while True:
                idx = tracer.open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.yields[name] += 1
                yield item

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            calls[name] += 1
            return resume(fn(*args, **kwargs))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        idx = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            key = (name, type(exc).__name__)
            tracer.raised[key] = tracer.raised.get(key, 0) + 1
            raise
        finally:
            tracer.close(idx)

    return wrapper


def _note_distinct(tracer: Tracer, name: str, wrapper):
    """Also record the distinct tables a one-table function was given."""
    seen = tracer.distinct.setdefault(name, set())

    @functools.wraps(wrapper)
    def noting(s, *args, **kwargs):
        seen.add(s.rows)
        return wrapper(s, *args, **kwargs)

    return noting


DISTINCT_ARGS = ("decomposition.decompose",)


def public_functions(modules):
    """(qualified name, function) for every public function defined in
    one of the given finsemi modules."""
    out = []
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                out.append((f"{short}.{attr}", value))
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every reference to a public finsemi function for the
    duration of the block.  The tracer's counts carry over from one block
    to the next."""
    modules = {m: importlib.import_module(f"finsemi.{m}") for m in MODULES}
    package = importlib.import_module("finsemi")
    wrapped = {}
    for name, fn in public_functions(modules):
        w = _wrap(tracer, name, fn)
        if name in DISTINCT_ARGS:
            w = _note_distinct(tracer, name, w)
        wrapped[id(fn)] = w

    def swap(value):
        if inspect.isfunction(value):
            return wrapped.get(id(value), value)
        if isinstance(value, tuple) and any(id(v) in wrapped for v in value):
            return tuple(wrapped.get(id(v), v) for v in value)
        return value

    undo = []
    for ns in [vars(m) for m in modules.values()] + [vars(package)]:
        for key, value in list(ns.items()):
            if key.startswith("__"):
                continue
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    new = swap(v)
                    if new is not v:
                        undo.append((value, k, v))
                        value[k] = new
            else:
                new = swap(value)
                if new is not value:
                    undo.append((ns, key, value))
                    ns[key] = new
    try:
        yield tracer
    finally:
        for container, key, original in reversed(undo):
            container[key] = original
