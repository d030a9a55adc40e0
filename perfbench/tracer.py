"""In-memory span tracer installed around nmoe's public functions from
outside the package.

install() replaces every public function of the nine working modules
(the layers) with a timing wrapper, at every module that binds it: a
function imported by name into another module is wrapped there too, so
calls through either binding are seen. ParamSet.__init__ is wrapped as
well, since parameter-set construction is a cost of its own. Spans are
kept as parallel lists (name, parent index, start and end in ns) and
written out once the traced run is over. uninstall() restores every
binding. `wrapped` holds the name of every span install() set up, so a
caller can tell a function that was never called from one that was not
found (renamed, inlined, or compiled and so not a plain function).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("pipeline", "federated", "numerics", "kernels", "moe",
          "datasets", "seeding", "netsim", "metrics")

PARAMSET_INIT = "numerics.ParamSet.__init__"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self._stack = [-1]
        self._undo: list = []
        self.wrapped: set = set()

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"nmoe.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) \
                        or value.__module__ != module.__name__ \
                        or inspect.isgeneratorfunction(value):
                    continue
                wrappers.setdefault(
                    id(value), (value, self._wrap(f"{layer}.{attr}", value)))
        for name, module in list(sys.modules.items()):
            if name != "nmoe" and not name.startswith("nmoe."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bind(module, attr, hit[1])
        param_set = sys.modules["nmoe.numerics"].ParamSet
        self._bind(param_set, "__init__",
                   self._wrap(PARAMSET_INIT, param_set.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def durations(self) -> list:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def write_tsv(self, path) -> None:
        """One line per span: id, parent id, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, row in enumerate(zip(self.parents, self.names,
                                        self.starts, self.ends)):
                fh.write(f"{i}\t{row[0]}\t{row[1]}\t{row[2]}\t{row[3]}\n")
