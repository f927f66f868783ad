"""Outside-in layer tracing: spans around calls into each layer.

The traced run wraps public entry points of each layer — module
functions, class methods and the callbacks of named periodic
processes — from this file, so no source under ``src/`` changes.  A
wrapper only reads the host clock and counts calls: it draws no
randomness and schedules no events, so a traced run must produce the
same fingerprint as an untraced one (``run.py`` checks this).

Spans nest (a drain tick calls ``lindley``; a fleet window runs
``Simulator.run_until``), so each layer is charged its *self* time:
its span's duration minus the time of the spans it caused.  The self
times of all layers therefore sum to no more than the traced wall.

Layer names follow the package modules.  ``sim.run_until`` is the
event loop; its self time is the request path (every event that is
not a periodic tick: the classic request handlers, the batched
engine's few scheduling events).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List

from repro.experiments.runner import PreparedRun
from repro.monitoring.columnar import ColumnarRows
from repro.shard import PodGroup
from repro.sim import batched as sim_batched
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.virt.scheduler import CreditScheduler

#: Periodic processes by name -> the layer their ticks are charged to.
#: Any other periodic process (guest OS housekeeping, memory models,
#: blkback flushes, controllers) is charged to ``sim.periodic_other``.
PERIODIC_LAYERS = {
    "batched-drain": "rubis.drain",
    "trace-recorder": "monitoring.tick",
    "credit-epoch": "virt.epoch",
    "dom0-housekeeping": "virt.housekeeping",
}
OTHER_PERIODIC = "sim.periodic_other"

#: (owner, attribute, layer) for each wrapped method.
METHOD_LAYERS = (
    (Simulator, "run_until", "sim.run_until"),
    (sim_batched.FcfsPool, "schedule", "sim.fcfs_schedule"),
    (ColumnarRows, "append_row", "monitoring.columnar_append"),
    (CreditScheduler, "allocate", "virt.allocate"),
    (PodGroup, "__init__", "shard.pod_build"),
    (PodGroup, "advance_to", "shard.advance"),
)
#: (defining module, function name, layer) for each wrapped function;
#: every ``repro`` module that imported the function by name is patched.
FUNCTION_LAYERS = ((sim_batched, "lindley", "sim.lindley"),)


class Tracer:
    """Self time and call counts per layer, from nested spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Every ExperimentResult collected while installed (fleet pods
        #: included), for the output checks.
        self.collected: List = []
        #: Child-span time accumulated by each open span.
        self._children: List[float] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        children = self._children
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def span(*args, **kwargs):
            children.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                inner = children.pop()
                self_s[layer] += elapsed - inner
                total_s[layer] += elapsed
                calls[layer] += 1
                if children:
                    children[-1] += elapsed

        span.__wrapped__ = fn
        return span

    @contextmanager
    def installed(self):
        """Patch every layer entry point; restore them on exit."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for owner, attr, layer in METHOD_LAYERS:
            patch(owner, attr, self.wrap(layer, owner.__dict__[attr]))
        for module, attr, layer in FUNCTION_LAYERS:
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if name.startswith("repro") and (
                    getattr(loaded, attr, None) is original
                ):
                    patch(loaded, attr, wrapped)

        init = PeriodicProcess.__init__
        tracer = self

        def periodic_init(process, *args, **kwargs):
            init(process, *args, **kwargs)
            layer = PERIODIC_LAYERS.get(process.name, OTHER_PERIODIC)
            process.callback = tracer.wrap(layer, process.callback)

        patch(PeriodicProcess, "__init__", periodic_init)

        collect = PreparedRun.collect

        def collecting(prepared):
            result = collect(prepared)
            tracer.collected.append(result)
            return result

        patch(PreparedRun, "collect", collecting)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def layer_self_sum(self) -> float:
        return sum(self.self_s.values())
