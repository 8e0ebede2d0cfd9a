"""Hooks a workload process installs around the library's public entry points.

:class:`Probe` always records, per ``Simulation.run``, which engine the run
resolved to and when the process reached its first run (the end of set-up).
That costs one extra Python frame per run.  Given a
:class:`~tracing.Tracer` it also records spans at every layer boundary:

===========================  =================================================
span                         wrapped entry point
===========================  =================================================
``dispatch.resolve``         ``resolve_engine`` as seen by ``Simulation`` and
                             by the sweep scheduler
``closure.bfs``              ``protocol.canonical_states``
``table.compile``            ``protocol.compile``
(counter) ``table.transition``  ``protocol.transition`` (LUT-miss compiles)
``simulation.construct``     ``Simulation(...)``
``simulation.run``           ``Simulation.run`` (self time = kernel time)
``convergence.predicate``    the run's convergence predicate
``monitor.record``           each recorder's ``record``
``io.checkpoint``            ``Simulation.write_checkpoint``
``parallel.cell``            ``run_protocol`` as called by the sweep scheduler
``store.write``/``store.read``  ``ExperimentStore.save_result``/``load_result``
===========================  =================================================

Objects are instrumented by swapping their class for a subclass that keeps
the original ``__module__``/``__qualname__`` and adds no instance
attributes, so protocol fingerprints and store keys are unchanged.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import repro.engine.parallel as parallel_module
import repro.engine.simulation as simulation_module
from repro.engine.dispatch import canonical_name

from tracing import Tracer


class Probe:
    """Run observer for one workload process; see the module docstring."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        #: ``time.monotonic()`` at the first ``Simulation.run`` entry.
        self.first_run_at: Optional[float] = None
        #: ``(n, engine registry name)`` of the runs since :meth:`reset`.
        self.engines: List[tuple] = []
        self._tables: Dict[int, object] = {}
        self._classes: Dict[tuple, type] = {}
        #: True while ``canonical_states`` runs the closure BFS.
        self._in_closure = False
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------
    def install(self) -> "Probe":
        patches = [(simulation_module, "Simulation", self._simulation_class())]
        if self.tracer is not None:
            resolve = self._traced_resolve(simulation_module.resolve_engine)
            patches += [
                (simulation_module, "resolve_engine", resolve),
                (parallel_module, "resolve_engine", resolve),
                (parallel_module, "run_protocol", self._traced_cell()),
            ]
        for module, name, value in patches:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def reset(self) -> None:
        """Start a new call: forget engines, tables and recorded spans."""
        self.engines.clear()
        self._tables.clear()
        if self.tracer is not None:
            self.tracer.reset()

    def compiled_pairs(self) -> int:
        """Transition pairs compiled into the tables used since :meth:`reset`."""
        return sum(table.compiled_pairs for table in self._tables.values())

    # ------------------------------------------------------------------
    # Module-level entry points
    # ------------------------------------------------------------------
    def _simulation_class(self) -> type:
        probe = self
        tracer = self.tracer
        base = simulation_module.Simulation

        class ProbedSimulation(base):
            def __init__(self, *args, **kwargs) -> None:
                if tracer is None:
                    super().__init__(*args, **kwargs)
                    return
                with tracer.span("simulation.construct"):
                    super().__init__(*args, **kwargs)
                probe.trace_calls(self.convergence, "__call__", "convergence.predicate")
                for recorder in self.recorders:
                    probe.trace_calls(recorder, "record", "monitor.record")

            def run(self, **kwargs):
                engine = canonical_name(type(self.engine))
                probe.engines.append((self.n, engine))
                if probe.first_run_at is None:
                    probe.first_run_at = time.monotonic()
                if tracer is None:
                    return super().run(**kwargs)
                with tracer.span("simulation.run", engine=engine):
                    return super().run(**kwargs)

            def write_checkpoint(self):
                if tracer is None:
                    return super().write_checkpoint()
                with tracer.span("io.checkpoint") as attrs:
                    path = super().write_checkpoint()
                    attrs["bytes"] = path.stat().st_size
                return path

        ProbedSimulation.__qualname__ = base.__qualname__
        ProbedSimulation.__module__ = base.__module__
        return ProbedSimulation

    def _traced_resolve(self, original: Callable) -> Callable:
        tracer = self.tracer

        def resolve_engine(*args, **kwargs):
            with tracer.span("dispatch.resolve") as attrs:
                resolved = original(*args, **kwargs)
                attrs["engine"] = canonical_name(resolved)
            return resolved

        return resolve_engine

    def _traced_cell(self) -> Callable:
        tracer = self.tracer
        original = parallel_module.run_protocol

        def run_protocol(protocol, n, **kwargs):
            with tracer.span("parallel.cell", n=n, seed=kwargs.get("seed")):
                return original(protocol, n, **kwargs)

        return run_protocol

    # ------------------------------------------------------------------
    # Instances the benchmark builds
    # ------------------------------------------------------------------
    def _swap_class(self, obj, kind: str, make: Callable[[type], dict]):
        base = type(obj)
        key = (base, kind)
        cls = self._classes.get(key)
        if cls is None:
            cls = type(base.__name__, (base,), make(base))
            cls.__qualname__ = base.__qualname__
            cls.__module__ = base.__module__
            self._classes[key] = cls
            self._classes[(cls, kind)] = cls
        obj.__class__ = cls
        return obj

    def trace_calls(self, obj, method: str, span: str):
        """Record a ``span`` around every call of ``obj.method``."""
        if self.tracer is None:
            return obj
        tracer = self.tracer

        def make(base: type) -> dict:
            original = getattr(base, method)

            def traced(self, *args, **kwargs):
                with tracer.span(span):
                    return original(self, *args, **kwargs)

            return {method: traced}

        return self._swap_class(obj, f"{method}:{span}", make)

    def protocol(self, protocol):
        """Record compiles and closure BFS; count ``transition`` calls."""
        if self.tracer is None:
            return protocol
        tracer = self.tracer
        probe = self

        def make(base: type) -> dict:
            def compile(self, encoder=None):
                with tracer.span("table.compile"):
                    table = base.compile(self, encoder)
                probe._tables[id(table)] = table
                return table

            def canonical_states(self):
                with tracer.span("closure.bfs") as attrs:
                    probe._in_closure = True
                    try:
                        states = base.canonical_states(self)
                    finally:
                        probe._in_closure = False
                    attrs["states"] = 0 if states is None else len(states)
                return states

            def transition(self, responder, initiator):
                if probe._in_closure:
                    tracer.add("closure.transition_calls")
                    return base.transition(self, responder, initiator)
                started = time.perf_counter()
                result = base.transition(self, responder, initiator)
                tracer.add_timed("table.transition", time.perf_counter() - started)
                return result

            return {
                "compile": compile,
                "canonical_states": canonical_states,
                "transition": transition,
            }

        return self._swap_class(protocol, "protocol", make)

    def store(self, store):
        """Record store writes (with their size) and reads."""
        if self.tracer is None:
            return store
        tracer = self.tracer

        def make(base: type) -> dict:
            def save_result(self, key, result, inputs=None):
                with tracer.span("store.write") as attrs:
                    path = base.save_result(self, key, result, inputs)
                    attrs["bytes"] = path.stat().st_size
                return path

            def load_result(self, key):
                with tracer.span("store.read"):
                    return base.load_result(self, key)

            return {"save_result": save_result, "load_result": load_result}

        return self._swap_class(store, "store", make)
