"""The benchmark's workloads: GSU19 through ``run_protocol`` and ``run_many``.

Each workload is one *call* the user makes (timed from call to return),
followed by checks of its output that are not timed.  Every call builds its
protocol with ``GSULeaderElection.for_population(n)`` and dispatches with
``engine="auto"``.  Sizes are scaled so that one benchmark run repeats each
call several times within its time budget; ``smoke`` selects tiny sizes of
the same calls for the benchmark's own tests.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.core.monitor import RoleCensusRecorder
from repro.core.protocol import GSULeaderElection
from repro.engine import run_many, run_protocol
from repro.engine.dispatch import COUNTBATCH_FORCE_N, kernel_available
from repro.experiments.io import read_checkpoint
from repro.experiments.store import ExperimentStore

from instrument import Probe

#: Elections get a generous budget so that a slow tail run still ends with
#: one leader; hitting it counts as a failed run.
ELECT_BUDGET = 8192.0

#: The sweep runs serially, ``run_many``'s default.  With 2 workers the
#: ``auto`` backend picks threads, and these GIL-bound cells (LUT-miss
#: compiles in Python) then ran slower than serial (7.9-9.3 s against
#: 6.6-7.2 s for one 12-cell sweep on 2 CPUs) and twice as noisy.  The
#: tracer also relies on calls running on one thread.
SWEEP_WORKERS = 1


@dataclass
class CallOutcome:
    """What one timed call did, and what its output checks found."""

    wall_s: float
    interactions: int
    runs: int
    failures: List[str] = field(default_factory=list)
    #: Engine per run and the reason visible from outside the library.
    dispatch: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class Session:
    """What the calls made by one workload process share."""

    probe: Probe
    #: Scratch directory for stores and checkpoints.
    workdir: Path
    #: Tiny sizes, for the benchmark's own tests.
    smoke: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    call: Callable[[Session, int], CallOutcome]
    #: Calls each workload process makes.  ``1`` gives every call a fresh
    #: process, so that per-process work (import, the closure BFS, which is
    #: cached only in memory) is part of every sample.
    calls_per_process: int = 1


def dispatch_reason(protocol, n: int, engine: str) -> Dict[str, object]:
    """Engine ``auto`` chose for ``(protocol, n)``, with the public inputs
    that explain the choice."""
    hint = protocol.occupied_states_hint()
    if engine == "countbatch":
        reason = (
            "count mode forced: n >= COUNTBATCH_FORCE_N"
            if n >= COUNTBATCH_FORCE_N
            else "count-batch cost model profitable at the frontier hint"
        )
    elif engine == "fastbatch":
        reason = (
            "per-agent kernel engine: n is below COUNTBATCH_FORCE_N, so count "
            "mode is not forced"
        )
    else:
        reason = "below the per-agent batch crossover"
    return {
        "engine": engine,
        "reason": reason,
        "n": n,
        "occupied_states_hint": hint,
        "kernel_available": kernel_available(),
    }


def _check_counts(result, n: int, failures: List[str]) -> None:
    total = sum(result.final_counts.values())
    if total != n:
        failures.append(f"final counts sum to {total}, expected n={n}")


def _dispatch(probe: Probe, protocols: Dict[int, object]) -> List[Dict[str, object]]:
    """One dispatch record per population size the call ran."""
    engines = dict(probe.engines)
    return [dispatch_reason(protocols[n], n, engines[n]) for n in sorted(engines)]


def _timed(probe: Probe, call: Callable[[], object]):
    """``(call(), seconds)``: the user call alone, under the ``call`` span
    when tracing."""
    started = perf_counter()
    if probe.tracer is None:
        result = call()
    else:
        with probe.tracer.span("call"):
            result = call()
    return result, perf_counter() - started


# ----------------------------------------------------------------------
def elect(session: Session, seed: int) -> CallOutcome:
    """One election to a single leader: ``run_protocol`` defaults apart from
    the budget, on a freshly built protocol as in a convergence table."""
    probe = session.probe
    n = 256 if session.smoke else 2048
    protocol = probe.protocol(GSULeaderElection.for_population(n))
    result, wall = _timed(
        probe,
        lambda: run_protocol(
            protocol, n, seed=seed, engine_cls="auto", max_parallel_time=ELECT_BUDGET
        ),
    )
    failures = []
    if not result.converged or result.leader_count != 1:
        failures.append(
            f"seed {seed}: converged={result.converged} "
            f"leaders={result.leader_count}"
        )
    _check_counts(result, n, failures)
    return CallOutcome(
        wall, result.interactions, 1, failures, _dispatch(probe, {n: protocol})
    )


def _window(
    session: Session,
    seed: int,
    n: int,
    budget: float,
    protocol,
    checkpoint_every: Optional[int] = None,
    recorders=(),
) -> CallOutcome:
    """A fixed parallel-time window; running out of budget is the expected end."""
    checkpoint = session.workdir / f"window-{seed}.ckpt" if checkpoint_every else None
    result, wall = _timed(
        session.probe,
        lambda: run_protocol(
            protocol,
            n,
            seed=seed,
            engine_cls="auto",
            max_parallel_time=budget,
            recorders=list(recorders),
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint,
        ),
    )
    failures = []
    expected = int(round(budget * n))
    if result.converged or result.interactions != expected:
        failures.append(
            f"n={n} seed {seed}: stopped at {result.interactions} interactions "
            f"(converged={result.converged}), expected the budget {expected}"
        )
    _check_counts(result, n, failures)
    if checkpoint is not None:
        payload = read_checkpoint(checkpoint)
        if int(payload.get("n", -1)) != n:
            failures.append(f"checkpoint reloads at n={payload.get('n')}, expected {n}")
        checkpoint.unlink()
    return CallOutcome(wall, result.interactions, 1, failures)


def windows(session: Session, seed: int) -> CallOutcome:
    """Two fixed windows, as one session of calls.

    First 5 parallel-time units at n = 10^8: dispatch is forced to count
    mode and pays the reachable-closure BFS.  The clock modulus is Γ = 4
    instead of the default 24, which keeps the closure at 289 states, so
    the BFS takes about a second instead of about a minute.  Then 10
    parallel-time units at n = 10^7 on the per-agent engine, with a
    role-census recorder and a checkpoint every 3 n interactions (three
    writes).
    """
    probe, smoke = session.probe, session.smoke
    big = COUNTBATCH_FORCE_N if smoke else 100_000_000
    mid = 10_000 if smoke else 10_000_000
    count_protocol = probe.protocol(GSULeaderElection.for_population(big, gamma=4))
    agent_protocol = probe.protocol(GSULeaderElection.for_population(mid))
    recorder = RoleCensusRecorder()
    parts = [
        _window(session, seed, big, 0.5 if smoke else 5.0, count_protocol),
        _window(
            session,
            seed,
            mid,
            10.0,
            agent_protocol,
            checkpoint_every=3 * mid,
            recorders=[recorder],
        ),
    ]
    failures = [failure for part in parts for failure in part.failures]
    if len(recorder.times) != 11:
        failures.append(f"recorder saw {len(recorder.times)} check points, expected 11")
    return CallOutcome(
        sum(part.wall_s for part in parts),
        sum(part.interactions for part in parts),
        len(parts),
        failures,
        _dispatch(probe, {big: count_protocol, mid: agent_protocol}),
    )


class SweepFactory:
    """Protocol factory for ``run_many``; instruments the protocols it builds
    in this process and pickles to a plain factory for worker processes."""

    def __init__(self, probe: Optional[Probe]) -> None:
        self.probe = probe

    def __call__(self, n: int):
        protocol = GSULeaderElection.for_population(n)
        return protocol if self.probe is None else self.probe.protocol(protocol)

    def __getstate__(self) -> dict:
        return {"probe": None}


def sweep_small(session: Session, seed: int) -> CallOutcome:
    """``run_many`` over 4 sizes x 3 seeds into a fresh store, then a resume
    pass over the same store that must load every cell.  Sizes are listed
    largest first, so the scheduler starts the longest cells first."""
    probe = session.probe
    ns = [512, 256] if session.smoke else [2048, 1024, 512, 256]
    repetitions = 2 if session.smoke else 3
    directory = session.workdir / f"store-{seed}"
    store = probe.store(ExperimentStore(directory))
    factory = SweepFactory(probe if probe.tracer is not None else None)
    kwargs = dict(
        repetitions=repetitions,
        base_seed=seed,
        max_parallel_time=ELECT_BUDGET,
        workers=SWEEP_WORKERS,
        engine="auto",
        store=store,
    )
    tracer = probe.tracer

    def sweep(label: str):
        if tracer is None:
            return run_many(factory, ns, **kwargs)
        with tracer.span("parallel.run_many", **{"pass": label}):
            return run_many(factory, ns, **kwargs)

    (fresh, resumed), wall = _timed(probe, lambda: (sweep("fresh"), sweep("resume")))
    failures = []
    for point in fresh:
        result = point.result
        if not result.converged or result.leader_count != 1:
            failures.append(
                f"cell n={point.n} seed={point.seed}: converged="
                f"{result.converged} leaders={result.leader_count}"
            )
        _check_counts(result, point.n, failures)
    if len(fresh) != len(ns) * repetitions:
        failures.append(f"sweep returned {len(fresh)} cells")
    uncached = [p for p in resumed if not p.extra.get("cached")]
    if uncached or len(resumed) != len(fresh):
        failures.append(f"resume pass re-ran {len(uncached)} cells")
    shutil.rmtree(directory, ignore_errors=True)
    return CallOutcome(
        wall,
        sum(point.result.interactions for point in fresh),
        len(fresh),
        failures,
        _dispatch(probe, {n: GSULeaderElection.for_population(n) for n in ns}),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "elect-2048",
            "Time to one leader via run_protocol at n=2048: LUT-miss compiles and "
            "per-chunk kernel re-entry dominate, as in the paper's convergence runs",
            elect,
            calls_per_process=6,
        ),
        Workload(
            "sweep-small",
            "run_many over 4 sizes x 3 seeds into a fresh store, then a resume "
            "pass: the only user of the sweep scheduler and the store",
            sweep_small,
        ),
        Workload(
            "windows",
            "5 time units at n=10^8 (forced count mode, closure BFS per process), "
            "then 10 at n=10^7 (O(n) construction, recorder, 3 checkpoints)",
            windows,
        ),
    )
}

__all__ = ["CallOutcome", "Session", "WORKLOADS", "Workload", "dispatch_reason"]
