"""Engine selection: registry of named engines and the auto-dispatcher.

Every entry point that runs a simulation (``Simulation`` / ``run_protocol``,
``run_many``, the experiment runner, the CLI) accepts an *engine
specification*: an engine class, one of the registry names below, or
``"auto"``.  :func:`resolve_engine` normalises all three to a concrete
engine class; :func:`auto_engine` implements the ``"auto"`` policy.

Selection policy (see the measured crossovers in ``BENCH_engine.json``):

* ``SequentialEngine`` — per-agent Python loop with transitions from the
  protocol's shared compiled table.  Lowest constant factors among the
  pure-Python paths; the fastest exact engine for small populations when no
  C compiler is available.
* ``FastBatchEngine`` — exact batching over the per-agent array.  With its
  compiled C kernel (available whenever the system has a C compiler, see
  :mod:`repro.engine._ckernel`) it beats the sequential engine by an order
  of magnitude at *every* population size, so the dispatcher prefers it
  from a few hundred agents up.  Without the kernel it falls back to
  collision-aware NumPy batching, which overtakes the sequential engine
  around ``5 * 10^4`` agents (collision-free runs lengthen like
  ``sqrt(n)``, so its advantage grows with ``n``).
* ``CountBatchEngine`` — exact in distribution, ``O(k)`` memory, and
  processes collision-free runs of ``Θ(sqrt(n))`` interactions per batched
  update whose cost follows the *occupied* state frontier.  From
  ``_COUNTBATCH_MIN_N`` agents every protocol with an ``O(k)``
  ``initial_counts`` is eligible, and one rule (below) decides whether it
  is dispatched there: the compiled count kernel is available, or
  ``n >= COUNTBATCH_FORCE_N``, or the protocol declares its complete state
  space.  The per-agent engines' ``O(n)`` arrays and construction loops
  stop being viable long before ``10^8``.

The approximate tier (never auto-selected)
==========================================

Two further engines trade exactness for asymptotics.  Both compile from
the same :class:`~repro.engine.table.TransitionTable` IR, support the full
observation / checkpoint API, and are **only** available by explicit
request — ``auto`` returns exact engines exclusively, so no dispatch path
can silently downgrade a correctness claim.  Their accuracy against the
exact tier is pinned by ``tests/test_engine_approx.py`` via
:mod:`repro.analysis.accuracy`.

* ``TauLeapEngine`` — **approximate** count-space leaping: whole leaps of
  interactions fire binomial per-channel counts at frozen start-of-leap
  probabilities, with Cao–Gillespie adaptive leap selection and
  negative-count rejection.  Same ``O(k)`` memory as the exact count
  engines, but the leap length is set by the *dynamics* (fraction
  ``epsilon`` of any count per leap) rather than by collision statistics,
  so it outruns count-batch when populations are large and dynamics are
  smooth.
* ``MeanFieldEngine`` — **deterministic** integration of the protocol's
  expected-count ODE (the ``n -> infinity`` fluid limit), adaptive
  embedded RK with exact mass conservation.  Cost is independent of ``n``
  entirely: a GSU19 scaling curve to ``n = 10^12`` is milliseconds per
  point.  Correct for mean occupancies up to ``O(1/sqrt(n))``
  fluctuations; says nothing about distributions or hitting times of
  individual runs.

Count dispatch: one rule
========================

From ``_COUNTBATCH_MIN_N`` agents (and never below it) ``auto`` may pick
``CountBatchEngine``.  Eligibility is an ``O(k)`` ``initial_counts``
(:func:`count_capable`); the transition table then grows lazily on the
frontier the run actually occupies, so no protocol needs a declared state
space to be count-dispatched.  An eligible protocol goes to
``CountBatchEngine`` when the first of these holds, tested in this order:

* **the compiled count kernel is available**
  (:mod:`repro.engine._count_kernel`, built by the same compiler probe as
  the fast-batch kernel).  A kernel batch costs about a microsecond plus a
  LUT lookup per occupied pairing cell and advances ``~0.886 sqrt(n)``
  interactions, so the realised frontier sets the cost and the per-agent
  engines' ``O(n)`` construction, census and checkpoints go away;
* **``n >= COUNTBATCH_FORCE_N``**, where the per-agent engines' ``O(n)``
  construction is the binding constraint, not throughput;
* **the protocol declares its complete state space**
  (:meth:`~repro.engine.protocol.PopulationProtocol.complete_state_space`,
  the same test :func:`~repro.engine.count_batch.replicated_engine` uses
  to share one table across rows).  The declared spaces in this
  repository have 2–4 states, where the Python count path wins: measured
  without the kernels (exact majority, ``n = 3*10^6``, 200 parallel-time
  units, construction included, median of 3 seeds) count-batch takes
  31.2 s against fast-batch's 56.0 s on its NumPy wave path.  Lazily
  discovering protocols (GSU19, GS18, lottery, junta) stay on the
  per-agent engines below the force threshold, where fast-batch measured
  1.3–6x faster for GSU19, GS18 and lottery; junta, 15–25% slower there,
  is the one known miss.

Because of that order the kernel tier and the forced range never call
``canonical_states``.  No dispatch path reads a frontier bound
(:meth:`~repro.engine.protocol.PopulationProtocol.occupied_states_hint`).

Below ``_COUNTBATCH_MIN_N`` the policy is deliberately kernel-independent:
every ``auto`` choice there is in the bit-for-bit sequential-identical
engine family, so seed-pinned results agree across machines with and
without a C compiler.  (Above it, count-batch trajectories are only ever
reproducible per-path anyway — the kernel and Python paths consume
randomness differently, each with its own digest pins.)
"""

from __future__ import annotations

import difflib
from typing import Dict, Optional, Type, Union

from repro.engine._ckernel import kernel_available
from repro.engine._count_kernel import count_kernel_available
from repro.engine.base import BaseEngine
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.meanfield import MeanFieldEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.tauleap import TauLeapEngine
from repro.errors import ConfigurationError

__all__ = [
    "COUNTBATCH_FORCE_N",
    "ENGINE_REGISTRY",
    "ENGINE_NAMES",
    "EngineSpec",
    "REMOVED_ENGINES",
    "auto_engine",
    "canonical_name",
    "count_capable",
    "releases_gil",
    "removed_engine_message",
    "replica_capable",
    "resolve_engine",
    "scenario_capable",
]

#: Named engines accepted everywhere an engine specification is taken.
ENGINE_REGISTRY: Dict[str, Type[BaseEngine]] = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "fastbatch": FastBatchEngine,
    "meanfield": MeanFieldEngine,
    "tauleap": TauLeapEngine,
}

#: Engine names that were removed, mapped to the engine that replaces each.
#: The names still reach the program from outside it (CLI flags, configs,
#: stores, checkpoints), so they are refused with the replacement named.
REMOVED_ENGINES: Dict[str, str] = {"count": "countbatch", "batch": "tauleap"}

#: Registry names plus the ``"auto"`` policy, for CLI choices and validation.
ENGINE_NAMES = tuple(sorted(ENGINE_REGISTRY)) + ("auto",)

EngineSpec = Union[str, Type[BaseEngine], None]

#: Population size above which the exact batched engine beats the sequential
#: one *without* the C kernel, i.e. on its NumPy wave path (measured on the
#: epidemic and GSU19 workloads; see BENCH_engine.json).
_FASTBATCH_MIN_N = 50_000

#: Crossover when the C kernel compiled: the batched engine then wins by an
#: order of magnitude at every size, so only trivial populations (where the
#: choice is irrelevant) keep the reference engine.
_FASTBATCH_MIN_N_CKERNEL = 256

#: Population size below which the configuration-space batched engine is
#: never auto-selected.  Deliberately NOT lowered when the C kernel is
#: missing even though count-batch overtakes the NumPy wave path already
#: around 2*10^5: below this single threshold every auto choice is in the
#: bit-for-bit sequential-identical engine family, so seed-pinned results
#: agree across machines with and without a C compiler (the price is at
#: most ~2x throughput for compiler-less users in the 2*10^5..3*10^6 range
#: — they can opt into engine="countbatch" explicitly).
_COUNTBATCH_MIN_N = 3_000_000

#: Population size from which, on the no-kernel tier, a count-capable
#: protocol is dispatched to the configuration-space engine even when it
#: discovers its states lazily (the kernel tier, and a declared complete
#: state space, already go there from _COUNTBATCH_MIN_N): the per-agent
#: engines build an O(n) Python list and O(n) arrays at construction
#: (~0.5-1 GB and a minutes-scale encode loop at this size, several GB at
#: 10^8), so the throughput comparison stops being the binding constraint.
COUNTBATCH_FORCE_N = 30_000_000


def count_capable(protocol: PopulationProtocol, n: int) -> bool:
    """Whether ``protocol`` may be count-dispatched at ``n``, on either tier.

    Count-capability is an ``O(k)`` ``initial_counts`` path: the
    configuration-level engines refuse the ``O(n)`` fallback at 10^7+, and
    the transition table grows on the frontier a run occupies, so no
    declared state space is required.
    """
    return protocol.initial_counts(n) is not None


def replica_capable(engine_cls: Type[BaseEngine]) -> bool:
    """Whether cells resolved to ``engine_cls`` may be replica-vectorised.

    The sweep scheduler (:func:`repro.engine.parallel.run_many`) groups
    same-``(protocol, n, engine)`` cells into one
    :class:`~repro.engine.count_batch.ReplicatedCountBatchEngine` mega-cell
    when the *resolved* engine supports advancing R independent replicas as
    an (R, k) count matrix.  Only the configuration-space batched engine
    does today: its per-row state is a count vector plus an RNG stream, and
    its replica mode is pinned row-wise bit-identical to the scalar path.
    The per-agent engines would need (R, n) arrays — at which point the
    process pool is the better parallelism — so they always run one cell
    per task.
    """
    return engine_cls is CountBatchEngine


def releases_gil(
    engine_cls: Type[BaseEngine], engine_kwargs: Optional[Dict] = None
) -> bool:
    """Whether ``engine_cls`` spends its hot loop outside the GIL.

    True exactly when the engine's run path is a compiled C kernel invoked
    through ctypes (which drops the GIL for the duration of the foreign
    call): the count-space batched engine with the count kernel, and the
    exact batched engine with the block-apply kernel.  ``engine_kwargs``
    are the per-run engine options (``kernel="python"``/``"numpy"`` force
    the interpreted paths, which hold the GIL throughout).  This is the
    predicate behind the sweep scheduler's ``backend="auto"`` rule: threads
    only beat processes when workers genuinely run concurrently.
    """
    kernel = (engine_kwargs or {}).get("kernel", "auto")
    if engine_cls is CountBatchEngine:
        return kernel != "python" and count_kernel_available()
    if engine_cls is FastBatchEngine:
        return kernel != "numpy" and kernel_available()
    return False


def scenario_capable(engine_cls: Type[BaseEngine], scenario=None) -> bool:
    """Whether ``engine_cls`` can simulate ``scenario``.

    ``None`` (or the default complete fault-free scenario, which
    :func:`repro.scenarios.scenario.active_scenario` normalises to ``None``)
    is the idealised world every engine simulates.  An *active* scenario is
    compared against the engine's declared
    :attr:`~repro.engine.base.BaseEngine.scenario_capabilities`: the
    per-agent engines accept restricted topologies (and, for the sequential
    engine, churn/faults), while the count-space engines — whose
    hypergeometric splits assume uniform complete-graph pairing over a
    fixed fault-free population — accept none.
    """
    if scenario is None:
        return True
    from repro.scenarios.scenario import active_scenario

    active = active_scenario(scenario)
    if active is None:
        return True
    return active.requirements() <= engine_cls.scenario_capabilities


def _scenario_capable_names() -> list:
    """Registry names of scenario-capable engines (for error messages)."""
    return sorted(
        name
        for name, cls in ENGINE_REGISTRY.items()
        if cls.scenario_capabilities
    )


def _per_agent_engine(n: int) -> Type[BaseEngine]:
    """The per-agent engine for ``n``: fastbatch from its crossover, which
    drops to a few hundred agents when the C kernel is available."""
    threshold = _FASTBATCH_MIN_N_CKERNEL if kernel_available() else _FASTBATCH_MIN_N
    return FastBatchEngine if n >= threshold else SequentialEngine


def auto_engine(
    protocol: PopulationProtocol, n: int, scenario=None
) -> Type[BaseEngine]:
    """Select the fastest *exact* engine for ``(protocol, n)`` (and scenario).

    The policy is a measured throughput/memory trade-off, documented in
    this module's docstring; approximate engines are never returned.  With
    an active scenario the choice is restricted to the capable engines:
    topology-only scenarios keep the fastbatch-vs-sequential threshold
    (both engines consume the scheduler identically), churn/fault scenarios
    are the sequential engine's alone.
    """
    if scenario is not None:
        from repro.scenarios.scenario import active_scenario

        active = active_scenario(scenario)
        if active is not None:
            if active.requirements() <= FastBatchEngine.scenario_capabilities:
                return _per_agent_engine(n)
            return SequentialEngine
    # The order matters: the kernel tier and the forced range decide before
    # complete_state_space() could enumerate states.
    if (
        n >= _COUNTBATCH_MIN_N
        and count_capable(protocol, n)
        and (
            count_kernel_available()
            or n >= COUNTBATCH_FORCE_N
            or protocol.complete_state_space()
        )
    ):
        return CountBatchEngine
    return _per_agent_engine(n)


def resolve_engine(
    engine: EngineSpec,
    protocol: Optional[PopulationProtocol] = None,
    n: Optional[int] = None,
    scenario=None,
) -> Type[BaseEngine]:
    """Normalise an engine specification to an engine class.

    ``None`` keeps the historical default (the sequential reference engine),
    a :class:`~repro.engine.base.BaseEngine` subclass is returned unchanged,
    and a string is looked up in :data:`ENGINE_REGISTRY` — with ``"auto"``
    delegating to :func:`auto_engine`, which requires ``protocol`` and ``n``.

    With an active ``scenario``, the resolved class must pass
    :func:`scenario_capable`: requesting e.g. ``engine="countbatch"`` under
    a restricted topology raises :class:`~repro.errors.ConfigurationError`
    up front, naming the capable engines, instead of failing deep inside a
    hypergeometric split that silently assumed uniform pairing.
    """
    resolved = _resolve_engine_spec(engine, protocol, n, scenario)
    if scenario is not None and not scenario_capable(resolved, scenario):
        raise ConfigurationError(
            f"engine {canonical_name(resolved)!r} assumes the complete "
            "fault-free interaction model and cannot run this scenario; "
            f"scenario-capable engines: {', '.join(_scenario_capable_names())}"
        )
    return resolved


def removed_engine_message(name: str) -> str:
    """Error text for a removed engine ``name``, naming its replacement."""
    return (
        f"engine {name!r} has been removed; use {REMOVED_ENGINES[name]!r} "
        "instead"
    )


def canonical_name(engine_cls: Type[BaseEngine]) -> str:
    """Registry name of ``engine_cls`` (falls back to the class name)."""
    for name, cls in ENGINE_REGISTRY.items():
        if cls is engine_cls:
            return name
    return engine_cls.__name__


def _resolve_engine_spec(
    engine: EngineSpec,
    protocol: Optional[PopulationProtocol],
    n: Optional[int],
    scenario=None,
) -> Type[BaseEngine]:
    if engine is None:
        return SequentialEngine
    if isinstance(engine, type) and issubclass(engine, BaseEngine):
        return engine
    if isinstance(engine, str):
        name = engine.lower()
        if name == "auto":
            if protocol is None or n is None:
                raise ConfigurationError(
                    "engine='auto' needs a protocol and a population size to dispatch on"
                )
            return auto_engine(protocol, n, scenario)
        try:
            return ENGINE_REGISTRY[name]
        except KeyError:
            if name in REMOVED_ENGINES:
                raise ConfigurationError(removed_engine_message(name)) from None
            valid = ", ".join(repr(choice) for choice in ENGINE_NAMES)
            close = difflib.get_close_matches(name, ENGINE_NAMES, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigurationError(
                f"unknown engine {engine!r}{hint}; valid engine names are "
                f"{valid}, or pass an engine class"
            ) from None
    raise ConfigurationError(
        f"engine specification must be a name or an engine class, got {engine!r}"
    )
