"""Tests for the reachable-state closure and GSU19's count-space support.

GSU19 is *count-capable* through its ``O(k)`` ``initial_counts`` alone: on
either dispatch tier that hook lets ``engine="auto"`` send it to the
configuration-space engine at ``n = 10^7``–``10^8``, whose transition table
grows on the occupied frontier.  GSU19 declares no ``canonical_states`` at
any ``n_hint``, so no engine or dispatch decision runs the ``Θ(K²)``
closure BFS (:mod:`repro.engine.closure`).  The closure stays available as
the explicit audit API, :meth:`GSULeaderElection.reachable_state_closure`;
tier-1 audits it at the ``gamma=4`` calibration (144 states, a fraction of
a second).  The default calibration (``K ~ 1.8*10^3`` states, a ~48 s BFS)
is only ever dispatched and run here, never enumerated.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.params import GSUParams
from repro.core import protocol as core_protocol
from repro.core.protocol import GSULeaderElection
from repro.core.state import zero_state
from repro.engine import dispatch
from repro.engine.closure import reachable_states
from repro.engine.count_batch import CountBatchEngine
from repro.engine.dispatch import COUNTBATCH_FORCE_N, auto_engine, state_space_size
from repro.engine.engine import SequentialEngine
from repro.engine.protocol import ProtocolSpec
from repro.engine.simulation import Simulation
from repro.errors import ProtocolError


def _small_gsu(n_hint: int = COUNTBATCH_FORCE_N) -> GSULeaderElection:
    """A count-batch-scale GSU19 instance with a fast, small closure."""
    return GSULeaderElection(GSUParams(n_hint=n_hint, gamma=4, phi=1, psi=1))


def _forbid_closure_bfs(monkeypatch) -> None:
    """Make every binding of the closure BFS raise if called."""

    def refuse(*args, **kwargs):
        raise AssertionError("the reachable-state closure BFS ran")

    monkeypatch.setattr("repro.engine.closure.reachable_states", refuse)
    monkeypatch.setattr(core_protocol, "reachable_states", refuse)


def _tier(monkeypatch, kernels: bool) -> None:
    monkeypatch.setattr(dispatch, "kernel_available", lambda: kernels)
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: kernels)


# ----------------------------------------------------------------------
# The generic BFS
# ----------------------------------------------------------------------
def test_reachable_states_enumerates_exact_closure():
    """Three-state cyclic chase: a+a -> b, b+b -> c, c+c -> a; from {a} the
    closure is exactly {a, b, c} in BFS discovery order."""
    cycle = {"a": "b", "b": "c", "c": "a"}

    def transition(responder, initiator):
        if responder == initiator:
            return cycle[responder], initiator
        return responder, initiator

    assert reachable_states(transition, ["a"]) == ["a", "b", "c"]


def test_reachable_states_only_reports_reachable():
    """States that exist in the protocol's alphabet but can never occur from
    the seeds stay out of the closure."""

    def transition(responder, initiator):
        # 'x' would map to 'y', but 'x' is never produced from 'a'.
        if responder == "x":
            return "y", initiator
        return responder, initiator

    assert reachable_states(transition, ["a"]) == ["a"]


def test_reachable_states_requires_a_seed():
    with pytest.raises(ProtocolError):
        reachable_states(lambda r, i: (r, i), [])


def test_reachable_states_guards_against_unbounded_spaces():
    """A counter protocol grows states without bound; the cap must trip
    instead of looping forever."""

    def transition(responder, initiator):
        return responder + 1, initiator

    with pytest.raises(ProtocolError, match="exceeded 64 states"):
        reachable_states(transition, [0], max_states=64)


# ----------------------------------------------------------------------
# GSU19 closure semantics
# ----------------------------------------------------------------------
def test_gsu_closure_is_transition_closed_and_seeded():
    """Full closedness audit at the gamma=4 calibration: every ordered pair
    of closure states transitions back into the closure (144^2 pairs)."""
    protocol = _small_gsu()
    closure = set(protocol.reachable_state_closure())
    assert zero_state() in closure
    for responder in closure:
        for initiator in closure:
            updated, partner = protocol.transition(responder, initiator)
            assert updated in closure
            assert partner in closure


def test_canonical_states_gated_on_population_scale():
    """Every GSU19 instance declares no canonical states (lazy discovery),
    whatever its n_hint, while the explicit API still returns the
    144-state closure."""
    for n_hint in (4096, 10**7, COUNTBATCH_FORCE_N, 10**8, 10**12):
        protocol = _small_gsu(n_hint=n_hint)
        assert protocol.canonical_states() is None
        assert state_space_size(protocol) is None
        assert not protocol.complete_state_space()
        closure = protocol.reachable_state_closure()
        assert len(closure) == 144
        assert closure[0] == zero_state()


def test_closure_cache_is_shared_per_calibration():
    """Two instances with the same (gamma, phi, psi) — whatever their
    n_hint — share one cached closure object."""
    first = _small_gsu(n_hint=4096).reachable_state_closure()
    second = _small_gsu(n_hint=10**8).reachable_state_closure()
    assert first is second


def test_gsu_initial_counts_declared():
    protocol = _small_gsu()
    assert protocol.initial_counts(10**8) == {zero_state(): 10**8}


# ----------------------------------------------------------------------
# Count-batch-scale calibrations stay exact
# ----------------------------------------------------------------------
def test_closure_registered_countbatch_matches_sequential_quantiles():
    """At the count-batch-scale gamma=4 calibration the count-batch
    convergence-time distribution matches the sequential engine's.  Same
    quantile-profile pin as the cross-engine equivalence suite."""
    from repro.analysis.stats import quantile_profile_distance

    n = 64

    def sample(engine_cls, seeds):
        times = []
        for seed in seeds:
            engine = engine_cls(_small_gsu(), n, rng=seed)
            assert engine.run_until(
                lambda e: e.leader_count() == 1,
                max_interactions=4000 * n,
                check_every=n // 4,
            )
            times.append(float(engine.interactions))
        return times

    reference = sample(SequentialEngine, range(24))
    batched = sample(CountBatchEngine, range(100_000, 100_024))
    assert quantile_profile_distance(reference, batched) < 1.5


def test_auto_dispatch_below_force_threshold_skips_the_closure_bfs(monkeypatch):
    """In the 3e6..3e7 window dispatch must not pay the default-calibration
    closure BFS, on either tier.  With the count kernel GSU19 goes to
    count-batch on its ``initial_counts`` alone (the table grows on the
    realised frontier); without it the cost model prices its occupied
    frontier hint and keeps the per-agent engine.

    The instance is built with the *default* calibration at a
    count-batch-scale n_hint; the BFS is made to raise, so a regression
    fails here instead of costing tens of seconds.
    """
    from repro.engine.fast_batch import FastBatchEngine

    _forbid_closure_bfs(monkeypatch)
    protocol = GSULeaderElection.for_population(COUNTBATCH_FORCE_N)
    for count_kernel, expected in ((True, CountBatchEngine), (False, FastBatchEngine)):
        monkeypatch.setattr(
            dispatch, "count_kernel_available", lambda value=count_kernel: value
        )
        assert auto_engine(protocol, 5_000_000) is expected


def test_auto_simulation_on_closure_registered_gsu_uses_countbatch():
    """End-to-end through Simulation: a count-batch-scale GSU19 instance
    dispatches to the configuration-space engine and runs O(k) from
    initial_counts (no O(n) allocation — population 10^8 would not fit),
    on a table that discovers its states lazily."""
    n = 10**8
    simulation = Simulation(_small_gsu(n_hint=n), n, rng=5, engine_cls="auto")
    assert isinstance(simulation.engine, CountBatchEngine)
    simulation.engine.run(50_000)
    counts = simulation.engine.state_counts()
    assert sum(counts.values()) == n


@pytest.mark.parametrize("kernels", [True, False], ids=["kernel", "no-kernel"])
def test_auto_construction_at_1e8_never_runs_the_closure_bfs(monkeypatch, kernels):
    """On each tier, building an ``auto`` simulation of GSU19 at 10^8 takes
    the count-batch engine without ever enumerating the reachable closure:
    count eligibility is the O(k) ``initial_counts`` alone."""
    _tier(monkeypatch, kernels)
    _forbid_closure_bfs(monkeypatch)
    n = 10**8
    protocol = GSULeaderElection.for_population(n, gamma=4)
    simulation = Simulation(protocol, n, rng=1, engine_cls="auto")
    assert isinstance(simulation.engine, CountBatchEngine)
    assert sum(count for _, count in simulation.engine.state_count_items()) == n


# ----------------------------------------------------------------------
# The headline acceptance run (no closure BFS: the table grows lazily)
# ----------------------------------------------------------------------
def test_headline_auto_dispatch_at_default_calibration_1e8():
    """`run_protocol(GSULeaderElection.for_population(10**8), 10**8,
    engine="auto")` must dispatch to CountBatchEngine and simulate with peak
    memory independent of n (a packed table over the discovered states plus
    the O(sqrt(n)) survival curve — tens of MB, not the >= 10 GB a
    per-agent engine would need)."""
    n = 10**8
    protocol = GSULeaderElection.for_population(n)
    assert auto_engine(protocol, n) is CountBatchEngine
    protocol.compile()  # shared per-protocol table, n-independent
    tracemalloc.start()
    simulation = Simulation(protocol, n, rng=1, engine_cls="auto")
    simulation.engine.run(100_000)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert isinstance(simulation.engine, CountBatchEngine)
    assert sum(count for _, count in simulation.engine.state_count_items()) == n
    assert peak < 256 * 2**20


# ----------------------------------------------------------------------
# state_space_size robustness
# ----------------------------------------------------------------------
def test_state_space_size_accepts_generators_and_sized_containers():
    class GeneratorStates(ProtocolSpec):
        def canonical_states(self):
            return (state for state in ("a", "b", "c"))

    generator_valued = GeneratorStates(
        name="gen", initial="a", rules=lambda r, i: (r, i), outputs=lambda s: "F"
    )
    assert state_space_size(generator_valued) == 3
    sized = ProtocolSpec(
        name="sized",
        initial="a",
        rules=lambda r, i: (r, i),
        outputs=lambda s: "F",
        states=["a", "b"],
    )
    assert state_space_size(sized) == 2
    lazy = ProtocolSpec(
        name="lazy", initial="a", rules=lambda r, i: (r, i), outputs=lambda s: "F"
    )
    assert state_space_size(lazy) is None
