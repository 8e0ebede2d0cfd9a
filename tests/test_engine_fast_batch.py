"""Tests for the exact collision-aware batched engine and the auto-dispatcher.

The engine's central guarantee — exactness — is pinned down at its strongest
form: because :class:`FastBatchEngine` consumes the shared randomness stream
through the same ``pair_block`` calls as :class:`SequentialEngine`, the two
engines must produce *identical* trajectories for identical seeds, not
merely equal distributions.  The scheduling helpers (conflict columns, wave
depths, collision-free segments) are tested directly against brute-force
reference implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine import (
    ENGINE_NAMES,
    ENGINE_REGISTRY,
    auto_engine,
    resolve_engine,
    run_protocol,
)
from repro.engine._ckernel import kernel_available
from repro.engine.count_batch import CountBatchEngine
from repro.engine.dispatch import _FASTBATCH_MIN_N
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import (
    FastBatchEngine,
    collision_free_segments,
    conflict_columns,
    wave_depths,
)
from repro.errors import ConfigurationError
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic


# ----------------------------------------------------------------------
# Scheduling helpers
# ----------------------------------------------------------------------
def _reference_conflicts(responders, initiators):
    """Brute-force previous-occurrence computation."""
    last_seen = {}
    conflict_r, conflict_i = [], []
    for t, (a, b) in enumerate(zip(responders, initiators)):
        conflict_r.append(last_seen.get(a, -1))
        conflict_i.append(last_seen.get(b, -1))
        last_seen[a] = t
        last_seen[b] = t
    return conflict_r, conflict_i


@pytest.mark.parametrize("n,m,seed", [(4, 50, 0), (16, 200, 1), (1000, 500, 2)])
def test_conflict_columns_match_bruteforce(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=m, dtype=np.int64)
    b = (a + 1 + rng.integers(0, n - 1, size=m, dtype=np.int64)) % n  # b != a
    conflict_r, conflict_i = conflict_columns(a, b)
    ref_r, ref_i = _reference_conflicts(a.tolist(), b.tolist())
    assert conflict_r.tolist() == ref_r
    assert conflict_i.tolist() == ref_i


def test_conflict_columns_empty_block():
    empty = np.empty(0, dtype=np.int64)
    conflict_r, conflict_i = conflict_columns(empty, empty)
    assert conflict_r.size == 0 and conflict_i.size == 0


@pytest.mark.parametrize("n,m,seed", [(6, 120, 3), (64, 400, 4), (5000, 600, 5)])
def test_segments_partition_without_drops_or_duplicates(n, m, seed):
    """Collision handling never drops or duplicates an interaction: the
    segments are a partition of the block, in order, and each segment is a
    maximal collision-free run."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=m, dtype=np.int64)
    b = (a + 1 + rng.integers(0, n - 1, size=m, dtype=np.int64)) % n
    segments = collision_free_segments(a, b)
    # Exact partition of [0, m): no interaction lost, none applied twice.
    assert segments[0][0] == 0 and segments[-1][1] == m
    for (_, end), (start, _) in zip(segments, segments[1:]):
        assert end == start
    for start, end in segments:
        assert end > start
        ids = np.concatenate([a[start:end], b[start:end]])
        assert np.unique(ids).size == ids.size  # collision-free
        if end < m:  # maximal: the next pair collides with this run
            assert a[end] in ids or b[end] in ids


@pytest.mark.parametrize("n,m,seed", [(6, 120, 6), (64, 400, 7), (5000, 600, 8)])
def test_wave_depths_schedule_is_exact(n, m, seed):
    """Waves partition the block; equal-depth interactions never share an
    agent; every predecessor sits in a strictly earlier wave."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=m, dtype=np.int64)
    b = (a + 1 + rng.integers(0, n - 1, size=m, dtype=np.int64)) % n
    conflict_r, conflict_i = conflict_columns(a, b)
    depth = wave_depths(conflict_r, conflict_i, max_waves=m + 1)
    assert depth is not None and depth.shape == (m,)
    for t in range(m):
        for pred in (conflict_r[t], conflict_i[t]):
            if pred >= 0:
                assert depth[pred] < depth[t]
        if conflict_r[t] < 0 and conflict_i[t] < 0:
            assert depth[t] == 0
    for wave in range(int(depth.max()) + 1):
        members = np.flatnonzero(depth == wave)
        ids = np.concatenate([a[members], b[members]])
        assert np.unique(ids).size == ids.size


def test_wave_depths_respects_cap():
    # A single agent chained through every interaction: depth grows by 1 each
    # step, so a cap below the block length must report failure.
    m = 20
    a = np.zeros(m, dtype=np.int64)
    b = np.arange(1, m + 1, dtype=np.int64)
    conflict_r, conflict_i = conflict_columns(a, b)
    assert wave_depths(conflict_r, conflict_i, max_waves=5) is None
    depth = wave_depths(conflict_r, conflict_i, max_waves=m + 1)
    assert depth is not None
    assert depth.tolist() == list(range(m))


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
def test_constructor_validation():
    protocol = OneWayEpidemic()
    with pytest.raises(ConfigurationError):
        FastBatchEngine(protocol, 1)
    with pytest.raises(ConfigurationError):
        FastBatchEngine(protocol, 16, block=0)
    with pytest.raises(ConfigurationError):
        FastBatchEngine(protocol, 16, kernel="fortran")


def test_kernel_c_raises_when_unavailable(monkeypatch):
    monkeypatch.setattr("repro.engine.fast_batch.load_kernel", lambda: None)
    with pytest.raises(ConfigurationError):
        FastBatchEngine(OneWayEpidemic(), 16, kernel="c")
    # "auto" silently falls back to the NumPy wave schedule.
    engine = FastBatchEngine(OneWayEpidemic(), 16, kernel="auto")
    assert engine._c_kernel is None


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
@pytest.mark.parametrize("n", [8, 64, 1024])
def test_identical_trajectories_to_sequential_engine(n, kernel):
    """Same seed, same driver calls => bit-for-bit identical trajectories.

    This covers every engine code path: n=8 and n=64 exercise the NumPy
    path's scalar fallback (deep dependency chains), n=1024 its wave
    schedule, and kernel="auto" the C kernel where one compiles.
    """
    reference = SequentialEngine(OneWayEpidemic(), n, rng=17)
    batched = FastBatchEngine(OneWayEpidemic(), n, rng=17, kernel=kernel)
    for _ in range(4):
        reference.run(3 * n + 5)
        batched.run(3 * n + 5)
        assert reference.state_counts() == batched.state_counts()
    assert reference.population_snapshot() == batched.population_snapshot()
    assert reference.states_ever_occupied == batched.states_ever_occupied


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
def test_identical_trajectories_on_gsu_protocol(kernel):
    n = 512
    reference = SequentialEngine(GSULeaderElection.for_population(n), n, rng=5)
    batched = FastBatchEngine(GSULeaderElection.for_population(n), n, rng=5, kernel=kernel)
    for _ in range(3):
        reference.run(8 * n)
        batched.run(8 * n)
        assert reference.state_counts() == batched.state_counts()
    assert reference.states_ever_occupied == batched.states_ever_occupied


def test_population_is_conserved_and_counts_non_negative():
    n = 300
    engine = FastBatchEngine(ApproximateMajority(initial_a_fraction=0.6), n, rng=2)
    for _ in range(5):
        engine.run(1000)
        counts = engine.state_counts()
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == n


def test_interaction_accounting_and_parallel_time():
    n = 100
    engine = FastBatchEngine(OneWayEpidemic(), n, rng=0)
    engine.step()
    assert engine.interactions == 1
    engine.run(n - 1)
    assert engine.interactions == n
    assert engine.parallel_time == pytest.approx(1.0)


def test_run_until_convergence_epidemic():
    n = 256
    engine = FastBatchEngine(OneWayEpidemic(), n, rng=11)
    converged = engine.run_until(
        lambda eng: OneWayEpidemic.fully_informed(eng.state_counts()),
        max_interactions=200 * n,
    )
    assert converged
    assert engine.state_counts() == {"informed": n}


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
def test_lut_growth_beyond_initial_capacity(kernel):
    # The GSU protocol for n=1024 uses well over the initial 64-state table.
    n = 1024
    engine = FastBatchEngine(GSULeaderElection.for_population(n), n, rng=1, kernel=kernel)
    engine.run(40 * n)
    assert engine.states_ever_occupied > 64
    assert engine.table.capacity >= engine.states_ever_occupied
    assert sum(count for _, count in engine.state_count_items()) == n


requires_c_kernel = pytest.mark.skipif(
    not kernel_available(), reason="compiled fast-batch kernel unavailable"
)


class _GuardedTable:
    """Table proxy watching the C engine's miss compiles.

    A kernel re-entering a superseded table snapshot misses on every pair
    compiled since, forever; the proxy turns that livelock into a failure
    by rejecting a repeated compile request for one pair.  With
    ``grows`` > 0 it also grows the real table right after each of the
    first ``grows`` compiles — standing in for another thread growing a
    shared table between this engine's compile and its next re-entry.
    """

    def __init__(self, table, grows: int = 0) -> None:
        self._table = table
        self.grows_left = grows
        self._last_pair = None

    def __getattr__(self, name):
        return getattr(self._table, name)

    def apply(self, responder_id: int, initiator_id: int):
        pair = (responder_id, initiator_id)
        assert pair != self._last_pair, f"kernel re-entered a stale table on {pair}"
        self._last_pair = pair
        result = self._table.apply(responder_id, initiator_id)
        if self.grows_left:
            self.grows_left -= 1
            with self._table._lock:
                self._table._grow(self._table.capacity + 1)
        return result


@requires_c_kernel
def test_c_kernel_matches_numpy_across_table_doublings():
    """The C miss loop re-snapshots the table as it grows 64 -> 128 -> ...

    Both engines share one protocol, so state ids mean the same thing in
    each; the C engine steps first every round and therefore takes every
    miss (and every capacity doubling) inside its kernel loop.
    """
    n = 1024
    protocol = GSULeaderElection.for_population(n)
    compiled = FastBatchEngine(protocol, n, rng=9, kernel="c")
    compiled.table = _GuardedTable(compiled.table)
    vectorised = FastBatchEngine(protocol, n, rng=9, kernel="numpy")
    capacities = {compiled.table.capacity}
    for _ in range(30):
        compiled.run(4 * n)
        capacities.add(compiled.table.capacity)
        vectorised.run(4 * n)
        assert compiled.agent_state_ids() == vectorised.agent_state_ids()
    assert {64, 128, 256} <= capacities
    assert compiled.states_ever_occupied == vectorised.states_ever_occupied


@requires_c_kernel
def test_c_kernel_resnapshots_a_table_grown_between_reentries():
    n = 1024
    forced = FastBatchEngine(GSULeaderElection.for_population(n), n, rng=4, kernel="c")
    guard = _GuardedTable(forced.table, grows=3)
    forced.table = guard
    plain = FastBatchEngine(GSULeaderElection.for_population(n), n, rng=4, kernel="c")
    forced.run(20 * n)
    plain.run(20 * n)
    assert guard.grows_left == 0
    assert forced.table.capacity > plain.table.capacity
    assert forced.agent_state_ids() == plain.agent_state_ids()
    assert forced.states_ever_occupied == plain.states_ever_occupied


def test_agent_level_inspection_helpers():
    n = 32
    engine = FastBatchEngine(OneWayEpidemic(sources=4), n, rng=3)
    snapshot = engine.population_snapshot()
    assert len(snapshot) == n
    assert snapshot.count("informed") == 4
    assert engine.agent_state(0) == snapshot[0]
    assert len(engine.agent_state_ids()) == n


def test_run_protocol_accepts_engine_names_and_auto():
    protocol = ApproximateMajority(initial_a_fraction=0.7)
    by_name = run_protocol(
        protocol, 128, seed=4, max_parallel_time=50.0, engine_cls="fastbatch"
    )
    by_class = run_protocol(
        protocol, 128, seed=4, max_parallel_time=50.0, engine_cls=FastBatchEngine
    )
    assert by_name.final_counts == by_class.final_counts
    auto = run_protocol(
        ApproximateMajority(initial_a_fraction=0.7),
        128,
        seed=4,
        max_parallel_time=50.0,
        engine_cls="auto",
    )
    # auto resolves to the sequential engine at this size; same stream, same
    # trajectory as the fastbatch run above.
    assert auto.final_counts == by_name.final_counts


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def test_auto_engine_policy_without_c_kernel(monkeypatch):
    # One compiler probe builds both kernels, so no machine has the
    # fast-batch kernel without the count kernel or vice versa.
    monkeypatch.setattr("repro.engine.dispatch.kernel_available", lambda: False)
    monkeypatch.setattr("repro.engine.dispatch.count_kernel_available", lambda: False)
    epidemic = OneWayEpidemic()
    assert auto_engine(epidemic, 1024) is SequentialEngine
    assert auto_engine(epidemic, _FASTBATCH_MIN_N) is FastBatchEngine
    # The countbatch crossover is deliberately kernel-independent so that
    # seed-pinned auto results agree across machines: below it every choice
    # is in the bit-for-bit sequential-identical family.
    assert auto_engine(epidemic, 10**6) is FastBatchEngine
    assert auto_engine(epidemic, 10**7) is CountBatchEngine
    assert auto_engine(epidemic, 1 << 28) is CountBatchEngine
    # From the force threshold an O(k) initial_counts alone decides, so a
    # small-n_hint GSU19 instance (lazily discovered states) goes to
    # count-batch too.
    small_gsu = GSULeaderElection.for_population(4096)
    assert auto_engine(small_gsu, 1 << 28) is CountBatchEngine


def test_auto_engine_policy_with_c_kernel(monkeypatch):
    monkeypatch.setattr("repro.engine.dispatch.kernel_available", lambda: True)
    epidemic = OneWayEpidemic()
    # The compiled kernel wins from a few hundred agents upward.
    assert auto_engine(epidemic, 64) is SequentialEngine
    assert auto_engine(epidemic, 1024) is FastBatchEngine
    assert auto_engine(epidemic, 10**6) is FastBatchEngine
    # ... until the per-agent array falls out of cache while count-batch
    # keeps shrinking per-interaction work like 1/sqrt(n).
    assert auto_engine(epidemic, 10**7) is CountBatchEngine
    assert auto_engine(epidemic, 1 << 28) is CountBatchEngine


def test_auto_engine_cost_model_discriminates_by_state_count(monkeypatch):
    """Without the count kernel the occupied-frontier cost model decides: a
    4-state protocol crosses over later than a 2-state one, and above the
    force threshold count-capability alone decides (per-agent construction
    is the binding constraint there, not throughput).  With the count
    kernel nothing is priced.  Count-capability is an O(k)
    ``initial_counts`` on both tiers."""
    from repro.engine import dispatch
    from repro.engine.dispatch import COUNTBATCH_FORCE_N, count_capable
    from repro.protocols.exact_majority import ExactMajority

    # NumPy tier: 4 states is ~4x the epidemic's per-batch cost, pushing
    # the measured crossover past 3e6 (the 2-state crossover).
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: False)
    majority = ExactMajority.for_population(3 * 10**6)
    assert count_capable(majority, 3 * 10**6)
    assert auto_engine(majority, 3 * 10**6) is FastBatchEngine
    big_majority = ExactMajority.for_population(10**7)
    assert auto_engine(big_majority, 10**7) is CountBatchEngine
    # Kernel tier: the same 3e6 instance goes to count-batch.
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: True)
    assert auto_engine(majority, 3 * 10**6) is CountBatchEngine
    # GS18 declares initial_counts but no state space and no frontier hint:
    # count-capable on both tiers (its table grows lazily).  Without the
    # kernel it is forced at the threshold; below it there is nothing to
    # price, so it stays on fastbatch.
    from repro.protocols.gs18 import GS18LeaderElection

    gs18 = GS18LeaderElection.for_population(COUNTBATCH_FORCE_N)
    assert count_capable(gs18, COUNTBATCH_FORCE_N)
    assert auto_engine(gs18, COUNTBATCH_FORCE_N) is CountBatchEngine
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: False)
    assert auto_engine(gs18, COUNTBATCH_FORCE_N) is CountBatchEngine
    assert auto_engine(gs18, 10**7) is FastBatchEngine


def test_auto_engine_dispatches_closure_registered_gsu19(monkeypatch):
    """A count-batch-scale GSU19 instance is force-dispatched to the
    configuration-space engine at sizes where per-agent arrays stop being
    viable, on both tiers, on its ``initial_counts`` alone: the reachable
    closure is never computed (its per-calibration cache stays untouched).
    """
    from repro.core import protocol as core_protocol
    from repro.engine import dispatch
    from repro.engine.dispatch import COUNTBATCH_FORCE_N

    protocol = GSULeaderElection.for_population(COUNTBATCH_FORCE_N)
    cache_before = dict(core_protocol._CLOSURE_CACHE)
    for kernels in (True, False):
        monkeypatch.setattr(dispatch, "kernel_available", lambda v=kernels: v)
        monkeypatch.setattr(dispatch, "count_kernel_available", lambda v=kernels: v)
        assert auto_engine(protocol, COUNTBATCH_FORCE_N) is CountBatchEngine
    assert core_protocol._CLOSURE_CACHE == cache_before
    # Below the force threshold the NumPy tier prices GSU19's frontier hint
    # and keeps fastbatch; with the compiled count kernel nothing is priced
    # and the same instance goes to count-batch.
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: False)
    assert auto_engine(protocol, 10**7) is FastBatchEngine
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: True)
    assert auto_engine(protocol, 10**7) is CountBatchEngine


def test_resolve_engine_accepts_names_classes_and_none():
    epidemic = OneWayEpidemic()
    assert resolve_engine(None) is SequentialEngine
    assert resolve_engine("sequential") is SequentialEngine
    assert resolve_engine("FASTBATCH") is FastBatchEngine
    assert resolve_engine("countbatch") is CountBatchEngine
    assert resolve_engine(CountBatchEngine) is CountBatchEngine
    assert resolve_engine("auto", epidemic, 64) is SequentialEngine
    with pytest.raises(ConfigurationError):
        resolve_engine("auto")  # needs protocol and n
    with pytest.raises(ConfigurationError):
        resolve_engine("warp-drive")
    with pytest.raises(ConfigurationError):
        resolve_engine(42)


@pytest.mark.parametrize(
    ("name", "replacement"), [("count", "countbatch"), ("batch", "tauleap")]
)
def test_removed_engine_names_are_refused_with_their_replacement(
    name, replacement
):
    """The removed ``count`` and ``batch`` engines still arrive by name from
    outside the program; every entry point refuses them, naming the
    replacement, and the CLI exits non-zero."""
    from repro.cli import main
    from repro.experiments.config import ExperimentConfig

    match = f"{name!r} has been removed; use {replacement!r}"
    with pytest.raises(ConfigurationError, match=match):
        resolve_engine(name)
    with pytest.raises(ConfigurationError, match=match):
        run_protocol(OneWayEpidemic(), 16, seed=0, engine_cls=name)
    with pytest.raises(ConfigurationError, match=match):
        ExperimentConfig(engine=name)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "lemma41", "--preset", "smoke", "--engine", name])
    assert excinfo.value.code != 0


def test_kernel_cache_dir_resolution(monkeypatch, tmp_path):
    """Kernel artifacts build into a user cache directory, never the source
    tree: explicit override first, then XDG, then ~/.cache."""
    from pathlib import Path

    import repro
    from repro.engine._ckernel import kernel_cache_dir

    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "explicit"))
    assert kernel_cache_dir() == tmp_path / "explicit"
    monkeypatch.delenv("REPRO_KERNEL_CACHE")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert kernel_cache_dir() == tmp_path / "xdg" / "repro" / "kernels"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert kernel_cache_dir() == Path.home() / ".cache" / "repro" / "kernels"
    # Whatever it resolves to, it must sit outside the package tree.
    package_root = Path(repro.__file__).resolve().parent
    assert package_root not in kernel_cache_dir().resolve().parents


def test_registry_and_names_are_consistent():
    assert set(ENGINE_REGISTRY) == {
        "sequential", "fastbatch", "countbatch", "tauleap", "meanfield"
    }
    assert set(ENGINE_NAMES) == set(ENGINE_REGISTRY) | {"auto"}
    for name, engine_cls in ENGINE_REGISTRY.items():
        assert resolve_engine(name) is engine_cls
    # The dispatcher never selects an approximate engine.
    assert all(
        auto_engine(OneWayEpidemic(), n).exact
        for n in (64, 10**4, 10**6, 1 << 28)
    )
