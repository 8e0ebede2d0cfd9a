"""Cross-engine accuracy comparison harness.

One comparator serves two suites.  The *exact* engines implement the same
probabilistic model with different data structures, so any run statistic
must agree across them **in distribution** — that is
``tests/test_engine_equivalence.py``.  The *approximate* engines
(``tauleap``, ``meanfield``) implement a deliberately different model, so
the same machinery is re-aimed as an accuracy harness with the exact
engines as ground truth: tau-leap must agree distributionally within
documented tolerances, and mean-field must track the exact mean occupancy
curve within an ``O(1/sqrt(n))`` band — that is
``tests/test_engine_approx.py``.

The module provides

* :data:`WORKLOADS` — named benchmark workloads (protocol factory,
  convergence predicate, budget, and a mid-dynamics census statistic),
* :func:`convergence_sample` — convergence times over a seed range,
* :func:`census_sample` — a census statistic at a fixed parallel time
  (mid-dynamics on purpose: *at convergence* most censuses are degenerate
  — every agent informed, a single leader — and a KS test on a constant
  proves nothing),
* :func:`mean_occupancy` — seed-averaged occupancy curves keyed by state,
  using an engine's ``expected_state_counts`` (the mean-field engine's
  native float view) when it has one,
* :func:`max_band_deviation` — the worst occupancy gap between two curve
  sets in ``sqrt(n)`` units, the natural scale of finite-``n``
  fluctuations around the fluid limit.

Statistical comparisons themselves come from :mod:`repro.analysis.stats`
(:func:`~repro.analysis.stats.ks_two_sample`,
:func:`~repro.analysis.stats.quantile_profile_distance`); this module only
standardises *what* is sampled so every suite compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Type

import numpy as np

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.types import State

__all__ = [
    "AccuracyWorkload",
    "WORKLOADS",
    "convergence_sample",
    "census_sample",
    "mean_occupancy",
    "max_band_deviation",
]


# ----------------------------------------------------------------------
# Convergence predicates and census statistics
# ----------------------------------------------------------------------
def _epidemic_done(engine: BaseEngine) -> bool:
    return OneWayEpidemic.fully_informed(engine.state_counts())


def _majority_done(engine: BaseEngine) -> bool:
    counts = engine.state_counts()
    if counts.get("blank", 0) > 0:
        return False
    return counts.get("A", 0) == 0 or counts.get("B", 0) == 0


def _single_leader(engine: BaseEngine) -> bool:
    return engine.leader_count() == 1


def _exact_majority_done(engine: BaseEngine) -> bool:
    return engine.counts_by_output().get("B", 0) == 0


def _informed_census(engine: BaseEngine) -> float:
    return float(engine.state_counts().get("informed", 0))


def _a_output_census(engine: BaseEngine) -> float:
    return float(engine.counts_by_output().get("A", 0))


def _leader_census(engine: BaseEngine) -> float:
    return float(engine.leader_count())


@dataclass(frozen=True)
class AccuracyWorkload:
    """One named benchmark workload for cross-engine comparison.

    ``factory(n)`` builds a fresh protocol instance (fresh instances
    matter: the compiled table caches per instance, and engines sharing an
    instance would also share identifier-discovery history).  The
    ``census`` statistic is evaluated after ``census_time`` parallel-time
    units — chosen per workload to land mid-dynamics, where the statistic
    still has genuine spread across seeds.
    """

    factory: Callable[[int], PopulationProtocol]
    predicate: Callable[[BaseEngine], bool]
    budget: float  # convergence budget, parallel-time units
    census: Callable[[BaseEngine], float]
    census_time: float  # census sampling point, parallel-time units


#: Named workloads.  The first five mirror the exact cross-engine
#: equivalence suite ("gsu19-closure" is the Γ = 4 calibration at a
#: count-batch-scale ``n_hint``, which once pre-registered its reachable
#: closure and now discovers states lazily like every GSU19 instance);
#: "gs18" and "lottery" extend coverage to the junta-phase and
#: ticket-duel leader-election baselines for the approximate-tier harness.
WORKLOADS: Dict[str, AccuracyWorkload] = {
    "epidemic": AccuracyWorkload(
        lambda n: OneWayEpidemic(), _epidemic_done, 400, _informed_census, 4.0
    ),
    "exact-majority": AccuracyWorkload(
        lambda n: ExactMajority.for_population(n, a_fraction=0.6),
        _exact_majority_done,
        800,
        _a_output_census,
        5.0,
    ),
    "majority": AccuracyWorkload(
        lambda n: ApproximateMajority(initial_a_fraction=0.7),
        _majority_done,
        400,
        _a_output_census,
        3.0,
    ),
    "gsu19": AccuracyWorkload(
        lambda n: GSULeaderElection.for_population(n),
        _single_leader,
        4000,
        _leader_census,
        8.0,
    ),
    "gsu19-closure": AccuracyWorkload(
        lambda n: GSULeaderElection(
            GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1)
        ),
        _single_leader,
        4000,
        _leader_census,
        8.0,
    ),
    "gs18": AccuracyWorkload(
        lambda n: GS18LeaderElection.for_population(n),
        _single_leader,
        4000,
        _leader_census,
        8.0,
    ),
    "lottery": AccuracyWorkload(
        lambda n: LotteryLeaderElection.for_population(n),
        _single_leader,
        10_000,
        _leader_census,
        16.0,
    ),
}


def convergence_sample(
    engine_cls: Type[BaseEngine],
    workload: str,
    n: int,
    seeds: Iterable[int],
    check_every: Optional[int] = None,
) -> List[float]:
    """Convergence times (interactions) of one engine over a range of seeds.

    Every engine checks the predicate on the same cadence (default: every
    ``n // 4`` interactions), so the samples share the same discretisation
    and any distributional gap a KS test sees comes from the engines
    themselves.

    >>> from repro.engine.engine import SequentialEngine
    >>> times = convergence_sample(SequentialEngine, "epidemic", 32, range(2))
    >>> len(times), all(t > 0 for t in times)
    (2, True)
    """
    spec = WORKLOADS[workload]
    if check_every is None:
        check_every = max(1, n // 4)
    times: List[float] = []
    for seed in seeds:
        engine = engine_cls(spec.factory(n), n, rng=seed)
        converged = engine.run_until(
            spec.predicate,
            max_interactions=int(spec.budget * n),
            check_every=check_every,
        )
        assert converged, (
            f"{engine_cls.__name__} failed to converge on {workload} "
            f"(seed {seed}, n={n}, budget {spec.budget} parallel time)"
        )
        times.append(float(engine.interactions))
    return times


def census_sample(
    engine_cls: Type[BaseEngine],
    workload: str,
    n: int,
    seeds: Iterable[int],
) -> List[float]:
    """The workload's census statistic at its fixed mid-dynamics time.

    One value per seed: each engine runs ``census_time`` parallel-time
    units and the workload's census statistic (informed agents, majority
    output count, leader count) is read off the final configuration.
    """
    spec = WORKLOADS[workload]
    values: List[float] = []
    for seed in seeds:
        engine = engine_cls(spec.factory(n), n, rng=seed)
        engine.run_parallel_time(spec.census_time)
        values.append(float(spec.census(engine)))
    return values


def mean_occupancy(
    engine_cls: Type[BaseEngine],
    workload: str,
    n: int,
    seeds: Iterable[int],
    times: Sequence[float],
) -> Dict[State, np.ndarray]:
    """Seed-averaged occupancy curves, keyed by decoded state.

    Returns ``{state: counts}`` where ``counts[i]`` is the mean number of
    agents in ``state`` after ``times[i]`` parallel-time units (``times``
    must be non-decreasing; each run is advanced incrementally through
    them).  States never occupied at a sampling point are reported as 0 —
    keying by decoded state object rather than state id makes curve sets
    from different engines directly comparable even when their lazy
    identifier layouts differ.

    Engines exposing ``expected_state_counts`` (the mean-field engine)
    contribute their float expectations instead of integer counts, so the
    fluid-limit curve is not polluted by rounding.
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be non-decreasing, got {times}")
    spec = WORKLOADS[workload]
    totals: Dict[State, np.ndarray] = {}
    count = 0
    for seed in seeds:
        count += 1
        engine = engine_cls(spec.factory(n), n, rng=seed)
        expected = getattr(engine, "expected_state_counts", None)
        for index, time in enumerate(times):
            target = int(round(time * n))
            if target > engine.interactions:
                engine.run(target - engine.interactions)
            items = (
                expected().items()
                if expected is not None
                else engine.state_counts().items()
            )
            for state, value in items:
                curve = totals.get(state)
                if curve is None:
                    curve = totals[state] = np.zeros(len(times))
                curve[index] += float(value)
    if count == 0:
        raise ValueError("mean_occupancy needs at least one seed")
    return {state: curve / count for state, curve in totals.items()}


def max_band_deviation(
    reference: Dict[State, np.ndarray],
    candidate: Dict[State, np.ndarray],
    n: int,
) -> float:
    """Worst per-state occupancy gap between two curve sets, in ``sqrt(n)``
    units.

    ``sqrt(n)`` is the natural scale of finite-population fluctuations
    around the mean-field fluid limit, so a mean-field curve is "within
    the O(1/sqrt(n)) band" of an exact mean-occupancy curve when this
    deviation is O(1) — the tests document the concrete constant per
    workload.  States absent from one side count as all-zero curves.

    >>> import numpy as np
    >>> ref = {"a": np.array([100.0, 50.0]), "b": np.array([0.0, 50.0])}
    >>> cand = {"a": np.array([104.0, 50.0]), "b": np.array([0.0, 46.0])}
    >>> max_band_deviation(ref, cand, n=100)
    0.4
    """
    deviation = 0.0
    scale = float(np.sqrt(n))
    for state in set(reference) | set(candidate):
        ref_curve = reference.get(state)
        cand_curve = candidate.get(state)
        if ref_curve is None:
            ref_curve = np.zeros_like(cand_curve)
        if cand_curve is None:
            cand_curve = np.zeros_like(ref_curve)
        gap = float(np.max(np.abs(ref_curve - cand_curve))) / scale
        deviation = max(deviation, gap)
    return deviation
