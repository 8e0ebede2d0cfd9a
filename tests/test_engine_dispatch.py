"""The two count-dispatch tiers of ``engine="auto"``.

From ``_COUNTBATCH_MIN_N`` agents count eligibility is one rule on both
tiers, an O(k) ``initial_counts``, and the choice depends only on whether
the compiled count kernel is available.  With it, every eligible protocol
goes to ``CountBatchEngine`` without the dispatcher ever enumerating
states; without it, eligibility alone decides from ``COUNTBATCH_FORCE_N``
and the Python-tier cost model below that.  Below the threshold the choice
ignores the count kernel altogether.  Both kernels come from one
compiler probe, so a tier patches both predicates together.
"""

from __future__ import annotations

import pytest

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine import dispatch
from repro.engine.count_batch import CountBatchEngine
from repro.engine.dispatch import (
    COUNTBATCH_FORCE_N,
    _COUNTBATCH_MIN_N,
    auto_engine,
)
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.junta_standalone import JuntaElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection

#: Every in-repo protocol with an O(k) ``initial_counts``, built for ``n``.
#: No factory here runs a closure BFS: GSU19 discovers states lazily.
_COUNTS_PROTOCOLS = {
    "epidemic": lambda n: OneWayEpidemic(),
    "approximate-majority": lambda n: ApproximateMajority(),
    "exact-majority": ExactMajority.for_population,
    "slow": lambda n: SlowLeaderElection(),
    "lottery": LotteryLeaderElection.for_population,
    "junta": JuntaElection.for_population,
    "gs18": GS18LeaderElection.for_population,
    "gsu19": GSULeaderElection.for_population,
    # A 24-state frontier hint, priced unprofitable below the force
    # threshold.
    "gsu19-gamma4": lambda n: GSULeaderElection(
        GSUParams(n_hint=n, gamma=4, phi=1, psi=1)
    ),
}


def _tier(monkeypatch, kernels: bool) -> None:
    monkeypatch.setattr(dispatch, "kernel_available", lambda: kernels)
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: kernels)


class _EnumerationSpy(OneWayEpidemic):
    """An epidemic whose state enumeration and frontier hint must not run."""

    def canonical_states(self):
        raise AssertionError("dispatch called canonical_states()")

    def occupied_states_hint(self):
        raise AssertionError("dispatch called occupied_states_hint()")


class _NoCountsSpy(_EnumerationSpy):
    def initial_counts(self, n):
        return None


# ----------------------------------------------------------------------
# Kernel tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [3 * 10**6, 10**7])
@pytest.mark.parametrize("name", sorted(_COUNTS_PROTOCOLS))
def test_kernel_tier_dispatches_every_counts_protocol_to_countbatch(
    monkeypatch, name, n
):
    _tier(monkeypatch, True)
    protocol = _COUNTS_PROTOCOLS[name](n)
    assert protocol.initial_counts(n) is not None
    assert auto_engine(protocol, n) is CountBatchEngine


def test_kernel_tier_never_enumerates_states(monkeypatch):
    """Neither ``canonical_states`` (GSU19's closure BFS) nor the frontier
    hint is read, at any size, whether or not the protocol has counts."""
    _tier(monkeypatch, True)
    for n in (_COUNTBATCH_MIN_N, 10**7, 3 * 10**7, 10**8):
        assert auto_engine(_EnumerationSpy(), n) is CountBatchEngine
        assert auto_engine(_NoCountsSpy(), n) is FastBatchEngine


# ----------------------------------------------------------------------
# No-kernel tier: forced from COUNTBATCH_FORCE_N, priced below it
# ----------------------------------------------------------------------
_F, _C = FastBatchEngine, CountBatchEngine
_NO_KERNEL_SIZES = (10**6, 3 * 10**6, 10**7, 3 * 10**7)
#: Below 3e7 the cost model's decisions; at 3e7 (= COUNTBATCH_FORCE_N)
#: every protocol goes to count-batch on its initial_counts alone, lazily
#: discovering ones (lottery, junta, gs18, gsu19) included.
_NO_KERNEL_DECISIONS = {
    "epidemic": (_F, _C, _C, _C),
    "approximate-majority": (_F, _C, _C, _C),
    "exact-majority": (_F, _F, _C, _C),
    "slow": (_F, _C, _C, _C),
    "lottery": (_F, _F, _F, _C),
    "junta": (_F, _F, _F, _C),
    "gs18": (_F, _F, _F, _C),
    "gsu19": (_F, _F, _F, _C),
    "gsu19-gamma4": (_F, _F, _F, _C),
}


@pytest.mark.parametrize("name", sorted(_COUNTS_PROTOCOLS))
def test_no_kernel_tier_decisions_are_unchanged(monkeypatch, name):
    _tier(monkeypatch, False)
    chosen = tuple(
        auto_engine(_COUNTS_PROTOCOLS[name](n), n) for n in _NO_KERNEL_SIZES
    )
    assert chosen == _NO_KERNEL_DECISIONS[name]


def test_no_kernel_tier_forces_without_enumerating_states(monkeypatch):
    """From the force threshold the no-kernel tier reads ``initial_counts``
    only: neither ``canonical_states`` nor the frontier hint is consulted,
    and a protocol without counts keeps the per-agent engine."""
    _tier(monkeypatch, False)
    for n in (COUNTBATCH_FORCE_N, 10**8):
        assert auto_engine(_EnumerationSpy(), n) is CountBatchEngine
        assert auto_engine(_NoCountsSpy(), n) is FastBatchEngine


# ----------------------------------------------------------------------
# Below the count threshold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(_COUNTS_PROTOCOLS))
def test_below_count_threshold_the_count_kernel_changes_nothing(monkeypatch, name):
    """Below ``_COUNTBATCH_MIN_N`` the count kernel never affects the choice,
    and every choice on either tier is in the bit-for-bit
    sequential-identical family."""
    sizes = (64, 1024, 10**5, 10**6, _COUNTBATCH_MIN_N - 1)
    for fast_kernel in (True, False):
        monkeypatch.setattr(dispatch, "kernel_available", lambda v=fast_kernel: v)
        choices = []
        for count_kernel in (True, False):
            monkeypatch.setattr(
                dispatch, "count_kernel_available", lambda v=count_kernel: v
            )
            choices.append(
                [auto_engine(_COUNTS_PROTOCOLS[name](n), n) for n in sizes]
            )
        assert choices[0] == choices[1]
        assert set(choices[0]) <= {SequentialEngine, FastBatchEngine}
