"""The assembled GSU19 leader-election protocol.

:class:`GSULeaderElection` wires the rule modules of this package into a
single deterministic transition function, in the order the paper composes
them (non-conflicting rules of different sub-populations "happen in
parallel"; within one interaction we apply them to the responder in a fixed
order, which is equivalent because each rule family touches disjoint fields
or is guarded by the role):

1. phase-clock update of the responder (Section 3),
2. initialisation / role assignment and deactivation (Section 4, rules (1)–(2)),
3. coin preprocessing — level growth and junta formation (Section 5),
4. inhibitor drag preprocessing and slowed-down signalling (Section 7, rule (8)),
5. leader round reset (rule (3)), coin flip (rules (4)–(5)) and heads
   epidemic (rules (6)–(7)) — Sections 6 and 7,
6. drag adoption / increment (rules (9)–(10)) — Section 7,
7. the slow backup with seniority (Section 8, rule (11)).

The output map sends the *alive* candidates (``L⟨A⟩`` and ``L⟨P⟩``) to the
leader output and every other state to the follower output, exactly as in
Section 8.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.clocks.phase_clock import PhaseClockRules
from repro.core.backup import apply_slow_backup
from repro.core.context import InteractionContext
from repro.core.fast_elimination import (
    apply_coin_flip,
    apply_heads_epidemic,
    apply_round_reset,
)
from repro.core.final_elimination import apply_drag_rules
from repro.core.inhibitors import apply_inhibitor_rules
from repro.core.junta import apply_coin_preprocessing
from repro.core.params import GSUParams
from repro.core.roles import apply_initialisation
from repro.core.state import GSUAgentState, is_alive_leader, zero_state
from repro.engine.base import BaseEngine
from repro.engine.closure import reachable_states
from repro.engine.convergence import SingleLeader
from repro.engine.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT, PopulationProtocol
from repro.types import Role

__all__ = ["GSULeaderElection"]

#: Reachable-closure cache.  Keyed by ``(gamma, phi, psi)`` — the only
#: parameters the transition function reads (``n_hint`` is validation-only),
#: so every protocol instance sharing a calibration shares one BFS.
_CLOSURE_CACHE: Dict[Tuple[int, int, int], Tuple[GSUAgentState, ...]] = {}


class GSULeaderElection(PopulationProtocol):
    """The ``O(log n · log log n)`` expected-time leader election of GSU19.

    Instances are deterministic transition machines parameterised by
    :class:`~repro.core.params.GSUParams`; all randomness comes from the
    simulation scheduler.  Use :meth:`for_population` to build an instance
    with parameters derived from the population size::

        protocol = GSULeaderElection.for_population(1 << 12)
        result = run_protocol(protocol, 1 << 12, seed=3, max_parallel_time=4000)
        assert result.leader_count == 1
    """

    name = "gsu19-leader-election"

    def __init__(self, params: GSUParams) -> None:
        self.params = params
        self.clock = PhaseClockRules(params.gamma)

    # ------------------------------------------------------------------
    @classmethod
    def for_population(
        cls,
        n: int,
        *,
        gamma: Optional[int] = None,
        phi: Optional[int] = None,
        psi: Optional[int] = None,
    ) -> "GSULeaderElection":
        """Build the protocol with parameters derived from ``n``."""
        return cls(GSUParams.from_population_size(n, gamma=gamma, phi=phi, psi=psi))

    # ------------------------------------------------------------------
    # PopulationProtocol interface
    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> GSUAgentState:
        return zero_state()

    def initial_configuration(self, n: int) -> Sequence[GSUAgentState]:
        return [zero_state()] * n

    def initial_counts(self, n: int) -> Dict[GSUAgentState, int]:
        # O(k) form of the uniform start: the configuration-space engines
        # construct at n = 10^7-10^8 without an O(n) per-agent list.
        return {zero_state(): n}

    def occupied_states_hint(self) -> int:
        """Empirical envelope of the simultaneously occupied state count.

        Measured runs occupy far fewer states at a time than the reachable
        closure holds (40-75 at the default calibration across
        ``n = 10^6``-``10^7``, versus ``K ~ 1.8*10^3`` reachable): the phase
        clock keeps each sub-population's phases in a narrow moving band.
        The bound below — a few phases' worth of every role's field
        combinations — envelopes every measurement with ~2x headroom.  No
        library code reads it (``auto`` decides without a frontier bound);
        only the end-to-end benchmark's dispatch label does, and the hook
        goes away once that read is dropped.
        """
        return 4 * self.params.gamma + 4 * (self.params.phi + self.params.psi)

    def reachable_state_closure(self) -> Tuple[GSUAgentState, ...]:
        """Compute (and cache per ``(gamma, phi, psi)``) the reachable states.

        Every field of the frozen :class:`~repro.core.state.GSUAgentState` is
        bounded for fixed parameters (``phase < Γ``, ``level ≤ Φ``,
        ``drag ≤ Ψ``, ``cnt ≤ 2Φ+3``), so the set of states reachable from
        the all-zero start is finite and
        :func:`~repro.engine.closure.reachable_states` enumerates it exactly,
        at ``Θ(K²)`` transition evaluations (tens of seconds at the default
        calibration).  No engine needs it: GSU19 declares no
        ``canonical_states`` and every table discovers states lazily on the
        frontier a run occupies.  This is the explicit audit API; seed an
        encoder with it (``protocol.compile(encoder=StateEncoder(closure))``)
        to build a table over the whole reachable space.
        """
        key = (self.params.gamma, self.params.phi, self.params.psi)
        closure = _CLOSURE_CACHE.get(key)
        if closure is None:
            closure = tuple(reachable_states(self.transition, [zero_state()]))
            _CLOSURE_CACHE[key] = closure
        return closure

    def transition(self, responder: GSUAgentState, initiator: GSUAgentState):
        params = self.params
        clock = self.clock

        # 1. Phase-clock update of the responder.
        old_phase = responder.phase
        new_phase = clock.advance(
            old_phase, initiator.phase, responder.is_junta(params.phi)
        )
        ctx = InteractionContext(
            passed_zero=clock.passed_zero(old_phase, new_phase),
            early=clock.is_early(old_phase, new_phase),
            late=clock.is_late(old_phase, new_phase),
        )
        updated = responder.with_phase(new_phase)
        partner = initiator

        # 2. Initialisation / role assignment.  If a role was assigned (or an
        # agent deactivated) in this interaction, the agents do not also act
        # in their new roles within the same interaction — the remaining rule
        # families are skipped.  Without this, e.g. a freshly created coin
        # would immediately be stopped by its own creation partner.
        updated, partner = apply_initialisation(updated, partner, ctx, params)
        if updated.role != responder.role or partner.role != initiator.role:
            return updated, partner

        # 3-7. Sub-population rules (each family is role-guarded).
        updated, partner = apply_coin_preprocessing(updated, partner, ctx, params)
        updated, partner = apply_inhibitor_rules(updated, partner, ctx, params)
        updated, partner = apply_round_reset(updated, partner, ctx, params)
        updated, partner = apply_coin_flip(updated, partner, ctx, params)
        updated, partner = apply_heads_epidemic(updated, partner, ctx, params)
        updated, partner = apply_drag_rules(updated, partner, ctx, params)
        updated, partner = apply_slow_backup(updated, partner, ctx, params)
        return updated, partner

    def output(self, state: GSUAgentState) -> str:
        return LEADER_OUTPUT if is_alive_leader(state) else FOLLOWER_OUTPUT

    def describe_state(self, state: GSUAgentState) -> str:
        return state.describe()

    # ------------------------------------------------------------------
    # Convergence helpers
    # ------------------------------------------------------------------
    @staticmethod
    def no_uninitialised_agents(engine: BaseEngine) -> bool:
        """No agent is still in role ``0`` or ``X``.

        Once this holds, no new leader candidates can ever be created (rule
        (1a) is the only source of ``L`` agents), so "exactly one alive
        candidate" is a stable certificate of successful election.  The
        check is one vector reduction over the compiled uninitialised-role
        view (:data:`repro.core.monitor.UNINITIALISED_VIEW`), so evaluating
        it every convergence check costs O(occupied frontier) even at
        ``n = 10^8``.
        """
        from repro.core.monitor import UNINITIALISED_VIEW

        return UNINITIALISED_VIEW.count(engine) == 0

    def convergence(self) -> SingleLeader:
        """The convergence predicate used for this protocol's experiments."""
        from repro.core.monitor import UNINITIALISED_VIEW

        return SingleLeader(
            extra_condition=self.no_uninitialised_agents,
            description=(
                "exactly one alive leader candidate and no uninitialised agents"
            ),
            views=(UNINITIALISED_VIEW,),
        )
