"""Shared machinery for the simulation engines.

:class:`BaseEngine` factors out everything that does not depend on how the
population is represented (per-agent array vs. state counts): the compiled
:class:`~repro.engine.table.TransitionTable` obtained from
``protocol.compile()``, ever-occupied state tracking, count bookkeeping
helpers, the ``run``/``run_until`` drivers, and convergence-friendly
accessors.  :func:`drive` is the one check-and-chunk loop every run goes
through, with one :class:`Cadence` per row.

Transition and output memoisation live in the shared table, **not** in the
engines: every engine built on the same protocol instance consumes the same
compiled ``delta`` dict / packed lookup array / output maps, so compiling a
state pair once serves the scalar loops, the vectorised NumPy paths and the
C kernel alike.
"""

from __future__ import annotations

import abc
import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike
from repro.errors import CheckpointError, ConfigurationError
from repro.types import State

__all__ = ["BaseEngine", "Cadence", "SNAPSHOT_VERSION", "drive"]

#: Version stamp embedded in every engine snapshot.  Bump when the snapshot
#: layout changes incompatibly; :meth:`BaseEngine.restore` refuses snapshots
#: from another version — restoring guessed fields would silently change
#: trajectories, the one thing a checkpoint must never do.
SNAPSHOT_VERSION = 1


class BaseEngine(abc.ABC):
    """Common interface and bookkeeping for population-protocol engines.

    Concrete engines must implement :meth:`_perform_steps` (advance the
    population by a number of interactions) and :meth:`state_count_items`
    (iterate over ``(state_id, count)`` pairs with non-zero count).
    """

    #: Whether the engine simulates the sequential model exactly.  Approximate
    #: engines (``tauleap``, ``meanfield``) set this to ``False`` and must
    #: never be used for correctness claims.
    exact: bool = True

    #: Scenario capability tags this engine supports, compared against
    #: :meth:`repro.scenarios.scenario.Scenario.requirements` by
    #: :func:`repro.engine.dispatch.scenario_capable`.  The default — the
    #: empty set — means "complete graph, fault-free, static population
    #: only", which is correct for every count-space engine (their
    #: hypergeometric splits assume uniform complete-graph pairing).
    scenario_capabilities: frozenset = frozenset()

    def __init__(self, protocol: PopulationProtocol, n: int, rng: RngLike = None) -> None:
        if n < 2:
            raise ConfigurationError(f"population size must be >= 2, got {n}")
        self.protocol = protocol
        self.n = int(n)
        #: The protocol's compiled transition-table IR, shared across every
        #: engine built on the same protocol instance.
        self.table = protocol.compile()
        self.encoder = self.table.encoder
        self.interactions = 0
        # Distinct states occupied by at least one agent at any point of this
        # run -- per-run state, deliberately NOT part of the shared table.
        self._ever_occupied: set = set()

    # ------------------------------------------------------------------
    # Abstract representation-specific pieces
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _perform_steps(self, count: int) -> None:
        """Advance the simulation by ``count`` interactions."""

    @abc.abstractmethod
    def state_count_items(self) -> List[Tuple[int, int]]:
        """Return ``(state_id, count)`` pairs for states with count > 0."""

    # ------------------------------------------------------------------
    # Occupancy tracking
    # ------------------------------------------------------------------
    def _mark_occupied(self, sid: int) -> None:
        """Record that ``sid`` has been occupied at some point of this run.

        Engines call this for every initial state and for every transition
        output that differs from its input; together with the invariant that
        an agent's current state is always either initial or a previously
        recorded changed output, this tracks the exact ever-occupied set.
        """
        self._ever_occupied.add(sid)

    def _encode_initial(self, state: State) -> int:
        sid = self.table.encode(state)
        self._mark_occupied(sid)
        return sid

    def output_of_id(self, sid: int) -> str:
        """Output symbol of the state registered under ``sid`` (memoised)."""
        return self.table.output_of(sid)

    # ------------------------------------------------------------------
    # Public inspection API
    # ------------------------------------------------------------------
    @property
    def parallel_time(self) -> float:
        """Interactions divided by the population size (the paper's time unit)."""
        return self.interactions / self.n

    def state_counts(self) -> Dict[State, int]:
        """Current multiset of states as ``{state: count}`` (non-zero only)."""
        return {
            self.encoder.decode(sid): count for sid, count in self.state_count_items()
        }

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        sid = self.encoder.try_encode(state)
        if sid is None:
            return 0
        for candidate, count in self.state_count_items():
            if candidate == sid:
                return count
        return 0

    def count_vector(self) -> np.ndarray:
        """Dense current counts indexed by state id.

        The returned ``int64`` array has length exactly ``len(self.encoder)``
        and ``count_vector()[sid]`` agents in the state registered under
        ``sid``.  Engines with a native dense representation (the count
        engines, the batched per-agent engine's cached bincount) return
        their own buffer — treat the array as **read-only** and do not hold
        it across simulation steps.  This is the substrate the compiled
        state-property views (:mod:`repro.engine.views`) reduce against.
        """
        counts = np.zeros(len(self.encoder), dtype=np.int64)
        for sid, count in self.state_count_items():
            counts[sid] = count
        return counts

    def count_where(self, predicate: Callable[[State], bool]) -> int:
        """Number of agents whose state satisfies ``predicate``.

        Decodes every occupied state and evaluates ``predicate`` in Python
        *per call*; observation loops that run every check should compile
        the predicate into a :class:`~repro.engine.views.PredicateView`
        once and use its :meth:`~repro.engine.views.PredicateView.count`
        reduction instead.
        """
        total = 0
        for sid, count in self.state_count_items():
            if predicate(self.encoder.decode(sid)):
                total += count
        return total

    def counts_by_output(self) -> Dict[str, int]:
        """Aggregate current counts by output symbol."""
        totals: Dict[str, int] = {}
        output_of = self.table.output_of
        for sid, count in self.state_count_items():
            symbol = output_of(sid)
            totals[symbol] = totals.get(symbol, 0) + count
        return totals

    def leader_count(self) -> int:
        """Number of agents whose output symbol is the leader symbol."""
        from repro.engine.protocol import LEADER_OUTPUT

        return self.counts_by_output().get(LEADER_OUTPUT, 0)

    def distinct_states(self) -> List[State]:
        """States currently occupied by at least one agent."""
        return [self.encoder.decode(sid) for sid, _ in self.state_count_items()]

    @property
    def states_ever_occupied(self) -> int:
        """Number of distinct states occupied at any point of the run.

        This is the empirical counterpart of the protocol's space complexity
        (the paper's "number of states utilised by each agent").
        """
        return len(self._ever_occupied)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Bit-exact snapshot of this engine's run state.

        The snapshot captures everything the trajectory depends on beyond
        the (pure, deterministic) protocol itself: the configuration
        (per-agent array or count vector, engine-specific), the interaction
        counter, the ever-occupied state set, the full RNG state — including
        any pre-drawn randomness buffers (pair blocks, uniform blocks) — and
        the registered state-identifier layout, which lazily discovering
        engines depend on.

        The invariant (pinned by ``tests/test_engine_checkpoint.py``): a run
        interrupted at any driver boundary (a ``run``/``run_until`` check
        point — never inside ``_perform_steps``) and resumed through
        :meth:`restore` produces a trajectory bit-for-bit identical to the
        uninterrupted run, provided the driver issues the same sequence of
        step counts afterwards.

        The returned dictionary owns copies of all mutable state and is
        picklable (it contains protocol state objects, so it is generally
        *not* JSON-serialisable); persist it with
        :func:`repro.experiments.io.write_checkpoint`.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "engine": type(self).__name__,
            "protocol": self.protocol.name,
            "n": self.n,
            "interactions": self.interactions,
            "encoder_states": self.encoder.states(),
            "occupied_ids": self._occupied_ids(),
            "payload": self._state_snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind this engine to a state captured by :meth:`snapshot`.

        The engine must have been constructed for the same protocol (by
        name), population size and engine class as the snapshot's source;
        mismatches raise :class:`~repro.errors.CheckpointError`.  Restoring
        first re-registers the snapshot's states in its recorded order, so
        the state-identifier layout — which the count engines' sampling
        order and the packed lookup tables depend on — is reproduced exactly
        even on a freshly compiled protocol instance.
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot version {version!r} is not supported by this "
                f"build (expected {SNAPSHOT_VERSION})"
            )
        if snapshot.get("engine") != type(self).__name__:
            raise CheckpointError(
                f"snapshot was taken from engine {snapshot.get('engine')!r}, "
                f"cannot restore into {type(self).__name__}"
            )
        if snapshot.get("protocol") != self.protocol.name:
            raise CheckpointError(
                f"snapshot was taken from protocol {snapshot.get('protocol')!r}, "
                f"cannot restore into {self.protocol.name!r}"
            )
        if int(snapshot.get("n", -1)) != self.n:
            raise CheckpointError(
                f"snapshot was taken at population size {snapshot.get('n')}, "
                f"cannot restore into n={self.n}"
            )
        # Reproduce the state-identifier layout.  Registration is append-only
        # and deterministic (canonical states, then initial states, then
        # discovery order), so encoding the recorded states in order must
        # yield their recorded identifiers; anything else means the target
        # table has an incompatible compilation history.
        for expected_id, state in enumerate(snapshot["encoder_states"]):
            sid = self.table.encode(state)
            if sid != expected_id:
                raise CheckpointError(
                    f"state {state!r} registered under id {sid}, but the "
                    f"snapshot recorded id {expected_id}; the protocol "
                    "instance has an incompatible state-registration history "
                    "(restore into a freshly constructed protocol)"
                )
        self.interactions = int(snapshot["interactions"])
        self._restore_occupied(snapshot["occupied_ids"])
        self._state_restore(snapshot["payload"])

    @classmethod
    def from_snapshot(
        cls, protocol: PopulationProtocol, snapshot: dict, **engine_kwargs
    ) -> "BaseEngine":
        """Construct an engine for ``protocol`` and restore ``snapshot``.

        Convenience wrapper for the common resume flow: build the engine
        normally (construction consumes no randomness) and overwrite its
        run state from the snapshot.
        """
        engine = cls(protocol, int(snapshot["n"]), **engine_kwargs)
        engine.restore(snapshot)
        return engine

    @abc.abstractmethod
    def _state_snapshot(self) -> dict:
        """Engine-specific snapshot payload (copies, picklable)."""

    @abc.abstractmethod
    def _state_restore(self, payload: dict) -> None:
        """Restore the engine-specific payload from :meth:`_state_snapshot`.

        Called after the encoder layout, interaction counter and occupancy
        set have been restored, so ``len(self.encoder)`` already covers every
        identifier in the payload.
        """

    def _occupied_ids(self) -> List[int]:
        """Sorted ever-occupied state ids (overridden by mask-based engines)."""
        return sorted(int(sid) for sid in self._ever_occupied)

    def _restore_occupied(self, ids) -> None:
        """Restore the ever-occupied set (overridden by mask-based engines)."""
        self._ever_occupied = {int(sid) for sid in ids}

    # ------------------------------------------------------------------
    # Run drivers
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by exactly one interaction."""
        self._perform_steps(1)

    def run(self, interactions: int) -> None:
        """Advance the simulation by ``interactions`` interactions."""
        if interactions < 0:
            raise ConfigurationError(
                f"interaction count must be non-negative, got {interactions}"
            )
        self._perform_steps(int(interactions))

    def run_parallel_time(self, units: float) -> None:
        """Advance by ``units`` parallel-time units (``units * n`` interactions)."""
        self.run(int(round(units * self.n)))

    def run_until(
        self,
        predicate: Callable[["BaseEngine"], bool],
        *,
        max_interactions: int,
        check_every: Optional[Union[int, str]] = None,
        on_check: Optional[Callable[["BaseEngine"], None]] = None,
    ) -> bool:
        """Run until ``predicate(engine)`` holds or a budget is exhausted.

        Parameters
        ----------
        predicate:
            Convergence condition, evaluated every ``check_every`` interactions.
        max_interactions:
            Hard budget counted from the engine's *current* interaction count.
        check_every:
            Evaluation period; defaults to ``n`` (once per parallel-time
            unit).  ``"auto"`` selects the adaptive cadence (see
            :class:`Cadence`).
        on_check:
            Optional observer invoked at every evaluation point (recorders).

        Returns
        -------
        bool
            ``True`` if the predicate held at some evaluation point.
        """
        (converged,) = drive(
            [self],
            [predicate],
            [Cadence(check_every, self.n)],
            max_interactions,
            lambda chunks: self._perform_steps(chunks[0]),
            on_check,
        )
        return converged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} protocol={self.protocol.name!r} n={self.n} "
            f"interactions={self.interactions}>"
        )


class Cadence:
    """One row's convergence-check cadence: a fixed period or adaptive.

    ``check_every`` is a positive interaction period (anything
    :func:`operator.index` accepts), ``None`` for the default ``n``, or
    ``"auto"`` for the adaptive controller.  Adaptive checks start every
    ``n // 4`` interactions; the period doubles (capped at ``4 n``, which
    bounds the detection lag) after each check whose ``counts_by_output()``
    equals the previous one, and snaps back to ``n // 4`` when it changes.
    Anything else raises :class:`~repro.errors.ConfigurationError`.
    ``state`` resumes an adaptive controller from a checkpoint's
    :meth:`state`; fixed cadences ignore it.
    """

    def __init__(
        self, check_every: Optional[Union[int, str]], n: int, state: Optional[dict] = None
    ) -> None:
        self.adaptive = isinstance(check_every, str) and check_every == "auto"
        if check_every is not None and not self.adaptive:
            try:
                period = operator.index(check_every)
            except TypeError:
                period = 0
            if period <= 0:
                raise ConfigurationError(
                    f"check_every must be a positive integer interaction "
                    f"period or 'auto', got {check_every!r}"
                )
            check_every = period
        #: The normalised setting: ``None``, a Python ``int`` or ``"auto"``.
        self.check_every = check_every
        #: Whether the chunk that reached this check was not budget-clipped.
        #: Only such checks lie on every longer run's trajectory too.
        self.aligned = True
        self.signature: Optional[Dict[str, int]] = None
        if not self.adaptive:
            self.period = int(n) if check_every is None else check_every
        else:
            self.base = self.period = max(1, int(n) // 4)
            self.cap = max(self.base, 4 * int(n))
            if state is not None:
                self.period = int(state["period"])
                signature = state.get("signature")
                self.signature = None if signature is None else dict(signature)

    def update(self, engine: BaseEngine) -> None:
        """Choose the next period after a check that did not converge."""
        if not self.adaptive:
            return
        current = engine.counts_by_output()
        if current == self.signature:
            self.period = min(2 * self.period, self.cap)
        else:
            self.signature = current
            self.period = self.base

    def state(self) -> Optional[dict]:
        """The adaptive controller as checkpoints record it (``None`` if fixed)."""
        if not self.adaptive:
            return None
        signature = None if self.signature is None else dict(self.signature)
        return {"period": int(self.period), "signature": signature}


def drive(
    rows: Sequence[BaseEngine],
    predicates: Sequence[Callable[[BaseEngine], bool]],
    cadences: Sequence[Cadence],
    budget: int,
    advance: Callable[[List[int]], None],
    on_check: Optional[Callable[[BaseEngine], None]] = None,
) -> List[bool]:
    """Run every row until its predicate holds or ``budget`` is spent.

    The one check-and-chunk loop of the package; a scalar run is one row.
    Each row has a check point at its starting position and after every
    chunk.  A check runs ``on_check(row)``, then ``predicates[r](row)``,
    then the cadence update, then the deadline test (``budget``
    interactions past the row's starting position).  Then one
    ``advance(chunks)`` call moves every row still running by
    ``min(period, remaining budget)`` interactions; finished rows get 0.

    Returns, per row, whether its predicate held at some check point.
    """
    deadlines = [row.interactions + int(budget) for row in rows]
    converged = [False] * len(rows)
    due = range(len(rows))
    while due:
        chunks = [0] * len(rows)
        running = []
        for r in due:
            row, cadence = rows[r], cadences[r]
            if on_check is not None:
                on_check(row)
            if predicates[r](row):
                converged[r] = True
                continue
            cadence.update(row)
            remaining = deadlines[r] - row.interactions
            if remaining > 0:
                chunks[r] = min(cadence.period, remaining)
                cadence.aligned = chunks[r] == cadence.period
                running.append(r)
        due = running
        if due:
            advance(chunks)
    return converged
