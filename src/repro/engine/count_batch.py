"""Exact-in-distribution batched simulation over state counts.

:class:`CountBatchEngine` is the configuration-space engine the tentpole
experiments at ``n = 10^7``–``10^8`` run on.  Agents are anonymous, so the
multiset of states is a sufficient statistic: the engine stores only the
state counts (``O(k)`` memory — no per-agent array, no ``O(n)``
construction).  Instead of sampling one ordered pair per step it
processes interactions in *collision-free runs* of expected length
``Θ(sqrt(n))``, in the style of Berenbrink et al.'s batched
population-protocol simulation (see PAPERS.md).
Per-run work follows the *occupied* state frontier ``k`` — quadratic scalar
hypergeometric splits while ``k`` is small, one compacted vectorised split
per pairing row beyond ``_MVH_SCALAR_MAX_OCCUPIED`` — so the
per-interaction cost vanishes as the population grows.  Without the
compiled count kernel this Python path beats fast-batch's NumPy waves on
the small declared state spaces, which is why :mod:`repro.engine.dispatch`
sends those protocols here from ``3*10^6`` agents.

Exactness (in distribution)
===========================

The sequential model draws an i.i.d. sequence of uniformly random ordered
pairs of distinct agents.  Parse that sequence into *runs*: a maximal prefix
of interactions whose ``2L`` participating agents are all distinct, followed
by the first *colliding* interaction (one that reuses a participant).  Since
the pair sequence is i.i.d., re-anchoring the parse after every run is
exact, and each run can be sampled configuration-level:

1. **Run length.**  The ``j``-th pair avoids the ``2(j-1)`` agents already
   used with probability ``p_j = (n-2j+2)(n-2j+1) / (n(n-1))``, so
   ``P(L >= j) = p_1 ... p_j`` — a fixed survival curve depending only on
   ``n``, precomputed once; each batch draws ``L`` by inverting one uniform
   against it.  Truncating the curve (at ``~8.5 sqrt(n)``, where survival is
   ``~1e-30``, or at a caller's remaining-interaction budget) stays exact:
   conditioned on ``L >= r``, applying ``r`` collision-free pairs and
   re-anchoring is a valid parse as well — no collision step is owed.
2. **Participants.**  The ``2L`` distinct agents form a uniform ordered
   sample without replacement, so their state multiset ``H`` is multivariate
   hypergeometric from the counts; the responder multiset ``R`` is a
   hypergeometric split of ``H`` (initiators ``I = H - R``), and the pairing
   contingency matrix ``M[a, b]`` follows by matching each responder state's
   slots against the remaining initiator pool (sequential hypergeometric
   rows).  All ``2L`` agents are distinct, so applying every pair through
   the compiled transition table *simultaneously* is exact.
3. **The colliding interaction.**  Conditioned on ending the run, the next
   pair has at least one participant among the ``2L`` used agents, whose
   post-transition state multiset ``U`` is known; the fresh agents keep the
   multiset ``counts_before - H``.  The ordered pair falls in category
   (used, fresh), (fresh, used) or (used, used) with weights ``uf``, ``fu``
   and ``u(u-1)``, and the two states are drawn from the corresponding
   multisets (without replacement within the used pool) by
   :func:`sample_weighted_index`.

The KS distributional-equivalence suite (``tests/test_engine_equivalence.py``)
pins this engine against :class:`SequentialEngine` on the epidemic,
approximate-majority and GSU19 workloads.  Unlike
:class:`~repro.engine.fast_batch.FastBatchEngine` the trajectories are not
bit-for-bit reproductions of the sequential engine's for equal seeds (the
randomness is consumed through entirely different draws); equality holds in
distribution, which is what every statistic in the paper's figures is a
function of.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine._count_kernel import (
    load_count_kernel,
    load_count_kernel_multi,
    logfact_reserve,
    seed_kernel_rng,
)
from repro.engine.base import BaseEngine
from repro.engine.cpus import resolve_kernel_threads
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng, restore_rng_state, rng_state
from repro.errors import ConfigurationError, ProtocolError

__all__ = [
    "CountBatchEngine",
    "MAX_EXACT_N",
    "ReplicatedCountBatchEngine",
    "initial_count_items",
    "replicated_engine",
    "sample_weighted_index",
]

#: Survival-curve truncation: beyond ``_SURVIVAL_SPAN * sqrt(n)`` pairs the
#: all-distinct probability is ~1e-30; conditioning on reaching the cap and
#: re-anchoring there keeps the scheme exact (see the module docstring).
_SURVIVAL_SPAN = 8.5

#: Hard cap on the precomputed survival curve's length.  At ``n = 10^12``
#: the ``8.5 sqrt(n)`` span would be ~8.5M entries already; near
#: ``MAX_EXACT_N`` it would be ~810M entries (6.5 GB).  Truncating earlier
#: is *exact* for the same conditioning/re-anchoring reason as the span
#: truncation — a run cut short by the cap owes no collision — it merely
#: shortens the expected batch, so the cap only matters above ``n ~ 10^12``
#: where batches are millions of interactions either way.
_SURVIVAL_MAX_LEN = 1 << 23

#: Largest supported population size.  Every sampler in the engine (and in
#: the C kernel) manipulates counts through IEEE doubles — survival-curve
#: terms ``2j/n``, hypergeometric operands, cumulative multiset walks — so
#: exactness requires every integer in ``[0, n]`` to be representable:
#: ``n <= 2^53``.  (Counts themselves stay well inside int64.)  Beyond this
#: the engine refuses to construct rather than silently degrade.
MAX_EXACT_N = 2**53

#: NumPy's ``Generator.hypergeometric`` raises once ``ngood`` or ``nbad``
#: reaches 10^9 (and ``multivariate_hypergeometric`` refuses a total of
#: 10^9): below the cap the engine uses NumPy's samplers (keeping the
#: RNG stream — and the trajectory-digest pins — unchanged), at or above
#: it the pure-Python equivalents below take over.
_NUMPY_HYPERGEOMETRIC_CAP = 10**9

#: Occupied-state count above which a multivariate hypergeometric draw
#: switches from the scalar sequential-conditional decomposition (~1.7us per
#: occupied state, unbeatable for the classic 2-4 state protocols) to one
#: compacted :func:`numpy.random.Generator.multivariate_hypergeometric` call
#: (~14us flat + ~0.14us per state — linear instead of quadratic pairing
#: cost once protocols like GSU19 occupy dozens of states at a time).  Both
#: decompositions sample the *same* distribution (chain rule), so the switch
#: is invisible to every statistic; only the raw RNG stream differs.
_MVH_SCALAR_MAX_OCCUPIED = 12

#: Population size from which falling back to ``initial_configuration`` is an
#: error rather than a slow path: the fallback walks an O(n) sequence, which
#: at 10^7+ agents means multi-GB transient allocations inside engines whose
#: selling point is O(k) memory.  Protocols must declare ``initial_counts``
#: to run at this scale.
_COUNTS_REQUIRED_MIN_N = 10**7


def sample_weighted_index(weights, target: float, exclude: int = -1) -> int:
    """Index into ``weights`` sampled proportionally to the weights.

    ``target`` is a uniform deviate pre-scaled by the total weight;
    ``exclude`` removes one unit of that index from the pool (how the second
    member of an ordered pair is drawn without replacement).
    :class:`CountBatchEngine` draws its colliding interaction with it.
    Falls back to the last index with mass on floating point slack.
    """
    acc = 0.0
    last = -1
    for index, weight in enumerate(weights):
        effective = weight - 1 if index == exclude else weight
        if effective <= 0:
            continue
        last = index
        acc += effective
        if target < acc:
            return index
    return last


def initial_count_items(
    protocol: PopulationProtocol, n: int
) -> List[Tuple[object, int]]:
    """``(state, count)`` pairs of the initial configuration, in order.

    Prefers the protocol's ``O(k)``-memory :meth:`initial_counts` hook and
    falls back to run-length encoding :meth:`initial_configuration`.  The
    fallback *streams* the configuration through :func:`itertools.groupby`
    — no intermediate copy is built here, and a protocol whose
    ``initial_configuration`` returns a lazy iterable is consumed in O(k)
    memory (``k`` runs of equal states).  At ``n >= 10^7`` the fallback is
    refused outright with a :class:`ProtocolError` naming the fix (declare
    ``initial_counts``): the stock implementations return O(n) lists, and
    whether a particular override would stream lazily cannot be known
    without *invoking* it — at which point a list-returning protocol has
    already allocated the gigabytes this guard exists to prevent.
    """
    counts = protocol.initial_counts(n)
    if counts is not None:
        items = list(counts.items())
        total = sum(count for _, count in items)
        if total != n or any(count < 0 for _, count in items):
            raise ProtocolError(
                f"initial_counts of protocol {protocol.name!r} sums to {total} "
                f"with population size {n} (counts must be non-negative and "
                "sum to n)"
            )
        return [(state, int(count)) for state, count in items if count]
    if n >= _COUNTS_REQUIRED_MIN_N:
        raise ProtocolError(
            f"protocol {protocol.name!r} declares no initial_counts; the "
            f"initial_configuration fallback is refused at n={n} (stock "
            "implementations materialise an O(n) list, and checking for a "
            "lazy override would already invoke it) — implement "
            "initial_counts (the O(k) {state: count} form of the initial "
            "configuration) to simulate populations of 10^7 and beyond"
        )
    configuration = protocol.initial_configuration(n)
    if hasattr(configuration, "__len__"):
        # Sized configurations keep the protocol's validate_configuration
        # hook (subclasses may enforce extra invariants there); lazy
        # iterables skip it — their length is validated from the stream.
        protocol.validate_configuration(configuration, n)
    items = [
        (state, sum(1 for _ in run)) for state, run in groupby(configuration)
    ]
    total = sum(count for _, count in items)
    if total != n:
        raise ProtocolError(
            f"initial configuration of protocol {protocol.name!r} has length "
            f"{total}, expected n={n}"
        )
    return items


def _logfactorial(k: int) -> float:
    return math.lgamma(k + 1.0)


def _hypergeometric_large(rng, good: int, bad: int, sample: int) -> int:
    """Exact hypergeometric variate for operands beyond NumPy's 10^9 cap.

    Same algorithm pair as NumPy's ``Generator.hypergeometric`` (urn
    inversion when the symmetrised sample is < 10, Stadlober's HRUA
    ratio-of-uniforms rejection otherwise) and the same pair the C count
    kernel uses, implemented over ``rng.random()`` uniforms so it is valid
    for any operands exact in float64 — i.e. up to ``MAX_EXACT_N``.  Only
    reached when an operand is >= ``_NUMPY_HYPERGEOMETRIC_CAP``, so the
    sub-cap RNG stream (and every existing digest pin) is untouched.
    """
    total = good + bad
    computed = min(sample, total - sample)
    if good <= 0:
        return 0
    if bad <= 0:
        return sample
    if computed < 10:
        # Urn inversion on the symmetrised draw.
        rem_good = good
        rem_total = total
        taken = 0
        for i in range(computed):
            if rem_good == 0:
                break
            if rem_good == rem_total:
                taken += computed - i
                break
            if float(rng.random()) * rem_total < rem_good:
                taken += 1
                rem_good -= 1
            rem_total -= 1
        return taken if computed == sample else good - taken
    mingoodbad = min(good, bad)
    maxgoodbad = max(good, bad)
    p = mingoodbad / total
    q = maxgoodbad / total
    mu = computed * p
    a = mu + 0.5
    var = (total - computed) * computed * p * q / (total - 1)
    c = math.sqrt(var + 0.5)
    h = 1.7155277699214135 * c + 0.8989161620588987  # 2*sqrt(2/e), 3-2*sqrt(3/e)
    mode = int((computed + 1) * ((mingoodbad + 1) / (total + 2)))
    g = (
        _logfactorial(mode)
        + _logfactorial(mingoodbad - mode)
        + _logfactorial(computed - mode)
        + _logfactorial(maxgoodbad - computed + mode)
    )
    bound = min(min(computed, mingoodbad) + 1, math.floor(a + 16.0 * c))
    while True:
        u = float(rng.random())
        v = float(rng.random())
        if u <= 0.0:
            continue
        x = a + h * (v - 0.5) / u
        if x < 0.0 or x >= bound:
            continue
        k = int(x)
        gp = (
            _logfactorial(k)
            + _logfactorial(mingoodbad - k)
            + _logfactorial(computed - k)
            + _logfactorial(maxgoodbad - computed + k)
        )
        t = g - gp
        if u * (4.0 - u) - 3.0 <= t:
            break
        if u * (u - t) >= 1.0:
            continue
        if 2.0 * math.log(u) <= t:
            break
    if good > bad:
        k = computed - k
    if computed < sample:
        k = good - k
    return k


class CountBatchEngine(BaseEngine):
    """Exact-in-distribution batched engine over state counts.

    Parameters
    ----------
    protocol:
        The protocol to simulate.  Works for any protocol, but the per-batch
        cost grows with the number of *occupied* states (quadratically on
        the small-frontier scalar path, linearly once the vectorised splits
        take over) — the engine shines for small-frontier protocols at huge
        ``n``.  At ``n >= 10^7`` the protocol must declare ``initial_counts``
        (the O(n) configuration fallback is refused, see
        :func:`initial_count_items`).
    n:
        Population size (``2 <= n <= MAX_EXACT_N``).
    rng:
        Seed or :class:`numpy.random.Generator`.
    kernel:
        ``"auto"`` (default) uses the compiled count kernel when a C
        compiler is available and falls back to the Python path silently;
        ``"c"`` requires the kernel (:class:`ConfigurationError` if it
        cannot be built); ``"python"`` pins the pure-Python path.  The two
        paths are equal in distribution but consume randomness differently
        (the kernel runs its own xoshiro256++ stream), so each carries its
        own trajectory-digest pins.
    survival:
        Internal: a precomputed ``(neg_survival, jmax)`` pair to adopt
        instead of recomputing the curve.  The curve is a pure function of
        ``n``, so sharing one across engines at the same ``n`` changes no
        trajectory; :class:`ReplicatedCountBatchEngine` uses this to pay
        the ``O(sqrt(n))`` cumulative-product construction once per batch
        of replicas instead of once per row.
    """

    exact = True

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        rng: RngLike = None,
        *,
        kernel: str = "auto",
        survival: Optional[Tuple[np.ndarray, int]] = None,
    ) -> None:
        super().__init__(protocol, n, rng)
        if n > MAX_EXACT_N:
            raise ProtocolError(
                f"CountBatchEngine supports n <= 2^53 ({MAX_EXACT_N}); "
                f"got n = {n}.  Beyond that, float64 can no longer "
                "represent every agent count exactly and the batched "
                "sampling would silently lose mass."
            )
        if kernel not in ("auto", "c", "python"):
            raise ConfigurationError(
                f"kernel must be 'auto', 'c' or 'python', got {kernel!r}"
            )
        self._rng = make_rng(rng)
        counts = np.zeros(max(1, len(self.encoder)), dtype=np.int64)
        for state, count in initial_count_items(protocol, n):
            sid = self._encode_initial(state)
            if sid >= counts.shape[0]:
                counts = self._grown(counts, len(self.encoder))
            counts[sid] += count
        self._counts = counts
        # Precomputed negated survival curve -P(L >= j), j = 1..jmax,
        # ascending (searchsorted-ready).  Depends only on n.  The terms
        # are computed with log1p on the *ratios* 2j/n — exact-in-float —
        # rather than log(n - 2j), whose float64 subtraction loses integer
        # precision once n approaches 2^53.  The _SURVIVAL_MAX_LEN cap
        # bounds the table's memory at huge n (exact by conditioning, see
        # the constant's docstring).
        if survival is not None:
            self._neg_survival, jmax = survival
            self._jmax = jmax = int(jmax)
        else:
            jmax = max(
                1,
                min(
                    n // 2,
                    int(_SURVIVAL_SPAN * math.sqrt(n)) + 16,
                    _SURVIVAL_MAX_LEN,
                ),
            )
            steps = np.arange(jmax, dtype=np.float64)
            log_p = np.log1p(-2.0 * steps / n) + np.log1p(-2.0 * steps / (n - 1.0))
            self._neg_survival = -np.exp(np.cumsum(log_p))
            self._jmax = jmax
        # Scalar hypergeometric entry point: NumPy's generator below its
        # 10^9 operand cap (total <= n bounds every operand, so small-n
        # engines keep the exact NumPy stream the digest pins record), the
        # pure-Python samplers above it.
        if n < _NUMPY_HYPERGEOMETRIC_CAP:
            self._hyper = self._rng.hypergeometric
        else:
            self._hyper = self._hypergeometric_checked
        # Optional compiled hot path (own RNG stream, seeded from the
        # engine generator only when active so the Python path's stream
        # is byte-identical to pre-kernel releases).
        self._kernel = None
        self._kernel_rng = None
        self._scratch = None
        self._seen_mask = None
        self._miss = np.empty(2, dtype=np.int64)
        if kernel in ("auto", "c"):
            self._kernel = load_count_kernel()
            if self._kernel is None and kernel == "c":
                raise ConfigurationError(
                    "kernel='c' requested but the count kernel is "
                    "unavailable (no C compiler, or REPRO_NO_C_KERNEL=1)"
                )
            if self._kernel is not None:
                self._kernel_rng = seed_kernel_rng(self._rng)
                # Cover every batch-bounded HRUA operand (<= 2L <= 2*jmax)
                # with table-served log-factorials; the entries equal the
                # lgamma fallback bit-for-bit, so the stream is unchanged.
                logfact_reserve(2 * jmax + 4)

    # ------------------------------------------------------------------
    # Count bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _grown(array: np.ndarray, size: int) -> np.ndarray:
        grown = np.zeros(max(size, array.shape[0]), dtype=np.int64)
        grown[: array.shape[0]] = array
        return grown

    def _ensure_counts(self) -> None:
        if self._counts.shape[0] < len(self.encoder):
            self._counts = self._grown(self._counts, len(self.encoder))

    # ------------------------------------------------------------------
    # Batched stepping
    # ------------------------------------------------------------------
    def _hypergeometric_checked(self, good: int, bad: int, nsample: int) -> int:
        """Scalar hypergeometric draw with width-checked promotion.

        NumPy whenever both operands are below its 10^9 cap (identical
        stream to the uncapped engines), the pure-Python exact sampler
        beyond it.  Bound as ``self._hyper`` only when ``n`` can exceed
        the cap, so small-``n`` engines pay no per-draw check at all.
        """
        if good < _NUMPY_HYPERGEOMETRIC_CAP and bad < _NUMPY_HYPERGEOMETRIC_CAP:
            return self._rng.hypergeometric(good, bad, nsample)
        return _hypergeometric_large(self._rng, int(good), int(bad), int(nsample))

    def _draw_run_length(self, remaining: int) -> Tuple[int, bool]:
        """Sample the collision-free run length, capped by ``remaining``.

        Returns ``(length, collide)`` where ``collide`` says whether the run
        is followed by the colliding interaction that ended it.  Hitting the
        survival-curve truncation or the remaining-interaction budget means
        the run was cut short by conditioning, not by a collision.
        """
        u = float(self._rng.random())
        length = int(np.searchsorted(self._neg_survival, -u, side="right"))
        length = max(1, length)
        collide = length < self._jmax
        if length >= remaining:
            length = remaining
            collide = False
        return length, collide

    def _multivariate_hypergeometric(
        self, colors: np.ndarray, nsample: int, total: int
    ) -> np.ndarray:
        """Multivariate hypergeometric draw via sequential conditionals.

        Distribution-identical to NumPy's ``multivariate_hypergeometric``
        but built from scalar ``hypergeometric`` calls, which avoids ~10us
        of per-call wrapper overhead — the dominant cost of a batch for
        small state spaces.  ``total`` must equal ``colors.sum()``.

        Only *occupied* colors are visited (empty ones never consumed a
        draw, so skipping them is RNG-stream-identical): per-batch cost
        follows the occupied frontier, not the declared state-space size —
        what makes count-batch viable for protocols like GSU19 whose
        reachable closure has ``~10^3`` states while runs occupy a few
        hundred at a time.
        """
        out = np.zeros(colors.shape[0], dtype=np.int64)
        m = int(nsample)
        if m == 0:
            return out
        if colors.shape[0] <= _MVH_SCALAR_MAX_OCCUPIED:
            # Short dense vector (the classic 2-4 state protocols): walk it
            # directly — a flatnonzero pass would cost more than it saves.
            hyper = self._hyper
            for sid, color in enumerate(colors.tolist()):
                if m == 0:
                    break
                if color == 0:
                    continue
                rest = total - color
                if rest == 0:
                    out[sid] = m
                    break
                drawn = int(hyper(color, rest, m))
                out[sid] = drawn
                m -= drawn
                total = rest
            return out
        occupied = np.flatnonzero(colors)
        if (
            occupied.shape[0] > _MVH_SCALAR_MAX_OCCUPIED
            and total < _NUMPY_HYPERGEOMETRIC_CAP
        ):
            # NumPy's vectorised marginals sampler refuses totals >= 10^9;
            # past the cap the scalar sequential-conditional loop below
            # (with width-checked draws) covers any occupied count.
            out[occupied] = self._rng.multivariate_hypergeometric(
                colors[occupied], m
            )
            return out
        hyper = self._hyper
        for sid in occupied.tolist():
            if m == 0:
                break
            color = int(colors[sid])
            rest = total - color
            if rest == 0:
                out[sid] = m
                break
            drawn = int(hyper(color, rest, m))
            out[sid] = drawn
            m -= drawn
            total = rest
        return out

    def _pair_matrix(
        self, pairs: int
    ) -> Tuple[np.ndarray, List[int], List[int], List[int]]:
        """Sample the batch's participant states and pairing contingency.

        Returns ``(involved, pair_r, pair_i, pair_m)``: the hypergeometric
        state multiset of the ``2 * pairs`` distinct participants, plus the
        nonzero cells of the responder/initiator pairing matrix.
        """
        counts = self._counts
        involved = self._multivariate_hypergeometric(counts, 2 * pairs, self.n)
        responders = self._multivariate_hypergeometric(involved, pairs, 2 * pairs)
        pair_r: List[int] = []
        pair_i: List[int] = []
        pair_m: List[int] = []
        remaining_i = involved - responders
        remaining_total = pairs
        occupied_r = np.flatnonzero(responders).tolist()
        last = len(occupied_r) - 1
        for index, a in enumerate(occupied_r):
            slots = int(responders[a])
            if index == last:
                # The final responder state takes the whole remaining
                # initiator pool — deterministic, no draw needed.  Copy:
                # returning the pool buffer itself would alias a vector
                # this loop (and any caller reusing buffers in place, like
                # the kernel-parity tests) may still mutate.
                row = remaining_i.copy()
            else:
                row = self._multivariate_hypergeometric(
                    remaining_i, slots, remaining_total
                )
                remaining_i = remaining_i - row
                remaining_total -= slots
            for b in np.flatnonzero(row).tolist():
                pair_r.append(a)
                pair_i.append(b)
                pair_m.append(int(row[b]))
        return involved, pair_r, pair_i, pair_m

    def _sample_multiset(self, vector: np.ndarray, total: int, exclude: int = -1) -> int:
        """Sample a state id proportionally to a count vector.

        ``exclude`` removes one agent of that state from the pool (drawing
        the second member of an ordered pair without replacement).  The scan
        is compacted to the occupied entries first — zero-count states never
        influence the cumulative walk, so the result (and the single uniform
        consumed) is identical while the cost follows the occupied frontier
        rather than the declared state-space size.
        """
        if vector.shape[0] <= _MVH_SCALAR_MAX_OCCUPIED:
            return sample_weighted_index(
                vector.tolist(), float(self._rng.random()) * total, exclude
            )
        occupied = np.flatnonzero(vector)
        compact_exclude = -1
        if exclude >= 0:
            position = int(np.searchsorted(occupied, exclude))
            if position < occupied.shape[0] and occupied[position] == exclude:
                compact_exclude = position
        index = sample_weighted_index(
            vector[occupied].tolist(),
            float(self._rng.random()) * total,
            compact_exclude,
        )
        return int(occupied[index])

    def _run_batch(self, remaining: int) -> int:
        """Advance by one collision-free run (plus its colliding interaction
        when one ended the run); returns the number of interactions applied."""
        length, collide = self._draw_run_length(remaining)
        self._ensure_counts()
        involved, pair_r, pair_i, pair_m = self._pair_matrix(length)
        apply_pair = self.table.apply
        cells = [
            (apply_pair(responder_id, initiator_id), multiplicity)
            for responder_id, initiator_id, multiplicity in zip(pair_r, pair_i, pair_m)
        ]
        self._ensure_counts()  # the table may have discovered new states
        counts = self._counts
        size = counts.shape[0]
        if involved.shape[0] < size:
            involved = self._grown(involved, size)
        # All 2L participants are distinct, so the bulk update is exact:
        # remove every participant's pre state, add every post state.  The
        # pairing matrix has at most k^2 nonzero cells (a handful for the
        # protocols this engine targets), so scalar accumulation beats
        # np.add.at here.
        used = np.zeros(size, dtype=np.int64)
        for (new_responder_id, new_initiator_id), multiplicity in cells:
            used[new_responder_id] += multiplicity
            used[new_initiator_id] += multiplicity
        counts += used
        counts -= involved
        # Post states of the participants are all occupied now; once every
        # registered state has been occupied nothing new can appear without
        # the encoder growing first, so the update can be skipped entirely.
        if len(self._ever_occupied) < len(self.encoder):
            self._ever_occupied.update(np.flatnonzero(used).tolist())
        applied = length
        if collide:
            self._apply_collision(used, 2 * length)
            applied += 1
        self.interactions += applied
        return applied

    def _apply_collision(self, used: np.ndarray, used_total: int) -> None:
        """Apply the interaction that ended the run (reuses >= 1 participant)."""
        rng = self._rng
        counts = self._counts
        fresh = counts - used  # participants' post states removed
        fresh_total = self.n - used_total
        weight_uf = used_total * fresh_total
        weight_uu = used_total * (used_total - 1)
        pick = float(rng.random()) * (2 * weight_uf + weight_uu)
        if pick < weight_uf:
            responder_id = self._sample_multiset(used, used_total)
            initiator_id = self._sample_multiset(fresh, fresh_total)
        elif pick < 2 * weight_uf:
            responder_id = self._sample_multiset(fresh, fresh_total)
            initiator_id = self._sample_multiset(used, used_total)
        else:
            responder_id = self._sample_multiset(used, used_total)
            initiator_id = self._sample_multiset(
                used, used_total - 1, exclude=responder_id
            )
        new_responder_id, new_initiator_id = self.table.apply(
            responder_id, initiator_id
        )
        self._ensure_counts()
        counts = self._counts
        if new_responder_id != responder_id:
            counts[responder_id] -= 1
            counts[new_responder_id] += 1
            self._ever_occupied.add(new_responder_id)
        if new_initiator_id != initiator_id:
            counts[initiator_id] -= 1
            counts[new_initiator_id] += 1
            self._ever_occupied.add(new_initiator_id)

    def _perform_steps(self, count: int) -> None:
        remaining = int(count)
        if self._kernel is None:
            while remaining > 0:
                remaining -= self._run_batch(remaining)
            return
        while remaining > 0:
            remaining -= self._kernel_run(remaining)

    def _kernel_run(self, budget: int) -> int:
        """Advance up to ``budget`` interactions through the C kernel.

        One ctypes call executes whole batches against the shared packed
        LUT; an uncompiled state pair stops the call (the batch fully
        rolled back, RNG included), is compiled here in Python — growing
        the encoder exactly as the scalar engines would — and the next
        call redraws the batch against the completed row.
        """
        self._ensure_counts()
        k = len(self.encoder)
        if self._scratch is None or self._scratch.shape[0] < 10 * k:
            # Weight regions must be zero; id-list and candidate regions
            # are plain scratch, so a fresh zeroed allocation needs no
            # copying.
            self._scratch = np.zeros(10 * k, dtype=np.int64)
        if self._seen_mask is None or self._seen_mask.shape[0] < k:
            seen = np.zeros(k, dtype=np.uint8)
            if self._seen_mask is not None:
                seen[: self._seen_mask.shape[0]] = self._seen_mask
            self._seen_mask = seen
        table = self.table
        # Consistent (array, capacity) snapshot; holding ``lut`` keeps the
        # buffer alive for the duration of the GIL-released C call even if
        # another thread grows the table meanwhile (stale misses re-run).
        lut, cap = table.packed_view()
        applied = int(
            self._kernel(
                self._counts.ctypes.data,
                k,
                self.n,
                int(budget),
                self._neg_survival.ctypes.data,
                self._jmax,
                lut.ctypes.data,
                cap,
                self._kernel_rng.ctypes.data,
                self._seen_mask.ctypes.data,
                self._scratch.ctypes.data,
                self._miss.ctypes.data,
            )
        )
        self.interactions += applied
        if len(self._ever_occupied) < len(self.encoder):
            self._ever_occupied.update(
                np.flatnonzero(self._seen_mask[:k]).tolist()
            )
        if self._miss[0] >= 0:
            # Compile the missing pair (possibly registering new states);
            # the next _kernel_run picks up the grown encoder/LUT/buffers.
            table.apply(int(self._miss[0]), int(self._miss[1]))
        return applied

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        # The survival curve is a pure function of n, rebuilt at
        # construction; only the counts and the RNG position(s) are run
        # state.  ``kernel_rng`` (the xoshiro256++ words) appears only for
        # kernel-path engines, keeping Python-path snapshots byte-identical
        # to pre-kernel releases.
        payload = {"counts": self._counts.copy(), "rng": rng_state(self._rng)}
        if self._kernel is not None:
            payload["kernel_rng"] = self._kernel_rng.copy()
        return payload

    def _state_restore(self, payload: dict) -> None:
        counts = np.asarray(payload["counts"], dtype=np.int64).copy()
        self._counts = self._grown(counts, len(self.encoder))
        restore_rng_state(self._rng, payload["rng"])
        kernel_rng = payload.get("kernel_rng")
        if kernel_rng is not None and self._kernel is not None:
            self._kernel_rng = np.asarray(kernel_rng, dtype=np.uint64).copy()
        elif kernel_rng is None:
            # Pre-kernel (or Python-path) checkpoint: the recorded
            # trajectory consumed the NumPy stream only, so continuing it
            # byte-exactly requires the Python path.  Distributional
            # equality is unaffected either way.
            self._kernel = None
            self._kernel_rng = None
        # A kernel-path checkpoint restored where the kernel is missing
        # (kernel_rng present, self._kernel None) continues on the Python
        # path: exact in distribution, though not the byte-identical
        # trajectory the original machine would have produced.
        # Stale ever-occupied bits must not leak into the restored
        # timeline; _ever_occupied itself was restored by the base class.
        self._seen_mask = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def state_count_items(self) -> List[Tuple[int, int]]:
        counts = self._counts
        return [(int(sid), int(counts[sid])) for sid in np.flatnonzero(counts > 0)]

    def count_vector(self) -> np.ndarray:
        """The engine's native count vector (read-only view, no copy)."""
        self._ensure_counts()
        return self._counts[: len(self.encoder)]

    def counts_by_output(self):
        """Vectorised aggregation through the table's output maps."""
        return self.table.aggregate_counts(self._counts)


class ReplicatedCountBatchEngine:
    """R independent count-batch replicas advanced as an (R, k) matrix.

    Each row is a full :class:`CountBatchEngine` with its own RNG stream,
    counts, seen mask and interaction counter — snapshots, inspection and
    the Python fallback all delegate to the row engines unchanged, so every
    per-row trajectory is **bit-for-bit identical** to the scalar engine
    run with that row's seed (the property the replica digest-equality
    tests pin for all count-capable protocols).  What the replica dimension
    buys is amortisation: the survival curve is computed once, the compiled
    table (and its whole protocol/encoder construction) is shared whenever
    the protocol declares a
    :meth:`~repro.engine.protocol.PopulationProtocol.complete_state_space`,
    and on the kernel path all rows advance through **one** ctypes call per
    sweep (``repro_count_batches_multi``) instead of one per row — the
    LUT/table setup, survival buffers and Python↔C transitions are paid per
    batch-call, not per replica.

    Table sharing and bit-identity
    ==============================

    A run's trajectory depends on the state-id *layout* (the occupied scan
    is id-ascending), and lazily discovering protocols register states in
    seed-dependent discovery order.  Sharing one table across rows is
    therefore only bit-safe when no run can ever discover a state — i.e.
    when the declared canonical space is complete.  The
    :func:`replicated_engine` helper encodes the rule: a shared protocol
    instance (one compile, one encoder) when
    ``protocol.complete_state_space()`` holds, per-row protocol instances
    (private tables, exactly the scalar cost) otherwise.  Compiling a
    transition pair is stream-neutral either way — a kernel miss rolls the
    batch back RNG-and-all before the pair is compiled and the batch
    redrawn — so a table pre-warmed by an earlier row changes nothing in a
    later row's trajectory.

    Parameters
    ----------
    protocols:
        One protocol instance per row.  Rows may share an instance (and
        with it the compiled table) **only** when its state space is
        complete; :func:`replicated_engine` makes that decision for you.
    n:
        Population size, shared by every row.
    seeds:
        One RNG seed (or generator) per row.
    kernel:
        Forwarded to every row engine.  The replica-vectorised C sweep is
        used when every row holds the compiled kernel; otherwise (or with
        ``kernel="python"``) rows advance through their own scalar path.
    kernel_threads:
        Threads the multi-row C sweep runs rows on (OpenMP or pthreads,
        whichever the kernel was built with).  Defaults to the
        ``REPRO_KERNEL_THREADS`` environment variable, then
        :func:`~repro.engine.cpus.available_cpus`.  Every row's RNG
        stream, counts and scratch slab are thread-private, so results
        are **bit-for-bit identical at any thread count** — the knob only
        sets how many rows advance concurrently.
    """

    def __init__(
        self,
        protocols: Sequence[PopulationProtocol],
        n: int,
        seeds: Sequence[RngLike],
        *,
        kernel: str = "auto",
        kernel_threads: Optional[int] = None,
    ) -> None:
        if not protocols:
            raise ConfigurationError("replicated engine requires at least one row")
        if len(protocols) != len(seeds):
            raise ConfigurationError(
                f"got {len(protocols)} protocols for {len(seeds)} seeds; "
                "replicated rows pair one protocol instance with one seed"
            )
        self.n = int(n)
        first = CountBatchEngine(protocols[0], n, rng=seeds[0], kernel=kernel)
        shared_survival = (first._neg_survival, first._jmax)
        self.rows: List[CountBatchEngine] = [first]
        for protocol, seed in zip(protocols[1:], seeds[1:]):
            self.rows.append(
                CountBatchEngine(
                    protocol, n, rng=seed, kernel=kernel, survival=shared_survival
                )
            )
        self._multi = None
        if all(row._kernel is not None for row in self.rows):
            self._multi = load_count_kernel_multi()
        self._kernel_threads = resolve_kernel_threads(kernel_threads)
        self._scratch: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def interactions(self) -> List[int]:
        """Per-row interaction counters."""
        return [row.interactions for row in self.rows]

    def count_matrix(self) -> np.ndarray:
        """Current counts as an (R, kmax) int64 matrix (copy).

        Rows whose encoder registered fewer than ``kmax`` states are
        zero-padded on the right; ``rows[r].count_vector()`` remains the
        exact per-row view.
        """
        for row in self.rows:
            row._ensure_counts()
        kmax = max(len(row.encoder) for row in self.rows)
        matrix = np.zeros((len(self.rows), kmax), dtype=np.int64)
        for r, row in enumerate(self.rows):
            k = len(row.encoder)
            matrix[r, :k] = row._counts[:k]
        return matrix

    def run(self, interactions: int) -> None:
        """Advance every replica by ``interactions`` interactions."""
        self.run_chunks([interactions] * len(self.rows))

    def run_chunks(self, budgets: Sequence[int]) -> None:
        """Advance row ``r`` by ``budgets[r]`` interactions.

        Equivalent to ``for r: rows[r].run(budgets[r])`` — and exactly that
        on the Python path — but on the kernel path all rows advance
        through one multi-row C call per sweep.  Per-row budgets let a
        sweep driver keep rows with different remaining budgets (or
        already-converged rows, budget 0) in a single call: run lengths
        are budget-capped draws, so issuing the same per-row budget
        sequence as the scalar driver is part of the bit-identity
        contract.
        """
        if len(budgets) != len(self.rows):
            raise ConfigurationError(
                f"got {len(budgets)} budgets for {len(self.rows)} rows"
            )
        budgets = [int(budget) for budget in budgets]
        if any(budget < 0 for budget in budgets):
            raise ConfigurationError("row budgets must be non-negative")
        if self._multi is None:
            for row, budget in zip(self.rows, budgets):
                if budget > 0:
                    row.run(budget)
            return
        remaining = np.array(budgets, dtype=np.int64)
        while np.any(remaining > 0):
            remaining -= self._multi_sweep(remaining)

    def _multi_sweep(self, remaining: np.ndarray) -> np.ndarray:
        """One ``repro_count_batches_multi`` call over every active row.

        Mirrors the scalar :meth:`CountBatchEngine._kernel_run` per row:
        gather each row's counts / seen mask / xoshiro words into (R,
        stride) matrices, run every row to its budget or first uncompiled
        pair inside C, scatter the state back, then compile every reported
        miss (growing that row's encoder exactly as the scalar path
        would).  Returns the per-row interactions applied.
        """
        rows = self.rows
        count = len(rows)
        for row in rows:
            row._ensure_counts()
            k = len(row.encoder)
            # Same persistent per-row buffers as the scalar path.
            if row._seen_mask is None or row._seen_mask.shape[0] < k:
                seen = np.zeros(k, dtype=np.uint8)
                if row._seen_mask is not None:
                    seen[: row._seen_mask.shape[0]] = row._seen_mask
                row._seen_mask = seen
        ks = np.array([len(row.encoder) for row in rows], dtype=np.int64)
        stride = int(ks.max())
        counts = np.zeros((count, stride), dtype=np.int64)
        seen = np.zeros((count, stride), dtype=np.uint8)
        rng = np.empty((count, 4), dtype=np.uint64)
        luts = np.empty(count, dtype=np.uint64)
        caps = np.empty(count, dtype=np.int64)
        # Per-row (array, capacity) snapshots taken together under the
        # table lock; holding the array references keeps every LUT buffer
        # alive for the duration of the GIL-released C call even if a
        # table is grown concurrently (another engine sharing it on a
        # thread-backend sweep) — stale snapshots only produce misses.
        packed = [row.table.packed_view() for row in rows]
        for r, row in enumerate(rows):
            k = int(ks[r])
            counts[r, :k] = row._counts[:k]
            seen[r, :k] = row._seen_mask[:k]
            rng[r] = row._kernel_rng
            luts[r] = packed[r][0].ctypes.data
            caps[r] = packed[r][1]
        # Rows are distributed over threads; each thread works in its own
        # 10*stride scratch slab (the weight regions obey the same
        # zero-on-entry/zero-on-exit contract as the scalar path, so a
        # fresh zeroed allocation needs no copying between sweeps).
        nthreads = max(1, min(self._kernel_threads, count))
        if self._scratch is None or self._scratch.shape[0] < nthreads * 10 * stride:
            self._scratch = np.zeros(nthreads * 10 * stride, dtype=np.int64)
        applied = np.zeros(count, dtype=np.int64)
        miss = np.empty((count, 2), dtype=np.int64)
        first = rows[0]
        self._multi(
            counts.ctypes.data,
            count,
            stride,
            ks.ctypes.data,
            self.n,
            remaining.ctypes.data,
            first._neg_survival.ctypes.data,
            first._jmax,
            luts.ctypes.data,
            caps.ctypes.data,
            rng.ctypes.data,
            seen.ctypes.data,
            self._scratch.ctypes.data,
            nthreads,
            applied.ctypes.data,
            miss.ctypes.data,
        )
        for r, row in enumerate(rows):
            k = int(ks[r])
            row._counts[:k] = counts[r, :k]
            row._seen_mask[:k] = seen[r, :k]
            row._kernel_rng[:] = rng[r]
            row.interactions += int(applied[r])
            if len(row._ever_occupied) < k:
                row._ever_occupied.update(
                    np.flatnonzero(row._seen_mask[:k]).tolist()
                )
            if miss[r, 0] >= 0:
                # Compile the missing pair on the row's own table (possibly
                # registering new states); the next sweep regathers against
                # the grown encoder/LUT/buffers.
                row.table.apply(int(miss[r, 0]), int(miss[r, 1]))
        return applied


def replicated_engine(
    factory: Callable[[int], PopulationProtocol],
    n: int,
    seeds: Sequence[RngLike],
    *,
    kernel: str = "auto",
    kernel_threads: Optional[int] = None,
) -> ReplicatedCountBatchEngine:
    """Build a :class:`ReplicatedCountBatchEngine` from a protocol factory.

    Encodes the table-sharing rule: when ``factory(n)`` declares a complete
    state space (no run can ever discover a state, so every row sees the
    same immutable id layout) all rows share that one instance — protocol
    construction, canonical-state registration and the compiled table are
    paid once for the whole batch.  Lazily discovering protocols get one
    fresh instance per row, because their id layouts are seed-dependent
    discovery orders and sharing would silently reorder a row's occupied
    scans away from its scalar trajectory.
    """
    probe = factory(n)
    if probe.complete_state_space():
        protocols: List[PopulationProtocol] = [probe] * len(seeds)
    else:
        protocols = [probe] + [factory(n) for _ in range(len(seeds) - 1)]
    return ReplicatedCountBatchEngine(
        protocols, n, seeds, kernel=kernel, kernel_threads=kernel_threads
    )
