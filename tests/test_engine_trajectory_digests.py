"""Seed-stability pins: per-(protocol, engine) trajectory digests.

Each exact engine's trajectory is a pure function of ``(protocol, n, seed,
driver call pattern)``.  These tests hash a short checkpointed trajectory
for every (protocol, engine) cell and compare against pinned digests, so a
refactor that silently changes randomness *consumption* — reordering draws,
adding an extra uniform, changing a block size — fails loudly here even when
it is distributionally invisible to the KS suite.

The pinned values are platform-stable: NumPy's PCG64 stream is specified,
state objects hash through ``repr``, and the fast-batch engine's digests are
identical with and without the C kernel (bit-for-bit guarantee, verified at
pin time by generating them both ways).  ``sequential``, ``fastbatch`` and
``fastbatch-numpy`` share one digest per protocol by design — the
identical-trajectory guarantee in its strongest observable form.

If an INTENTIONAL randomness-consumption change lands (e.g. a different
sampling scheme), regenerate the pins with
``python tests/test_engine_trajectory_digests.py`` and say so in the commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.meanfield import MeanFieldEngine
from repro.engine.tauleap import TauLeapEngine
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection

_SEED = 20190622
_CHUNKS = 3

#: protocol name -> (factory, n).  Fresh protocol per run: identifier layout
#: of lazily discovered states (and hence count-batch trajectories) depends
#: on the shared table's compilation history.  "gsu19-closure" pins the
#: Γ = 4 calibration at a count-batch-scale n_hint.  That calibration used
#: to pre-register its reachable closure (BFS-order identifiers); like every
#: GSU19 instance it now discovers states lazily.
PROTOCOLS = {
    "epidemic": (lambda: OneWayEpidemic(), 256),
    "exact-majority": (lambda: ExactMajority.for_population(200), 200),
    "gs18": (lambda: GS18LeaderElection.for_population(128), 128),
    "gsu19": (lambda: GSULeaderElection.for_population(256), 256),
    "gsu19-closure": (
        lambda: GSULeaderElection(GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1)),
        256,
    ),
    "lottery": (lambda: LotteryLeaderElection.for_population(128), 128),
    "majority": (lambda: ApproximateMajority(initial_a_fraction=0.7), 200),
    "slow-le": (lambda: SlowLeaderElection(), 64),
}


def _fastbatch_numpy(protocol, n, rng=None):
    return FastBatchEngine(protocol, n, rng, kernel="numpy")


def _countbatch_python(protocol, n, rng=None):
    # The countbatch C kernel runs its own RNG stream (equal in
    # distribution, not bit-for-bit), so the shared pins record the
    # Python path; the kernel path has its own pin set in
    # test_engine_count_kernel.py, gated on kernel availability.
    return CountBatchEngine(protocol, n, rng, kernel="python")


ENGINES = {
    "sequential": SequentialEngine,
    "countbatch": _countbatch_python,
    "fastbatch": FastBatchEngine,
    "fastbatch-numpy": _fastbatch_numpy,
}

#: The pins.  sequential == fastbatch == fastbatch-numpy per protocol is the
#: bit-for-bit identical-trajectory guarantee, not an accident.  Every
#: "gsu19-closure" pin coincides with "gsu19" because the digest window
#: (6 parallel-time units) ends before any clock phase reaches 2, where the
#: two calibrations first diverge, and both discover states lazily in the
#: same order.
EXPECTED = {
    "epidemic/countbatch": "b96cd061b46bc019f8761d17318c2463b1a71818c182047ac7455a7982c88082",
    "epidemic/fastbatch": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "epidemic/fastbatch-numpy": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "epidemic/sequential": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "exact-majority/countbatch": "2f29773af059bf46e8487480343a4ccfa7604aa40b91da8a4929e97a1c99d171",
    "exact-majority/fastbatch": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "exact-majority/fastbatch-numpy": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "exact-majority/sequential": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "gs18/countbatch": "8d6748a605700caffef178ca200d154af57e62cec7c7d90858a137862fe5f977",
    "gs18/fastbatch": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gs18/fastbatch-numpy": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gs18/sequential": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gsu19/countbatch": "0d4aed97e0cec4966664c74436d316162a7aa1616175ae5d161f4102bffd2770",
    "gsu19/fastbatch": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19/fastbatch-numpy": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19/sequential": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/countbatch": "0d4aed97e0cec4966664c74436d316162a7aa1616175ae5d161f4102bffd2770",
    "gsu19-closure/fastbatch": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/fastbatch-numpy": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/sequential": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "lottery/countbatch": "18c9abb08d30566671f360e1542ffa430501587cdd6198efee8a430d9a5ff4b7",
    "lottery/fastbatch": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "lottery/fastbatch-numpy": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "lottery/sequential": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "majority/countbatch": "13fb2bfec03a927ba86872884adfd445b50361fad7135799dd4a413363751aa8",
    "majority/fastbatch": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "majority/fastbatch-numpy": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "majority/sequential": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "slow-le/countbatch": "bc5df660226bed0c1b88dfbb60f3099cd635c9c7464d536476f95257bcc535cd",
    "slow-le/fastbatch": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
    "slow-le/fastbatch-numpy": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
    "slow-le/sequential": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
}


#: Approximate-tier determinism pins: one workload per engine (ISSUE 9).
#: These pin *seed-determinism*, not accuracy (that is
#: ``test_engine_approx.py``'s job): the tau-leap engine must replay the
#: same leaps for the same seed, and the mean-field engine — whose
#: trajectory is elementwise IEEE float arithmetic plus deterministic
#: largest-remainder rounding — must reproduce the same rounded counts.
APPROX_ENGINES = {
    "meanfield": MeanFieldEngine,
    "tauleap": TauLeapEngine,
}

#: (protocol, approx engine) cells pinned; keys index PROTOCOLS above.
APPROX_CASES = (
    ("epidemic", "tauleap"),
    ("exact-majority", "meanfield"),
)

APPROX_EXPECTED = {
    "epidemic/tauleap": "8f0df41d6af928d90fce133b3375b326ce0bda13efc3d4b5aba39842293949bf",
    "exact-majority/meanfield": "fb3a1938feeef4cfd793960366f8a6f098ae90f30997014aa45b509992563a3c",
}


def trajectory_digest(engine_factory, protocol_factory, n) -> str:
    """SHA-256 over checkpointed (interactions, counts, space-usage) tuples.

    The chunk length ``2n + 3`` is deliberately ragged so that engines whose
    batching could quantise interaction counts would be caught too.
    """
    engine = engine_factory(protocol_factory(), n, rng=_SEED)
    digest = hashlib.sha256()
    for _ in range(_CHUNKS):
        engine.run(2 * n + 3)
        counts = sorted((repr(s), c) for s, c in engine.state_counts().items())
        digest.update(
            repr((engine.interactions, counts, engine.states_ever_occupied)).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_trajectory_digest_is_pinned(protocol_name, engine_name):
    factory, n = PROTOCOLS[protocol_name]
    observed = trajectory_digest(ENGINES[engine_name], factory, n)
    expected = EXPECTED[f"{protocol_name}/{engine_name}"]
    assert observed == expected, (
        f"{engine_name} changed its randomness consumption on "
        f"{protocol_name}: digest {observed} != pinned {expected}. If the "
        "change is intentional, regenerate the pins (see module docstring)."
    )


@pytest.mark.parametrize("protocol_name,engine_name", APPROX_CASES)
def test_approx_trajectory_digest_is_pinned(protocol_name, engine_name):
    factory, n = PROTOCOLS[protocol_name]
    observed = trajectory_digest(APPROX_ENGINES[engine_name], factory, n)
    expected = APPROX_EXPECTED[f"{protocol_name}/{engine_name}"]
    assert observed == expected, (
        f"{engine_name} changed its determinism contract on "
        f"{protocol_name}: digest {observed} != pinned {expected}. If the "
        "change is intentional, regenerate the pins (see module docstring)."
    )


def test_fastbatch_pins_equal_sequential_pins():
    """Keep the strongest guarantee visible: the three bit-for-bit engines
    share one pin per protocol."""
    for protocol_name in PROTOCOLS:
        assert (
            EXPECTED[f"{protocol_name}/fastbatch"]
            == EXPECTED[f"{protocol_name}/fastbatch-numpy"]
            == EXPECTED[f"{protocol_name}/sequential"]
        )


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    for protocol_name, (factory, n) in sorted(PROTOCOLS.items()):
        for engine_name, engine_factory in sorted(ENGINES.items()):
            value = trajectory_digest(engine_factory, factory, n)
            print(f'    "{protocol_name}/{engine_name}": "{value}",')
    print("# approximate tier:")
    for protocol_name, engine_name in APPROX_CASES:
        factory, n = PROTOCOLS[protocol_name]
        value = trajectory_digest(APPROX_ENGINES[engine_name], factory, n)
        print(f'    "{protocol_name}/{engine_name}": "{value}",')
