"""One workload process of the benchmark, spawned by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --environment

The first form makes the workload's calls (fresh input seeds drawn from
``--seed``), checks their outputs, and prints one
JSON line: the process's first-run timestamp (``time.monotonic()``, so the
parent can measure set-up from the moment it spawned this process), its
peak resident memory, and one record per call.  With ``--trace 1`` each
record also carries the call's spans and per-layer metrics.

The second form imports the library, loads (building if needed) both C
kernels and prints the environment block; ``run.py`` uses it to warm the
kernel cache before anything is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy

    from repro.engine._ckernel import kernel_available
    from repro.engine._count_kernel import count_kernel_available, kernel_thread_backend
    from repro.engine.parallel import available_cpus

    return {
        "nproc": os.cpu_count(),
        "available_cpus": available_cpus(),
        "kernel_available": kernel_available(),
        "count_kernel_available": count_kernel_available(),
        "kernel_thread_backend": kernel_thread_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def backend_label(spans: list, main_thread: int, runs: int) -> str:
    """How the sweep scheduler ran its cells, as seen from the spans."""
    if not any(span["name"] == "parallel.run_many" for span in spans):
        return "none"
    threads = {span["thread"] for span in spans if span["name"] == "parallel.cell"}
    if not threads:
        return "process" if runs else "none"
    return "serial" if threads == {main_thread} else "thread"


def run_calls(args) -> dict:
    from instrument import Probe
    from tracing import Tracer, layer_metrics, self_times
    from workloads import WORKLOADS, Session

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    probe = Probe(tracer).install()
    seeds = random.Random(args.seed)
    session = Session(probe, Path(args.workdir), args.smoke)
    calls = []
    try:
        for _ in range(workload.calls_per_process):
            seed = seeds.randrange(2**31)
            probe.reset()
            record = {"seed": seed}
            try:
                outcome = workload.call(session, seed)
            except Exception as error:  # noqa: BLE001 - reported as a failed run
                record.update(
                    wall_s=None, interactions=0, runs=1,
                    failures=[f"{type(error).__name__}: {error}"],
                )
            else:
                record.update(
                    wall_s=outcome.wall_s,
                    interactions=outcome.interactions,
                    runs=outcome.runs,
                    failures=outcome.failures,
                    dispatch=outcome.dispatch,
                )
                if tracer is not None:
                    spans = tracer.spans
                    self_times(spans)
                    record["layers"] = layer_metrics(
                        spans, tracer.counters, probe.compiled_pairs()
                    )
                    record["parallel.backend"] = backend_label(
                        spans, threading.main_thread().ident, outcome.runs
                    )
                    record["spans"] = spans
            calls.append(record)
    finally:
        probe.uninstall()
    return {
        "first_run_at": probe.first_run_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": bool(args.trace),
        "calls": calls,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--environment", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    payload = environment() if args.environment else run_calls(args)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
