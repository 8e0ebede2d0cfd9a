"""End-to-end benchmark of GSU19 leader election through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it imports ``src/repro``).  The
workloads are defined in ``perfbench/workloads.py`` and listed, with the
reason for each, in ``BENCHMARK.json``.

One run first warms the C-kernel cache (kept in ``.bench_build/kernels`` of
the checkout, built once per machine and not timed) and then, for
``--seconds``, spawns workload processes one after another
(``perfbench/worker.py``); each makes calls with input seeds drawn from
``--seed`` and checks their outputs.  With ``--trace 0`` it prints the
end-to-end metrics:

* ``wall_s`` — median seconds of one user call, from call to return;
* ``setup_s`` — median seconds from spawning a workload process to its
  first ``Simulation.run`` (import, protocol construction, dispatch with the
  closure BFS, compile and engine construction);
* ``peak_rss_mb`` — median peak resident memory of a workload process.

With ``--trace 1`` every other workload process records spans (see
``perfbench/instrument.py``) and the run prints the per-layer metrics of
``perfbench/tracing.py`` too, averaged per call, with ``trace.overhead_s``
the traced minus the untraced median ``wall_s``.  Either way the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``
and the full record (environment block, dispatch decisions, every call and,
when traced, every span) is written to ``.bench_build/perfbench/``.

A run that fails (``failed`` counts runs that raised, failed their output
check, or did not end as the workload requires) still prints its result with
``correct: false``; the exit code is non-zero only when nothing could be
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics and their units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Every run spawns at least this many workload processes (so set-up has
#: several samples and a traced run has an untraced twin).
MIN_PROCESSES = 2

#: A run gives up on workload processes this long after it started.
RUN_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(args: list, env: dict, timeout: float) -> tuple:
    """Run one worker; ``(payload or None, error or None, spawned_at)``."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return None, f"worker timed out after {timeout:.0f} s", spawned_at
    except BaseException:
        process.kill()
        process.wait()
        raise
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["(no output)"]
        return None, f"worker exited {process.returncode}: {tail[0]}", spawned_at
    return json.loads(lines[-1]), None, spawned_at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no source tree at {ROOT / 'src' / 'repro'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")

    build = ROOT / ".bench_build"
    cache = build / "kernels"
    workdir = build / "perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(cache), TMPDIR=str(workdir))
    try:
        return measure(args, env, workdir, cache_warm=any(cache.glob("*.so")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, env: dict, workdir: Path, cache_warm: bool) -> int:
    started = time.monotonic()
    environment, error, _ = spawn(["--environment"], env, RUN_LIMIT_S)
    if environment is None:
        print(f"perfbench: cannot load the library: {error}", file=sys.stderr)
        return 1
    environment["kernel_cache_warm"] = cache_warm
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in environment.items():
        print(f"env {key} = {value}")

    seeds = random.Random(args.seed)
    deadline = time.monotonic() + args.seconds
    processes, errors, durations = [], [], []
    while True:
        now = time.monotonic()
        if len(processes) + len(errors) >= MIN_PROCESSES and (
            now + statistics.median(durations or [0.0]) / 2 > deadline
        ):
            break
        if now - started > RUN_LIMIT_S:
            break
        traced = args.trace == 1 and len(processes) % 2 == 0
        worker_args = [
            "--workload", args.workload,
            "--seed", str(seeds.randrange(2**31)),
            "--trace", str(int(traced)),
            "--workdir", str(workdir),
        ] + (["--smoke"] if args.smoke else [])
        payload, error, spawned_at = spawn(
            worker_args, env, RUN_LIMIT_S - (now - started)
        )
        durations.append(time.monotonic() - spawned_at)
        if payload is None:
            errors.append(error)
            continue
        payload["setup_s"] = (
            None if payload["first_run_at"] is None
            else payload["first_run_at"] - spawned_at
        )
        processes.append(payload)
    return report(args, environment, processes, errors)


def report(args, environment: dict, processes: list, errors: list) -> int:
    calls = [call for process in processes for call in process["calls"]]
    attempted = sum(call["runs"] for call in calls) + len(errors)
    failed = sum(min(call["runs"], len(call["failures"])) for call in calls) + len(errors)
    for message in errors + [f for call in calls for f in call["failures"]]:
        print(f"FAILED {message}")

    plain = [p for p in processes if not p["traced"]]
    walls = [c["wall_s"] for p in plain for c in p["calls"] if c["wall_s"] is not None]
    setups = [p["setup_s"] for p in plain if p["setup_s"] is not None]
    if not walls or not setups:
        print("perfbench: no call completed; nothing to report", file=sys.stderr)
        return 1
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    dispatch = {}
    for call in calls:
        for decision in call.get("dispatch", []):
            dispatch[decision["n"]] = decision
    for n, decision in sorted(dispatch.items()):
        print(f"label dispatch.engine[n={n}] = {decision['engine']} ({decision['reason']})")
    for name, unit in END_TO_END.items():
        print(f"metric {name} = {end_to_end[name]:.6g} {unit}")

    if args.trace:
        from tracing import LAYER_METRICS

        traced = [c for p in processes if p["traced"] for c in p["calls"] if "layers" in c]
        if not traced:
            print("perfbench: no traced call completed", file=sys.stderr)
            return 1
        values = {
            name: sum(c["layers"][name] for c in traced) / len(traced)
            for name in LAYER_METRICS
        }
        values["trace.overhead_s"] = (
            statistics.median(c["wall_s"] for c in traced) - end_to_end["wall_s"]
        )
        units = LAYER_METRICS
        backends = sorted({c["parallel.backend"] for c in traced})
        print(f"label parallel.backend = {','.join(backends)}")
        for name, unit in units.items():
            print(f"metric {name} = {values[name]:.6g} {unit}")
    else:
        values, units = end_to_end, END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    results = ROOT / ".bench_build" / "perfbench"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment,
        "end_to_end": end_to_end,
        "dispatch": list(dispatch.values()),
        "errors": errors,
        "processes": processes,
    }
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
