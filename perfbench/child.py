"""One benchmark process: build a workload, run round 0, time rounds, check.

Started by ``perfbench/run.py`` (one process per workload and mode, so each
has its own peak RSS and pays its own imports) and prints one JSON object on
its last stdout line::

    python3 perfbench/child.py --workload cdp_lfw --seed 1 --seconds 20 \
        --mode measure --t0 <epoch seconds when the parent started it>

``--mode setup`` stops after round 0, ``measure`` times the steady-state
rounds, ``trace`` does the same with every layer's entry points wrapped in
spans.  The entry code sits under the ``__main__`` guard because pool
workers started with ``spawn`` re-import this module.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Rounds replayed on a worker pool to check a workload's trajectory.
REPLAY_ROUNDS = 12


def drive_rounds(
    step: Callable[[], None], seconds: float, after: Optional[Callable[[], None]] = None
) -> Tuple[List[float], int]:
    """Call ``step`` until ``seconds`` have elapsed.

    Returns the wall time of every round that completed and the number of
    rounds that raised.  A raising round is reported on stderr and the loop
    goes on, so one bad round costs its count, not the run.  ``after`` runs
    outside the timed interval following each completed round.
    """
    times: List[float] = []
    raised = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            step()
        except Exception:
            raised += 1
            traceback.print_exc(file=sys.stderr)
            continue
        times.append(time.perf_counter() - start)
        if after is not None:
            after()
    return times, raised


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(sim, seconds: float, tracer=None) -> dict:
    """Time rounds after round 0 for ``seconds``, then run the output checks."""
    from perfbench.checks import check_history, weights_finite

    bad = set()

    def step() -> None:
        if tracer is not None:
            tracer.round = sim.completed_rounds
        sim.run(rounds=sim.completed_rounds + 1)

    def after() -> None:
        if not weights_finite(sim.server.global_weights):
            bad.add(sim.completed_rounds - 1)

    first = sim.completed_rounds
    times, raised = drive_rounds(step, seconds, after)
    if tracer is not None:
        tracer.round = -1  # what runs from here on is not a steady-state round
    peak = peak_rss_mb()
    bad |= check_history(sim.config, sim.history, sim.completed_rounds, sim.population.shard_sizes())
    attempted = sim.completed_rounds + raised
    return {
        "round_times": times,
        "steady_rounds": list(range(first, sim.completed_rounds)),
        "attempted": attempted,
        "failed": min(attempted, raised + len(bad)),
        "peak_rss_mb": peak,
    }


def pool_replay_mismatches(sim, workload: str, seed: int) -> int:
    """Rounds of ``sim`` whose cohort or loss differs from the pool replay of ``workload``."""
    from repro.federated.simulation import FederatedSimulation

    from perfbench.checks import trajectory_mismatches
    from perfbench.workloads import pool_replay_config

    rounds = min(REPLAY_ROUNDS, sim.completed_rounds)
    with FederatedSimulation(pool_replay_config(workload, seed)) as replay:
        replay.run(rounds=rounds)
        return len(trajectory_mismatches(list(sim.history.rounds)[:rounds], list(replay.history.rounds)))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
    }


def run(workload: str, seed: int, seconds: float, mode: str, t0: float) -> dict:
    from repro.federated.simulation import FederatedSimulation

    from perfbench import spans
    from perfbench.workloads import WORKLOADS, make_workload_config

    imported = time.time()
    tracer = spans.Tracer() if mode == "trace" else None
    saved = spans.instrument(tracer) if tracer is not None else []
    config = make_workload_config(workload, seed)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    scratch = tempfile.TemporaryDirectory(dir=ROOT / ".bench_build", prefix="perfbench-")
    spool = str(Path(scratch.name) / "history.jsonl") if WORKLOADS[workload].spool else None
    sim = None
    try:
        start = time.perf_counter()
        with FederatedSimulation(config, history_spool=spool) as sim:
            constructed = time.perf_counter()
            if tracer is not None:
                tracer.round = 0
            sim.run(rounds=1)
            first_round = time.perf_counter()
            result = {
                "setup_s": time.time() - t0,
                "import_s": imported - t0,
                "construct_s": constructed - start,
                "first_round_s": first_round - constructed,
            }
            if mode == "setup":
                return result
            result.update(measure(sim, seconds, tracer))
            if WORKLOADS[workload].pool_replay:
                mismatches = pool_replay_mismatches(sim, workload, seed)
                result["failed"] = min(result["attempted"], result["failed"] + mismatches)
        if tracer is not None:
            steady = result["steady_rounds"]
            result["layers"] = spans.layer_metrics(tracer, result["round_times"], steady)
            result["profile"] = spans.layer_shares(tracer, result["round_times"], steady)
        result["environment"] = environment()
        return result
    finally:
        spans.uninstrument(saved)
        if sim is not None and spool is not None:
            sim.history.rounds.close()
        scratch.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.mode, args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
