"""Round-level benchmark of the Fed-CDP simulation.

    python3 perfbench/run.py --workload cdp_lfw --seed 1 --seconds 20 --trace 0

Runs one workload of :mod:`perfbench.workloads` in child processes (see
``perfbench/child.py``), each under a wall-clock timeout and in its own
process group, so a hung worker pool ends as a failed run instead of a stuck
benchmark.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
set-up is repeated in separate processes and its median reported, then one
process times the steady-state rounds.  ``--trace 1`` reports the per-layer
metrics from a process with every layer's entry points wrapped in spans,
paired with an untraced process of equal length for the tracing overhead.
``--workload all`` runs every workload in turn.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` (rounds) and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

#: Set-up-only processes per untraced run; the timed process adds one more sample.
SETUP_REPEATS = 3
#: A run must end within this many seconds, hung children included.
RUN_DEADLINE_S = 170.0
#: Slack over ``--seconds`` for a timed process's set-up and output checks.
CHILD_SLACK_S = 60.0
#: Pinned for every child and inherited by pool workers, so the worker-pool
#: replay keeps no more busy threads than cores.
BLAS_THREADS = "1"


class ChildFailed(RuntimeError):
    """A child process timed out, crashed or printed no result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run ``perfbench/child.py`` and return its JSON result."""
    timeout = min(deadline - time.monotonic(), (seconds + CHILD_SLACK_S) if mode != "setup" else CHILD_SLACK_S)
    if timeout <= 0:
        raise ChildFailed(f"{workload}/{mode}: no time left before the run deadline")
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    command = [
        sys.executable, str(ROOT / "perfbench" / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--t0", repr(time.time()),
    ]
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}/{mode}: timed out after {timeout:.0f} s") from None
    finally:
        # the child's pool workers share its process group: none may outlive it
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise ChildFailed(f"{workload}/{mode}: exited with code {process.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload}/{mode}: printed no result")
    return json.loads(lines[-1])


def end_to_end(measured: dict, setups: List[float]) -> Dict[str, float]:
    times = measured["round_times"]
    return {
        "rounds_per_s": len(times) / sum(times),
        "round_ms_p50": 1000.0 * statistics.median(times),
        "round_ms_p90": 1000.0 * statistics.quantiles(times, n=10)[-1],
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    metrics = dict(traced["layers"])
    metrics["setup.import_s"] = traced["import_s"]
    metrics["setup.construct_s"] = traced["construct_s"]
    metrics["setup.first_round_s"] = traced["first_round_s"]
    untraced_rate = len(untraced["round_times"]) / sum(untraced["round_times"])
    traced_rate = len(traced["round_times"]) / sum(traced["round_times"])
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Measure one workload; returns counts, metric values and diagnostics."""
    if trace:
        # equal halves, so the traced and untraced rates cover comparable rounds
        runs = [run_child(workload, seed, seconds / 2, mode, deadline) for mode in ("measure", "trace")]
    else:
        setups = [run_child(workload, seed, seconds, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        runs = [run_child(workload, seed, seconds, "measure", deadline)]
    for run in runs:
        if len(run["round_times"]) < 2:
            raise ChildFailed(f"{workload}: {len(run['round_times'])} rounds completed in {seconds} s")
    if trace:
        values = per_layer(*runs)
    else:
        values = end_to_end(runs[0], setups + [runs[0]["setup_s"]])
        if len(runs[0]["round_times"]) < 100:
            print(f"perfbench: {workload}: only {len(runs[0]['round_times'])} timed rounds; "
                  "p90 has fewer than ten samples beyond it", file=sys.stderr)
    return {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "timed_rounds": len(runs[-1]["round_times"]),
        "values": values,
        "environment": runs[-1]["environment"],
        "profile": runs[-1].get("profile"),
    }


def commit() -> str:
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.decode().strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Round-level benchmark of the Fed-CDP simulation.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # byte-compile once, so no timed process pays for compiling the sources
    for directory in ("src", "perfbench"):
        compileall.compile_dir(str(ROOT / directory), quiet=1)

    deadline = time.monotonic() + RUN_DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for workload in workloads:
        try:
            outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        except ChildFailed as error:
            print(f"perfbench: {error}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted + 1, "failed": failed + 1, "metrics": {}}))
            return 1
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        environment = dict(outcome["environment"], commit=commit(), seed=args.seed)
        print(f"# {workload}: " + " ".join(f"{key}={value}" for key, value in environment.items()))
        print(f"# {workload}: error_rate {outcome['failed'] / outcome['attempted']:.4f} "
              f"({outcome['failed']}/{outcome['attempted']} rounds), {outcome['timed_rounds']} timed rounds")
        if outcome["profile"]:
            for scope, shares in outcome["profile"].items():
                print(f"# {workload}: self-time shares ({scope} rounds): "
                      + ", ".join(f"{layer} {100 * share:.1f}%" for layer, share in shares.items()))
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for metric in declared:
            value = outcome["values"][metric["name"]]
            print(f"{workload} {metric['name']} {value:.6g} {metric['unit']}")
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
