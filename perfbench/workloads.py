"""The benchmark's workloads: one Fed-CDP simulation config each.

Every workload is ``make_config(dataset, "fed_cdp", profile="quick")`` plus
the overrides below, evaluated every 5th round, with a horizon long enough
that the timed loop never reaches it.  Each one makes a single layer dominant
and keeps the others small, so a change to one layer moves one workload and
leaves the rest unchanged.  The sizes are cut down from the first sizing
runs so that every workload times at least 100 steady-state rounds (the p90
needs ten samples beyond it) inside one run on two cores:

* ``local_iterations=1`` on the two image workloads (quick uses 4);
* two attack restarts of 10 iterations (instead of 4 x 20), keeping the
  attacked share of rounds at 25% so p50 and p90 sit in different modes;
* 250k clients at ``q = 4e-5`` for the cross-device ledger (instead of 1M at
  ``1e-5``): the same expected cohort of 10, still O(K) per round;
* evaluation every 5th round, not every 10th: an evaluation adds ~30 ms to
  an LFW round, and at 10% of rounds the p90 would sit on the boundary
  between evaluated and plain rounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict

#: Rounds in the config; far beyond any timed loop, so no final evaluation runs.
HORIZON = 100_000
EVAL_EVERY = 5


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    why: str
    overrides: Dict[str, object] = field(default_factory=dict)
    #: stream the history to a JSONL spool instead of keeping it in RAM
    spool: bool = False
    #: after the timed loop, replay the first rounds without the attack on a
    #: worker pool; the trajectory must match bit for bit (see pool_replay_config)
    pool_replay: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in [
        Workload(
            "cdp_lfw",
            "lfw",
            "noise-bound: per-example Gaussian draws on the largest model dominate a serial 3-of-6 round",
            dict(local_iterations=1, executor="serial", accountant="moments"),
        ),
        Workload(
            "cdp_mnist_attacked",
            "mnist",
            "autodiff twice: per-example replay in clean rounds (p50), batched attack restarts in the 25% attacked rounds (p90)",
            dict(
                local_iterations=1,
                executor="serial",
                attack="leakage",
                attack_rounds="every_4",
                attack_seeds=2,
                attack_iterations=10,
            ),
            pool_replay=True,
        ),
        Workload(
            "xdevice_250k_hetero",
            "adult",
            "ledger-bound: O(K) per-client RDP ledger at 250k lazy clients; noise and autodiff are a few percent",
            dict(
                num_clients=250_000,
                participation_fraction=4e-5,
                client_sampling="poisson",
                accountant="heterogeneous",
                client_state="lazy",
            ),
            spool=True,
        ),
    ]
}


def _config(dataset: str, seed: int, overrides: Dict[str, object]):
    from repro.experiments.harness import make_config

    return make_config(
        dataset, "fed_cdp", profile="quick", rounds=HORIZON, eval_every=EVAL_EVERY, seed=seed, **overrides
    )


def make_workload_config(name: str, seed: int):
    """The :class:`~repro.federated.config.FederatedConfig` of workload ``name``."""
    workload = WORKLOADS[name]
    return _config(workload.dataset, seed, workload.overrides)


def pool_replay_config(name: str, seed: int):
    """Workload ``name`` without its attack, on a pool of ``min(2, nproc)`` workers.

    Attacks only observe and the serial and multiprocessing executors are
    bit-identical, so this run's cohorts and losses must equal the timed
    run's.  BLAS is pinned to one thread, so the pool keeps no more busy
    threads than cores.
    """
    workload = WORKLOADS[name]
    overrides = {key: value for key, value in workload.overrides.items() if not key.startswith("attack")}
    overrides.update(executor="multiprocessing", num_workers=max(1, min(2, os.cpu_count() or 1)))
    return _config(workload.dataset, seed, overrides)
