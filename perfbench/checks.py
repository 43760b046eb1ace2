"""Output checks that feed the benchmark's error count.

Every check returns the set of round indices it finds wrong, so a failure is
counted once per round however many checks it trips.  Epsilon is recomputed
from the recorded participation with the raw RDP functions — never through
the accountant objects under test.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set

import numpy as np

#: Relative tolerance of the epsilon recomputation (summation order differs).
EPSILON_RTOL = 1e-9


def weights_finite(weights: Iterable[np.ndarray]) -> bool:
    return all(bool(np.all(np.isfinite(w))) for w in weights)


def cohort_partition_ok(result) -> bool:
    """participating + dropped + straggler + offline = selected, as multisets."""
    parts = (
        list(result.participating_clients)
        + list(result.dropped_clients)
        + list(result.straggler_clients)
        + list(result.offline_clients)
    )
    return sorted(int(c) for c in parts) == sorted(int(c) for c in result.selected_clients)


def recompute_epsilons(config, rounds: Sequence, shard_sizes: Sequence[int]) -> List[float]:
    """Epsilon after each recorded round, from its ``participating_clients``.

    ``moments``: every round that released anything charges ``L`` steps at
    the equal-shard rate ``q = B * Kt / N``.  ``heterogeneous``: each
    participant ``k`` accrues ``steps_k`` steps at ``q_k = min(1, B / n_k)``
    with ``steps_k = max(1, min(L, ceil(n_k / B)))``; epsilon is the worst
    client's.
    """
    from repro.privacy.accountant import (
        DEFAULT_RDP_ORDERS,
        compute_rdp_subsampled_gaussian,
        rdp_to_epsilon,
    )

    sigma = config.noise_scale
    delta = config.delta
    batch = config.effective_batch_size
    iterations = config.effective_local_iterations
    curves: Dict[float, np.ndarray] = {}

    def curve(rate: float) -> np.ndarray:
        if rate not in curves:
            curves[rate] = compute_rdp_subsampled_gaussian(rate, sigma, DEFAULT_RDP_ORDERS)
        return curves[rate]

    def epsilon(rdp: np.ndarray) -> float:
        return rdp_to_epsilon(DEFAULT_RDP_ORDERS, rdp, delta)[0]

    epsilons: List[float] = []
    if config.accountant == "moments":
        cohort = max(1, int(round(config.participation_fraction * config.num_clients)))
        rate = min(1.0, batch * cohort / config.num_train_examples)
        charged = 0
        for result in rounds:
            charged += bool(result.participating_clients)
            epsilons.append(epsilon(charged * iterations * curve(rate)) if charged else 0.0)
        return epsilons
    if config.accountant != "heterogeneous":
        raise ValueError(f"no independent recomputation for accountant {config.accountant!r}")
    ledger: Dict[int, np.ndarray] = {}
    worst = 0.0
    for result in rounds:
        for client in sorted(set(int(c) for c in result.participating_clients)):
            size = int(shard_sizes[client])
            steps = max(1, min(iterations, math.ceil(size / batch)))
            ledger[client] = ledger.get(client, 0.0) + steps * curve(min(1.0, batch / size))
            worst = max(worst, epsilon(ledger[client]))
        epsilons.append(worst)
    return epsilons


def close(a: float, b: float, rtol: float = EPSILON_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_history(config, history, completed: int, shard_sizes: Sequence[int]) -> Set[int]:
    """Round indices whose recorded outcome breaks an output check.

    Checks: every round ``0..completed-1`` recorded exactly once and no
    budget stop; the cohort partition identity; epsilon non-decreasing and
    equal to the independent recomputation.
    """
    expected = set(range(completed))
    if history.budget_stop_round is not None:
        return expected
    rounds = list(history.rounds)
    recorded_times = Counter(result.round_index for result in rounds)
    bad = expected - set(recorded_times)
    bad |= {index for index, times in recorded_times.items() if times > 1 or index not in expected}
    bad |= {result.round_index for result in rounds if not cohort_partition_ok(result)}
    recorded = history.epsilon_by_round
    previous = 0.0
    for result, recomputed in zip(rounds, recompute_epsilons(config, rounds, shard_sizes)):
        index = result.round_index
        value = recorded.get(index)
        if value is None or value < previous or not close(value, recomputed):
            bad.add(index)
        previous = value if value is not None else previous
    return bad


def trajectory_mismatches(rounds: Sequence, reference: Sequence) -> Set[int]:
    """Rounds whose cohort or loss differs bitwise from the reference run's."""
    bad = set()
    for result, expected in zip(rounds, reference):
        same = (
            list(result.selected_clients) == list(expected.selected_clients)
            and list(result.participating_clients) == list(expected.participating_clients)
            and np.float64(result.mean_loss).tobytes() == np.float64(expected.mean_loss).tobytes()
        )
        if not same:
            bad.add(result.round_index)
    return bad
