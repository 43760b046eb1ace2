"""In-memory span tracer wrapped around the layers' public entry points.

Nothing inside ``src/`` is instrumented: :func:`instrument` replaces each
entry point (a class attribute or a module-level function) with a wrapper
that records a span around the original call, and :func:`uninstrument` puts
the originals back.  Spans stay in memory until the benchmark reports them.

A span is ``[name, start, end, parent, round]``: ``parent`` is the index of
the enclosing span (``-1`` at top level) and ``round`` the federated round
the harness was running when the span opened.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layer each span name belongs to (the unit "largest self-time layer" ranks).
SPAN_LAYERS: Dict[str, str] = {
    "privacy.mechanisms": "privacy.mechanisms",
    "nn.perexample": "nn.perexample",
    "privacy.clipping": "privacy.clipping",
    "privacy.accountant.charge": "privacy.accountant",
    "privacy.accountant.epsilon": "privacy.accountant",
    "attacks": "attacks",
    "federated.executor": "federated.executor",
    "federated.sampling": "federated.sampling",
    "data.population": "data.population",
    "federated.history.spool": "federated.history",
    "federated.aggregation": "federated.aggregation",
    "nn.metrics.eval": "nn.metrics",
}


class Tracer:
    """Collects nested spans and per-round counters in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        #: round the harness is running; spans and counts are tagged with it
        self.round = -1
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.round]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def count(self, key: str, amount: float) -> None:
        self.counts[(self.round, key)] += amount


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    result = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            result[span[3]] -= span[2] - span[1]
    return result


def self_time_by_name(spans: Sequence[Sequence], rounds: Iterable[int]) -> Dict[str, float]:
    """Total self time (seconds) per span name over the given rounds."""
    wanted = set(rounds)
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span[4] in wanted:
            totals[span[0]] += own
    return dict(totals)


def calls_by_name(spans: Sequence[Sequence], rounds: Iterable[int]) -> Dict[str, int]:
    """Number of spans per name over the given rounds."""
    wanted = set(rounds)
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span[4] in wanted:
            totals[span[0]] += 1
    return dict(totals)


# ----------------------------------------------------------------------
# Counters: derived from the entry points' arguments and results
# ----------------------------------------------------------------------
def _count_noise_draws(tracer: Tracer, args, kwargs, result) -> None:
    mechanism, stack = args[0], args[1]
    if mechanism.stddev > 0.0:
        tracer.count("privacy.mechanisms.draws", sum(value.size for value in stack))


def _count_examples(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("nn.perexample.examples", len(args[1]))


def _count_attacks(tracer: Tracer, args, kwargs, result) -> None:
    attacks, _ = result
    tracer.count("attacks.attacks", len(attacks))
    tracer.count("attacks.iterations", sum(record.iterations for record in attacks))
    tracer.count("attacks.successes", sum(bool(record.success) for record in attacks))


def _count_cohort(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("federated.sampling.cohort", len(result))


def _count_shard(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("data.population.shards", 1)


def entry_points() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, counter)`` for every traced entry point."""
    import repro.core.fed_cdp as fed_cdp
    import repro.federated.server as server
    from repro.attacks.schedule import AttackSchedule
    from repro.core.base import LocalTrainerBase
    from repro.data.population import LazyClientPopulation
    from repro.federated.executor import SerialClientExecutor
    from repro.federated.history import RoundSpool
    from repro.federated.simulation import FederatedSimulation
    from repro.privacy.accountant import MomentsAccountant
    from repro.privacy.ledger import HeterogeneousAccountant
    from repro.privacy.mechanisms import GaussianMechanism

    return [
        (GaussianMechanism, "add_noise_to_stack", "privacy.mechanisms", _count_noise_draws),
        (LocalTrainerBase, "compute_per_example_gradient_stack", "nn.perexample", _count_examples),
        # Fed-CDP calls the clipping function through its own module binding
        (fed_cdp, "clip_per_example_stack", "privacy.clipping", None),
        (MomentsAccountant, "charge_round", "privacy.accountant.charge", None),
        (HeterogeneousAccountant, "charge_round", "privacy.accountant.charge", None),
        (MomentsAccountant, "get_epsilon", "privacy.accountant.epsilon", None),
        (HeterogeneousAccountant, "get_epsilon", "privacy.accountant.epsilon", None),
        (AttackSchedule, "run_round_attacks", "attacks", _count_attacks),
        (SerialClientExecutor, "run_clients", "federated.executor", None),
        (server.FederatedServer, "select_clients", "federated.sampling", _count_cohort),
        (LazyClientPopulation, "__getitem__", "data.population", _count_shard),
        (RoundSpool, "append", "federated.history.spool", None),
        # the server calls the aggregation function through its own module binding
        (server, "fedsgd_aggregate", "federated.aggregation", None),
        (FederatedSimulation, "evaluate", "nn.metrics.eval", None),
    ]


def _wrap(tracer: Tracer, original: Callable, name: str, counter: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        result = tracer.call(name, original, *args, **kwargs)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    return traced


def instrument(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Wrap every entry point; returns what :func:`uninstrument` restores."""
    saved = []
    for owner, attribute, name, counter in entry_points():
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            # the raw function from the class dict, so the wrapper binds as a method
            original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(tracer, original, name, counter))
    return saved


def uninstrument(saved: List[Tuple[object, str, Callable]]) -> None:
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)


def _steady_counts(tracer: Tracer, rounds: Iterable[int]) -> Dict[str, float]:
    wanted = set(rounds)
    totals: Dict[str, float] = defaultdict(float)
    for (round_index, key), amount in tracer.counts.items():
        if round_index in wanted:
            totals[key] += amount
    return totals


def layer_metrics(tracer: Tracer, round_times: Sequence[float], rounds: Sequence[int]) -> Dict[str, float]:
    """Per-layer metrics over the steady-state ``rounds`` (self times, in ms)."""
    n = max(1, len(round_times))
    own = self_time_by_name(tracer.spans, rounds)
    calls = calls_by_name(tracer.spans, rounds)
    counts = _steady_counts(tracer, rounds)
    attacked = calls.get("attacks", 0)
    attacks = counts["attacks.attacks"]
    evaluations = calls.get("nn.metrics.eval", 0)
    covered = sum(own.values())
    total = sum(round_times)

    def ms_per_round(name: str) -> float:
        return 1000.0 * own.get(name, 0.0) / n

    return {
        "privacy.mechanisms.ms_per_round": ms_per_round("privacy.mechanisms"),
        "privacy.mechanisms.draws_per_round": counts["privacy.mechanisms.draws"] / n,
        "nn.perexample.ms_per_round": ms_per_round("nn.perexample"),
        "nn.perexample.examples_per_round": counts["nn.perexample.examples"] / n,
        "privacy.clipping.ms_per_round": ms_per_round("privacy.clipping"),
        "privacy.accountant.charge_ms_per_round": ms_per_round("privacy.accountant.charge"),
        "privacy.accountant.epsilon_ms_per_round": ms_per_round("privacy.accountant.epsilon"),
        "attacks.ms_per_attacked_round": 1000.0 * own.get("attacks", 0.0) / attacked if attacked else 0.0,
        "attacks.iterations_per_attack": counts["attacks.iterations"] / attacks if attacks else 0.0,
        "attacks.success_rate": counts["attacks.successes"] / attacks if attacks else 0.0,
        "federated.executor.ms_per_round": ms_per_round("federated.executor"),
        "federated.sampling.ms_per_round": ms_per_round("federated.sampling"),
        "federated.sampling.cohort_size": counts["federated.sampling.cohort"] / n,
        "data.population.ms_per_round": ms_per_round("data.population"),
        "data.population.shards_per_round": counts["data.population.shards"] / n,
        "federated.history.spool_ms_per_round": ms_per_round("federated.history.spool"),
        "federated.aggregation.ms_per_round": ms_per_round("federated.aggregation"),
        "nn.metrics.eval_ms_per_call": 1000.0 * own.get("nn.metrics.eval", 0.0) / evaluations if evaluations else 0.0,
        "simulation.self_ms_per_round": 1000.0 * (total - covered) / n,
        "trace.coverage_pct": 100.0 * covered / total if total > 0 else 0.0,
    }


def layer_shares(tracer: Tracer, round_times: Sequence[float], rounds: Sequence[int]) -> Dict[str, Dict[str, float]]:
    """Share of round time per layer (self time), over all steady rounds and
    over the attacked ones; ``simulation`` is the uncovered residual."""

    def shares(selected: Sequence[int], total: float) -> Dict[str, float]:
        by_layer: Dict[str, float] = defaultdict(float)
        for name, seconds in self_time_by_name(tracer.spans, selected).items():
            by_layer[SPAN_LAYERS[name]] += seconds
        by_layer["simulation"] = total - sum(by_layer.values())
        return {layer: seconds / total for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1])}

    result = {"all": shares(rounds, sum(round_times))}
    attacked = sorted({span[4] for span in tracer.spans if span[0] == "attacks" and span[4] in set(rounds)})
    if attacked:
        # round_times[i] belongs to rounds[i] when no round raised
        times = dict(zip(rounds, round_times))
        result["attacked"] = shares(attacked, sum(times.get(r, 0.0) for r in attacked))
    return result
