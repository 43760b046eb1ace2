"""Tests of the benchmark's own machinery: checks, spans, names, failure counting."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import spans
from perfbench.checks import check_history, recompute_epsilons, trajectory_mismatches
from perfbench.child import measure
from perfbench.run import end_to_end
from perfbench.workloads import WORKLOADS
from repro.experiments.harness import make_config
from repro.federated.simulation import FederatedSimulation

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny_config(accountant: str, **overrides):
    base = dict(rounds=6, eval_every=3, seed=5, accountant=accountant)
    base.update(overrides)
    return make_config("cancer", "fed_cdp", profile="quick", **base)


@pytest.mark.parametrize(
    "accountant, overrides",
    [
        ("moments", dict(dropout_rate=0.5)),
        # unequal shards and Poisson cohorts exercise per-client q_k and steps_k
        ("heterogeneous", dict(num_clients=12, partition="dirichlet", client_sampling="poisson", batch_size=8)),
    ],
)
def test_epsilon_recomputation_matches_accountant(accountant, overrides):
    config = tiny_config(accountant, **overrides)
    with FederatedSimulation(config) as sim:
        history = sim.run()
        sizes = sim.population.shard_sizes()
    rounds = list(history.rounds)
    recomputed = recompute_epsilons(config, rounds, sizes)
    recorded = [history.epsilon_by_round[r.round_index] for r in rounds]
    assert recomputed == pytest.approx(recorded, rel=1e-9, abs=0.0)
    assert recorded[-1] > 0.0
    assert check_history(config, history, config.rounds, sizes) == set()

    history.epsilon_by_round[2] *= 1.0 + 1e-6
    assert 2 in check_history(config, history, config.rounds, sizes)


def test_check_history_flags_broken_cohort_and_missing_rounds():
    config = tiny_config("moments")
    with FederatedSimulation(config) as sim:
        history = sim.run()
        sizes = sim.population.shard_sizes()
    with FederatedSimulation(config) as again:
        replayed = list(again.run().rounds)
    assert trajectory_mismatches(history.rounds, replayed) == set()
    replayed[3].mean_loss = float(np.nextafter(replayed[3].mean_loss, np.inf))
    assert trajectory_mismatches(history.rounds, replayed) == {3}

    history.rounds[1].dropped_clients.append(history.rounds[1].selected_clients[0])
    del history.rounds[5]
    assert check_history(config, history, config.rounds, sizes) == {1, 5}


def test_self_time_subtracts_direct_children():
    # [name, start, end, parent, round]: a(0..10) > b(1..4) > d(2..3); a > c(5..6)
    synthetic = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 4.0, 0, 1],
        ["d", 2.0, 3.0, 1, 1],
        ["c", 5.0, 6.0, 0, 1],
        ["a", 20.0, 22.0, -1, 2],
    ]
    assert spans.self_times(synthetic) == [6.0, 2.0, 1.0, 1.0, 2.0]
    assert spans.self_time_by_name(synthetic, [1]) == {"a": 6.0, "b": 2.0, "d": 1.0, "c": 1.0}
    assert spans.self_time_by_name(synthetic, [1, 2])["a"] == 8.0


def test_tracer_nests_spans_and_tags_rounds():
    tracer = spans.Tracer()
    tracer.round = 3
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    (outer, inner) = tracer.spans
    assert inner[3] == 0 and outer[3] == -1
    assert outer[4] == inner[4] == 3
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_every_emitted_name_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    emitted = set(spans.layer_metrics(spans.Tracer(), [1.0], [1])) | {
        "setup.import_s", "setup.construct_s", "setup.first_round_s", "trace.overhead_pct",
    }
    assert emitted == {m["name"] for m in SPEC["per_layer"]}
    timed = end_to_end({"round_times": [0.1, 0.2, 0.3], "peak_rss_mb": 1.0}, [1.0])
    assert set(timed) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_restores_entry_points_and_covers_rounds():
    config = tiny_config("moments", rounds=100)
    tracer = spans.Tracer()
    saved = spans.instrument(tracer)
    try:
        with FederatedSimulation(config) as sim:
            sim.run(rounds=1)
            result = measure(sim, 0.3, tracer)
    finally:
        spans.uninstrument(saved)
    metrics = spans.layer_metrics(tracer, result["round_times"], result["steady_rounds"])
    assert result["failed"] == 0
    assert metrics["privacy.mechanisms.ms_per_round"] > 0.0
    assert metrics["trace.coverage_pct"] > 50.0
    for owner, attribute, original in saved:
        current = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        assert current is original


def test_raising_round_is_counted_and_the_run_goes_on():
    config = tiny_config("moments", rounds=100)
    with FederatedSimulation(config) as sim:
        sim.run(rounds=1)
        original = sim.run
        calls = []

        def flaky_run(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected round failure")
            return original(*args, **kwargs)

        sim.run = flaky_run
        result = measure(sim, 0.3)
    assert len(calls) > 3, "the loop stopped at the failing round"
    assert result["failed"] == 1
    assert result["attempted"] == sim.completed_rounds + 1
    assert len(result["round_times"]) == len(calls) - 1
