"""Tests for the in-loop attack schedule: config surface, round resolution,
target selection, RNG-domain keying and record serialisation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.attacks import ATTACK_DOMAIN, AttackSchedule, resolve_attack_rounds
from repro.experiments.harness import quick_config
from repro.federated import FederatedSimulation
from repro.federated.config import ATTACK_KINDS, FederatedConfig, normalize_attack_rounds
from repro.federated.executor import domain_seed_sequence
from repro.federated.server import AttackRecord
from repro.federated.simulation import SimulationHistory


def _attacked_config(**overrides):
    base = dict(attack="leakage", attack_seeds=2, attack_iterations=5)
    base.update(overrides)
    return quick_config("cancer", "fed_cdp", **base)


# ----------------------------------------------------------------------
# attack_rounds specification
# ----------------------------------------------------------------------
def test_normalize_attack_rounds_forms():
    assert normalize_attack_rounds(None) is None
    assert normalize_attack_rounds("every_3") == "every_3"
    assert normalize_attack_rounds([5, 0, 5, 2]) == (0, 2, 5)
    for bad in ("every_0", "every_-1", "weekly", "every_"):
        with pytest.raises(ValueError):
            normalize_attack_rounds(bad)
    with pytest.raises(ValueError):
        normalize_attack_rounds([])
    with pytest.raises(ValueError):
        normalize_attack_rounds([-1, 2])


def test_resolve_attack_rounds_forms():
    assert resolve_attack_rounds(None, 4) == (0, 1, 2, 3)
    assert resolve_attack_rounds("every_2", 5) == (0, 2, 4)
    assert resolve_attack_rounds((0, 2, 9), 4) == (0, 2)


# ----------------------------------------------------------------------
# FederatedConfig surface
# ----------------------------------------------------------------------
def test_config_validates_attack_fields():
    with pytest.raises(ValueError):
        quick_config("cancer", "fed_cdp", attack="bogus")
    with pytest.raises(ValueError):
        quick_config("cancer", "fed_cdp", attack_rounds=(0,))  # no attack kind
    with pytest.raises(ValueError):
        quick_config("cancer", "fed_cdp", attack_clients=(0,))  # no attack kind
    with pytest.raises(ValueError):
        _attacked_config(attack_seeds=0)
    with pytest.raises(ValueError):
        _attacked_config(attack_iterations=0)
    with pytest.raises(ValueError):
        _attacked_config(attack_clients=(999,))  # out of the client population
    config = _attacked_config(attack_rounds=[3, 1], attack_clients=[4, 1])
    assert config.attack_rounds == (1, 3)
    assert config.attack_clients == (1, 4)
    assert "leakage" in ATTACK_KINDS


def test_config_rejects_schedule_entirely_beyond_horizon():
    # a typo'd round index must fail loudly, not silently disable the adversary
    with pytest.raises(ValueError, match="horizon"):
        _attacked_config(rounds=2, attack_rounds=(5,))
    # partially clipped schedules stay legal (some rounds are attacked)
    config = _attacked_config(rounds=2, attack_rounds=(1, 5))
    assert resolve_attack_rounds(config.attack_rounds, config.rounds) == (1,)


def test_config_rejects_stray_attack_tuning_without_kind():
    # every attack_* field set away from its default demands an attack kind,
    # keeping unattacked configs byte-identical to the pre-attack-era format
    with pytest.raises(ValueError):
        quick_config("cancer", "fed_cdp", attack_seeds=4)
    with pytest.raises(ValueError):
        quick_config("cancer", "fed_cdp", attack_iterations=5)


def test_config_serialisation_omits_attack_defaults():
    plain = quick_config("cancer", "fed_cdp")
    payload = plain.to_dict()
    for name in ("attack", "attack_rounds", "attack_clients", "attack_seeds", "attack_iterations"):
        assert name not in payload
    assert FederatedConfig.from_dict(payload) == plain


def test_config_serialisation_round_trips_attack_fields():
    import json

    config = _attacked_config(attack_rounds=(0, 2), attack_clients=(1, 3))
    restored = FederatedConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert restored == config
    every = _attacked_config(attack_rounds="every_2")
    assert FederatedConfig.from_dict(json.loads(json.dumps(every.to_dict()))) == every


def test_config_validates_byzantine_fields():
    # mode and clients must come together
    with pytest.raises(ValueError, match="together"):
        quick_config("cancer", "fed_cdp", byzantine_mode="scale")
    with pytest.raises(ValueError, match="together"):
        quick_config("cancer", "fed_cdp", byzantine_clients=(0,))
    with pytest.raises(ValueError):
        quick_config("cancer", "fed_cdp", byzantine_clients=(0,), byzantine_mode="bogus")
    with pytest.raises(ValueError):
        quick_config("cancer", "fed_cdp", byzantine_clients=(999,), byzantine_mode="scale")
    with pytest.raises(ValueError):
        quick_config(
            "cancer", "fed_cdp", byzantine_clients=(0,), byzantine_mode="scale",
            byzantine_scale=0.0,
        )
    config = quick_config(
        "cancer", "fed_cdp", byzantine_clients=[3, 1, 3], byzantine_mode="sign_flip"
    )
    assert config.byzantine_clients == (1, 3)  # sorted, deduped


def test_config_validates_secure_aggregation_fields():
    with pytest.raises(ValueError, match="fedsgd"):
        quick_config("cancer", "nonprivate", secure_aggregation=True, aggregation="fedavg")
    with pytest.raises(ValueError):
        quick_config("cancer", "nonprivate", secure_mask_scale=0.0)
    config = quick_config("cancer", "nonprivate", secure_aggregation=True)
    assert config.secure_aggregation and config.aggregation == "fedsgd"


def test_config_serialisation_omits_catalogue_defaults():
    # PR-4 convention: fields at their defaults vanish from the payload, so
    # every pre-catalogue checkpoint and golden fixture stays byte-identical
    payload = quick_config("cancer", "fed_cdp").to_dict()
    for name in (
        "byzantine_clients",
        "byzantine_mode",
        "byzantine_scale",
        "secure_aggregation",
        "secure_mask_scale",
    ):
        assert name not in payload
    # the 30 keys every pre-catalogue checkpoint carries, and no more
    assert sorted(FederatedConfig().to_dict()) == """
        aggregation batch_size client_sampling clipping_bound compression_ratio data_per_client dataset
        decay_clipping delta dirichlet_alpha dropout_rate dssgd_share_fraction eval_every executor
        learning_rate local_iterations method model_scale noise_scale num_clients num_train_examples
        num_val_examples num_workers participation_fraction partition quantity_skew_exponent rounds
        sdp_server_side seed straggler_deadline
    """.split()


def test_config_serialisation_round_trips_catalogue_fields():
    import json

    config = quick_config(
        "cancer",
        "fed_cdp",
        byzantine_clients=(0, 2),
        byzantine_mode="scale",
        byzantine_scale=3.0,
        secure_aggregation=True,
        secure_mask_scale=5.0,
    )
    payload = json.loads(json.dumps(config.to_dict()))
    assert payload["byzantine_clients"] == [0, 2]
    assert payload["secure_aggregation"] is True
    assert FederatedConfig.from_dict(payload) == config

    # every omit_at_default field away from its default survives the round trip
    everything = config.with_overrides(
        accountant="heterogeneous",
        epsilon_budget=5.0,
        client_state="lazy",
        worker_chunk_size=2,
        attack="leakage",
        attack_rounds=(0, 2),
        attack_clients=(1, 3),
        attack_seeds=2,
        attack_iterations=5,
        availability_cycle=0.5,
        availability_period=3,
        churn_rate=0.25,
        device_classes=(0.5, 1.0, 2.0),
        drift_rate=0.2,
    )
    omitted = [field.name for field in dataclasses.fields(FederatedConfig) if field.metadata["omit_at_default"]]
    assert len(omitted) == 19
    payload = json.loads(json.dumps(everything.to_dict()))
    assert set(omitted) <= set(payload)
    assert FederatedConfig.from_dict(payload) == everything


# ----------------------------------------------------------------------
# AttackSchedule semantics
# ----------------------------------------------------------------------
def test_from_config_returns_none_without_attack():
    assert AttackSchedule.from_config(quick_config("cancer", "fed_cdp")) is None


def test_is_attack_round_forms():
    every_round = AttackSchedule(_attacked_config())
    assert all(every_round.is_attack_round(r) for r in range(5))
    every_2 = AttackSchedule(_attacked_config(attack_rounds="every_2"))
    assert [r for r in range(5) if every_2.is_attack_round(r)] == [0, 2, 4]
    explicit = AttackSchedule(_attacked_config(attack_rounds=(1, 3)))
    assert [r for r in range(5) if explicit.is_attack_round(r)] == [1, 3]


def test_target_clients_filter():
    schedule = AttackSchedule(_attacked_config())
    assert schedule.target_clients([4, 1, 2]) == [4, 1, 2]
    filtered = AttackSchedule(_attacked_config(attack_clients=(1, 5)))
    assert filtered.target_clients([4, 1, 2, 5]) == [1, 5]
    assert filtered.target_clients([0, 2]) == []


def test_attack_value_range_tracks_dataset_kind():
    tabular = AttackSchedule(_attacked_config())
    image = AttackSchedule(quick_config("mnist", "fed_cdp", attack="leakage"))
    assert image.attack_config.value_range == (0.0, 1.0)
    low, high = tabular.attack_config.value_range
    assert low < 0.0 < high  # synthetic tabular features are Gaussian clusters


# ----------------------------------------------------------------------
# RNG-domain keying
# ----------------------------------------------------------------------
def test_attack_domain_streams_keyed_on_round_client_restart():
    draws = {
        key: np.random.default_rng(domain_seed_sequence(0, ATTACK_DOMAIN, *key)).integers(0, 2**31)
        for key in [(0, 1), (0, 2), (1, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0)]
    }
    assert len(set(draws.values())) == len(draws)  # distinct per key
    again = np.random.default_rng(domain_seed_sequence(0, ATTACK_DOMAIN, 0, 1)).integers(0, 2**31)
    assert again == draws[(0, 1)]  # deterministic


def test_attack_domain_disjoint_from_training_and_availability_domains():
    from repro.attacks.adaptive import ADAPTIVE_ATTACK_DOMAIN
    from repro.attacks.schedule import MEMBERSHIP_ATTACK_DOMAIN
    from repro.federated.availability import _AVAILABILITY_DOMAIN
    from repro.federated.executor import _CLIENT_STREAM_DOMAIN
    from repro.federated.secure_aggregation import SECURE_AGGREGATION_DOMAIN

    domains = {
        ATTACK_DOMAIN,
        ADAPTIVE_ATTACK_DOMAIN,
        MEMBERSHIP_ATTACK_DOMAIN,
        SECURE_AGGREGATION_DOMAIN,
        _AVAILABILITY_DOMAIN,
        _CLIENT_STREAM_DOMAIN,
    }
    assert len(domains) == 6  # every adversary and subsystem draws apart


# ----------------------------------------------------------------------
# Record serialisation
# ----------------------------------------------------------------------
def test_infinite_psnr_serialises_as_null_and_round_trips():
    import json

    config = _attacked_config(rounds=4)
    history = SimulationHistory(config=config)
    with FederatedSimulation(config.with_overrides(attack=None, attack_seeds=1, attack_iterations=30)) as sim:
        base = sim.run(rounds=1)
    record = AttackRecord(
        client_id=0, mse=0.0, psnr=float("inf"), success=True,
        iterations=3, final_loss=0.0, best_restart=1, restarts=2,
    )
    history.rounds = list(base.rounds)
    history.rounds[0].attacks = [record]
    payload = json.loads(json.dumps(history.to_dict()))  # strict JSON must survive
    assert payload["rounds"][0]["attacks"][0]["psnr"] is None
    restored = SimulationHistory.from_dict(payload, config=config)
    assert restored.rounds[0].attacks == [record]
    assert restored.attack_records[0].psnr == float("inf")
