"""Configuration dataclasses for the federated-learning simulation.

A single :class:`FederatedConfig` captures everything needed to reproduce one
cell of the paper's evaluation tables: the dataset and its synthetic size, the
client population ``K`` and per-round participation ``Kt``, the local training
hyper-parameters ``(B, L, eta)``, the training method (non-private, Fed-SDP,
Fed-CDP, Fed-CDP(decay), DSSGD) and its differential-privacy parameters
``(C, sigma, delta)``.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.data.partition import PARTITION_STRATEGIES
from repro.data.registry import DatasetSpec, get_dataset_spec
from repro.privacy.ledger import ACCOUNTANT_NAMES

from .byzantine import BYZANTINE_MODES

__all__ = [
    "FederatedConfig",
    "RESUME_MUTABLE_FIELDS",
    "METHODS",
    "PRIVATE_METHODS",
    "EXECUTORS",
    "CLIENT_SAMPLING_SCHEMES",
    "CLIENT_STATE_MODES",
    "LAZY_CLIENT_STATE_THRESHOLD",
    "ACCOUNTANT_NAMES",
    "ATTACK_KINDS",
    "BYZANTINE_MODES",
    "normalize_attack_rounds",
]


#: Training methods understood by the trainer factory.
METHODS: Tuple[str, ...] = ("nonprivate", "fed_sdp", "fed_cdp", "fed_cdp_decay", "dssgd")

#: The subset of :data:`METHODS` that carries a differential-privacy guarantee
#: (and therefore drives the accountant and the epsilon budget).
PRIVATE_METHODS: Tuple[str, ...] = ("fed_sdp", "fed_cdp", "fed_cdp_decay")

#: Client-execution backends understood by :func:`repro.federated.executor.make_executor`.
#: ``fused`` is the opt-in batch-fusion backend: it stacks the selected
#: clients' first minibatches into one batched-graph replay before running
#: each client's local loop (see
#: :class:`repro.federated.executor.BatchFusedClientExecutor`).
EXECUTORS: Tuple[str, ...] = ("serial", "multiprocessing", "fused")

#: Per-round client-selection schemes understood by the server.
CLIENT_SAMPLING_SCHEMES: Tuple[str, ...] = ("fixed", "poisson")

#: Client-state construction modes (see docs/cross_device_scale.md).
#: ``eager`` materialises every client's shard up front (the historical
#: behaviour); ``lazy`` derives only the sampled cohort's shards per round
#: through :class:`repro.data.population.LazyClientPopulation`; ``auto``
#: picks ``lazy`` at cross-device populations and ``eager`` below.  The two
#: modes are bit-identical — the choice is purely a memory/time trade.
CLIENT_STATE_MODES: Tuple[str, ...] = ("auto", "eager", "lazy")

#: Population size at which ``client_state="auto"`` switches to ``lazy``.
LAZY_CLIENT_STATE_THRESHOLD = 10_000

#: In-loop adversary kinds understood by :class:`repro.attacks.schedule.AttackSchedule`:
#: ``leakage`` runs the fixed-budget gradient-reconstruction attack,
#: ``adaptive`` the variant that tunes its restart/iteration budget from the
#: observed gradient norm, and ``membership`` the loss-threshold membership
#: inference audit of each round's released model (per-round AUC records).
ATTACK_KINDS: Tuple[str, ...] = ("leakage", "membership", "adaptive")

#: accepted string form of ``attack_rounds``: ``"every_k"`` attacks rounds
#: ``0, k, 2k, ...``
_EVERY_K_PATTERN = re.compile(r"^every_([1-9]\d*)$")


def normalize_attack_rounds(
    value: Optional[Union[str, Sequence[int]]],
) -> Optional[Union[str, Tuple[int, ...]]]:
    """Validate and canonicalise an ``attack_rounds`` specification.

    ``None`` (attack every round) and ``"every_k"`` strings pass through (a
    one-token sequence such as ``["every_2"]`` — the CLI's ``--attack-rounds
    every_2`` — counts as the string); explicit round lists (ints or digit
    strings) become sorted, de-duplicated tuples of non-negative ints so that
    configs rebuilt from JSON checkpoints compare equal.
    """
    if value is None:
        return None
    if not isinstance(value, str) and len(value) == 1 and str(value[0]).startswith("every_"):
        value = value[0]
    if isinstance(value, str):
        if _EVERY_K_PATTERN.match(value) is None:
            raise ValueError(
                f"attack_rounds string must look like 'every_k' (k >= 1), got {value!r}"
            )
        return value
    try:
        rounds = tuple(sorted({int(r) for r in value}))
    except ValueError:
        raise ValueError(f"attack_rounds expects round indices or a single 'every_k', got {list(value)}") from None
    if not rounds:
        raise ValueError("attack_rounds must name at least one round (or be None)")
    if rounds[0] < 0:
        raise ValueError(f"attack_rounds must be non-negative, got {rounds}")
    return rounds


def _field(
    default,
    help: str,
    *,
    flag: Optional[str] = None,
    choices: Optional[Tuple[str, ...]] = None,
    omit_at_default: bool = False,
    resume_mutable: bool = False,
):
    """Declare one :class:`FederatedConfig` field together with its metadata.

    ``help`` documents the field (and is the ``run`` option's help text);
    ``flag`` is its ``python -m repro run`` option string (``None`` = no
    flag); ``choices`` restricts its value (checked in ``__post_init__`` and
    by argparse); ``omit_at_default`` drops it from :meth:`FederatedConfig.
    to_dict` while it equals ``default``, so checkpoints and golden fixtures
    written before the field existed stay byte-identical; ``resume_mutable``
    lets a resumed checkpoint override it (see :data:`RESUME_MUTABLE_FIELDS`).
    """
    metadata = dict(
        help=help,
        flag=flag,
        choices=choices,
        omit_at_default=omit_at_default,
        resume_mutable=resume_mutable,
    )
    return field(default=default, metadata=metadata)


@dataclass
class FederatedConfig:
    """Full description of one federated-learning run."""

    dataset: str = _field("mnist", "dataset name from repro.data.registry (mnist, cifar10, ...)", flag="--dataset")
    method: str = _field("fed_cdp", "training method", flag="--method", choices=METHODS)

    # ----- population ------------------------------------------------
    num_clients: int = _field(100, "total number of clients K", flag="--clients")
    participation_fraction: float = _field(
        0.10, "fraction of clients participating per round (Kt/K)", flag="--participation"
    )
    rounds: int = _field(10, "number of federated rounds T", flag="--rounds", resume_mutable=True)

    # ----- local training --------------------------------------------
    batch_size: Optional[int] = _field(None, "local batch size B (None = the Table-I value)")
    local_iterations: Optional[int] = _field(None, "local iterations L per round (None = the Table-I value)")
    learning_rate: float = _field(0.02, "local SGD learning rate eta")
    model_scale: float = _field(1.0, "width multiplier for the model architecture (scaled-down experiments)")

    # ----- synthetic data sizes ----------------------------------------
    num_train_examples: int = _field(2000, "number of synthetic training examples to generate")
    num_val_examples: int = _field(400, "number of synthetic validation examples to generate")
    data_per_client: Optional[int] = _field(None, "per-client shard size (None = the Table-I value)")

    # ----- heterogeneity scenario (see docs/scenarios.md) ---------------
    partition: str = _field(
        "shards",
        "data heterogeneity strategy (shards = the paper's Table-I scheme)",
        flag="--partition",
        choices=PARTITION_STRATEGIES,
    )
    dirichlet_alpha: float = _field(
        0.5,
        "Dirichlet concentration for --partition dirichlet (small = pathological skew)",
        flag="--dirichlet-alpha",
    )
    quantity_skew_exponent: float = _field(
        1.5,
        "power-law exponent for --partition quantity_skew (0 = equal sizes)",
        flag="--quantity-skew-exponent",
    )

    # ----- client availability (see docs/scenarios.md) ------------------
    client_sampling: str = _field(
        "fixed",
        "per-round cohort selection: 'fixed' (exactly Kt clients) or 'poisson' (each client "
        "independently with probability Kt/K; a round may select no clients and is then skipped)",
        flag="--client-sampling",
        choices=CLIENT_SAMPLING_SCHEMES,
    )
    dropout_rate: float = _field(
        0.0,
        "probability that a selected client drops out of a round before reporting its update",
        flag="--dropout",
    )
    straggler_deadline: Optional[float] = _field(
        None,
        "round deadline in simulated time units: a surviving client whose lognormal(0, 1) "
        "duration (median 1.0) exceeds it is excluded as a straggler (None disables)",
        flag="--straggler-deadline",
    )
    availability_cycle: Optional[float] = _field(
        None,
        "diurnal availability-cycle amplitude in (0, 1]: each client's offline probability "
        "follows a per-client phase-offset sinusoid over round time (None disables)",
        flag="--availability-cycle",
        omit_at_default=True,
    )
    availability_period: int = _field(
        24,
        "period of the diurnal cycle in rounds",
        flag="--availability-period",
        omit_at_default=True,
    )
    churn_rate: Optional[float] = _field(
        None,
        "client churn rate in (0, 1): each client lives a geometric number of rounds with "
        "mean 1/rate before leaving the population (None disables)",
        flag="--churn-rate",
        omit_at_default=True,
    )
    device_classes: Optional[Tuple[float, ...]] = _field(
        None,
        "per-client device-class straggler-duration multipliers, e.g. '0.5 1 2' for "
        "fast/mid/slow hardware; each client draws one class for the whole run "
        "(None disables; pair with --straggler-deadline)",
        flag="--device-classes",
        omit_at_default=True,
    )
    drift_rate: Optional[float] = _field(
        None,
        "per-round concept-drift rate in (0, 1]: at round t a fraction min(1, rate*t) of "
        "every client's shard carries a resampled label (None disables)",
        flag="--drift",
        omit_at_default=True,
    )

    # ----- differential privacy ----------------------------------------
    clipping_bound: float = _field(4.0, "DP clipping bound C (paper default 4)", flag="--clipping-bound")
    noise_scale: float = _field(6.0, "DP noise multiplier sigma (paper default 6)", flag="--noise-scale")
    delta: float = _field(1e-5, "target broken-guarantee probability delta")
    decay_clipping: Tuple[float, float] = _field((6.0, 2.0), "clipping-decay schedule (start, end) for Fed-CDP(decay)")
    sdp_server_side: bool = _field(False, "whether Fed-SDP sanitises at the server (True) or at each client (False)")
    accountant: str = _field(
        "moments",
        "privacy accountant: 'moments' (the paper's equal-shard model) or 'heterogeneous' "
        "(per-client RDP ledger over the realised partition; see docs/privacy_accounting.md)",
        flag="--accountant",
        choices=ACCOUNTANT_NAMES,
        omit_at_default=True,
    )
    epsilon_budget: Optional[float] = _field(
        None,
        "stop before the first round whose release would push epsilon past this budget "
        "(None disables; private methods only)",
        flag="--epsilon-budget",
        omit_at_default=True,
    )

    # ----- in-loop adversary (see docs/in_loop_attacks.md) ---------------
    attack: Optional[str] = _field(
        None,
        "in-loop adversary run during training (None disables; see docs/in_loop_attacks.md)",
        flag="--attack",
        choices=ATTACK_KINDS,
        omit_at_default=True,
    )
    attack_rounds: Optional[Union[str, Tuple[int, ...]]] = _field(
        None,
        "rounds to attack: explicit indices ('0 5 10') or one 'every_k' (None = every round)",
        flag="--attack-rounds",
        omit_at_default=True,
    )
    attack_clients: Optional[Tuple[int, ...]] = _field(
        None,
        "client ids to attack when they participate (None = every participant)",
        flag="--attack-clients",
        omit_at_default=True,
    )
    attack_seeds: int = _field(
        1,
        "dummy-seed restarts per attack, optimised as one batched reconstruction",
        flag="--attack-seeds",
        omit_at_default=True,
    )
    attack_iterations: int = _field(
        30,
        "attack optimiser iteration cap per in-loop attack (the offline harness default of "
        "300 is too slow to run inside every round)",
        flag="--attack-iterations",
        omit_at_default=True,
    )

    # ----- byzantine clients (see docs/in_loop_attacks.md) ----------------
    byzantine_clients: Optional[Tuple[int, ...]] = _field(
        None,
        "client ids that misbehave every round (None = every client is honest; requires "
        "--byzantine-mode)",
        flag="--byzantine-clients",
        omit_at_default=True,
    )
    byzantine_mode: Optional[str] = _field(
        None,
        "byzantine behaviour: 'scale' / 'sign_flip' corrupt the upload, 'label_flip' poisons "
        "the client's shard (requires --byzantine-clients)",
        flag="--byzantine-mode",
        choices=BYZANTINE_MODES,
        omit_at_default=True,
    )
    byzantine_scale: float = _field(
        10.0,
        "multiplier applied by --byzantine-mode scale",
        flag="--byzantine-scale",
        omit_at_default=True,
    )

    # ----- baselines / extensions --------------------------------------
    dssgd_share_fraction: float = _field(0.1, "fraction of parameters shared by the DSSGD baseline")
    compression_ratio: float = _field(
        0.0,
        "gradient-pruning compression ratio for communication-efficient FL (0 disables; "
        "0.3 keeps the largest 30 percent of update entries)",
    )
    aggregation: str = _field("fedsgd", "aggregation rule", choices=("fedsgd", "fedavg"))
    secure_aggregation: bool = _field(
        False,
        "mask uploads with pairwise secure aggregation (Bonawitz et al.): the server and the "
        "in-loop adversary only observe masked updates, the masks cancel in the aggregate "
        "(fedsgd only)",
        flag="--secure-aggregation",
        omit_at_default=True,
    )
    secure_mask_scale: float = _field(
        10.0,
        "stddev of the pairwise secure-aggregation masks (large = stronger hiding of each "
        "update; the aggregate is unaffected)",
        flag="--secure-mask-scale",
        omit_at_default=True,
    )

    # ----- execution -----------------------------------------------------
    executor: str = _field(
        "serial",
        "client-execution backend (fused stacks the cohort's first minibatches into one "
        "batched-graph replay)",
        flag="--executor",
        choices=EXECUTORS,
        resume_mutable=True,
    )
    num_workers: Optional[int] = _field(
        None,
        "worker-pool size for --executor multiprocessing (None = one per participating "
        "client, capped at the CPU count)",
        flag="--workers",
        resume_mutable=True,
    )
    client_state: str = _field(
        "auto",
        "client materialisation: 'eager' builds all K shards up front, 'lazy' derives only "
        "each round's cohort on demand, 'auto' picks lazy from 10k clients (numerics are "
        "identical; see docs/cross_device_scale.md)",
        flag="--client-state",
        choices=CLIENT_STATE_MODES,
        omit_at_default=True,
        resume_mutable=True,
    )
    worker_chunk_size: Optional[int] = _field(
        None,
        "clients per multiprocessing dispatch chunk; the global weights are serialised once "
        "per chunk (None = cohort/workers)",
        flag="--worker-chunk-size",
        omit_at_default=True,
        resume_mutable=True,
    )

    # ----- bookkeeping ---------------------------------------------------
    seed: int = _field(0, "global RNG seed (data generation, partitioning, sampling, noise)", flag="--seed")
    eval_every: int = _field(1, "evaluate validation accuracy every this many rounds", flag="--eval-every")

    def __post_init__(self) -> None:
        for config_field in fields(self):
            choices = config_field.metadata["choices"]
            value = getattr(self, config_field.name)
            if choices is None or value in choices or (value is None and config_field.default is None):
                continue
            raise ValueError(f"unknown {config_field.name} {value!r}; expected one of {choices}")
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must lie in (0, 1]")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.clipping_bound <= 0:
            raise ValueError("clipping_bound must be positive")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        # config files give a list; store the tuple a checkpoint round trip yields
        self.decay_clipping = tuple(self.decay_clipping)
        if not 0.0 <= self.compression_ratio < 1.0:
            raise ValueError("compression_ratio must lie in [0, 1)")
        if not 0.0 < self.dssgd_share_fraction <= 1.0:
            raise ValueError("dssgd_share_fraction must lie in (0, 1]")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.quantity_skew_exponent < 0:
            raise ValueError("quantity_skew_exponent must be non-negative")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must lie in [0, 1]")
        if self.straggler_deadline is not None and self.straggler_deadline <= 0:
            raise ValueError("straggler_deadline must be positive (or None to disable)")
        if self.availability_cycle is not None and not 0.0 < self.availability_cycle <= 1.0:
            raise ValueError("availability_cycle must lie in (0, 1] (or None to disable)")
        if self.availability_period < 1:
            raise ValueError("availability_period must be a positive number of rounds")
        if self.churn_rate is not None and not 0.0 < self.churn_rate < 1.0:
            raise ValueError("churn_rate must lie in (0, 1) (or None to disable)")
        if self.device_classes is not None:
            classes = tuple(float(m) for m in self.device_classes)
            if not classes or any(m <= 0 for m in classes):
                raise ValueError(
                    "device_classes must be a non-empty list of positive multipliers "
                    "(or None to disable)"
                )
            self.device_classes = classes
        if self.drift_rate is not None and not 0.0 < self.drift_rate <= 1.0:
            raise ValueError("drift_rate must lie in (0, 1] (or None to disable)")
        if self.epsilon_budget is not None and self.epsilon_budget <= 0:
            raise ValueError("epsilon_budget must be positive (or None to disable)")
        self.attack_rounds = normalize_attack_rounds(self.attack_rounds)
        if self.attack_clients is not None:
            clients = tuple(sorted({int(c) for c in self.attack_clients}))
            if not clients:
                raise ValueError("attack_clients must name at least one client (or be None)")
            if clients[0] < 0 or clients[-1] >= self.num_clients:
                raise ValueError(
                    f"attack_clients must lie in [0, {self.num_clients}), got {clients}"
                )
            self.attack_clients = clients
        if isinstance(self.attack_rounds, tuple) and self.attack_rounds[0] >= self.rounds:
            raise ValueError(
                f"attack_rounds {self.attack_rounds} schedules no attack within the "
                f"{self.rounds}-round horizon"
            )
        attack_fields = ("attack_rounds", "attack_clients", "attack_seeds", "attack_iterations")
        if self.attack is None and any(getattr(self, name) != _DEFAULTS[name] for name in attack_fields):
            raise ValueError("/".join(attack_fields) + " require an attack kind (set attack='leakage')")
        if self.attack_seeds < 1:
            raise ValueError("attack_seeds must be at least 1")
        if self.attack_iterations < 1:
            raise ValueError("attack_iterations must be at least 1")
        if (self.byzantine_mode is None) != (self.byzantine_clients is None):
            raise ValueError(
                "byzantine_mode and byzantine_clients must be set together "
                "(or both left None)"
            )
        if self.byzantine_clients is not None:
            byzantine = tuple(sorted({int(c) for c in self.byzantine_clients}))
            if not byzantine:
                raise ValueError("byzantine_clients must name at least one client (or be None)")
            if byzantine[0] < 0 or byzantine[-1] >= self.num_clients:
                raise ValueError(
                    f"byzantine_clients must lie in [0, {self.num_clients}), got {byzantine}"
                )
            self.byzantine_clients = byzantine
        if self.byzantine_scale <= 0:
            raise ValueError("byzantine_scale must be positive")
        if self.secure_mask_scale <= 0:
            raise ValueError("secure_mask_scale must be positive")
        if self.secure_aggregation and self.aggregation != "fedsgd":
            raise ValueError(
                "secure_aggregation masks shared *updates* and therefore requires "
                "aggregation='fedsgd'"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be at least 1 (or None for auto)")
        if self.worker_chunk_size is not None and self.worker_chunk_size < 1:
            raise ValueError("worker_chunk_size must be at least 1 (or None for auto)")
        # fail fast on typos in the dataset name
        get_dataset_spec(self.dataset)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def spec(self) -> DatasetSpec:
        """The Table-I specification of the configured dataset."""
        return get_dataset_spec(self.dataset)

    @property
    def clients_per_round(self) -> int:
        """Number of participating clients per round (``Kt``), at least one."""
        return max(1, int(round(self.participation_fraction * self.num_clients)))

    @property
    def effective_batch_size(self) -> int:
        """Local batch size, defaulting to the paper's per-dataset value."""
        return self.batch_size if self.batch_size is not None else self.spec.batch_size

    @property
    def effective_local_iterations(self) -> int:
        """Local iteration count, defaulting to the paper's per-dataset value."""
        return (
            self.local_iterations
            if self.local_iterations is not None
            else self.spec.local_iterations
        )

    @property
    def effective_data_per_client(self) -> int:
        """Per-client shard size, defaulting to the paper's per-dataset value."""
        return (
            self.data_per_client if self.data_per_client is not None else self.spec.data_per_client
        )

    @property
    def instance_sampling_rate(self) -> float:
        """Global example sampling rate ``q = B * Kt / N`` used by the accountant.

        Section V argues that local sampling with replacement across clients
        can be modelled as global sampling with rate ``B * Kt / N``.
        """
        total = self.num_train_examples
        return min(1.0, self.effective_batch_size * self.clients_per_round / max(total, 1))

    @property
    def client_sampling_rate(self) -> float:
        """Client-level sampling rate ``q2 = Kt / K`` used by Fed-SDP accounting."""
        return self.clients_per_round / self.num_clients

    @property
    def resolved_client_state(self) -> str:
        """``client_state`` with ``auto`` resolved against the population size."""
        if self.client_state != "auto":
            return self.client_state
        return "lazy" if self.num_clients >= LAZY_CLIENT_STATE_THRESHOLD else "eager"

    def with_overrides(self, **kwargs) -> "FederatedConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization (checkpoints, the CLI's YAML/JSON config files)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-serialisable dictionary of the config.

        Fields declared ``omit_at_default`` (those added after the checkpoint
        format stabilised) are dropped while at their defaults, so default
        runs keep emitting byte-identical checkpoints and golden fixtures, and
        checkpoints written before those fields existed still satisfy
        :meth:`from_dict` round-trip equality.
        """
        payload = asdict(self)
        for config_field in fields(self):
            if config_field.metadata["omit_at_default"] and payload[config_field.name] == config_field.default:
                del payload[config_field.name]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FederatedConfig":
        """Rebuild a config from :meth:`to_dict` output (or a YAML mapping)."""
        unknown = set(payload) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown FederatedConfig fields: {sorted(unknown)}")
        return cls(**{name: tuple(value) if isinstance(value, list) else value for name, value in payload.items()})


#: default value of every :class:`FederatedConfig` field
_DEFAULTS = {config_field.name: config_field.default for config_field in fields(FederatedConfig)}

#: config fields a resumed checkpoint may override (execution choices that do
#: not affect the numerics, plus ``rounds``, which may only grow)
RESUME_MUTABLE_FIELDS: Tuple[str, ...] = tuple(
    config_field.name for config_field in fields(FederatedConfig) if config_field.metadata["resume_mutable"]
)
