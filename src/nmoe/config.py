"""Run configuration: a single versioned JSON document.

One file fully determines a run; there is no environment-variable or
implicit configuration, so any result can be reproduced from its config
echo alone. Unknown keys are rejected rather than ignored, and keys that
only apply to one method (say, DP noise under the self-supervised
stage 1) are rejected under the other, so a config cannot silently
carry dead settings.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .datasets import AugmentSpec
from .errors import ConfigError, FormatError
from .numerics import MlpSpec, activation_id

CONFIG_VERSION = 1

CIFAR10_DIM = 3072
CIFAR10_CLASSES = 10


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _positive_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value > 0, f"{name} must be a positive integer, "
             f"got {value!r}")
    return value


# a finite float: NaN, the infinities and an int past the float range
# fail the bound, where math.isfinite would raise OverflowError on the int
def _positive_float(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max and value > 0,
             f"{name} must be a positive number, got {value!r}")
    return float(value)


def _nonnegative_float(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max and value >= 0,
             f"{name} must be a nonnegative number, got {value!r}")
    return float(value)


def _store_floats(section) -> None:
    """Store an int given for a float field as that float, so 1 and 1.0
    load to one echo and one hash. A key idle under the section's
    selector is not checked until after this, so it may hold any int."""
    for f in fields(section):
        value = getattr(section, f.name)
        if type(f.default) is float and type(value) is int \
                and abs(value) <= sys.float_info.max:
            object.__setattr__(section, f.name, float(value))


def _fraction(value, name: str, *, closed_top: bool) -> float:
    v = _positive_float(value, name)
    top_ok = v <= 1.0 if closed_top else v < 1.0
    _require(top_ok, f"{name} must lie in "
             f"(0, 1{']' if closed_top else ')'}, got {value!r}")
    return v


@dataclass(frozen=True)
class DataConfig:
    """Synthetic benchmark generator or a CIFAR-10 binary file, plus the
    non-IID partition shape."""

    source: str = "synthetic"
    path: str | None = None
    num_classes: int = 10
    dim: int = 16
    samples_per_class: int = 800
    cluster_spread: float = 0.3
    num_clients: int = 10
    tau: float = 0.3
    train_per_client: int = 500
    test_per_client: int = 200
    test_distribution: str = "matched"

    def __post_init__(self):
        _require(self.source in ("synthetic", "cifar10"),
                 f"data.source must be 'synthetic' or 'cifar10', "
                 f"got {self.source!r}")
        if self.source == "cifar10":
            # "" is the working directory to Path, which always exists
            _require(isinstance(self.path, str) and self.path != "",
                     "data.path is required as a string naming a file or "
                     "directory when data.source is 'cifar10', got "
                     f"{self.path!r}")
            if not Path(self.path).exists():
                raise ConfigError(
                    f"data.path does not exist: {self.path}")
            _require(self.num_classes == CIFAR10_CLASSES,
                     f"CIFAR-10 has {CIFAR10_CLASSES} classes, "
                     f"got num_classes={self.num_classes}")
            _require(self.dim == CIFAR10_DIM,
                     f"CIFAR-10 samples have {CIFAR10_DIM} features, "
                     f"got dim={self.dim}")
        else:
            _require(self.path is None,
                     "data.path only applies to the 'cifar10' source, but "
                     f"data.source is {self.source!r}")
            _positive_int(self.num_classes, "data.num_classes")
            _positive_int(self.dim, "data.dim")
            _positive_int(self.samples_per_class, "data.samples_per_class")
            _positive_float(self.cluster_spread, "data.cluster_spread")
        _positive_int(self.num_clients, "data.num_clients")
        _fraction(self.tau, "data.tau", closed_top=True)
        _positive_int(self.train_per_client, "data.train_per_client")
        _positive_int(self.test_per_client, "data.test_per_client")
        _require(self.test_distribution in ("matched", "iid"),
                 f"data.test_distribution must be 'matched' or 'iid', "
                 f"got {self.test_distribution!r}")
        _store_floats(self)


@dataclass(frozen=True)
class ModelConfig:
    """Extractor and expert topologies plus the gate's logit noise."""

    fe_widths: tuple[int, ...] = (16, 32, 32)
    fe_activations: tuple[str, ...] = ("tanh", "tanh")
    expert_widths: tuple[int, ...] = (32, 10)
    expert_activations: tuple[str, ...] = ("identity",)
    gate_noise_std: float = 0.01

    def __post_init__(self):
        # every tuple field is a list in the document
        for f in fields(self):
            if isinstance(f.default, tuple):
                value = getattr(self, f.name)
                _require(isinstance(value, (list, tuple)),
                         f"model.{f.name} must be a list")
                object.__setattr__(self, f.name, tuple(value))
        for key in ("fe_widths", "expert_widths"):
            for i, width in enumerate(getattr(self, key)):
                _positive_int(width, f"model.{key}[{i}]")
        _nonnegative_float(self.gate_noise_std, "model.gate_noise_std")
        _store_floats(self)
        self.fe_spec()
        self.expert_spec()

    def fe_spec(self) -> MlpSpec:
        return MlpSpec(self.fe_widths,
                       tuple(activation_id(a) for a in self.fe_activations))

    def expert_spec(self) -> MlpSpec:
        return MlpSpec(self.expert_widths,
                       tuple(activation_id(a)
                             for a in self.expert_activations))

    @property
    def latent_dim(self) -> int:
        return self.fe_widths[-1]


@dataclass(frozen=True)
class Stage1Config:
    method: str = "fedsc"
    rounds: int = 30
    local_epochs: int = 2
    lr: float = 0.05
    dp_noise_std: float = 0.05
    aug_noise_std: float = 0.1
    aug_mask_prob: float = 0.2

    def __post_init__(self):
        _require(self.method in ("fedce", "fedsc"),
                 f"stage1.method must be 'fedce' or 'fedsc', "
                 f"got {self.method!r}")
        _positive_int(self.rounds, "stage1.rounds")
        _positive_int(self.local_epochs, "stage1.local_epochs")
        _positive_float(self.lr, "stage1.lr")
        _nonnegative_float(self.dp_noise_std, "stage1.dp_noise_std")
        _nonnegative_float(self.aug_noise_std, "stage1.aug_noise_std")
        _require(_nonnegative_float(self.aug_mask_prob,
                                    "stage1.aug_mask_prob") < 1.0,
                 f"stage1.aug_mask_prob must lie in [0, 1), "
                 f"got {self.aug_mask_prob!r}")
        _store_floats(self)

    def aug_spec(self) -> AugmentSpec:
        return AugmentSpec(noise_std=self.aug_noise_std,
                           mask_prob=self.aug_mask_prob)


@dataclass(frozen=True)
class Stage2Config:
    epochs: int = 30
    lr: float = 0.05

    def __post_init__(self):
        _positive_int(self.epochs, "stage2.epochs")
        _positive_float(self.lr, "stage2.lr")
        _store_floats(self)


@dataclass(frozen=True)
class Stage3Config:
    method: str = "fedgate"
    rounds: int = 20
    local_epochs: int = 2
    lr: float = 0.05
    lambda_load: float = 0.01
    client_fraction: float = 0.7
    grad_max_norm: float = 1.0
    pseudo_ratio: float = 0.7
    epochs_per_client: int = 2
    max_passes: int = 20

    def __post_init__(self):
        _require(self.method in ("rangate", "rollgate", "fedgate"),
                 f"stage3.method must be 'rangate', 'rollgate', or "
                 f"'fedgate', got {self.method!r}")
        _positive_int(self.rounds, "stage3.rounds")
        _positive_int(self.local_epochs, "stage3.local_epochs")
        _positive_float(self.lr, "stage3.lr")
        _nonnegative_float(self.lambda_load, "stage3.lambda_load")
        _fraction(self.client_fraction, "stage3.client_fraction",
                  closed_top=True)
        _positive_float(self.grad_max_norm, "stage3.grad_max_norm")
        _fraction(self.pseudo_ratio, "stage3.pseudo_ratio",
                  closed_top=False)
        _positive_int(self.epochs_per_client, "stage3.epochs_per_client")
        _positive_int(self.max_passes, "stage3.max_passes")
        _store_floats(self)


@dataclass(frozen=True)
class BaselineConfig:
    """Budget for the centralized mixture and the per-client classifier;
    the federated-classifier baseline reuses the stage-1 schedule."""

    epochs: int = 30
    lr: float = 0.05

    def __post_init__(self):
        _positive_int(self.epochs, "baselines.epochs")
        _positive_float(self.lr, "baselines.lr")
        _store_floats(self)


# Each section whose keys depend on a selector: the selector, then each
# group of keys that applies only under some of the selector's values,
# as (values, keys). Every other key of the section applies under every
# value. The echo omits an idle group and a document may not set one.
_SELECTORS = {
    "data": ("source", (
        (("synthetic",), ("dim", "num_classes", "samples_per_class",
                          "cluster_spread")),
        (("cifar10",), ("path",)),
    )),
    "stage1": ("method", (
        (("fedsc",), ("dp_noise_std", "aug_noise_std", "aug_mask_prob")),
    )),
    "stage3": ("method", (
        (("fedgate",), ("rounds", "local_epochs", "lambda_load",
                        "client_fraction", "grad_max_norm")),
        (("rollgate",), ("pseudo_ratio", "epochs_per_client", "max_passes")),
        (("rollgate", "fedgate"), ("lr",)),
    )),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on. The hash excludes output_dir, so the
    same experiment written to two places is recognized as one."""

    seed: int = 0
    k: int = 1
    batch_size: int = 64
    bytes_per_scalar: int = 4
    output_dir: str | None = None
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    stage1: Stage1Config = field(default_factory=Stage1Config)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    stage3: Stage3Config = field(default_factory=Stage3Config)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)

    def __post_init__(self):
        _require(isinstance(self.seed, int) and not isinstance(
            self.seed, bool) and self.seed >= 0,
            f"seed must be a nonnegative integer, got {self.seed!r}")
        _positive_int(self.k, "k")
        _positive_int(self.batch_size, "batch_size")
        _positive_int(self.bytes_per_scalar, "bytes_per_scalar")
        _require(self.output_dir is None or isinstance(self.output_dir, str),
                 f"output_dir must be a string or null, "
                 f"got {self.output_dir!r}")
        _require(self.k <= self.data.num_clients,
                 f"k={self.k} selects more experts than the "
                 f"{self.data.num_clients} clients provide")
        _require(self.model.fe_widths[0] == self.data.dim,
                 f"extractor input width {self.model.fe_widths[0]} does "
                 f"not match the data dimension {self.data.dim}")
        _require(self.model.expert_widths[0] == self.model.latent_dim,
                 f"expert input width {self.model.expert_widths[0]} does "
                 f"not match the latent width {self.model.latent_dim}")
        _require(self.model.expert_widths[-1] == self.data.num_classes,
                 f"expert output width {self.model.expert_widths[-1]} does "
                 f"not match the {self.data.num_classes} classes")
        _require(not (self.stage3.method == "rollgate"
                      and self.data.num_clients < 2),
                 "stage3.method 'rollgate' needs at least two clients")

    def to_dict(self) -> dict:
        """JSON-ready echo. Keys that do not apply to the selected
        methods are omitted, so the echo always reloads cleanly."""
        echo = {"config_version": CONFIG_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if _is_section(f):
                idle = {k for _, keys in _idle_groups(f.name, value)
                        for k in keys}
                value = {g.name: list(v) if isinstance(
                    v := getattr(value, g.name), tuple) else v
                    for g in fields(value) if g.name not in idle}
            echo[f.name] = value
        return echo


def _is_section(f) -> bool:
    return f.default_factory is not MISSING


def _idle_groups(name: str, section) -> list:
    """The (values, keys) groups of a built section that do not apply
    under its selector's value."""
    if name not in _SELECTORS:
        return []
    selector, groups = _SELECTORS[name]
    return [(values, keys) for values, keys in groups
            if getattr(section, selector) not in values]


def _build_section(cls, obj, name: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {name!r} must be an object, "
                          f"got {type(obj).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(obj) - allowed)
    _require(not unknown,
             f"unknown key{'s' if len(unknown) > 1 else ''} in "
             f"{name!r}: {', '.join(unknown)}")
    kwargs = obj
    if name == "data" and obj.get("source") == "cifar10":
        kwargs = dict(obj, num_classes=CIFAR10_CLASSES, dim=CIFAR10_DIM)
    # building first checks the selector's value; the keys the document
    # itself sets are then checked against it
    built = cls(**kwargs)
    for values, keys in _idle_groups(name, built):
        present = sorted(k for k in keys if k in obj)
        selector = _SELECTORS[name][0]
        _require(not present,
                 f"{name}.{', '.join(present)} only appl"
                 f"{'ies' if len(present) == 1 else 'y'} to the "
                 f"{' and '.join(repr(v) for v in values)} {selector}"
                 f"{'s' if len(values) > 1 else ''}, but {name}.{selector} "
                 f"is {getattr(built, selector)!r}")
    return built


def config_from_dict(obj: dict) -> RunConfig:
    """Strictly validate a parsed config document."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be an object, "
                          f"got {type(obj).__name__}")
    version = obj.get("config_version")
    _require(version == CONFIG_VERSION,
             f"config_version must be {CONFIG_VERSION}, got {version!r}")
    top = {f.name: f for f in fields(RunConfig)}
    unknown = sorted(set(obj) - set(top) - {"config_version"})
    _require(not unknown,
             f"unknown top-level key{'s' if len(unknown) > 1 else ''}: "
             f"{', '.join(unknown)}")
    kwargs = {}
    for name, f in top.items():
        if name in obj:
            kwargs[name] = _build_section(f.default_factory, obj[name], name) \
                if _is_section(f) else obj[name]
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"config {path} is not valid JSON: {exc}") \
            from exc
    return config_from_dict(obj)


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")


def config_keys() -> list[str]:
    """Every dotted leaf key a document may set, such as 'k', 'data.tau'
    or 'stage3.method'; output_dir names no part of the experiment."""
    top = [f for f in fields(RunConfig) if f.name != "output_dir"]
    return [f.name for f in top if not _is_section(f)] + [
        f"{f.name}.{g.name}" for f in top if _is_section(f)
        for g in fields(f.default_factory)]


def with_key(config: RunConfig, key: str, value) -> RunConfig:
    """The config with one key of config_keys() set and output_dir null,
    loaded from its echo so that every check of a document applies.
    Setting a selector drops the keys that apply only under other values
    of it."""
    _require(key in config_keys(), f"unknown config key {key!r}")
    doc = dict(config.to_dict(), output_dir=None)
    name, _, leaf = key.rpartition(".")
    if not name:
        return config_from_dict(dict(doc, **{leaf: value}))
    selector, groups = _SELECTORS.get(name, (None, ()))
    idle = {k for values, keys in groups
            if leaf == selector and value not in values for k in keys}
    doc[name] = {k: v for k, v in doc[name].items() if k not in idle}
    doc[name][leaf] = value
    return config_from_dict(doc)


def config_hash(config: RunConfig) -> str:
    """Identity of the experiment: every field except where the results
    are written."""
    echo = config.to_dict()
    del echo["output_dir"]
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
