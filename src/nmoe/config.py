"""Run configuration: a single versioned JSON document.

One file fully determines a run; there is no environment-variable or
implicit configuration, so any result can be reproduced from its config
echo alone. Unknown keys are rejected rather than ignored, and keys that
only apply to one method (say, DP noise under the self-supervised
stage 1) are rejected under the other, so a config cannot silently
carry dead settings.

Each key is declared once, as one field line built by _key: its default,
its check and the selector values it applies under. The checks, the echo
and the rule on keys that do not apply are all derived from those lines.
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


def _key(default, check, *, only: tuple = ()):
    """A config key's one declaration: its default; the check that takes
    a value and the key's dotted name, raises ConfigError for a bad value
    and returns the value to store; and the values of its section's
    selector (the section's first field) under which it applies, where
    none means all of them."""
    return field(default=default, metadata={"check": check, "only": only})


def _positive_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value > 0, f"{name} must be a positive integer, "
             f"got {value!r}")
    return value


def _nonnegative_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= 0, f"{name} must be a nonnegative integer, "
             f"got {value!r}")
    return value


# a finite float: NaN, the infinities and an int past the float range
# fail the bound, where math.isfinite would raise OverflowError on the int;
# an int is stored as its float, so 1 and 1.0 load to one echo and hash
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


def _unit(interval: str):
    """The check of a number in interval, a part of [0, 1] written as
    "(0, 1]", "(0, 1)" or "[0, 1)"."""
    low = _positive_float if interval[0] == "(" else _nonnegative_float

    def check(value, name: str) -> float:
        v = low(value, name)
        _require(v < 1.0 or v == 1.0 and interval[-1] == "]",
                 f"{name} must lie in {interval}, got {value!r}")
        return v
    return check


def _choice(*values):
    """The check that a value is one of values."""
    names = [repr(v) for v in values]
    listed = " or ".join(names) if len(names) < 3 else \
        f"{', '.join(names[:-1])}, or {names[-1]}"

    def check(value, name: str):
        _require(value in values, f"{name} must be {listed}, got {value!r}")
        return value
    return check


def _optional_str(value, name: str) -> str | None:
    _require(value is None or isinstance(value, str),
             f"{name} must be a string or null, got {value!r}")
    return value


# a list in the document, stored as a tuple
def _list(value, name: str) -> tuple:
    _require(isinstance(value, (list, tuple)), f"{name} must be a list")
    return tuple(value)


def _widths(value, name: str) -> tuple[int, ...]:
    return tuple(_positive_int(width, f"{name}[{i}]")
                 for i, width in enumerate(_list(value, name)))


class _Keyed:
    """The base of every config dataclass: it runs each key's check under
    the key's dotted name and stores what the check returns. A check runs
    whatever the section's selector says; whether a document may set the
    key is _build_section's rule."""

    def __post_init__(self):
        prefix = next((f"{f.name}." for f in fields(RunConfig)
                       if f.default_factory is type(self)), "")
        for f in fields(self):
            if "check" in f.metadata:
                object.__setattr__(self, f.name, f.metadata["check"](
                    getattr(self, f.name), prefix + f.name))


@dataclass(frozen=True)
class DataConfig(_Keyed):
    """Synthetic benchmark generator or a CIFAR-10 binary file, plus the
    non-IID partition shape."""

    source: str = _key("synthetic", _choice("synthetic", "cifar10"))
    path: str | None = _key(None, _optional_str, only=("cifar10",))
    num_classes: int = _key(10, _positive_int, only=("synthetic",))
    dim: int = _key(16, _positive_int, only=("synthetic",))
    samples_per_class: int = _key(800, _positive_int, only=("synthetic",))
    cluster_spread: float = _key(0.3, _positive_float, only=("synthetic",))
    num_clients: int = _key(10, _positive_int)
    tau: float = _key(0.3, _unit("(0, 1]"))
    train_per_client: int = _key(500, _positive_int)
    test_per_client: int = _key(200, _positive_int)
    test_distribution: str = _key("matched", _choice("matched", "iid"))

    def __post_init__(self):
        # before the key checks, so that a cifar10 document whose path is
        # not a usable string is told that the path is required
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
        super().__post_init__()
        _require(self.num_clients <= self.num_classes,
                 f"data.num_clients={self.num_clients} exceeds the "
                 f"{self.num_classes} classes: each client needs a "
                 f"distinct dominant class")


@dataclass(frozen=True)
class ModelConfig(_Keyed):
    """Extractor and expert topologies plus the gate's logit noise."""

    fe_widths: tuple[int, ...] = _key((16, 32, 32), _widths)
    fe_activations: tuple[str, ...] = _key(("tanh", "tanh"), _list)
    expert_widths: tuple[int, ...] = _key((32, 10), _widths)
    expert_activations: tuple[str, ...] = _key(("identity",), _list)
    gate_noise_std: float = _key(0.01, _nonnegative_float)

    def __post_init__(self):
        super().__post_init__()
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
class Stage1Config(_Keyed):
    method: str = _key("fedsc", _choice("fedce", "fedsc"))
    rounds: int = _key(30, _positive_int)
    local_epochs: int = _key(2, _positive_int)
    lr: float = _key(0.05, _positive_float)
    dp_noise_std: float = _key(0.05, _nonnegative_float, only=("fedsc",))
    aug_noise_std: float = _key(0.1, _nonnegative_float, only=("fedsc",))
    aug_mask_prob: float = _key(0.2, _unit("[0, 1)"), only=("fedsc",))

    def aug_spec(self) -> AugmentSpec:
        return AugmentSpec(noise_std=self.aug_noise_std,
                           mask_prob=self.aug_mask_prob)


@dataclass(frozen=True)
class Stage2Config(_Keyed):
    epochs: int = _key(30, _positive_int)
    lr: float = _key(0.05, _positive_float)


@dataclass(frozen=True)
class Stage3Config(_Keyed):
    method: str = _key("fedgate", _choice("rangate", "rollgate", "fedgate"))
    rounds: int = _key(20, _positive_int, only=("fedgate",))
    local_epochs: int = _key(2, _positive_int, only=("fedgate",))
    lr: float = _key(0.05, _positive_float, only=("rollgate", "fedgate"))
    lambda_load: float = _key(0.01, _nonnegative_float, only=("fedgate",))
    client_fraction: float = _key(0.7, _unit("(0, 1]"), only=("fedgate",))
    grad_max_norm: float = _key(1.0, _positive_float, only=("fedgate",))
    pseudo_ratio: float = _key(0.7, _unit("(0, 1)"), only=("rollgate",))
    epochs_per_client: int = _key(2, _positive_int, only=("rollgate",))
    max_passes: int = _key(20, _positive_int, only=("rollgate",))


@dataclass(frozen=True)
class BaselineConfig(_Keyed):
    """Budget for the centralized mixture and the per-client classifier;
    the federated-classifier baseline reuses the stage-1 schedule. The
    centralized mixture also trains with stage3.lambda_load and
    stage3.grad_max_norm, which a document may set only under fedgate:
    under rangate or rollgate it takes their defaults."""

    epochs: int = _key(30, _positive_int)
    lr: float = _key(0.05, _positive_float)


@dataclass(frozen=True)
class RunConfig(_Keyed):
    """Everything a run depends on. The hash excludes output_dir, so the
    same experiment written to two places is recognized as one."""

    seed: int = _key(0, _nonnegative_int)
    k: int = _key(1, _positive_int)
    batch_size: int = _key(64, _positive_int)
    bytes_per_scalar: int = _key(4, _positive_int)
    output_dir: str | None = _key(None, _optional_str)
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    stage1: Stage1Config = field(default_factory=Stage1Config)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    stage3: Stage3Config = field(default_factory=Stage3Config)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)

    def __post_init__(self):
        super().__post_init__()
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
                idle = {k for keys in _idle_groups(value).values()
                        for k in keys}
                value = {g.name: list(v) if isinstance(
                    v := getattr(value, g.name), tuple) else v
                    for g in fields(value) if g.name not in idle}
            echo[f.name] = value
        return echo


def _is_section(f) -> bool:
    return f.default_factory is not MISSING


def _idle_groups(section) -> dict:
    """The keys of a built section that do not apply under its selector's
    value, grouped by the selector values they do apply under."""
    selected = getattr(section, fields(section)[0].name)
    groups = {}
    for f in fields(section):
        only = f.metadata["only"]
        if only and selected not in only:
            groups.setdefault(only, []).append(f.name)
    return groups


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
    selector = fields(cls)[0].name
    for values, keys in _idle_groups(built).items():
        present = sorted(k for k in keys if k in obj)
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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: "
                          f"{exc.strerror or exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    only = {f.name: f.metadata["only"] for f in fields(getattr(config, name))}
    # the section's first field is its selector
    if leaf == next(iter(only)):
        doc[name] = {k: v for k, v in doc[name].items()
                     if not only[k] or value in only[k]}
    doc[name][leaf] = value
    return config_from_dict(doc)


def config_hash(config: RunConfig) -> str:
    """Identity of the experiment: every field except where the results
    are written."""
    echo = config.to_dict()
    del echo["output_dir"]
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
