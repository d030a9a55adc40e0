import copy
import itertools
import json
import math
import re
from dataclasses import MISSING, fields, is_dataclass

import pytest

from nmoe.config import (CIFAR10_CLASSES, CIFAR10_DIM, CONFIG_VERSION,
                         RunConfig, config_from_dict, config_hash,
                         config_keys, load_config, save_config, with_key)
from nmoe.datasets import Dataset, save_cifar10
from nmoe.errors import ConfigError, FormatError


def minimal() -> dict:
    return {"config_version": CONFIG_VERSION}


def test_defaults_valid():
    cfg = RunConfig()
    assert cfg.stage1.method == "fedsc"
    assert cfg.stage3.method == "fedgate"
    assert cfg.data.num_clients == 10
    assert cfg.k == 1


def test_empty_document_yields_defaults():
    assert config_from_dict(minimal()) == RunConfig()


def test_echo_round_trip_identity():
    cfg = RunConfig()
    assert config_from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("stage1", ["fedce", "fedsc"])
@pytest.mark.parametrize("stage3", ["rangate", "rollgate", "fedgate"])
def test_echo_round_trip_all_methods(stage1, stage3):
    doc = minimal()
    doc["stage1"] = {"method": stage1}
    doc["stage3"] = {"method": stage3}
    cfg = config_from_dict(doc)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_echo_omits_inapplicable_keys():
    doc = minimal()
    doc["stage1"] = {"method": "fedce"}
    doc["stage3"] = {"method": "rangate"}
    echo = config_from_dict(doc).to_dict()
    assert "aug_noise_std" not in echo["stage1"]
    assert "dp_noise_std" not in echo["stage1"]
    assert set(echo["stage3"]) == {"method"}


def test_file_round_trip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "nope.json")


def test_invalid_json_is_format_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_config(path)


def test_wrong_version_rejected():
    with pytest.raises(ConfigError, match="config_version"):
        config_from_dict({"config_version": CONFIG_VERSION + 1})


def test_missing_version_rejected():
    with pytest.raises(ConfigError, match="config_version"):
        config_from_dict({})


def test_unknown_top_level_key_rejected():
    doc = minimal()
    doc["stage4"] = {}
    with pytest.raises(ConfigError, match="unknown top-level key: stage4"):
        config_from_dict(doc)


def test_unknown_section_key_rejected():
    doc = minimal()
    doc["stage2"] = {"momentum": 0.9}
    with pytest.raises(ConfigError, match="unknown key in 'stage2'"):
        config_from_dict(doc)


def test_k_larger_than_clients_rejected():
    doc = minimal()
    doc["k"] = 11
    with pytest.raises(ConfigError, match="k=11 selects more experts"):
        config_from_dict(doc)


def test_extractor_input_must_match_data_dim():
    doc = minimal()
    doc["data"] = {"dim": 8}
    with pytest.raises(ConfigError, match="does not match the data"):
        config_from_dict(doc)


def test_expert_chain_must_match_latent_and_classes():
    doc = minimal()
    doc["model"] = {"expert_widths": [16, 10]}
    with pytest.raises(ConfigError, match="latent width"):
        config_from_dict(doc)
    doc["model"] = {"expert_widths": [32, 7]}
    with pytest.raises(ConfigError, match="10 classes"):
        config_from_dict(doc)


def test_more_clients_than_classes_rejected(tmp_path):
    # each client needs a dominant class of its own, also the 10 classes
    # a cifar10 source injects
    doc = minimal()
    doc["data"] = {"num_clients": 12}
    with pytest.raises(ConfigError, match=r"^data\.num_clients=12 exceeds "
                       r"the 10 classes"):
        config_from_dict(doc)
    doc["data"] = {"source": "cifar10", "path": cifar_file(tmp_path),
                   "num_clients": 11}
    doc["model"] = {"fe_widths": [CIFAR10_DIM, 32, 32]}
    with pytest.raises(ConfigError, match="num_clients=11 exceeds the 10"):
        config_from_dict(doc)
    doc["data"]["num_clients"] = 10
    assert config_from_dict(doc).data.num_clients == 10
    doc = minimal()
    doc["data"] = {"num_classes": 12, "num_clients": 12}
    doc["model"] = {"expert_widths": [32, 12]}
    assert config_from_dict(doc).data.num_clients == 12


def test_rollgate_needs_two_clients():
    doc = minimal()
    doc["data"] = {"num_clients": 1}
    doc["k"] = 1
    doc["stage3"] = {"method": "rollgate"}
    with pytest.raises(ConfigError, match="at least two clients"):
        config_from_dict(doc)


def test_bad_methods_rejected():
    doc = minimal()
    doc["stage1"] = {"method": "fedprox"}
    with pytest.raises(ConfigError, match="stage1.method"):
        config_from_dict(doc)
    doc = minimal()
    doc["stage3"] = {"method": "softgate"}
    with pytest.raises(ConfigError, match="stage3.method"):
        config_from_dict(doc)


def test_method_conditional_keys_rejected():
    doc = minimal()
    doc["stage1"] = {"method": "fedce", "dp_noise_std": 0.1}
    with pytest.raises(ConfigError, match="only applies to the 'fedsc'"):
        config_from_dict(doc)
    doc = minimal()
    doc["stage3"] = {"method": "rangate", "rounds": 5}
    with pytest.raises(ConfigError, match="rangate"):
        config_from_dict(doc)
    doc = minimal()
    doc["stage3"] = {"method": "fedgate", "pseudo_ratio": 0.5}
    with pytest.raises(ConfigError, match="rollgate"):
        config_from_dict(doc)
    doc = minimal()
    doc["stage3"] = {"method": "rollgate", "lambda_load": 0.1}
    with pytest.raises(ConfigError, match="fedgate"):
        config_from_dict(doc)


@pytest.mark.parametrize("method", ["rangate", "rollgate"])
def test_misspelled_stage3_key_is_unknown(method):
    # a key no method knows is reported as unknown, not as inapplicable
    doc = minimal()
    doc["stage3"] = {"method": method, "max_pases": 3}
    with pytest.raises(ConfigError,
                       match="unknown key in 'stage3': max_pases"):
        config_from_dict(doc)


@pytest.mark.parametrize("section,doc", [
    ("data.source", {"source": "cifar", "dim": 16}),
    ("stage1.method", {"method": "fedprox", "dp_noise_std": 0.1}),
    ("stage3.method", {"method": "softgate", "rounds": 5}),
])
def test_misspelled_selector_is_reported_before_its_keys(section, doc):
    # a bad selector value is the error, not the keys it would idle
    body = minimal()
    body[section.split(".")[0]] = doc
    with pytest.raises(ConfigError, match=rf"^{section} must be "):
        config_from_dict(body)


def test_rangate_rejects_learning_rate():
    doc = minimal()
    doc["stage3"] = {"method": "rangate", "lr": 0.1}
    with pytest.raises(ConfigError, match="stage3.lr only applies to the "
                       "'rollgate' and 'fedgate' methods, but "
                       "stage3.method is 'rangate'"):
        config_from_dict(doc)


# (section, key, value, message): the section is None for a top-level
# key. These are the only checks of these values: the trainers, the data
# builders and the cost model take them as given.
BAD_VALUES = [
    (None, "seed", -1, "nonnegative integer"),
    (None, "k", 0, "positive integer"),
    (None, "batch_size", 0, "positive integer"),
    (None, "bytes_per_scalar", 0, "positive integer"),
    ("data", "num_classes", 0, "positive integer"),
    ("data", "dim", 0, "positive integer"),
    ("data", "samples_per_class", 0, "positive integer"),
    ("data", "tau", 0.0, "tau"),
    ("data", "tau", 1.5, "tau"),
    ("data", "num_clients", 0, "positive integer"),
    ("data", "train_per_client", 0, "positive integer"),
    ("data", "test_per_client", 0, "positive integer"),
    ("data", "cluster_spread", -1.0, "positive number"),
    ("data", "test_distribution", "shifted", "matched"),
    ("model", "gate_noise_std", -1.0, "nonnegative number"),
    ("stage1", "rounds", 0, "positive integer"),
    ("stage1", "local_epochs", 0, "positive integer"),
    ("stage1", "lr", 0.0, "positive number"),
    ("stage1", "dp_noise_std", -0.1, "nonnegative number"),
    ("stage1", "aug_noise_std", -0.1, "nonnegative number"),
    ("stage1", "aug_mask_prob", 1.0, "aug_mask_prob"),
    ("stage1", "aug_mask_prob", False, "aug_mask_prob"),
    ("stage1", "aug_mask_prob", "x", "aug_mask_prob"),
    ("stage2", "epochs", 0, "positive integer"),
    ("stage2", "lr", 0.0, "positive number"),
    ("stage3", "rounds", 0, "positive integer"),
    ("stage3", "local_epochs", 0, "positive integer"),
    ("stage3", "lr", 0.0, "positive number"),
    ("stage3", "grad_max_norm", 0.0, "positive number"),
    ("stage3", "client_fraction", 0.0, "client_fraction"),
    ("stage3", "client_fraction", 1.5, "lie in (0, 1]"),
    ("stage3", "lambda_load", float("nan"), "lambda_load"),
    ("stage3", "max_passes", 0, "positive integer"),
    ("stage3", "epochs_per_client", 0, "positive integer"),
    ("stage3", "pseudo_ratio", 0.0, "positive number"),
    ("stage3", "pseudo_ratio", 1.0, "lie in (0, 1)"),
    ("baselines", "epochs", 0, "positive integer"),
    ("baselines", "lr", 0.0, "positive number"),
]


@pytest.mark.parametrize("section,key,value,message", BAD_VALUES)
def test_bad_values_rejected(section, key, value, message):
    # the key is set under the first selector value it applies to, so
    # that its own check raises, not the rule on keys that do not apply
    doc = minimal()
    if section is None:
        doc[key] = value
    else:
        keys = fields(type(getattr(RunConfig(), section)))
        only = next(f for f in keys if f.name == key).metadata["only"]
        doc[section] = {keys[0].name: only[0]} if only else {}
        doc[section][key] = value
    name = key if section is None else f"{section}.{key}"
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must ") \
            as got:
        config_from_dict(doc)
    assert message in str(got.value)


@pytest.mark.parametrize("key,widths", [("fe_widths", [16, 32, 32]),
                                        ("expert_widths", [32, 10])])
@pytest.mark.parametrize("value", [10.0, "a", True, 0])
def test_layer_widths_must_be_positive_integers(key, widths, value):
    # 10.0 passes the width-chain checks (10.0 == 10) and True would be
    # read as width 1, so each entry is checked on its own
    doc = minimal()
    doc["model"] = {key: widths[:1] + [value] + widths[2:]}
    message = rf"model\.{key}\[1\] must be a positive integer"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(doc)


@pytest.mark.parametrize("key,acts", [("fe_activations", ["tanh", "tanh"]),
                                      ("expert_activations", ["identity"])])
@pytest.mark.parametrize("value", [["tanh"], {}])
def test_unhashable_activation_is_a_config_error(key, acts, value):
    doc = minimal()
    doc["model"] = {key: [value] + acts[1:]}
    with pytest.raises(ConfigError, match="unknown activation"):
        config_from_dict(doc)


def test_bool_is_not_an_integer():
    doc = minimal()
    doc["k"] = True
    with pytest.raises(ConfigError, match="positive integer"):
        config_from_dict(doc)


def test_synthetic_forbids_path():
    doc = minimal()
    doc["data"] = {"path": "/tmp/cifar.bin"}
    with pytest.raises(ConfigError, match="only applies"):
        config_from_dict(doc)


def test_cifar_requires_existing_path(tmp_path):
    doc = minimal()
    doc["data"] = {"source": "cifar10"}
    with pytest.raises(ConfigError, match="path is required"):
        config_from_dict(doc)
    for path in (5, ""):
        doc["data"] = {"source": "cifar10", "path": path}
        with pytest.raises(ConfigError, match="path is required as a string"):
            config_from_dict(doc)
    doc["data"] = {"source": "cifar10", "path": str(tmp_path / "missing")}
    with pytest.raises(ConfigError, match="does not exist"):
        config_from_dict(doc)


def cifar_file(tmp_path) -> str:
    import numpy as np
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (20, CIFAR10_DIM)).astype(np.float64)
    data = Dataset(pixels / 255.0,
                   rng.integers(0, CIFAR10_CLASSES, 20), CIFAR10_CLASSES)
    path = tmp_path / "batch.bin"
    save_cifar10(data, path)
    return str(path)


def test_cifar_injects_dimensions(tmp_path):
    doc = minimal()
    doc["data"] = {"source": "cifar10", "path": cifar_file(tmp_path)}
    doc["model"] = {"fe_widths": [CIFAR10_DIM, 32],
                    "fe_activations": ["tanh"]}
    cfg = config_from_dict(doc)
    assert cfg.data.dim == CIFAR10_DIM
    assert cfg.data.num_classes == CIFAR10_CLASSES
    echo = cfg.to_dict()
    assert "dim" not in echo["data"]
    assert config_from_dict(echo) == cfg


def test_cifar_rejects_synthetic_knobs(tmp_path):
    doc = minimal()
    doc["data"] = {"source": "cifar10", "path": cifar_file(tmp_path),
                   "cluster_spread": 0.5}
    with pytest.raises(ConfigError, match="synthetic"):
        config_from_dict(doc)


def test_cifar_rejection_names_the_source(tmp_path):
    doc = minimal()
    doc["data"] = {"source": "cifar10", "path": cifar_file(tmp_path),
                   "dim": CIFAR10_DIM}
    with pytest.raises(ConfigError, match=r"^data\.dim only applies to the "
                       r"'synthetic' source, but data\.source is 'cifar10'$"):
        config_from_dict(doc)


@pytest.mark.parametrize("source", ["synthetic", "cifar10"])
@pytest.mark.parametrize("stage1", ["fedce", "fedsc"])
@pytest.mark.parametrize("stage3", ["rangate", "rollgate", "fedgate"])
def test_echo_omits_exactly_the_keys_a_document_may_not_set(
        tmp_path, source, stage1, stage3):
    selectors = {"data": "source", "stage1": "method", "stage3": "method"}
    doc = minimal()
    doc["stage1"] = {"method": stage1}
    doc["stage3"] = {"method": stage3}
    if source == "cifar10":
        doc["data"] = {"source": source, "path": cifar_file(tmp_path)}
        doc["model"] = {"fe_widths": [CIFAR10_DIM, 32],
                        "fe_activations": ["tanh"]}
    cfg = config_from_dict(doc)
    echo = cfg.to_dict()
    assert config_from_dict(echo) == cfg
    for f in fields(cfg):
        if not isinstance(echo[f.name], dict):
            continue
        section = getattr(cfg, f.name)
        omitted = [g.name for g in fields(section)
                   if g.name not in echo[f.name]]
        if f.name not in selectors:
            assert omitted == []
            continue
        selector = selectors[f.name]
        for key in omitted:
            written = copy.deepcopy(echo)
            written[f.name][key] = getattr(section, key)
            message = (rf"^{f.name}\.{key} only applies to .+, but "
                       rf"{f.name}\.{selector} is "
                       rf"{re.escape(repr(getattr(section, selector)))}$")
            with pytest.raises(ConfigError, match=message):
                config_from_dict(written)


def test_every_key_declares_its_check_and_a_selector_that_takes_its_only():
    # a key added without a check fails here, and so does an `only` value
    # its section's selector (the first field) refuses, such as a
    # misspelled method, which would leave the key idle under every value
    for f in fields(RunConfig):
        if f.default_factory is MISSING:
            keys, selector = [f], None
        else:
            keys = fields(f.default_factory)
            selector = keys[0]
            assert selector.metadata.get("only") == (), f.name
        for key in keys:
            check, only = key.metadata.get("check"), key.metadata.get("only")
            assert callable(check), key.name
            assert only == () or selector is not None, key.name
            stored = check(key.default, key.name)
            assert stored == key.default, key.name
            assert type(stored) is type(key.default), key.name
            for value in only:
                selector.metadata["check"](value, selector.name)


def test_hash_ignores_output_dir():
    a = RunConfig()
    echo = a.to_dict()
    echo["output_dir"] = "/somewhere/else"
    b = config_from_dict(echo)
    assert config_hash(a) == config_hash(b)


def test_hash_changes_with_any_field():
    base = config_hash(RunConfig())
    for mutate in ({"seed": 1}, {"k": 2}, {"batch_size": 32},
                   {"data": {"tau": 0.2}}, {"stage1": {"lr": 0.01}},
                   {"stage3": {"method": "rangate"}}):
        doc = minimal()
        doc.update(mutate)
        assert config_hash(config_from_dict(doc)) != base


def test_hash_is_sha256_hex():
    digest = config_hash(RunConfig())
    assert len(digest) == 64
    int(digest, 16)


def test_echo_is_json_serializable():
    json.dumps(RunConfig().to_dict())


def default_of(key: str):
    section, _, leaf = key.rpartition(".")
    owner = getattr(RunConfig(), section) if section else RunConfig()
    return getattr(owner, leaf)


@pytest.mark.parametrize("key", [k for k in config_keys()
                                 if type(default_of(k)) is float])
def test_an_int_for_a_float_field_loads_as_that_float(key):
    section, leaf = key.split(".")

    def doc_with(method, value):
        doc = minimal()
        doc["stage3"] = {"method": method}
        doc.setdefault(section, {})[leaf] = value
        return doc

    loaded = 0
    for method, number in itertools.product(("rollgate", "fedgate"), (0, 1)):
        try:
            want = config_from_dict(doc_with(method, float(number)))
        except ConfigError:
            continue
        got = config_from_dict(doc_with(method, number))
        assert config_hash(got) == config_hash(want)
        assert type(got.to_dict()[section][leaf]) is float
        assert type(getattr(getattr(got, section), leaf)) is float
        loaded += 1
    # (0, 1) holds no integer
    assert (loaded > 0) == (key != "stage3.pseudo_ratio")


def test_every_number_key_has_a_bad_value_row():
    rows = {key if section is None else f"{section}.{key}"
            for section, key, _, _ in BAD_VALUES}
    numbers = {key for key in config_keys()
               if type(default_of(key)) in (int, float)}
    assert sorted(numbers - rows) == []


def test_config_keys_are_every_leaf_but_output_dir():
    cfg = RunConfig()
    expected = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            expected += [f"{f.name}.{g.name}" for g in fields(value)]
        elif f.name != "output_dir":
            expected.append(f.name)
    assert config_keys() == expected
    assert {"seed", "k", "data.tau", "data.path", "stage1.method",
            "stage3.method", "baselines.lr"} <= set(expected)


def test_with_key_of_an_echoed_value_is_the_same_config():
    cfg = RunConfig(output_dir="/somewhere")
    echo = cfg.to_dict()
    for key in config_keys():
        section, _, leaf = key.rpartition(".")
        owner = echo[section] if section else echo
        if leaf in owner:
            assert with_key(cfg, key, owner[leaf]) \
                == RunConfig(output_dir=None), key


def test_with_key_of_a_selector_drops_the_keys_of_its_old_value():
    cfg = config_from_dict({"config_version": 1,
                            "stage3": {"method": "fedgate", "rounds": 5,
                                       "lr": 0.2}})
    rollgate = with_key(cfg, "stage3.method", "rollgate")
    assert rollgate.to_dict()["stage3"] == {
        "method": "rollgate", "lr": 0.2, "pseudo_ratio": 0.7,
        "epochs_per_client": 2, "max_passes": 20}
    rangate = with_key(cfg, "stage3.method", "rangate")
    assert rangate.to_dict()["stage3"] == {"method": "rangate"}
    assert with_key(rangate, "stage3.method", "fedgate") == RunConfig()
    with pytest.raises(ConfigError, match="stage3.method must be"):
        with_key(cfg, "stage3.method", "gate")
    with pytest.raises(ConfigError, match="data.path is required"):
        with_key(cfg, "data.source", "cifar10")


@pytest.mark.parametrize("key", ["data", "output_dir", "config_version",
                                 "stage3.method.x", "lr", ""])
def test_with_key_rejects_what_is_not_a_leaf_key(key):
    with pytest.raises(ConfigError, match=f"^unknown config key {key!r}$"):
        with_key(RunConfig(), key, 1)


MISTYPED = ["x", True, False, None, [], {}, [1], -1, 0, 2.5, math.nan,
            math.inf, 10 ** 400]


def test_every_mistyped_value_loads_or_is_a_config_error(tmp_path):
    # every key, under every selector value, set to every value: none may
    # escape as a TypeError or OverflowError (exit 1, no category)
    cifar = {"data": {"source": "cifar10", "path": cifar_file(tmp_path)},
             "model": {"fe_widths": [CIFAR10_DIM, 32, 32]}}
    bases = [minimal(), dict(minimal(), **cifar),
             dict(minimal(), stage1={"method": "fedce"}),
             dict(minimal(), stage3={"method": "rangate"}),
             dict(minimal(), stage3={"method": "rollgate"})]
    for base in bases:
        config_from_dict(base)
    names = ["config_version"] + [f.name for f in fields(RunConfig)]
    loaded = rejected = 0
    for base, key, value in itertools.product(
            bases, names + config_keys(), MISTYPED):
        doc = copy.deepcopy(base)
        section, _, leaf = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[leaf] = value
        try:
            config_from_dict(doc)
        except ConfigError:
            rejected += 1
        else:
            loaded += 1
    assert loaded and rejected
