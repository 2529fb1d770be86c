"""Malformed sidecars, checkpoints and configs: every input parses or raises a
PyrokinError, which the CLI maps to exit 2, 3 or 4, never a traceback.
Every JSON document is written by ``tga_io.json_text`` and read by
``tga_io.read_json``."""

import ast
import json
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pyrokin
from pyrokin.errors import ConfigError, InputError, PyrokinError
from pyrokin.manifest import config_digest, write_manifest
from pyrokin.seqmodel.features import MinMaxScaler
from pyrokin.seqmodel.lstm import LstmModel, init_params, load_model, save_model
from pyrokin.seqmodel.training import TrainConfig
from pyrokin.tga_io import (
    DATE_SEEDS,
    SampleSpec,
    json_text,
    read_json,
    sidecar_to_spec,
    spec_to_sidecar,
)

from reference_checkpoint import save_model_v1

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.sampled_from([10**400, -10**400]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)


def valid_model():
    config = TrainConfig(hidden_units=2, lstm_layers=2, look_back=3)
    scaler = MinMaxScaler(feature_min=np.zeros(4), feature_max=np.ones(4),
                          target_min=0.0, target_max=100.0)
    params = init_params(4, config, np.random.default_rng(0))
    return LstmModel(params, scaler, "model1")


VALID = {
    "sidecar": spec_to_sidecar(DATE_SEEDS, beta=10.0),
    "checkpoint": save_model(valid_model()),
    # format_version 1, whose weights are decimal lists
    "checkpoint-v1": save_model_v1(valid_model()),
    "config": TrainConfig(hidden_units=2, lstm_layers=2, look_back=3).to_json(),
}


def check_sidecar(text):
    spec, beta = sidecar_to_spec(text)
    # what analyze and the feature builders rely on
    assert isinstance(spec, SampleSpec) and isinstance(spec.sample_id, str)
    assert isinstance(beta, float)
    for name in ("ds_fraction", "scg_fraction", "cellulose_pct", "hemicellulose_pct",
                 "lignin_pct"):
        assert isinstance(getattr(spec, name), float)
    for name in ("ash_pct", "vm_pct", "fc_pct"):
        assert getattr(spec, name) is None or isinstance(getattr(spec, name), float)


def check_checkpoint(text):
    assert isinstance(load_model(text), LstmModel)


def check_config(text):
    assert isinstance(TrainConfig.from_json(text), TrainConfig)


READERS = {"sidecar": check_sidecar, "checkpoint": check_checkpoint,
           "checkpoint-v1": check_checkpoint, "config": check_config}


def parses_or_rejects(reader, text):
    try:
        READERS[reader](text)
    except PyrokinError:
        pass


def draw_path(data, doc):
    """A key path into nested JSON objects and arrays, drawn one level at a
    time, so that top-level fields come up as often as array elements."""
    path, node = [], doc
    while True:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        path.append(key)
        node = node[key]
        if not (isinstance(node, (dict, list)) and node) or data.draw(st.booleans()):
            return path


@pytest.mark.parametrize("reader", ["sidecar", "checkpoint", "config"])
@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=200))
@example(text="1" * 5000)  # past the interpreter's integer-digit limit
@example(text="[" * 5000)  # deeper than the JSON decoder's recursion limit
def test_arbitrary_text(reader, text):
    parses_or_rejects(reader, text)


@pytest.mark.parametrize("reader", ["sidecar", "checkpoint", "config"])
@settings(max_examples=100, deadline=None)
@given(doc=JSON_VALUES)
def test_arbitrary_json(reader, doc):
    parses_or_rejects(reader, json.dumps(doc))


@pytest.mark.parametrize("reader", VALID)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_valid_document_with_one_value_replaced_or_removed(reader, data):
    doc = json.loads(VALID[reader])
    path = draw_path(data, doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    parses_or_rejects(reader, json.dumps(doc))


@pytest.mark.parametrize("reader", VALID)
def test_valid_documents_parse(reader):
    READERS[reader](VALID[reader])


@pytest.mark.parametrize("reader", ["checkpoint", "checkpoint-v1"])
def test_config_far_larger_than_its_weights_is_rejected_before_allocation(reader):
    # at 10**6 hidden units the parameter vector would take 32 TB
    doc = json.loads(VALID[reader])
    doc["config"]["hidden_units"] = 10**6
    with pytest.raises(InputError, match="weight l0"):
        load_model(json.dumps(doc))


# mostly base64 characters, so that many edits keep the text decodable
BASE64_TEXT = st.text(
    alphabet=st.sampled_from(string.ascii_letters + string.digits + "+/=") | st.characters(),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_base64_weight_truncated_extended_or_edited(data):
    doc = json.loads(VALID["checkpoint"])
    key = data.draw(st.sampled_from(sorted(doc["weights"])))
    value = doc["weights"][key]
    at = data.draw(st.integers(0, len(value) - 1))
    edit = data.draw(st.sampled_from(["truncate", "append", "replace"]))
    if edit == "truncate":
        value = value[:at]
    elif edit == "append":
        value += data.draw(BASE64_TEXT)
    else:
        value = value[:at] + data.draw(BASE64_TEXT) + value[at + 1:]
    doc["weights"][key] = value
    parses_or_rejects("checkpoint", json.dumps(doc))


@pytest.mark.parametrize("config", [
    TrainConfig(),
    TrainConfig(learning_rate=0.0125, batch_size=64, epochs=3, dropout=0.25,
                hidden_units=48, lstm_layers=2, activation="relu", optimizer="rmsprop",
                look_back=7, early_stop_patience=0, seed=2**40),
], ids=["defaults", "every-field-set"])
def test_train_config_round_trips_through_json(config):
    assert TrainConfig.from_json(config.to_json()) == config


def test_manifest_reads_back(tmp_path):
    write_manifest(tmp_path, "analyze", [Path("a.csv"), "b.csv"], {"dt": 0.5}, 7, "0.1.0")
    text = (tmp_path / "manifest.json").read_text(encoding="utf-8")
    doc = read_json(text, "manifest", ("command", "inputs", "config_digest", "seed",
                                       "version", "timestamp"))
    assert text == json_text(doc)
    assert {k: v for k, v in doc.items() if k != "timestamp"} == {
        "command": "analyze", "inputs": ["a.csv", "b.csv"],
        "config_digest": config_digest({"dt": 0.5}), "seed": 7, "version": "0.1.0"}


# each reader: the call, its error class, and the name its messages begin with
JSON_READERS = {
    "sidecar": (sidecar_to_spec, InputError, "sidecar"),
    "checkpoint": (load_model, InputError, "checkpoint"),
    "config": (TrainConfig.from_json, ConfigError, "config"),
}
NOT_DOCUMENTS = {
    "not-json": ("{not json", "is not valid JSON"),
    "over-long-integer": ("1" * 5000, "is not valid JSON"),
    "deep-nesting": ("[" * 5000, "is not valid JSON"),
    "non-object": ("[1, 2]", "must be a JSON object"),
}


@pytest.mark.parametrize("case", NOT_DOCUMENTS)
@pytest.mark.parametrize("reader", JSON_READERS)
def test_each_reader_names_its_document_and_raises_its_class(reader, case):
    read, error, document = JSON_READERS[reader]
    text, message = NOT_DOCUMENTS[case]
    with pytest.raises(PyrokinError) as caught:
        read(text)
    assert type(caught.value) is error
    assert str(caught.value).startswith(f"{document} {message}")


def without(text, field):
    doc = json.loads(text)
    del doc[field]
    return json.dumps(doc)


FIELD_FAULTS = {
    "sidecar": (without(VALID["sidecar"], "lignin_pct"), "sidecar missing fields: lignin_pct"),
    "checkpoint": (without(VALID["checkpoint"], "scaler"), "checkpoint missing fields: scaler"),
    # every config field has a default: a field it does not know is the fault
    "config": ('{"epochs": 3, "bogus": 1}', "unknown training fields: bogus"),
}


@pytest.mark.parametrize("reader", FIELD_FAULTS)
def test_each_reader_names_its_document_for_a_missing_or_unknown_field(reader):
    read, error, _ = JSON_READERS[reader]
    text, message = FIELD_FAULTS[reader]
    with pytest.raises(PyrokinError) as caught:
        read(text)
    assert type(caught.value) is error
    assert str(caught.value).startswith(message)


def test_only_tga_io_and_manifest_import_json():
    """The JSON dialect has one owner, tga_io; manifest's compact config
    digest is the one other json call."""
    package = Path(pyrokin.__file__).parent
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "json" or name.startswith("json.") for name in names if name):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"tga_io.py", "manifest.py"}
