"""Malformed sidecars and checkpoints: every input parses or raises a
PyrokinError, which the CLI maps to exit 2, 3 or 4, never a traceback."""

import json
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrokin.errors import InputError, PyrokinError
from pyrokin.seqmodel.features import MinMaxScaler
from pyrokin.seqmodel.lstm import LstmModel, init_params, load_model, save_model
from pyrokin.seqmodel.training import TrainConfig
from pyrokin.tga_io import DATE_SEEDS, SampleSpec, sidecar_to_spec, spec_to_sidecar

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


READERS = {"sidecar": check_sidecar, "checkpoint": check_checkpoint,
           "checkpoint-v1": check_checkpoint}


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


@pytest.mark.parametrize("reader", ["sidecar", "checkpoint"])
@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=200))
@example(text="1" * 5000)  # past the interpreter's integer-digit limit
@example(text="[" * 5000)  # deeper than the JSON decoder's recursion limit
def test_arbitrary_text(reader, text):
    parses_or_rejects(reader, text)


@pytest.mark.parametrize("reader", ["sidecar", "checkpoint"])
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
