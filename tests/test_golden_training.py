"""Pinned bytes of small ``train`` runs and of one ``predict``.

``test_training`` compares ``train`` with a reference loop that shares the
package's kernels, initialisation and optimizers, so a change to those
(their parameter layout, say) moves both sides at once. These sha256 digests
of ``model.json``, ``history.csv`` and ``predictions.csv`` do not move with
the code: they were recorded before the parameters moved into one flat
vector, and every later change must reproduce them.

Batch sizes 19 and 7 leave a last batch of 1 and of 2 of the 590 training
windows, where numpy takes matrix-vector paths whose rounding depends on
the memory order of the weights. The digests hold for the numpy build and
BLAS kernels that recorded them (float results of a GEMM depend on both),
so elsewhere the test is skipped; rerun determinism is checked everywhere
by the console-script reruns in CI.
"""

import hashlib

import numpy as np
import pytest

from pyrokin.cli import main
from pyrokin.synthkin import simulate, suite_models
from pyrokin.tga_io import curve_to_csv, spec_to_sidecar

RECORDED_ON = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
               "Haswell MAX_THREADS=64")


def _environment():
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (np.__version__, blas.get("openblas configuration")), __cpu_features__["AVX512F"]


pytestmark = pytest.mark.skipif(
    _environment() != (RECORDED_ON, True),
    reason="digests are of the numpy/OpenBLAS build and AVX-512 kernels that recorded them")

# (layers, dropout, optimizer, batch, activation): sha256 of model.json, history.csv
TRAIN_DIGESTS = {
    (1, 0.0, "adam", 19, "tanh"): (
        "dfe40929fef2547e2bbcb5d4c6e0156e71b98cfa92ff8900cdd7b6067767576d",
        "ce25efcb08bfd3621dca3dff7a5bfb0e72145a530c5c695306eb8b0d96ee0f23"),
    (2, 0.2, "adam", 7, "relu"): (
        "3df91ab710e38c8b82fa27b1a2aec1c6b7e5f187c0892dfa207597d3e286b88c",
        "93b3c4513568fff1d91e6cf3d42ce469149518963ec22d62311f33d5bab49a8d"),
    (2, 0.2, "sgd", 19, "sigmoid"): (
        "be4863bc6cdc878eaec8a9277e135a685748c298820a40276a2161710f6876d2",
        "7f74c3e11a84a5d88f6f2b90bcbda777f60a09d251988a389e9390828368b737"),
    (3, 0.0, "sgd", 7, "tanh"): (
        "c8b5621b71ed7c2d11d3574954cc13aadee632e49ac47daa4869d3b56411ec15",
        "2dd5621b70f60c837b15540ece6107ee35ce949cca20cfe74b7d06ab4bceadef"),
    (3, 0.2, "rmsprop", 7, "tanh"): (
        "e64d758227ebb5f24aa02ea28bd23783f9bad8cbc64a0942ac150e21ee5ef0d3",
        "7b54bddc628c025155f5f742204d1228ac67804504062ec4917c7e87bad56471"),
    (1, 0.0, "rmsprop", 19, "relu"): (
        "8528caa276a342c9773a29eba28811ebc014a81c076665c09ec66301508e673b",
        "c58e5ef0f9583a8f9806fe78147f8e03986d07b18bb323fd948b6eddb9b92969"),
}
# predictions.csv of the 3-layer RMSprop model on the 20 K/min curve
PREDICT_DIGEST = "d9c82c7209454289f30d8d47fc33478cca4c29ce98f2913726e128756db0aef6"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    name, model, spec = suite_models()[0]
    for beta in (5.0, 10.0, 15.0, 20.0):
        curve = simulate(model, beta, 0.5, spec=spec)
        (root / f"{name}_beta{beta:g}.csv").write_text(curve_to_csv(curve))
        (root / f"{name}_beta{beta:g}.json").write_text(spec_to_sidecar(spec, beta))
    return root


def run_train(curves, out, layers, dropout, optimizer, batch, activation):
    paths = [str(curves / f"single-step_beta{b}.csv") for b in (5, 10, 15)]
    assert main(["train", *paths, "--layers", str(layers), "--dropout", str(dropout),
                 "--optimizer", optimizer, "--batch", str(batch), "--activation", activation,
                 "--epochs", "2", "--hidden", "8", "--dt", "2", "--out-dir", str(out)]) == 0


@pytest.mark.parametrize("run", list(TRAIN_DIGESTS), ids=lambda run: "-".join(map(str, run)))
def test_train_bytes(curves, tmp_path, run):
    run_train(curves, tmp_path, *run)
    assert (sha256(tmp_path / "model.json"), sha256(tmp_path / "history.csv")) \
        == TRAIN_DIGESTS[run]


def test_predict_bytes(curves, tmp_path):
    run_train(curves, tmp_path / "model", 3, 0.2, "rmsprop", 7, "tanh")
    assert main(["predict", str(curves / "single-step_beta20.csv"),
                 "--model", str(tmp_path / "model" / "model.json"), "--dt", "2",
                 "--out-dir", str(tmp_path / "predict")]) == 0
    assert sha256(tmp_path / "predict" / "predictions.csv") == PREDICT_DIGEST
