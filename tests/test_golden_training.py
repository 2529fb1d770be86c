"""Pinned bytes of small ``train`` runs, of one ``predict``, of the ``synth``
presets and of ``analyze`` runs.

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

The ``synth`` and ``analyze`` digests pin the order-n reaction model: the
oracle's closed form, and the f(alpha) and g(alpha) that ``analyze --order``
reads A through. They were recorded before that model moved into one module.
The ``analyze --format text`` digests of every suite preset, at the default
grid and at 99 levels, pin the isoconversional tables and their text report;
they were recorded while the analysis could still exclude a conversion level.
"""

import hashlib

import numpy as np
import pytest

from pyrokin.cli import main
from pyrokin.synthkin import PseudoComponent, PseudoComponentModel, simulate, suite_models
from pyrokin.tga_io import DATE_SEEDS, curve_to_csv, spec_to_sidecar

RECORDED_ON = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
               "Haswell MAX_THREADS=64")


def _environment():
    """This build's numpy version, BLAS configuration and AVX-512 support, or
    None where numpy cannot report them: ``numpy._core`` is new in numpy 2 and
    ``show_config(mode=...)`` in 1.25, so an older build is not the recording one."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return (np.__version__, blas.get("openblas configuration")), __cpu_features__["AVX512F"]
    except (ImportError, AttributeError, KeyError, TypeError):
        return None


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

# every suite preset's synth CSVs at 0.5 K and 5/10/15/20 K/min
SYNTH_DIGESTS = {
    "single-step_beta5.csv": "9bfb5e58cfe726de9c0231f506ee25c741cd4607a6fb69383258ce90d655bf43",
    "single-step_beta10.csv": "98572d7868cda06f43bddedb0c50c79b43d2eaa537f4f22d07eaf24d4464a562",
    "single-step_beta15.csv": "99c038c83d0e592d7047c514ff4c1d1bf5230728ef8f0fbb6a7cc6763a048be5",
    "single-step_beta20.csv": "36cc9a32da91bb5dfa8bd118d437b2829edcdd8309bf57d5e4b77bd0accb8941",
    "three-component-ds_beta5.csv": "b7399fa9ecd2f3061f5c977d48120640b1d75be6d78f839052d84f08c9482add",
    "three-component-ds_beta10.csv": "ea00de204c20d38b43e292b6605782edbc7f935146a452df68c33449979ae9a2",
    "three-component-ds_beta15.csv": "8c1e39eb51e9dda5413a96ca35daa9cad883fc9a4c524f2e8cd286cc8c3ad7dc",
    "three-component-ds_beta20.csv": "e2d3484938a7a1a2224763e0171c4b27a2e7ffb8c9fa2ca1a9ffdd6beaedd828",
    "three-component-scg_beta5.csv": "b0c5a8cdcf60f5149dee4b269b1eeb665b47fe24c668733ea1f5b97fcdaa7e9f",
    "three-component-scg_beta10.csv": "371e158a500feaca1a1c9a6f4a6058abd2bf4a469fb91ff02304f15b74bfc189",
    "three-component-scg_beta15.csv": "aa57e84a503dd98e92508fdbc96c8df21717a0cfb0b900fc1ec00a353c9e1be9",
    "three-component-scg_beta20.csv": "659c4d4673848da58a1de377adf430ae3c52e15309da3cc705b943936cf7c40a",
    "blend-0.75_beta5.csv": "5d2eb073bae7db59bf1996357ce2def0ef1ae0367b21daab55dd48a3015a5e85",
    "blend-0.75_beta10.csv": "99b5f982ded996fede765a5daaab34eb8f6245f61e3d510a73fc29352c099e5a",
    "blend-0.75_beta15.csv": "1da96867d980f464b50c34970f5bfad2f95bf27dfc865a46fc407522a23fe9dd",
    "blend-0.75_beta20.csv": "848c5eac20ae279625f95b2a7d1229d273c52c5cef00f87cd28ca660f37e359c",
    "blend-0.5_beta5.csv": "cae4801779504933e78f257e8aaa0b510d9289319d447f555ec7b7e51025e052",
    "blend-0.5_beta10.csv": "c9fb31ef601b8a7fcf9172d01f1113a8af149aebad4673c4f50819044063c856",
    "blend-0.5_beta15.csv": "691ca6636b312408ee73d7c7c76bde4074a2a37450a6a4b7c3e7ce1a8abfd0e4",
    "blend-0.5_beta20.csv": "bd872cfd0d5904732e73f0869c359f11aeb4fac32c6b7e42b2129124591871de",
    "blend-0.25_beta5.csv": "dad935508ad94bc70b05fd7ee539387f17a64e3c8b1083d0d27c8195fe526314",
    "blend-0.25_beta10.csv": "57be1182ab01e79b756e9c2f166a3eacae0825472f09ee9c71d9c912f08e1512",
    "blend-0.25_beta15.csv": "991cd136a34c7c4e38110f8fa554e780ad63636fd330ebdd1184943a359097ea",
    "blend-0.25_beta20.csv": "152816f8a1b3068143dd50e0a982ca6b03eac3e41da122f7128db47305244e8c",
}
# one order-1.3 component (180 kJ/mol, 1e13 1/s) at 10 K/min and 0.5 K
ORDER_DIGEST = "6ba923a86c764d515710bb74558334a570b71b9d45962305ab3a45a4caffc481"
# analyze --order on the single-step curves: sha256 of kinetics.csv, ea_vs_alpha.csv
ANALYZE_DIGESTS = {
    "1": ("6d931f2e9a382f513dfe0139db418f796d3bc69a4b73c37d1181752705e8fd8b",
          "ea5a9b862bb2d09b73b5cff1764a4b8e2a4de3363b72f9bf086c0735548f28fb"),
    "1.5": ("961b9a2831aca2c02181824230c15b0003ea1c5eca53ae3959f800391c529bd7",
            "ea5a9b862bb2d09b73b5cff1764a4b8e2a4de3363b72f9bf086c0735548f28fb"),
}

# analyze --format text on every suite preset's curves at the default grid and
# the 99-level grid: sha256 of kinetics.txt, kinetics.csv, ea_vs_alpha.csv
SUITE_ANALYZE_DIGESTS = {
    ("single-step", "default"): (
        "8001e2a0b9aaa628433cd78e3e1796bde1d7afad7e088ba3958b7bb8eae65246",
        "6d931f2e9a382f513dfe0139db418f796d3bc69a4b73c37d1181752705e8fd8b",
        "ea5a9b862bb2d09b73b5cff1764a4b8e2a4de3363b72f9bf086c0735548f28fb"),
    ("single-step", "0.01:0.99:0.01"): (
        "95ccbff56e880fda21e4ee3fc9c8b3c6ec32b79c0cfd468fdf70b2226af87b43",
        "0803cd86e97785119aa4853d68d3cf0075385cae900c529e00e02d0dc49a4555",
        "b22dae4b13497b102601bc7450456d57af6c8a60039e913f4fb6d99a4555eb09"),
    ("three-component-ds", "default"): (
        "4c7b7c854061b6d26fca8cb41d6a77de17ccdf082a713071e5bd9721ff7b78a2",
        "14e4b1ee71650ab7fd393c8886156c2accc6388ef859d7b9574db7148505154a",
        "1b2c275226a9cb46879f0c84d4a7d736bfc75836d712717959ce43aad13db827"),
    ("three-component-ds", "0.01:0.99:0.01"): (
        "eb5a1f381d2c8b8bf74c837b7b72a6588c9154a55698493612679d2772a24152",
        "fc27b9298f8bae55b1c140e013034643825cea8d52956e96a7ac4ae75b30de14",
        "f074e11b524438010f860015ee52357fbd26df41145a4ecdde91a02d49121c18"),
    ("three-component-scg", "default"): (
        "0fc50642c371f3d044e8b10c74813f2e171deb47e4a6529f6ede365093b4ec10",
        "bc1ed52caf2e77d7800cf57ba622e082841332e1c6a87b5bd04669b3e8602bb3",
        "ed748d7222924d0cf912745994f2f742966c59f34ab7493632b85975c5343350"),
    ("three-component-scg", "0.01:0.99:0.01"): (
        "a9428ea5cf09871cdd7e60ff0ab6515f1e95c3b267225dbe5def4036fd0b5aa0",
        "1b4d04362d775e604f480a1cf0ed3bdaaf4ac70f80893d2b7c6b2dfccdfab8d2",
        "684552b9f43a651fc45a2b0c60c34b17c07315e7ca0c378d406fcd87ff44963f"),
    ("blend-0.75", "default"): (
        "babb6df35fb4debc09ad372a9bc3f3e4db2232cdb3329eeb3c0fd8581a192611",
        "75acf6bc2d1a15cd2e831cede539a7a9ca83960b1d1b85cab8929a473fe09310",
        "7eb2b02ba84178ab4543c7555f7efe12cab719fc1a21a9a619b0d24400f35190"),
    ("blend-0.75", "0.01:0.99:0.01"): (
        "7ee8a0227b1176502eb2b2e7d8a974bf5af171fbb984a6b5a6e68ce8737ddca1",
        "36fe59c1e79ecb436a075a00473202271e61db4811dd4a21721852393a668189",
        "482a74523ff84de7b1a199d8718842b2f60c995cb526e003f153db8878630a7b"),
    ("blend-0.5", "default"): (
        "14f5dd41d1581433536d3c13b958f145d45641e928aedb83c49daa1328c2c7fd",
        "38106f0005a45ba492bc878fc8a054e21806ac92e19561e9a452a22716149b06",
        "787bf24dbe060742428f802212adab63452bd3cf44819e9125cf23127ee5bfd7"),
    ("blend-0.5", "0.01:0.99:0.01"): (
        "13e2c12e4bb0e6097759250e854031c8b77d6766d784598392e71a13e667b4a6",
        "0f56fd63d469dfd00d8dab0eb55356662a2e1c6fe7da4dc533fd3b1518bbbbee",
        "378a41528b51d96fb7a4050e62114bb6182f21db4ebb471c9da58eb8c42f5093"),
    ("blend-0.25", "default"): (
        "3beced11b3e9bf823e6be0c70ebf1da09ddd521e8eee210c9fd39dbc67391340",
        "8abb739452492fae9dd320e46a7989fb80808f6f55fcf1d6000da9daa29b2782",
        "b9be2dfe71a2c344771a4deebf56d4627693e7da8ec0b0c20d46191d5088878f"),
    ("blend-0.25", "0.01:0.99:0.01"): (
        "0411d335f4e60e444d2ec8dfb034b00e452df982c063524f3f97ef4f7f87842a",
        "5ab7d3b8fac877d125cf14bca28a214a62119ef026b7f7300377551223de7172",
        "4a8d01aa93f7d4f825cc39076f8dba28141e7d5e2a4d0e4ff02fe970b28badc3"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, model, spec in suite_models():
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


@pytest.mark.parametrize("name, model, spec", suite_models(),
                         ids=[name for name, _, _ in suite_models()])
def test_synth_bytes(tmp_path, name, model, spec):
    frac = name.removeprefix("blend-")
    preset = ["blend", "--frac", frac] if frac != name else [name]
    assert main(["synth", "--preset", *preset, "--beta", "5,10,15,20", "--dt", "0.5",
                 "--out-dir", str(tmp_path)]) == 0
    for beta in (5, 10, 15, 20):
        stem = f"{name}_beta{beta}.csv"
        assert sha256(tmp_path / stem) == SYNTH_DIGESTS[stem], stem


def test_order_n_simulate_bytes():
    model = PseudoComponentModel((PseudoComponent(1.0, 180e3, 1e13, order=1.3),),
                                 residue=0.0, t_start=300.0, t_end=900.0)
    text = curve_to_csv(simulate(model, 10.0, 0.5, DATE_SEEDS))
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_DIGEST


@pytest.mark.parametrize("order", list(ANALYZE_DIGESTS))
def test_analyze_bytes(curves, tmp_path, order):
    paths = [str(curves / f"single-step_beta{b}.csv") for b in (5, 10, 15, 20)]
    assert main(["analyze", *paths, "--order", order, "--format", "csv",
                 "--out-dir", str(tmp_path)]) == 0
    assert (sha256(tmp_path / "kinetics.csv"), sha256(tmp_path / "ea_vs_alpha.csv")) \
        == ANALYZE_DIGESTS[order]


@pytest.mark.parametrize("name, grid", list(SUITE_ANALYZE_DIGESTS),
                         ids=["-".join(run) for run in SUITE_ANALYZE_DIGESTS])
def test_suite_analyze_bytes(curves, tmp_path, name, grid):
    paths = [str(curves / f"{name}_beta{b}.csv") for b in (5, 10, 15, 20)]
    flags = [] if grid == "default" else ["--alpha-grid", grid]
    assert main(["analyze", *paths, *flags, "--format", "text",
                 "--out-dir", str(tmp_path)]) == 0
    assert tuple(sha256(tmp_path / f) for f in ("kinetics.txt", "kinetics.csv",
                                                  "ea_vs_alpha.csv")) \
        == SUITE_ANALYZE_DIGESTS[name, grid]
