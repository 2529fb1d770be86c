"""The ``pyrokin`` command in fresh processes: refusals, byte-identical reruns
and equivalent invocations, and the contracts only a new process shows.

Every command runs as ``python -m pyrokin.cli`` on this tree's src/. The
synth curves, the svg analysis and the 1-epoch model are built once per
module, and each named bundle below is launched once and shared by the tests
that read it. An argv item ``{name}`` stands for the path, or paths, of the
fixture ``name``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

CURVES = "{curves}"
ANALYZE_SVG = ("analyze", CURVES, "--format", "svg")
FINE_GRID = ("analyze", CURVES, "--alpha-grid", "0.01:0.99:0.01", "--format", "text")
TRAIN_1_EPOCH = ("train", CURVES, "--epochs", "1", "--hidden", "8", "--dt", "2")
TUNE_ARGS = ("--dt", "2", "--trials", "3", "--seed", "5", "--epochs-choices", "1",
             "--hidden-choices", "8", "--layers-choices", "2,3", "--dropout-choices", "0.2,0.3",
             "--batch-choices", "32")
TUNE = ("tune", CURVES, *TUNE_ARGS)
PREDICT = ("predict", "{beta10}", "--model", "{model}")
THERMO_SVG = ("thermo", "--kinetics", "{kinetics}", "--tm", "625", "--format", "svg")
THERMO_CURVE = ("thermo", "--kinetics", "{kinetics}", "--curve", "{beta10}")


def expand(request, argv):
    """``argv`` with each ``{name}`` item replaced by the path, or paths, of
    the fixture ``name``."""
    out = []
    for arg in argv:
        if arg.startswith("{"):
            value = request.getfixturevalue(arg[1:-1])
            out += map(str, value) if isinstance(value, list) else [str(value)]
        else:
            out.append(arg)
    return out


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def pyrokin(fresh_python):
    return lambda *argv: fresh_python("-m", "pyrokin.cli", *argv)


@pytest.fixture(scope="module")
def bundle(root, pyrokin):
    """``bundle(name, argv)``: the output directory of ``pyrokin *argv
    --out-dir <root>/<name>``, launched once per name; the run must exit 0."""
    launched = {}

    def run(name, argv):
        out = root / name
        if name not in launched:
            proc = pyrokin(*argv, "--out-dir", str(out))
            assert proc.returncode == 0, proc.stderr
            launched[name] = argv
        assert launched[name] == argv, f"bundle {name} was launched with other arguments"
        return out

    return run


@pytest.fixture(scope="module")
def curves(bundle):
    out = bundle("curves", ["synth", "--preset", "single-step", "--beta", "5,10,15"])
    return sorted(out.glob("single-step_beta*.csv"))  # a shell glob's order: 10, 15, 5


@pytest.fixture(scope="module")
def beta10(curves):
    return curves[0].parent / "single-step_beta10.csv"


@pytest.fixture(scope="module")
def kinetics(request, bundle):
    return bundle("kinetics", expand(request, ANALYZE_SVG)) / "kinetics.csv"


@pytest.fixture(scope="module")
def model(request, bundle):
    return bundle("model", expand(request, TRAIN_1_EPOCH)) / "model.json"


@pytest.fixture(scope="module")
def predictions(request, bundle):
    return bundle("predict1", expand(request, PREDICT)) / "predictions.csv"


@pytest.fixture(scope="module")
def partial(root):
    """A --config file that leaves out every field but two."""
    path = root / "partial.json"
    path.write_text('{"epochs": 1, "lstm_layers": 2}\n')
    return path


@pytest.fixture(scope="module")
def overflow(root):
    """Finite predictions whose errors overflow a float."""
    path = root / "overflow.csv"
    path.write_text("temperature_c,actual_mass_pct,predicted_mass_pct\n"
                    "100,1e200,-1e200\n101,1e200,-1e200\n")
    return path


@pytest.fixture(scope="module")
def regular_file(root):
    path = root / "not-a-dir"
    path.touch()
    return path


@pytest.fixture(scope="module")
def excel(root, curves):
    """Copies of the curves and sidecars behind a UTF-8 byte-order mark (as
    Excel's "CSV UTF-8" export writes them), and with CRLF line ends: each
    form's curve paths."""
    forms = {"bom": lambda b: b"\xef\xbb\xbf" + b, "crlf": lambda b: b.replace(b"\n", b"\r\n")}
    copies = {}
    for form, edit in forms.items():
        (root / "excel" / form).mkdir(parents=True)
        for source in (*curves, *(p.with_suffix(".json") for p in curves)):
            (root / "excel" / form / source.name).write_bytes(edit(source.read_bytes()))
        copies[form] = [root / "excel" / form / p.name for p in curves]
    return copies


@pytest.fixture(scope="module")
def bom(excel):
    return excel["bom"]


@pytest.fixture(scope="module")
def crlf(excel):
    return excel["crlf"]


@pytest.fixture(scope="module")
def rounded(root, curves):
    """The curves as two-column exports rounded to whole degrees C, whose
    neighbouring rows repeat a temperature."""
    (root / "rounded").mkdir()
    paths = []
    for source in curves:
        rows = [row.split(",") for row in source.read_text().splitlines()[1:]]
        path = root / "rounded" / source.name
        path.write_text("temperature_c,mass_pct\n" + "".join(
            f"{round(float(temp_c))},{mass}\n" for _, temp_c, mass in rows))
        path.with_suffix(".json").write_text(source.with_suffix(".json").read_text())
        paths.append(path)
    return paths


# (bundle name, argv, exit code): the run exits with the code, without a
# traceback, and leaves no --out-dir; a row that names its own --out-dir
# gives an existing path
REFUSALS = [
    # a training flag beside --config
    ("clash", ("train", CURVES, "--dt", "2", "--config", "{partial}", "--epochs", "3",
               "--look-back", "10"), 4),
    # an activation TrainConfig does not know, as under --config and tune
    ("badact", ("train", CURVES, "--dt", "2", "--activation", "bogus"), 4),
    # a predictions file is scored alone: a model and a curve beside it
    ("evalclash", ("evaluate", "--predictions", "{predictions}", "--model", "{model}",
                   "{beta10}"), 2),
    # --frac is read by the blend preset alone
    ("fracclash", ("synth", "--preset", "single-step", "--frac", "0.3", "--beta", "10"), 4),
    # a suite model's name is not a preset
    ("blendname", ("synth", "--preset", "blend-0.5", "--beta", "10"), 4),
    # an output directory that is a regular file
    ("not-a-dir", ("analyze", CURVES, "--out-dir", "{regular_file}"), 2),
    # at reaction order 800, f(alpha) = 0.3^800 underflows to 0
    ("order800", ("analyze", CURVES, "--order", "800", "--alpha-grid", "0.7:0.7:0.1",
                  "--format", "csv"), 3),
    # two heating rates that share a file name, before any curve is simulated
    ("dup", ("synth", "--beta", "5,5"), 2),
    # a stage named twice, by the parser
    ("twice", (*THERMO_CURVE, "--stage-windows",
               "hemicellulose:225:325,hemicellulose:300:400"), 2),
    # --tm and --curve are exclusive
    ("tmcurve", ("thermo", "--kinetics", "{kinetics}", "--tm", "625", "--curve", "{beta10}"), 2),
    # a flag that only --curve reads, given beside --tm
    ("tmstage", ("thermo", "--kinetics", "{kinetics}", "--tm", "625", "--stage", "cellulose"), 2),
    # massbalance writes no file, so it takes no --out-dir
    ("massbalance", ("massbalance", "--char", "20"), 2),
    # a heating rate of 0
    ("beta0", ("synth", "--beta", "0"), 2),
    # a catalogue value no training config accepts, before any trial trains,
    # whichever value the one trial would draw
    ("bogus", ("tune", CURVES, "--dt", "2", "--activations", "tanh,bogus", "--trials", "1"), 4),
    # a Tm at which dH, dG and dS overflow a float
    ("tmhuge", ("thermo", "--kinetics", "{kinetics}", "--tm", "1e308"), 3),
    # a negative seed, by the parser
    ("negseed", ("train", CURVES, "--dt", "2", "--seed", "-1"), 2),
    # finite predictions whose errors overflow a float
    ("overflow", ("evaluate", "--predictions", "{overflow}"), 3),
    # a network too large to allocate: numpy refuses the 2.84 PiB request at
    # once, without touching memory
    ("hugenet", ("train", CURVES, "--dt", "2", "--hidden", "10000000"), 4),
    # a tune catalogue whose largest network cannot be allocated, before any
    # trial trains, though seed 0's one trial would draw 8 hidden units
    ("hugecat", ("tune", CURVES, "--dt", "6", "--trials", "1", "--seed", "0",
                 "--epochs-choices", "1", "--hidden-choices", "8,10000000"), 4),
]


@pytest.mark.parametrize("name, argv, code", REFUSALS, ids=[row[0] for row in REFUSALS])
def test_refused_without_a_bundle(request, root, pyrokin, name, argv, code):
    argv = expand(request, argv)
    out_dir = [] if "--out-dir" in argv else ["--out-dir", str(root / name)]
    proc = pyrokin(*argv, *out_dir)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if out_dir:
        assert not (root / name).exists()


def twice(name, argv, *files):
    """A rerun: the same argv in bundles ``<name>1`` and ``<name>2``."""
    return pytest.param((f"{name}1", argv), (f"{name}2", argv), files, id=name)


# ((bundle name, argv), (bundle name, argv), files): the two runs write
# byte-identical files
RERUNS = [
    # on a fine conversion grid (99 levels); text format, so no SVG is added
    twice("fine", FINE_GRID, "kinetics.csv", "kinetics.txt"),
    # two layers with dropout, and 590 training windows, so the default batch
    # of 32 leaves a short last batch of 14 every epoch
    twice("train", ("train", CURVES, "--layers", "2", "--dropout", "0.2", "--epochs", "2",
                    "--hidden", "8", "--dt", "2"), "model.json", "history.csv"),
    # three layers with dropout under RMSprop, batch 7: the 590 training
    # windows leave a last batch of 2, where numpy multiplies matrices by
    # vectors and the weights' memory order sets the rounding
    twice("rms", ("train", CURVES, "--layers", "3", "--dropout", "0.2", "--optimizer", "rmsprop",
                  "--batch", "7", "--epochs", "2", "--hidden", "8", "--dt", "2"),
          "model.json", "history.csv"),
    # stacked layers with dropout, and the same short last batch of 14 windows
    twice("tune", TUNE, "leaderboard.csv", "best_config.json"),
    twice("predict", PREDICT, "predictions.csv", "predictions.svg"),
    # on all three curves: at 8 hidden units a 409-window block is either one
    # curve's consecutive windows or straddles two curves
    twice("evaluate", ("evaluate", CURVES, "--model", "{model}"), "metrics.csv"),
    # a field a --config file leaves out takes TrainConfig's default, as a
    # flag left out does: the partial config trains the flags' model
    pytest.param(("partial", ("train", CURVES, "--dt", "2", "--config", "{partial}")),
                 ("partialflags", ("train", CURVES, "--dt", "2", "--epochs", "1",
                                   "--layers", "2")),
                 ("model.json", "history.csv"), id="partial"),
    # the blend preset's default fraction is 0.75: the same curve, sidecar and model
    pytest.param(("blenddefault", ("synth", "--preset", "blend", "--beta", "10")),
                 ("blend075", ("synth", "--preset", "blend", "--frac", "0.75", "--beta", "10")),
                 ("blend-0.75_beta10.csv", "blend-0.75_beta10.json", "blend-0.75_model.json"),
                 id="blend"),
    # --stage-windows naming the default hemicellulose window
    pytest.param(("peak", THERMO_CURVE),
                 ("peakflag", (*THERMO_CURVE, "--stage-windows", "hemicellulose:225:325")),
                 ("thermo.csv",), id="stage-windows"),
    # the curves and sidecars behind a UTF-8 byte-order mark, and with CRLF
    # line ends, analyze to the kinetics.csv of the plain files
    pytest.param(("bomkin", ("analyze", "{bom}", "--format", "csv")), ("kinetics", ANALYZE_SVG),
                 ("kinetics.csv",), id="bom"),
    pytest.param(("crlfkin", ("analyze", "{crlf}", "--format", "csv")), ("kinetics", ANALYZE_SVG),
                 ("kinetics.csv",), id="crlf"),
]


@pytest.mark.parametrize("first, second, files", RERUNS)
def test_runs_write_the_same_bytes(request, bundle, first, second, files):
    a, b = (bundle(name, expand(request, argv)) for name, argv in (first, second))
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_print_the_import_time(fresh_python, capsys):
    # not a gate: the cumulative microseconds of importing pyrokin.cli
    proc = fresh_python("-X", "importtime", "-c", "import pyrokin.cli")
    with capsys.disabled():
        print("\n" + proc.stderr.splitlines()[-1])


def test_the_checkpoint_resaves_byte_for_byte_in_another_process(fresh_python, model):
    proc = fresh_python("-c", (
        "import sys; from pathlib import Path; "
        "from pyrokin.seqmodel.lstm import load_model, save_model; "
        "text = Path(sys.argv[1]).read_text(); "
        "assert save_model(load_model(text)) == text, 'model.json does not round-trip'"),
        str(model))
    assert proc.returncode == 0, proc.stderr


def test_print_the_minor_faults_of_a_repeated_tune(request, root, fresh_python, capsys):
    # the fault count is not a gate: with the freed training caches kept
    # mapped, few pages are faulted back in
    proc = fresh_python("-c", (
        "import resource, sys; from pyrokin.cli import main; "
        "argv = ['tune', *sys.argv[1:-1], '--out-dir', sys.argv[-1]]; "
        "assert main(argv) == 0; "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "assert main(argv) == 0; "
        "print('minor faults of a repeated tune:', "
        "resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"),
        *expand(request, TUNE[1:]), str(root / "tunefaults"))
    assert proc.returncode == 0, proc.stderr
    with capsys.disabled():
        print("\n" + proc.stdout.splitlines()[-1])


def test_retraining_the_best_config_gives_the_best_validation_loss(request, bundle):
    # on tune's curves and --dt, with its best_config.json and --seed
    tuned = bundle("tune1", expand(request, TUNE))
    retrained = bundle("retrain", expand(request, (
        "train", CURVES, "--dt", "2", "--config", str(tuned / "best_config.json"),
        "--seed", "5")))
    best = (tuned / "leaderboard.csv").read_text().splitlines()[1].split(",")[2]
    rows = (retrained / "history.csv").read_text().splitlines()[1:]
    assert min((row.split(",")[2] for row in rows), key=float) == best


def test_another_stages_peak_sets_the_reference_temperature(request, bundle):
    out = bundle("cellulose", expand(request, (*THERMO_CURVE, "--stage", "cellulose")))
    assert (out / "thermo.csv").exists()


def test_every_svg_is_well_formed(request, root, bundle):
    for name, argv in (("kinetics", ANALYZE_SVG), ("thermo", THERMO_SVG),
                       ("predict1", PREDICT), ("predict2", PREDICT)):
        bundle(name, expand(request, argv))
    paths = [p for p in root.rglob("*.svg") if p.is_file()]
    assert len(paths) == 6, paths
    for path in paths:
        ElementTree.parse(path)


def test_a_directory_on_the_last_output_name_leaves_no_bundle(request, root, pyrokin):
    (root / "squat" / "ea_vs_alpha.svg").mkdir(parents=True)
    proc = pyrokin(*expand(request, ANALYZE_SVG), "--out-dir", str(root / "squat"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (root / "squat" / "manifest.json").exists()
    assert not (root / "squat" / "kinetics.csv").exists()


def test_a_malformed_list_value_prints_the_usage_line(request, root, pyrokin):
    proc = pyrokin(*expand(request, ("analyze", CURVES, "--alpha-grid", "0.1:0.7")),
                   "--out-dir", str(root / "badgrid"))
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("usage:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not (root / "badgrid").exists()


def test_rounded_two_column_curves_analyze(request, bundle):
    out = bundle("roundedkin", expand(request, ("analyze", "{rounded}", "--format", "csv")))
    assert (out / "kinetics.csv").exists()


def test_the_alpha_grid_runs_from_start_by_step_up_to_stop(request, bundle):
    out = bundle("grid", expand(request, ("analyze", CURVES, "--alpha-grid", "0.1:0.6:0.3",
                                          "--format", "csv")))
    rows = (out / "kinetics.csv").read_text().splitlines()[1:]
    assert sorted({row.split(",")[0] for row in rows}) == ["0.1", "0.4"]


def readme_session():
    """The ``sh`` block after "A typical session" in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme[readme.index("A typical session"):]
    start = after.index("```sh\n") + len("```sh\n")
    return after[start:after.index("```", start)]


# each --out-dir of README's session and the files its paragraphs name there
SESSION_BUNDLES = {
    "out/curves": [f"three-component-ds_beta{b}.{ext}" for b in (5, 10, 15, 20)
                   for ext in ("csv", "json")] + ["three-component-ds_model.json"],
    "out/kinetics": ["kinetics.csv", "kinetics.txt", "ea_vs_alpha.csv", "ea_vs_alpha.svg"],
    "out/thermo": ["thermo.csv"],
    "out/model": ["model.json", "history.csv"],
    "out/pred": ["predictions.csv", "predictions.svg"],
}


def test_the_readme_session_runs(tmp_path):
    session = readme_session()
    assert re.findall(r"--out-dir (\S+)", session) == list(SESSION_BUNDLES)
    env = {**os.environ, "PYTHON": sys.executable,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYROKIN_OUT", None)
    proc = subprocess.run(
        ["bash", "-e"], input='pyrokin() { "$PYTHON" -m pyrokin.cli "$@"; }\n' + session,
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    for out_dir, names in SESSION_BUNDLES.items():
        for name in ["manifest.json", *names]:
            assert (tmp_path / out_dir / name).is_file(), f"{out_dir}/{name}"
