"""The four benchmark workloads: inputs drawn from a seed, CLI commands, checks.

Each workload draws its parameters from the workload seed alone, sets up its
inputs through the CLI (``synth``, and ``train`` for predict_batch), and
yields one pass: a fixed list of ops, each a short sequence of CLI commands
whose outputs are checked afterwards. The program sees only the generated
command lines and files.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bound before any tracing starts, so the checks never show up as spans.
from pyrokin.report import analysis_from_csv, predictions_from_csv
from pyrokin.seqmodel.lstm import load_model, save_model
from pyrokin.seqmodel.search import SearchSpace
from pyrokin.seqmodel.training import TrainConfig

SINGLE_STEP_EA = 180e3  # J/mol, ground truth of the single-step preset
# README tolerances for single-step recovery at 5-20 K/min.
EA_TOLERANCE = {"friedman": 0.01, "kas": 0.02, "fwo": 0.05}
THERMO_IDENTITY_TOL = 1e-9
LOOK_BACK = 20
TRAIN_SHARE = 0.70  # split_dataset's default training share


class CheckFailed(Exception):
    """An op's outputs do not meet the benchmark's correctness checks."""


@dataclass
class Op:
    """One closed-loop operation: CLI commands issued back to back."""

    label: str
    commands: list  # argv lists
    items: int
    check: object  # callable(op_dir) -> dict of quality values


class Workload:
    name = ""
    item = ""  # the unit of work items_per_s counts
    # Exponent k of the host speed in calibrated time (see hostspeed.py):
    # the share of the probe's slowdown this workload's ops feel. Chosen on
    # the reference VM as the k that minimised the spread of items_per_s
    # over 10 seeded runs, and checked on 5 further runs.
    host_sensitivity = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.draw()

    def draw(self):
        """Draw every seed-dependent parameter; called once."""

    def setup_commands(self, setup_dir: Path) -> list:
        return []

    def ops(self, setup_dir: Path, work: Path) -> list[Op]:
        raise NotImplementedError

    def quality(self, checked: list[dict]) -> dict:
        """Result-quality metrics, ``{name: (value, unit)}``, from the values
        the checks of the passed ops returned."""
        return {}


# ---------------------------------------------------------------- helpers
def _fmt(x: float) -> str:
    return f"{x:g}"


def _synth_argv(preset, rates, dt, out: Path, frac=None):
    argv = ["synth", "--preset", preset, "--beta", ",".join(_fmt(r) for r in rates),
            "--dt", _fmt(dt), "--out-dir", str(out)]
    if frac is not None:
        argv += ["--frac", _fmt(frac)]
    return argv


def _curve_stem(preset, rate, frac=None) -> str:
    name = f"blend-{frac:g}" if preset == "blend" else preset
    return f"{name}_beta{rate:g}"


def _sample_id(csv_path: Path) -> str:
    return json.loads(csv_path.with_suffix(".json").read_text())["sample_id"]


def _resampled_rows(csv_path: Path, dt: float) -> int:
    """Rows of a curve once resampled to step dt (resample_uniform's grid)."""
    lines = [ln for ln in csv_path.read_text().splitlines() if ln.strip()]
    t_first = float(lines[1].split(",")[1])
    t_last = float(lines[-1].split(",")[1])
    return max(1, round((t_last - t_first) / dt)) + 1


def _train_windows(csv_paths, dt: float) -> int:
    windows = sum(_resampled_rows(p, dt) - LOOK_BACK for p in csv_paths)
    return int(windows * TRAIN_SHARE)


def _blend_fracs(rng: random.Random, k: int):
    return [f / 100.0 for f in rng.sample(range(10, 91, 5), k)]


def _read_csv(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _check_model_roundtrip(model_path: Path):
    text = model_path.read_text()
    _require(save_model(load_model(text)) == text, f"{model_path} does not round-trip")


def _check_history(path: Path, epochs: int):
    header, rows = _read_csv(path)
    _require(header == ["epoch", "train_loss", "val_loss"], "history.csv header")
    _require(len(rows) == epochs, f"history.csv has {len(rows)} epochs, want {epochs}")
    _require(all(math.isfinite(float(v)) for row in rows for v in row[1:]),
             "history.csv has a non-finite loss")


# ---------------------------------------------------------------- kinetics_study
@dataclass
class Study:
    preset: str
    frac: float | None
    rates: list
    dt: float

    @property
    def stage(self) -> str:
        # The single-step peak sits on the hemicellulose window's edge.
        return "cellulose" if self.preset == "single-step" else "hemicellulose"


class KineticsStudy(Workload):
    """Each op is one study: synth, analyze --format svg, thermo --curve."""

    name = "kinetics_study"
    item = "curve"

    def draw(self):
        # Every pass holds one study per (rate count, step) pair, so the cost
        # of a pass is the same for every seed; presets, blend fractions,
        # rates and the order vary. Each step gets one single-step study.
        others = ["three-component-ds", "three-component-scg", "blend", "blend"]
        self.rng.shuffle(others)
        studies = []
        for k, dt in enumerate((0.5, 1.0)):
            presets = ["single-step", *others[2 * k: 2 * k + 2]]
            self.rng.shuffle(presets)
            for n_rates, preset in zip((3, 4, 5), presets):
                rates = sorted(self.rng.sample(range(5, 21), n_rates))
                frac = _blend_fracs(self.rng, 1)[0] if preset == "blend" else None
                studies.append(Study(preset, frac, rates, dt))
        self.rng.shuffle(studies)
        self.studies = studies

    def ops(self, setup_dir, work):
        ops = []
        for j, study in enumerate(self.studies):
            d = work / f"study{j}"
            curves = [d / "curves" / f"{_curve_stem(study.preset, r, study.frac)}.csv"
                      for r in study.rates]
            middle = curves[len(curves) // 2]
            commands = [
                _synth_argv(study.preset, study.rates, study.dt, d / "curves", study.frac),
                ["analyze", *map(str, curves), "--format", "svg",
                 "--out-dir", str(d / "analyze")],
                ["thermo", "--kinetics", str(d / "analyze" / "kinetics.csv"),
                 "--curve", str(middle), "--stage", study.stage,
                 "--out-dir", str(d / "thermo")],
            ]
            ops.append(Op(f"study{j}", commands, len(study.rates),
                          lambda op_dir, s=study: self.check(op_dir, s)))
        return ops

    def quality(self, checked):
        errs = [q["friedman_ea_rel_err"] for q in checked if "friedman_ea_rel_err" in q]
        return {"friedman_ea_rel_err": (max(errs), "1")} if errs else {}

    @staticmethod
    def check(op_dir: Path, study: Study) -> dict:
        table = analysis_from_csv((op_dir / "analyze" / "kinetics.csv").read_text())
        _require(len(table.estimates) > 0, "kinetics.csv has no estimates")
        for name in ("kinetics.txt", "ea_vs_alpha.csv", "ea_vs_alpha.svg"):
            _require((op_dir / "analyze" / name).is_file(), f"analyze wrote no {name}")
        quality = {}
        if study.preset == "single-step":
            worst = {}
            for est in table.estimates:
                err = abs(est.ea - SINGLE_STEP_EA) / SINGLE_STEP_EA
                worst[est.method] = max(worst.get(est.method, 0.0), err)
            for method, tol in EA_TOLERANCE.items():
                _require(method in worst, f"no {method} estimates")
                _require(worst[method] <= tol,
                         f"{method} Ea error {worst[method]:.3g} exceeds {tol}")
            quality["friedman_ea_rel_err"] = worst["friedman"]
        _check_thermo(op_dir / "thermo" / "thermo.csv", len(table.estimates))
        return quality


def _check_thermo(path: Path, n_estimates: int):
    """Every row triple satisfies dG = dH - Tm*dS with one shared Tm."""
    header, rows = _read_csv(path)
    _require(header == ["alpha", "method", "quantity", "value"], "thermo.csv header")
    triples = {}
    for alpha, method, quantity, value in rows:
        scale = 1000.0 if quantity in ("dH", "dG") else 1.0  # kJ/mol -> J/mol
        triples.setdefault((alpha, method), {})[quantity] = float(value) * scale
    _require(len(triples) == n_estimates, "thermo.csv misses estimates")
    _require(all(len(t) == 3 for t in triples.values()), "thermo.csv misses a quantity")
    best = max(triples.values(), key=lambda t: abs(t["dS"]))
    _require(best["dS"] != 0.0, "thermo.csv has only zero entropies")
    t_m = (best["dH"] - best["dG"]) / best["dS"]
    _require(300.0 < t_m < 1200.0, f"implied Tm {t_m} K outside the curve")
    for t in triples.values():
        residual = abs(t["dG"] - (t["dH"] - t_m * t["dS"])) / max(abs(t["dG"]), 1.0)
        _require(residual <= THERMO_IDENTITY_TOL,
                 f"dG = dH - Tm*dS off by {residual:.3g} (relative)")


# ---------------------------------------------------------------- train_c07
C07_FLAGS = ["--mode", "model2", "--dt", "1", "--look-back", str(LOOK_BACK),
             "--hidden", "48", "--layers", "1", "--activation", "tanh",
             "--optimizer", "adam", "--lr", "0.005", "--batch", "64",
             "--dropout", "0", "--patience", "5"]
STANDARD_RATES = (5, 10, 15, 20)


class TrainC07(Workload):
    """train with the C07 configuration, then evaluate on the held-out rate."""

    name = "train_c07"
    item = "window-epoch"
    host_sensitivity = 0.75
    EPOCHS = 2

    def draw(self):
        self.fracs = _blend_fracs(self.rng, 3)
        self.train_seed = self.rng.randrange(2**31)

    def setup_commands(self, setup_dir):
        return [_synth_argv("blend", STANDARD_RATES, 0.5, setup_dir / "curves", f)
                for f in self.fracs]

    def ops(self, setup_dir, work):
        curves = sorted((setup_dir / "curves").glob("*.csv"))
        held = [p for p in curves if p.stem.endswith("_beta15")]
        holdout = ",".join(f"{_sample_id(p)}@15" for p in held)
        d = work / "c07"
        commands = [
            ["train", *map(str, curves), *C07_FLAGS, "--epochs", str(self.EPOCHS),
             "--holdout", holdout, "--seed", str(self.train_seed),
             "--out-dir", str(d / "train")],
            ["evaluate", *map(str, held), "--model", str(d / "train" / "model.json"),
             "--dt", "1", "--out-dir", str(d / "evaluate")],
        ]
        items = _train_windows([p for p in curves if p not in held], 1.0) * self.EPOCHS
        return [Op("c07", commands, items, self.check)]

    def check(self, op_dir: Path) -> dict:
        _check_model_roundtrip(op_dir / "train" / "model.json")
        _check_history(op_dir / "train" / "history.csv", self.EPOCHS)
        header, rows = _read_csv(op_dir / "evaluate" / "metrics.csv")
        _require(header == ["mae", "mse", "rmse", "r_squared"] and len(rows) == 1,
                 "metrics.csv layout")
        values = [float(v) for v in rows[0]]
        _require(all(math.isfinite(v) for v in values), "metrics.csv is not finite")
        return {"rmse_pct": values[2]}

    def quality(self, checked):
        rmses = [q["rmse_pct"] for q in checked]
        return {"rmse_pct": (statistics.median(rmses), "%")} if rmses else {}


# ---------------------------------------------------------------- predict_batch
class PredictBatch(Workload):
    """Set-up trains one model; each op is one predict on one curve."""

    name = "predict_batch"
    item = "window"
    host_sensitivity = 0.6
    SETUP_EPOCHS = 1

    def draw(self):
        self.fracs = _blend_fracs(self.rng, 2)
        self.train_seed = self.rng.randrange(2**31)
        n_curves = len(self.fracs) * len(STANDARD_RATES)
        # Two of three ops predict on the 1 K grid, so the median op is a
        # 1 K one and the tail op a 0.5 K one, whatever the seed.
        fine = set(self.rng.sample(range(n_curves), n_curves // 2))
        plan = [(k, 1.0) for k in range(n_curves)] + [(k, 0.5) for k in sorted(fine)]
        self.rng.shuffle(plan)
        self.plan = plan

    def setup_commands(self, setup_dir):
        curves = setup_dir / "curves"
        commands = [_synth_argv("blend", STANDARD_RATES, 0.5, curves, f) for f in self.fracs]
        stems = [_curve_stem("blend", r, f) for f in self.fracs for r in STANDARD_RATES]
        commands.append(
            ["train", *(str(curves / f"{s}.csv") for s in stems), *C07_FLAGS,
             "--epochs", str(self.SETUP_EPOCHS), "--seed", str(self.train_seed),
             "--out-dir", str(setup_dir / "model")])
        return commands

    def ops(self, setup_dir, work):
        stems = [_curve_stem("blend", r, f) for f in self.fracs for r in STANDARD_RATES]
        model = setup_dir / "model" / "model.json"
        ops = []
        for j, (k, dt) in enumerate(self.plan):
            curve = setup_dir / "curves" / f"{stems[k]}.csv"
            windows = _resampled_rows(curve, dt) - LOOK_BACK
            argv = ["predict", str(curve), "--model", str(model), "--dt", _fmt(dt),
                    "--out-dir", str(work / f"predict{j}")]
            ops.append(Op(f"predict{j}", [argv], windows,
                          lambda op_dir, n=windows: self.check(op_dir, n)))
        return ops

    @staticmethod
    def check(op_dir: Path, windows: int) -> dict:
        temps, actual, predicted = predictions_from_csv(
            (op_dir / "predictions.csv").read_text())
        _require(len(temps) == windows,
                 f"predictions.csv has {len(temps)} rows, want {windows}")
        _require(bool(np.isfinite(predicted).all()), "non-finite prediction")
        _require((op_dir / "predictions.svg").is_file(), "predict wrote no SVG")
        return {"sq_err": float(((predicted - actual) ** 2).sum()), "n": len(temps)}

    def quality(self, checked):
        """RMSE pooled over every prediction of the run."""
        n = sum(q["n"] for q in checked)
        if not n:
            return {}
        return {"rmse_pct": (math.sqrt(sum(q["sq_err"] for q in checked) / n), "%")}


# ---------------------------------------------------------------- tune_small
TUNE_HIDDEN = (8, 16, 32)
TUNE_SPACE_FLAGS = ["--epochs-choices", "2", "--layers-choices", "1,2,3",
                    "--batch-choices", "32,64"]


def tune_space(hidden: int) -> SearchSpace:
    """The space the CLI builds from TUNE_SPACE_FLAGS and one hidden size."""
    return SearchSpace(epochs_choices=(2,), hidden_choices=(hidden,),
                       layer_choices=(1, 2, 3), batch_sizes=(32, 64))


def trial_configs(master_seed: int, trials: int, space: SearchSpace):
    """The configs random_search draws for a master seed (same derivation)."""
    configs = []
    for i in range(trials):
        rng = np.random.default_rng([master_seed, i])
        seed = int(rng.integers(2**31))
        configs.append(space.sample(rng, seed=seed))
    return configs


def stratified_master_seed(rng: random.Random, space: SearchSpace) -> int:
    """A master seed whose trials cover every (layers, batch) pair once.

    Trial cost follows the layer count, the hidden size and the steps per
    epoch. Fixing that mix keeps a pass equally heavy for every workload
    seed, while the seed still picks rates, dropout, activations and
    optimizers.
    """
    pairs = sorted((l, b) for l in space.layer_choices for b in space.batch_sizes)
    while True:
        candidate = rng.randrange(2**31)
        configs = trial_configs(candidate, len(pairs), space)
        if sorted((c.lstm_layers, c.batch_size) for c in configs) == pairs:
            return candidate


class TuneSmall(Workload):
    """Random searches over small models on two 3 K curves.

    One op, and one pass, is three searches, one per hidden size in
    {8, 16, 32}, in seed order. Each search has six trials, one per
    (layers, batch) pair, so an op trains every (layers, batch, hidden)
    combination once.
    """

    name = "tune_small"
    item = "window-epoch"
    host_sensitivity = 0.9
    TRIALS = 6
    EPOCHS = 2

    def draw(self):
        self.frac = _blend_fracs(self.rng, 1)[0]
        self.rates = sorted(self.rng.sample(range(5, 21), 2))
        hidden = list(TUNE_HIDDEN)
        self.rng.shuffle(hidden)
        self.searches = [(h, stratified_master_seed(self.rng, tune_space(h)))
                         for h in hidden]

    def setup_commands(self, setup_dir):
        return [_synth_argv("blend", self.rates, 1.0, setup_dir / "curves", self.frac)]

    def ops(self, setup_dir, work):
        curves = sorted((setup_dir / "curves").glob("*.csv"))
        commands = [
            ["tune", *map(str, curves), "--mode", "model2", "--dt", "3",
             "--look-back", str(LOOK_BACK), "--trials", str(self.TRIALS),
             "--seed", str(master_seed), "--hidden-choices", str(hidden),
             *TUNE_SPACE_FLAGS, "--out-dir", str(work / "tune" / f"h{hidden}")]
            for hidden, master_seed in self.searches
        ]
        items = _train_windows(curves, 3.0) * self.EPOCHS * self.TRIALS * len(commands)
        return [Op("tune", commands, items, self.check)]

    def check(self, op_dir: Path) -> dict:
        for hidden, _ in self.searches:
            out = op_dir / f"h{hidden}"
            header, rows = _read_csv(out / "leaderboard.csv")
            _require(header[:3] == ["rank", "trial", "val_loss"], "leaderboard.csv header")
            _require(sorted(int(r[1]) for r in rows) == list(range(self.TRIALS)),
                     f"leaderboard.csv has {len(rows)} rows for {self.TRIALS} trials")
            _require(all(math.isfinite(float(r[2])) for r in rows), "non-finite val loss")
            TrainConfig.from_dict(json.loads((out / "best_config.json").read_text()))
        return {}


WORKLOADS = {
    "kinetics_study": KineticsStudy,
    "train_c07": TrainC07,
    "predict_batch": PredictBatch,
    "tune_small": TuneSmall,
}
