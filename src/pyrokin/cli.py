"""Batch command-line interface.

Commands: analyze, thermo, synth, features, train, tune, predict, evaluate,
massbalance. Every command that produces files hands them to ``_emit``,
which writes them into the output directory (``--out-dir``, or the
PYROKIN_OUT environment variable, or the working directory) and the run
manifest last: a directory holding ``manifest.json`` holds that run's whole
bundle, and a failed run removes what it wrote. All outputs except the
manifest's timestamp are byte-identical across reruns with equal inputs.

Exit codes: 0 success, else the ``exit_code`` of the raised error class
(see ``errors``); a file that cannot be read or written exits like an input
problem, with a message naming it.
"""

from __future__ import annotations

import argparse
import ctypes  # numpy has already imported it
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .constants import KELVIN_OFFSET
from .errors import ConfigError, DomainError, InputError, PyrokinError
from .kinetics import KineticModelAssumption, by_method, run_analysis
from .manifest import write_manifest
from .preprocess import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_M0_AT_C,
    DEFAULT_SMOOTH_WINDOW,
    FEATURE_COLUMNS,
    compute_dtg,
    find_peaks,
    kelvin_windows,
)
from .report import (
    analysis_from_csv,
    analysis_to_csv,
    analysis_to_text,
    ea_plot_csv,
    ea_plot_series,
    history_to_csv,
    leaderboard_to_csv,
    metrics_to_csv,
    metrics_to_text,
    predictions_from_csv,
    predictions_to_csv,
    thermo_to_csv,
)
from .svgplot import emit_svg
from .synthkin import BLEND_FRAC, PRESETS, model_to_json, preset, simulate
from .tga_io import (
    csv_text,
    curve_to_csv,
    load_curve,
    resample_uniform,
    sidecar_to_spec,
    spec_to_sidecar,
)
from .thermo import thermo_profile

# The LSTM package (``seqmodel``) is imported only inside the model commands, so
# the kinetic commands start without it.

# caps an --alpha-grid at 99 levels in (0, 1); kinetics.txt prints as many
# decimals as the levels need to tell them apart
MIN_ALPHA_STEP = 0.01

MASS_BALANCE_TOL = 0.005

# thermo's flags that only a --curve run reads, by dest, and the values such a
# run takes for the flags left out
THERMO_CURVE_DEFAULTS = {"stage": "hemicellulose", "stage_windows": None,
                         "smooth_window": DEFAULT_SMOOTH_WINDOW, "dt": 0.5}


def vm_from_char(eta_pct: float) -> float:
    """Volatile-matter percent from char yield: the two must sum to 100."""
    if not (0.0 <= eta_pct <= 100.0):
        raise DomainError(f"char yield must lie in [0, 100], got {eta_pct}")
    return 100.0 - eta_pct


def check_mass_balance(vm_pct: float, eta_pct: float) -> bool:
    """True when a reported (VM, char) pair satisfies the sum identity.

    The tolerance, MASS_BALANCE_TOL, is half the last printed decimal of
    two-decimal percentage tables.
    """
    return abs(vm_pct - vm_from_char(eta_pct)) <= MASS_BALANCE_TOL


def _read_text(path, error=InputError) -> str:
    """Every input file is read here. Bytes that are not UTF-8 raise
    ``error`` naming the file; an OSError already names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {path}: {exc}") from None


def _load_curve_file(path):
    sidecar = Path(path).with_suffix(".json")
    if not sidecar.exists():
        raise InputError(f"missing metadata sidecar {sidecar} for {path}")
    spec, beta = sidecar_to_spec(_read_text(sidecar))
    return load_curve(_read_text(path), spec, beta)


def _finite_float(text: str) -> float:
    """argparse type for every float flag: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_alpha_grid(text: str):
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}") from None
    if not (0.0 < start <= stop < 1.0 and MIN_ALPHA_STEP <= step < math.inf):
        raise argparse.ArgumentTypeError(
            f"need 0 < start <= stop < 1 and a finite step of at least {MIN_ALPHA_STEP}, "
            f"got {text!r}"
        )
    n = int(round((stop - start) / step))
    grid = tuple(round(start + i * step, 10) for i in range(n + 1))
    if not 0.0 < grid[0] <= grid[-1] < 1.0:
        raise argparse.ArgumentTypeError(f"levels {grid[0]}..{grid[-1]} of {text!r} leave (0, 1)")
    return grid


def _parse_float_list(text: str):
    return tuple(_finite_float(tok) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _parse_str_list(text: str):
    return tuple(text.split(",")) if text else ()


def _parse_stage_windows(text: str):
    """Format: name:lo_c:hi_c[,name:lo_c:hi_c...] with finite lo_c < hi_c and
    no name twice; returns kelvin windows."""
    windows = {}
    for part in text.split(","):
        name, *bounds = part.split(":")
        name = name.strip()
        if len(bounds) != 2:
            raise argparse.ArgumentTypeError(f"bad entry {part!r}; expected name:lo_c:hi_c")
        lo, hi = map(_finite_float, bounds)
        if not lo < hi:
            raise argparse.ArgumentTypeError(f"bad entry {part!r}; need lo_c < hi_c")
        if name in windows:
            raise argparse.ArgumentTypeError(f"stage {name!r} is given twice")
        windows[name] = (lo, hi)
    return kelvin_windows(windows)


def _curve_id(curve) -> str:
    return f"{curve.spec.sample_id}@{curve.heating_rate_beta:g}"


def _windows(paths, mode, look_back, dt=None):
    """Curve files to model inputs, for every command that featurises curves.

    Each curve is resampled onto a ``dt`` grid when one is given, and its
    feature rows are windowed. Returns the prepared curves by curve id and
    their windows.
    """
    from .seqmodel.features import window_sequences

    curves = {}
    for path in paths:
        curve = _load_curve_file(path)
        curve = resample_uniform(curve, dt) if dt is not None else curve
        cid = _curve_id(curve)
        if "," in cid:
            raise InputError(f"curve id {cid!r} of {path} holds a comma, "
                             f"which features.csv and --holdout cannot carry")
        if cid in curves:
            raise InputError(f"two curves have curve id {cid!r}; the second is {path}")
        curves[cid] = curve
    samples = window_sequences(curves, mode, look_back)
    if not samples:
        raise InputError(f"no windows: every curve has at most look_back={look_back} rows")
    return curves, samples


def _emit(args, command, inputs, config: dict, files: dict):
    """Every command's one way to disk: an earlier manifest is removed, then
    ``files`` ({name: text}) are written in order and manifest.json last. On
    any failure the files this call wrote are removed before it re-raises."""
    out = Path(args.out_dir or os.environ.get("PYROKIN_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.json"
    manifest.unlink(missing_ok=True)
    written = [manifest]
    try:
        for name, text in files.items():
            written.append(out / name)
            written[-1].write_text(text, encoding="utf-8")
        write_manifest(out, command, inputs, config, getattr(args, "seed", None),
                       __version__)
    except BaseException:
        for path in written:
            if not path.is_dir():  # squatting on an output name; not this run's
                path.unlink(missing_ok=True)
        raise


def cmd_analyze(args):
    curves = [_load_curve_file(p) for p in args.curves]
    table = run_analysis(
        curves,
        alpha_grid=args.alpha_grid,
        model=KineticModelAssumption(order=args.order),
        smooth_window=args.smooth_window,
        m0_at_c=args.m0_at,
        resample_dt=args.dt,
    )
    if args.format == "svg" and len(table.included_alphas) < 2:
        levels = ", ".join(f"{a:g}" for a in table.included_alphas) or "none"
        raise InputError("--format svg needs at least 2 included conversion levels, "
                         f"got {len(table.included_alphas)} ({levels})")
    config = {
        "alpha_grid": list(args.alpha_grid),
        "smooth_window": args.smooth_window,
        "m0_at": args.m0_at,
        "dt": args.dt,
        "order": args.order,
    }
    files = {"kinetics.csv": analysis_to_csv(table)}
    if args.format in ("text", "svg"):
        files["kinetics.txt"] = analysis_to_text(table)
    files["ea_vs_alpha.csv"] = ea_plot_csv(table)
    if args.format == "svg":
        files["ea_vs_alpha.svg"] = emit_svg(
            ea_plot_series(table), f"Ea vs conversion: {table.sample_id}",
            "conversion", "Ea (kJ/mol)")
    _emit(args, "analyze", args.curves, config, files)
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for method, ea in table.ea_averages().items():
        print(f"{method}: average Ea = {ea / 1000.0:.2f} kJ/mol")


def cmd_thermo(args):
    # the parser lets exactly one of --tm and --curve through, and leaves each
    # curve-only flag that is not given None
    given = {dest: value for dest in THERMO_CURVE_DEFAULTS
             if (value := getattr(args, dest)) is not None}
    if args.tm is not None and given:
        flags = ", ".join(args.flags[dest] for dest in given)
        raise InputError(f"--tm is the reference temperature; only --curve reads {flags}")
    table = analysis_from_csv(_read_text(args.kinetics))
    inputs, config = [args.kinetics], {}
    if args.tm is None:
        opts = {**THERMO_CURVE_DEFAULTS, **given}
        inputs.append(args.curve)
        curve = resample_uniform(_load_curve_file(args.curve), opts["dt"])
        peaks = find_peaks(compute_dtg(curve, opts["smooth_window"]), opts["stage_windows"])
        stage_peaks = [p for p in peaks if p.stage_label == opts["stage"]]
        if not stage_peaks:
            raise InputError(
                f"no {opts['stage']!r} peak found in {args.curve}; pass --tm explicitly"
            )
        t_m = stage_peaks[0].T_peak
        config["stage"] = opts["stage"]
    else:
        t_m = args.tm
    config["tm"] = t_m
    profile = thermo_profile(table, t_m)
    files = {"thermo.csv": thermo_to_csv(profile)}
    if args.format == "svg":
        groups = by_method(profile)
        for quantity, pick, unit in (
            ("dH", lambda e: e.delta_h / 1000.0, "kJ/mol"),
            ("dG", lambda e: e.delta_g / 1000.0, "kJ/mol"),
            ("dS", lambda e: e.delta_s, "J/(mol K)"),
        ):
            series = [(method, [e.alpha for e in ests], [pick(e) for e in ests])
                      for method, ests in groups.items()]
            files[f"thermo_{quantity.lower()}.svg"] = emit_svg(
                series, f"{quantity} vs conversion", "conversion", f"{quantity} ({unit})")
    _emit(args, "thermo", inputs, config, files)
    print(f"thermo profile at Tm = {t_m:.2f} K: {len(profile)} estimates")


def cmd_synth(args):
    if not args.beta:
        raise InputError("need at least one heating rate")
    name, model, spec = preset(args.preset, args.frac)
    config = {"preset": args.preset, "betas": list(args.beta), "dt": args.dt}
    if args.preset == "blend":  # only the blend reads a fraction
        config["frac"] = BLEND_FRAC if args.frac is None else args.frac
    stems = {}  # file stem: heating rate; checked before anything is simulated
    for beta in args.beta:
        stem = f"{name}_beta{beta:g}"
        if stem in stems:
            raise InputError(f"heating rates {stems[stem]!r} and {beta!r} K/min would "
                             f"both be written to {stem}.csv")
        stems[stem] = beta
    files = {}
    for stem, beta in stems.items():
        files[f"{stem}.csv"] = curve_to_csv(simulate(model, beta, args.dt, spec=spec))
        files[f"{stem}.json"] = spec_to_sidecar(spec, beta)
    files[f"{name}_model.json"] = model_to_json(model)
    _emit(args, "synth", [], config, files)
    print(f"wrote {len(stems)} curves for preset {name}")


def cmd_features(args):
    curves, samples = _windows(args.curves, args.mode, 1, args.dt)
    ids = [cid for cid, curve in curves.items() for _ in range(curve.n_points)]
    table = np.column_stack([samples.rows, samples.mass_pct]).tolist()
    rows = [[cid, *row] for cid, row in zip(ids, table)]
    config = {"mode": args.mode, "dt": args.dt}
    header = ",".join(["curve_id", *FEATURE_COLUMNS[args.mode], "mass_pct"])
    _emit(args, "features", args.curves, config, {"features.csv": csv_text(header, rows)})
    print(f"wrote {len(rows)} feature rows")


def cmd_train(args):
    from .seqmodel.features import split_dataset
    from .seqmodel.lstm import save_model
    from .seqmodel.training import TrainConfig, train

    # every train flag's dest is the TrainConfig field it sets; a flag left
    # out is None and keeps TrainConfig's default
    given = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
             if getattr(args, f.name) is not None}
    if args.config:
        # beside a file, --seed seeds only the split; any other flag would
        # change nothing
        clash = [args.flags[name] for name in given if name != "seed"]
        if clash:
            raise ConfigError(f"--config sets every training field; also given: "
                              f"{', '.join(clash)}")
        config = TrainConfig.from_json(_read_text(args.config, ConfigError),
                                       f"config file {args.config}")
    else:
        config = TrainConfig(**given)
    _, samples = _windows(args.curves, args.mode, config.look_back, args.dt)
    train_set, val_set, _ = split_dataset(samples, holdout_curves=args.holdout, seed=args.seed)
    model, history = train(train_set, val_set, config)
    _emit(args, "train", args.curves,
          {"mode": args.mode, "dt": args.dt, "holdout": list(args.holdout),
           **config.to_dict()},
          {"model.json": save_model(model), "history.csv": history_to_csv(history)})
    best = min(rec.val_loss for rec in history)
    print(f"trained {len(history)} epochs; best val loss = {best:.6g}")


def cmd_tune(args):
    from .seqmodel.features import split_dataset
    from .seqmodel.search import SearchSpace, random_search
    from .seqmodel.training import TrainConfig

    # a catalogue flag left out is None and keeps SearchSpace's default
    given = {f.name: getattr(args, f.name) for f in fields(SearchSpace)
             if getattr(args, f.name) is not None}
    space = SearchSpace(**given)
    look_back = TrainConfig.look_back if args.look_back is None else args.look_back
    TrainConfig(look_back=look_back)  # every trial's; checked before any curve is read
    _, samples = _windows(args.curves, args.mode, look_back, args.dt)
    train_set, val_set, _ = split_dataset(samples, holdout_curves=args.holdout, seed=args.seed)
    best_config, leaderboard = random_search(
        space, args.trials, args.seed, train_set, val_set
    )
    _emit(args, "tune", args.curves,
          {"mode": args.mode, "trials": args.trials, "dt": args.dt,
           "holdout": list(args.holdout), "look_back": look_back, "space": str(space)},
          {"leaderboard.csv": leaderboard_to_csv(leaderboard),
           "best_config.json": json.dumps(best_config.to_dict(), indent=2,
                                          sort_keys=True) + "\n"})
    print(f"best trial: val loss = {leaderboard[0].val_loss:.6g}")


def cmd_predict(args):
    from .seqmodel.lstm import load_model
    from .seqmodel.metrics import metrics_from_arrays

    model = load_model(_read_text(args.model))
    look_back = model.params.config.look_back
    curves, samples = _windows([args.curve], model.feature_mode, look_back, args.dt)
    [(cid, prepared)] = curves.items()
    predicted = model.predict(samples)
    actual = samples.targets
    temps = prepared.temperature_k[look_back:] - KELVIN_OFFSET
    svg = emit_svg(
        [("actual", temps.tolist(), actual.tolist()),
         ("predicted", temps.tolist(), predicted.tolist())],
        f"mass-loss prediction: {cid}", "temperature (C)", "mass (%)")
    _emit(args, "predict", [args.model, args.curve],
          {"dt": args.dt},
          {"predictions.csv": predictions_to_csv(temps, actual, predicted),
           "predictions.svg": svg})
    print(metrics_to_text(metrics_from_arrays(actual, predicted)), end="")


def cmd_evaluate(args):
    from .seqmodel.lstm import load_model
    from .seqmodel.metrics import evaluate, metrics_from_arrays

    if args.predictions:
        ignored = (([f"--model {args.model}"] if args.model else [])
                   + (["--dt"] if args.dt is not None else []) + args.curves)
        if ignored:
            raise InputError(f"--predictions is scored alone; also given: {', '.join(ignored)}")
        _, actual, predicted = predictions_from_csv(_read_text(args.predictions))
        metrics = metrics_from_arrays(actual, predicted)
        inputs = [args.predictions]
    elif args.model and args.curves:
        model = load_model(_read_text(args.model))
        _, samples = _windows(args.curves, model.feature_mode, model.params.config.look_back,
                              args.dt)
        metrics = evaluate(model, samples)
        inputs = [args.model, *args.curves]
    else:
        raise InputError("need --predictions, or --model plus curve files")
    _emit(args, "evaluate", inputs, {"dt": args.dt},
          {"metrics.csv": metrics_to_csv(metrics), "metrics.txt": metrics_to_text(metrics)})
    print(metrics_to_text(metrics), end="")


def cmd_massbalance(args):
    vm = vm_from_char(args.char)
    print(f"char_yield_pct = {args.char:g}")
    print(f"vm_pct = {vm:g}")
    if args.vm is not None:
        if check_mass_balance(args.vm, args.char):
            print(f"mass balance: consistent ({args.vm:g} + {args.char:g} = 100)")
        else:
            total = args.vm + args.char
            print(
                f"mass balance: INCONSISTENT ({args.vm:g} + {args.char:g} "
                f"= {total:g}, expected 100)"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyrokin",
        description="TGA pyrolysis analysis: kinetics, thermodynamics, "
                    "synthetic ground truth, and LSTM mass-loss prediction.",
    )
    parser.add_argument("--version", action="version", version=f"pyrokin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None,
                        help="output directory (default: $PYROKIN_OUT or .)")

    p = sub.add_parser("analyze", parents=[common],
                       help="isoconversional kinetics over >=3 heating rates")
    p.add_argument("--format", choices=("csv", "text", "svg"), default="text",
                   help="csv: machine output only; text: plus aligned tables; "
                        "svg: plus charts")
    p.add_argument("curves", nargs="+", help="curve CSVs (each with a .json sidecar)")
    p.add_argument("--alpha-grid", type=_parse_alpha_grid, default=DEFAULT_ALPHA_GRID)
    p.add_argument("--smooth-window", type=int, default=DEFAULT_SMOOTH_WINDOW)
    p.add_argument("--m0-at", type=_finite_float, default=DEFAULT_M0_AT_C,
                   help="temperature (C) whose mass defines conversion zero")
    p.add_argument("--dt", type=_finite_float, default=0.5, help="resampling step (K)")
    p.add_argument("--order", type=_finite_float, default=1.0, help="assumed reaction order")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("thermo", parents=[common],
                       help="activation thermodynamics from a kinetics table")
    p.add_argument("--format", choices=("csv", "svg"), default="csv",
                   help="csv: machine output only; svg: plus charts")
    p.add_argument("--kinetics", required=True, help="kinetics.csv from analyze")
    reference = p.add_mutually_exclusive_group(required=True)
    reference.add_argument("--tm", type=_finite_float,
                           help="reference peak temperature (K)")
    reference.add_argument("--curve",
                           help="curve CSV whose DTG peak supplies the reference temperature")
    # the flags --curve alone reads; each default is in THERMO_CURVE_DEFAULTS
    p.add_argument("--stage", help="stage whose peak is the reference "
                                   f"(default {THERMO_CURVE_DEFAULTS['stage']})")
    p.add_argument("--stage-windows", type=_parse_stage_windows,
                   help="override stage windows: name:lo_c:hi_c[,...]")
    p.add_argument("--smooth-window", type=int)
    p.add_argument("--dt", type=_finite_float, help="resampling step (K) of the curve")
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("synth", parents=[common],
                       help="generate synthetic ground-truth curves")
    p.add_argument("--preset", default="single-step", help=", ".join(PRESETS))
    p.add_argument("--beta", type=_parse_float_list, default="5,10,15,20",
                   help="heating rates (K/min)")
    p.add_argument("--dt", type=_finite_float, default=0.5)
    p.add_argument("--frac", type=_finite_float,
                   help=f"first-parent fraction, blend preset only (default {BLEND_FRAC:g})")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", parents=[common],
                       help="emit model feature rows for curves")
    p.add_argument("curves", nargs="+")
    p.add_argument("--mode", choices=tuple(FEATURE_COLUMNS), default="model1")
    p.add_argument("--dt", type=_finite_float, default=None,
                   help="optional resampling step (K) before featurization")
    p.set_defaults(func=cmd_features)

    train_common = argparse.ArgumentParser(add_help=False)
    train_common.add_argument("--seed", type=int, default=0, help="master random seed")
    train_common.add_argument("--mode", choices=tuple(FEATURE_COLUMNS), default="model2")
    train_common.add_argument("--dt", type=_finite_float, default=None)
    train_common.add_argument("--look-back", type=int)
    train_common.add_argument("--holdout", type=_parse_str_list, default=(),
                              help="comma-separated curve ids excluded from train/val")
    train_common.add_argument("--patience", dest="early_stop_patience", type=int)

    p = sub.add_parser("train", parents=[common, train_common],
                       help="train the mass-loss predictor")
    p.add_argument("curves", nargs="+")
    p.add_argument("--config", default=None,
                   help="JSON training config (e.g. best_config.json from tune); "
                        "no other training flag may be given beside it but --seed, "
                        "which then seeds only the train/validation split")
    # each dest is a TrainConfig field, whose default applies
    p.add_argument("--lr", dest="learning_rate", type=_finite_float)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--dropout", type=_finite_float)
    p.add_argument("--hidden", dest="hidden_units", type=int)
    p.add_argument("--layers", dest="lstm_layers", type=int)
    p.add_argument("--activation", choices=("relu", "sigmoid", "tanh"))
    p.add_argument("--optimizer", choices=("adam", "sgd", "rmsprop"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", parents=[common, train_common],
                       help="random hyperparameter search")
    p.add_argument("curves", nargs="+")
    p.add_argument("--trials", type=int, default=10)
    # the catalogue: each dest is a SearchSpace field, whose default applies
    p.add_argument("--lr-bounds", dest="learning_rate_bounds", type=_parse_float_list)
    p.add_argument("--batch-choices", dest="batch_sizes", type=_parse_int_list)
    p.add_argument("--epochs-choices", type=_parse_int_list)
    p.add_argument("--dropout-choices", type=_parse_float_list)
    p.add_argument("--hidden-choices", type=_parse_int_list)
    p.add_argument("--layers-choices", dest="layer_choices", type=_parse_int_list)
    p.add_argument("--activations", type=_parse_str_list)
    p.add_argument("--optimizers", type=_parse_str_list)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", parents=[common],
                       help="predicted-vs-actual mass curve for one run")
    p.add_argument("curve")
    p.add_argument("--model", required=True, help="model.json checkpoint")
    p.add_argument("--dt", type=_finite_float, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common],
                       help="error metrics on held-out curves or a predictions CSV")
    p.add_argument("curves", nargs="*")
    p.add_argument("--model", default=None)
    p.add_argument("--predictions", default=None)
    p.add_argument("--dt", type=_finite_float, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("massbalance", parents=[common],
                       help="volatile matter from char yield (sum identity)")
    p.add_argument("--char", type=_finite_float, required=True, help="char yield, percent")
    p.add_argument("--vm", type=_finite_float, default=None,
                   help="reported VM percent to check for consistency")
    p.set_defaults(func=cmd_massbalance)

    # each command's flags by dest, for the commands that name a refused flag
    for p in sub.choices.values():
        p.set_defaults(flags={a.dest: a.option_strings[0] for a in p._actions if a.option_strings})
    return parser


# Built once per process: main() only parses and dispatches.
_PARSER = build_parser()


def _keep_freed_memory_mapped() -> None:
    """Fix glibc's malloc thresholds at the ceilings its dynamic rule reaches.

    Training frees each step's forward cache before the next step. At
    glibc's start values (128 KiB each) the freed cache is unmapped or
    trimmed off the heap top, and the next step faults it back in. glibc's
    dynamic rule raises the mmap threshold to the size of a larger freed
    mapped chunk, up to 32 MiB on 64-bit, and the trim threshold to twice
    it; this sets those ceilings when a command starts instead of after
    some large free, or never. A C library without ``mallopt`` is left as
    it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory_mapped()
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except PyrokinError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a file that cannot be read or written; names the path
        print(f"{InputError.prefix}: {exc}", file=sys.stderr)
        return InputError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
