"""Serialization of analysis results: machine CSV and aligned text tables."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError
from .kinetics import METHODS, AnalysisTable, KineticEstimate, by_method
from .tga_io import csv_text, read_csv

if TYPE_CHECKING:
    from .seqmodel.metrics import EvalMetrics

ANALYSIS_CSV_HEADER = "alpha,method,ea_kj_mol,a_per_s,r_squared"
THERMO_CSV_HEADER = "alpha,method,quantity,value"
HISTORY_CSV_HEADER = "epoch,train_loss,val_loss"
LEADERBOARD_CSV_HEADER = (
    "rank,trial,val_loss,learning_rate,batch_size,epochs,dropout,"
    "hidden_units,lstm_layers,activation,optimizer,look_back,seed"
)
PREDICTIONS_CSV_HEADER = "temperature_c,actual_mass_pct,predicted_mass_pct"
EA_PLOT_CSV_HEADER = "alpha,method,ea_kj_mol"
METRICS_CSV_HEADER = "mae,mse,rmse,r_squared"

_METHOD_LABELS = {"friedman": "Friedman", "kas": "KAS", "fwo": "FWO"}


def analysis_to_csv(table: AnalysisTable) -> str:
    return csv_text(ANALYSIS_CSV_HEADER, [
        (est.alpha, est.method, est.ea / 1000.0, est.a, est.r_squared)
        for est in table.estimates
    ])


def analysis_from_csv(text: str) -> AnalysisTable:
    """Rebuild an analysis table, without a sample id or warnings, from its
    machine CSV form."""
    t = read_csv(text, (ANALYSIS_CSV_HEADER,), text_columns=("method",))
    for method in t["method"]:
        if method not in METHODS:
            raise InputError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    for ea_kj in t["ea_kj_mol"].tolist():
        if not math.isfinite(ea_kj * 1000.0):
            raise InputError(f"ea_kj_mol value {ea_kj!r} overflows when scaled to J/mol")
    estimates = tuple(
        KineticEstimate(method=method, alpha=alpha, ea=ea_kj * 1000.0, a=a,
                        r_squared=r_squared)
        for method, alpha, ea_kj, a, r_squared in zip(
            t["method"], t["alpha"].tolist(), t["ea_kj_mol"].tolist(),
            t["a_per_s"].tolist(), t["r_squared"].tolist())
    )
    alphas = tuple(dict.fromkeys(e.alpha for e in estimates))
    return AnalysisTable(sample_id="", estimates=estimates, included_alphas=alphas)


def _alpha_decimals(alphas) -> int:
    """The fewest decimals, at least 2, that print every conversion level
    exactly (a ``--alpha-grid`` level has at most 10), so that no two levels
    share a label."""
    return next((d for d in range(2, 10) if all(round(a, d) == a for a in alphas)), 10)


def analysis_to_text(table: AnalysisTable) -> str:
    """Aligned comparison table: one block of Ea/R^2/A per method, plus the
    per-method Ea averages on the final row. Conversion levels print with
    two decimals, or as many more as tell the levels apart."""
    decimals = _alpha_decimals(table.included_alphas)
    width = max(6, decimals + 2)
    header_top = f"{'':>{width}}"
    header_sub = f"{'alpha':>{width}}"
    for method in METHODS:
        label = _METHOD_LABELS[method]
        header_top += f" | {label + ' model':^34}"
        header_sub += f" | {'Ea(kJ/mol)':>10} {'R^2':>8} {'A(1/s)':>12}"
    rows = [header_top, header_sub, "-" * len(header_sub)]
    cells = {}  # (alpha, method): the first such estimate
    for est in table.estimates:
        cells.setdefault((est.alpha, est.method), est)
    for alpha in table.included_alphas:
        row = f"{alpha:>{width}.{decimals}f}"
        for method in METHODS:
            est = cells.get((alpha, method))
            if est is not None:
                row += f" | {est.ea / 1000.0:>10.2f} {est.r_squared:>8.4f} {est.a:>12.3e}"
            else:
                row += f" | {'-':>10} {'-':>8} {'-':>12}"
        rows.append(row)
    averages = table.ea_averages()
    row = f"{'Avg':>{width}}"
    for method in METHODS:
        if method in averages:
            row += f" | {averages[method] / 1000.0:>10.2f} {'-':>8} {'-':>12}"
        else:
            row += f" | {'-':>10} {'-':>8} {'-':>12}"
    rows.append("-" * len(header_sub))
    rows.append(row)
    for warning in table.warnings:
        rows.append(f"note: {warning}")
    return "\n".join(rows) + "\n"


def ea_plot_series(table: AnalysisTable):
    """Per-method (alpha, Ea kJ/mol) series for the Ea-vs-conversion chart."""
    return [(_METHOD_LABELS[method], [e.alpha for e in ests], [e.ea / 1000.0 for e in ests])
            for method, ests in by_method(table.estimates).items()]


def ea_plot_csv(table: AnalysisTable) -> str:
    return csv_text(EA_PLOT_CSV_HEADER, [
        (est.alpha, est.method, est.ea / 1000.0) for est in table.estimates
    ])


def thermo_to_csv(profile) -> str:
    """Three rows (dH, dG, dS) per thermodynamic estimate, in kJ-based units."""
    return csv_text(THERMO_CSV_HEADER, [
        (est.alpha, est.method, quantity, value)
        for est in profile
        for quantity, value in (("dH", est.delta_h / 1000.0),
                                ("dG", est.delta_g / 1000.0),
                                ("dS", est.delta_s))
    ])


def history_to_csv(history) -> str:
    return csv_text(HISTORY_CSV_HEADER, [
        (rec.epoch, rec.train_loss, rec.val_loss) for rec in history
    ])


def leaderboard_to_csv(leaderboard) -> str:
    return csv_text(LEADERBOARD_CSV_HEADER, [
        (rank, r.trial, r.val_loss, r.config.learning_rate, r.config.batch_size,
         r.config.epochs, r.config.dropout, r.config.hidden_units, r.config.lstm_layers,
         r.config.activation, r.config.optimizer, r.config.look_back, r.config.seed)
        for rank, r in enumerate(leaderboard, start=1)
    ])


def predictions_to_csv(temperatures_c, actual_pct, predicted_pct) -> str:
    columns = np.array([temperatures_c, actual_pct, predicted_pct], dtype=float)
    return csv_text(PREDICTIONS_CSV_HEADER, columns.T.tolist())


def predictions_from_csv(text: str):
    t = read_csv(text, (PREDICTIONS_CSV_HEADER,))
    return t["temperature_c"], t["actual_mass_pct"], t["predicted_mass_pct"]


def metrics_to_csv(metrics: EvalMetrics) -> str:
    return csv_text(METRICS_CSV_HEADER, [
        (metrics.mae, metrics.mse, metrics.rmse, metrics.r_squared)
    ])


def metrics_to_text(metrics: EvalMetrics) -> str:
    return (
        f"MAE  = {metrics.mae:.4f}\n"
        f"MSE  = {metrics.mse:.4f}\n"
        f"RMSE = {metrics.rmse:.4f}\n"
        f"R^2  = {metrics.r_squared:.4f}\n"
    )
