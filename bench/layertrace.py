"""Layer spans for the traced benchmark run, recorded from outside the program.

The program binds library functions by name (``from .synthkin import
simulate`` in ``cli``, ``kinetics`` and ``seqmodel.training``), so wrapping
only the defining module's attribute would miss the calls that matter.
``install`` rebinds every attribute of every loaded ``pyrokin.*`` module that
holds a probed function object, and ``uninstall`` puts the originals back.

Spans nest: a span's self time is its duration minus the durations of its
child spans. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

from benchstats import percentile_ms, tail_percentile

FLOAT_BYTES = 8


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """In-memory span recorder with a single (one-thread) call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        if counts:
            span.counts.update(counts)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration_s

    def summary(self) -> dict:
        return summarize(self.spans)

    def to_json(self) -> list:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "self_s": s.self_s, "counts": s.counts}
            for s in self.spans
        ]


def summarize(spans) -> dict:
    """Per span name: calls, total self and inclusive seconds, per-call
    inclusive durations, and summed counts."""
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(
            span.name,
            {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations_s": [], "counts": {}},
        )
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        entry["total_s"] += span.duration_s
        entry["durations_s"].append(span.duration_s)
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


# ---------------------------------------------------------------- LSTM kernel counts
def _lstm_dims(params, config):
    """(in_dim per layer, hidden) read from the weight shapes."""
    hidden = config.hidden_units
    dims = [params[f"l{k}.Wi"].shape[0] for k in range(config.lstm_layers)]
    return dims, hidden


def lstm_forward_counts(n: int, steps: int, dims, hidden: int) -> tuple[int, int]:
    """Computed GEMM flops and operand bytes of one forward_batch call.

    Per layer and step, each of the four gates does ``x_t @ W`` (n, d)x(d, H)
    and ``h @ U`` (n, H)x(H, H). The dense read-out adds one (n, H)x(H,)
    product. Bytes count every GEMM operand and result once, ignoring cache
    reuse.
    """
    flops = 0
    elems = 0
    for d in dims:
        flops += steps * 4 * (2 * n * d * hidden + 2 * n * hidden * hidden)
        elems += steps * 4 * ((n * d + d * hidden + n * hidden)
                              + (n * hidden + hidden * hidden + n * hidden))
    flops += 2 * n * hidden
    elems += n * hidden + hidden + n
    return flops, elems * FLOAT_BYTES


def lstm_backward_counts(n: int, steps: int, dims, hidden: int) -> tuple[int, int]:
    """Computed GEMM flops and operand bytes of one backward_batch call.

    Per layer, step and gate: ``x_t.T @ dpre`` and ``h_prev.T @ dpre`` for the
    weight gradients, ``dpre @ W.T`` and ``dpre @ U.T`` for the input and
    recurrent gradients. The dense head adds ``z.T @ dpred`` and an outer
    product.
    """
    flops = 0
    elems = 0
    for d in dims:
        per_gate_flops = 2 * n * hidden * (2 * d + 2 * hidden)
        per_gate_elems = (
            (n * d + n * hidden + d * hidden)          # x_t.T @ dpre
            + (n * hidden + n * hidden + hidden * hidden)  # h_prev.T @ dpre
            + (n * hidden + d * hidden + n * d)        # dpre @ W.T
            + (n * hidden + hidden * hidden + n * hidden)  # dpre @ U.T
        )
        flops += steps * 4 * per_gate_flops
        elems += steps * 4 * per_gate_elems
    flops += 2 * n * hidden + n * hidden
    elems += 2 * (n * hidden + n + hidden)
    return flops, elems * FLOAT_BYTES


# ---------------------------------------------------------------- probes
def _text_bytes(value) -> int:
    return len(value.encode("utf-8")) if isinstance(value, str) else 0


def _forward_name(a) -> str:
    """forward_batch serves training (with a cache for backward) and inference."""
    kind = "forward_train" if a["want_cache"] else "forward_infer"
    return f"seqmodel.lstm.{kind}"


def _forward_counts(a, result):
    X = a["X"]
    n, steps = X.shape[0], X.shape[1]
    dims, hidden = _lstm_dims(a["params"], a["config"])
    flops, nbytes = lstm_forward_counts(n, steps, dims, hidden)
    return {"items": n, "flop": flops, "bytes": nbytes}


def _backward_counts(a, result):
    cache = a["cache"]
    n, steps, _ = cache["layers"][0]["x"].shape
    dims, hidden = _lstm_dims(a["params"], cache["config"])
    flops, nbytes = lstm_backward_counts(n, steps, dims, hidden)
    return {"items": n, "flop": flops, "bytes": nbytes}


def _train_counts(a, result):
    _, history = result
    epochs = len(history)
    batch = a["config"].batch_size
    steps_per_epoch = -(-len(a["train_samples"]) // batch)
    return {"epochs": epochs, "steps": epochs * steps_per_epoch}


def _split_counts(a, result):
    return {"items": sum(len(part) for part in result)}


def _run_analysis_counts(a, result):
    return {"alpha_included": len(result.included_alphas),
            "alpha_excluded": len(result.excluded_alphas)}


def _output_bytes(a, result):
    return {"bytes": _text_bytes(result)}


def _input_bytes(key):
    return lambda a, result: {"bytes": _text_bytes(a[key])}


def _load_curve_counts(a, result):
    return {"rows": result.n_points, "bytes": _text_bytes(a["data_stream"])}


@dataclass(frozen=True)
class Probe:
    module: str
    function: str
    span: str | object  # fixed name, or callable(bound arguments) -> name
    counts: object = None  # callable(bound arguments, result) -> dict


REPORT_FUNCTIONS = (
    "analysis_to_csv", "analysis_from_csv", "analysis_to_text", "ea_plot_series",
    "ea_plot_csv", "thermo_to_csv", "history_to_csv", "leaderboard_to_csv",
    "predictions_to_csv", "predictions_from_csv", "metrics_to_csv", "metrics_to_text",
)

PROBES = (
    Probe("pyrokin.cli", "main", "cli.main"),
    Probe("pyrokin.synthkin", "simulate", "synthkin.simulate",
          lambda a, r: {"points": r.n_points}),
    Probe("pyrokin.tga_io", "load_curve", "tga_io.load_curve", _load_curve_counts),
    Probe("pyrokin.tga_io", "curve_to_csv", "tga_io.curve_to_csv", _output_bytes),
    Probe("pyrokin.tga_io", "resample_uniform", "tga_io.resample_uniform",
          lambda a, r: {"points": r.n_points}),
    Probe("pyrokin.preprocess", "compute_alpha", "preprocess.compute_alpha"),
    Probe("pyrokin.preprocess", "compute_dtg", "preprocess.compute_dtg"),
    Probe("pyrokin.preprocess", "find_peaks", "preprocess.find_peaks"),
    Probe("pyrokin.kinetics", "run_analysis", "kinetics.run_analysis", _run_analysis_counts),
    Probe("pyrokin.thermo", "thermo_profile", "thermo.thermo_profile",
          lambda a, r: {"items": len(r)}),
    Probe("pyrokin.seqmodel.features", "build_features", "seqmodel.features.build_features",
          lambda a, r: {"items": len(r)}),
    Probe("pyrokin.seqmodel.features", "window_sequences",
          "seqmodel.features.window_sequences", lambda a, r: {"items": len(r)}),
    Probe("pyrokin.seqmodel.features", "split_dataset", "seqmodel.features.split_dataset",
          _split_counts),
    Probe("pyrokin.seqmodel.lstm", "forward_batch", _forward_name, _forward_counts),
    Probe("pyrokin.seqmodel.lstm", "backward_batch", "seqmodel.lstm.backward_batch",
          _backward_counts),
    Probe("pyrokin.seqmodel.lstm", "save_model", "seqmodel.lstm.save_model", _output_bytes),
    Probe("pyrokin.seqmodel.lstm", "load_model", "seqmodel.lstm.load_model",
          _input_bytes("text")),
    Probe("pyrokin.seqmodel.training", "train", "seqmodel.training.train", _train_counts),
    Probe("pyrokin.seqmodel.search", "random_search", "seqmodel.search.random_search",
          lambda a, r: {"items": len(r[1])}),
    Probe("pyrokin.seqmodel.metrics", "evaluate", "seqmodel.metrics.evaluate",
          lambda a, r: {"items": len(a["test_samples"])}),
    *(Probe("pyrokin.report", fn, f"report.{fn}", _output_bytes) for fn in REPORT_FUNCTIONS),
    Probe("pyrokin.svgplot", "emit_svg", "svgplot.emit_svg", _output_bytes),
    Probe("pyrokin.manifest", "write_manifest", "manifest.write_manifest"),
)


def _make_wrapper(tracer: Tracer, probe: Probe, original):
    signature = inspect.signature(original)
    named = callable(probe.span)
    needs_args = named or probe.counts is not None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        bound = None
        if needs_args:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
        index = tracer.enter(probe.span(bound) if named else probe.span)
        counts = None
        try:
            result = original(*args, **kwargs)
            if probe.counts is not None:
                counts = probe.counts(bound, result)
            return result
        finally:
            tracer.exit(index, counts)

    return wrapper


class Installation:
    """The rebindings made by ``install``; ``uninstall`` reverses them."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, object] = {}

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.bindings):
            setattr(module, attr, original)
        self.bindings.clear()


def _pyrokin_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pyrokin" or name.startswith("pyrokin."))]


def install(tracer: Tracer) -> Installation:
    """Wrap each probed function at every ``pyrokin.*`` binding of it."""
    installation = Installation()
    by_id = {}
    for probe in PROBES:
        original = getattr(sys.modules[probe.module], probe.function)
        wrapper = _make_wrapper(tracer, probe, original)
        by_id[id(original)] = (original, wrapper)
        installation.wrappers[f"{probe.module}.{probe.function}"] = wrapper
    for module in _pyrokin_modules():
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                installation.bindings.append((module, attr, value))
    return installation


# ---------------------------------------------------------------- per-layer metrics
LSTM_SPANS = ("forward_train", "forward_infer", "backward_batch")


def layer_metrics(summary: dict) -> dict:
    """Flatten a tracer summary into ``<layer>.<function>.<stat>`` values.

    Returns ``{name: (value, unit)}``. A function never called reads 0; a
    percentile with fewer than ten calls beyond it reads 0 as well.
    """
    def entry(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "durations_s": [], "counts": {}})

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def stats(span, *wanted, count_units=None):
        e = entry(span)
        for stat in wanted:
            if stat == "calls":
                put(f"{span}.calls", e["calls"], "count")
            elif stat == "self_s":
                put(f"{span}.self_s", e["self_s"], "s")
            elif stat in ("p50_ms", "tail_ms"):
                durations = e["durations_s"]
                pct = 50.0 if stat == "p50_ms" else tail_percentile(len(durations))
                value = percentile_ms(durations, pct) if pct is not None and durations else 0.0
                put(f"{span}.{stat}", value, "ms")
            else:
                put(f"{span}.{stat}", e["counts"].get(stat, 0),
                    (count_units or {}).get(stat, "count"))

    stats("synthkin.simulate", "calls", "self_s", "points")
    stats("tga_io.load_curve", "calls", "self_s", "rows", "bytes",
          count_units={"bytes": "B"})
    stats("tga_io.curve_to_csv", "self_s", "bytes", count_units={"bytes": "B"})
    stats("tga_io.resample_uniform", "self_s")
    for fn in ("compute_alpha", "compute_dtg", "find_peaks"):
        stats(f"preprocess.{fn}", "self_s")
    stats("kinetics.run_analysis", "calls", "self_s")
    analysis = entry("kinetics.run_analysis")["counts"]
    put("kinetics.alpha_included", analysis.get("alpha_included", 0), "count")
    put("kinetics.alpha_excluded", analysis.get("alpha_excluded", 0), "count")
    stats("thermo.thermo_profile", "self_s", "items")
    for fn in ("build_features", "window_sequences", "split_dataset"):
        stats(f"seqmodel.features.{fn}", "self_s", "items")
    for fn in LSTM_SPANS:
        span = f"seqmodel.lstm.{fn}"
        wanted = ["calls", "self_s", "p50_ms", "tail_ms"]
        if fn != "backward_batch":
            wanted.append("items")
        stats(span, *wanted)
        e = entry(span)
        gflop = e["counts"].get("flop", 0) / 1e9
        put(f"{span}.gflop", gflop, "GFLOP-computed")
        put(f"{span}.bytes", e["counts"].get("bytes", 0), "B-computed")
        put(f"{span}.gflop_per_s", gflop / e["total_s"] if e["total_s"] else 0.0,
            "GFLOP/s-computed")
    for fn in ("save_model", "load_model"):
        stats(f"seqmodel.lstm.{fn}", "self_s", "bytes", count_units={"bytes": "B"})
    stats("seqmodel.training.train", "calls", "self_s", "epochs", "steps")
    stats("seqmodel.search.random_search", "self_s", "items")
    stats("seqmodel.metrics.evaluate", "self_s")
    report = [entry(f"report.{fn}") for fn in REPORT_FUNCTIONS]
    put("report.self_s", sum(e["self_s"] for e in report), "s")
    put("report.bytes", sum(e["counts"].get("bytes", 0) for e in report), "B")
    stats("svgplot.emit_svg", "self_s", "bytes", count_units={"bytes": "B"})
    stats("manifest.write_manifest", "self_s")
    stats("cli.main", "calls", "self_s")
    return out
