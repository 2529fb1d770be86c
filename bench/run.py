"""pyrokin benchmark: drives the CLI in-process on seed-generated workloads.

Usage (from the repository root):

    python3 bench/run.py --workload kinetics_study --seed 1 --seconds 20 --trace 0

One process, one closed-loop client (each command is issued when the
previous one returns), BLAS pinned to one thread. With ``--trace 0`` it
reports the end-to-end metrics, timed in calibrated seconds (see
hostspeed.py); with ``--trace 1`` it wraps each layer's public functions
(see layertrace.py) and reports per-layer metrics. The last
line of standard output is one JSON object; a fuller record, with the
environment and the per-op output digests, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import benchstats  # noqa: E402  (standard library only)

WORKLOAD_NAMES = ("kinetics_study", "train_c07", "predict_batch", "tune_small")
# Set-up is timed several times per run and reported as a median: the
# program import in this process and in fresh interpreters, and the input
# generation.
IMPORT_REPEATS = 9
SETUP_REPEATS = 3
# The first pass warms up and is left out of the timings; every run compares
# op outputs between at least two passes.
MIN_PASSES = 2
# A traced run alternates untraced and traced passes; two traced passes show
# whether the per-layer counts repeat.
TRACED_PASSES = 2


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


IMPORT_PROGRAM = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import pyrokin.cli; wall = time.perf_counter() - t; import hostspeed; "
    "print(wall, hostspeed.burst_speed())"
)


def _import_program() -> list[tuple[float, float]]:
    """Pin BLAS to one thread, then import the program from this checkout.

    Returns (wall seconds, host speed) of imports: this process's, and those
    of fresh interpreters that import the program and exit, so that set-up
    can report a median. The speed comes from a probe burst right after.
    """
    if not (SRC / "pyrokin" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'pyrokin'}")
    for var in benchstats.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import pyrokin.cli  # noqa: F401  (imports numpy and every program module)
    wall = time.perf_counter() - start
    if Path(sys.modules["pyrokin"].__file__).resolve().parent != SRC / "pyrokin":
        raise SystemExit("error: pyrokin was imported from outside this checkout")
    import hostspeed

    times = [(wall, hostspeed.burst_speed())]
    for _ in range(IMPORT_REPEATS - 1):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC), str(BENCH)],
                               cwd=ROOT, capture_output=True, text=True, timeout=120,
                               check=True)
        wall, speed = map(float, child.stdout.split())
        times.append((wall, speed))
    return times


class Runner:
    """Issues a workload's commands and records latencies, failures, digests."""

    def __init__(self, workload, work: Path, timer):
        import pyrokin.cli

        self.cli = pyrokin.cli
        self.workload = workload
        self.work = work
        self.timer = timer  # makes a hostspeed.Probed
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def call(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = self.cli.main(argv)  # looked up per call: the tracer rebinds it
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    def setup(self, setup_dir: Path) -> tuple[float, float]:
        """Runs the set-up commands; returns their (wall, calibrated) time."""
        shutil.rmtree(setup_dir, ignore_errors=True)
        with self.timer() as timer:
            for argv in self.workload.setup_commands(setup_dir):
                rc, out = self.call(argv)
                if rc != 0:
                    raise RuntimeError(f"set-up command {argv[0]} exited {rc}:\n{out}")
        return timer.wall_s, timer.calibrated_s

    def run_op(self, op) -> dict:
        """Run one op; returns its latency, output bytes and check values."""
        op_dir = self.work / op.label
        shutil.rmtree(op_dir, ignore_errors=True)
        self.attempted += 1
        error = None
        with self.timer() as timer:
            try:
                for argv in op.commands:
                    rc, out = self.call(argv)
                    if rc != 0:
                        error = f"{argv[0]} exited {rc}: {out.strip()[-500:]}"
                        break
            except Exception:  # a traceback from the program is a failed op
                error = traceback.format_exc()
        quality = {}
        if error is None:
            try:
                quality = op.check(op_dir)
                digest = benchstats.digest_tree(op_dir)
                expected = self.digests.setdefault(op.label, digest)
                if digest != expected:
                    error = f"output digest {digest[:12]} != first pass {expected[:12]}"
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return {"label": op.label, "latency_s": timer.wall_s, "cal_s": timer.calibrated_s,
                "host_speed": timer.speed, "items": op.items,
                "ok": error is None, "quality": quality,
                "bytes": benchstats.output_bytes(op_dir) if op_dir.exists() else 0}

    def run_pass(self, ops) -> dict:
        results = [self.run_op(op) for op in ops]
        op_s = sum(r["latency_s"] for r in results)
        items = sum(r["items"] for r in results)
        return {"ops": results, "op_s": op_s, "items": items}


def run_untraced(runner, args, import_times) -> tuple[dict, dict]:
    wl = runner.workload
    k = wl.host_sensitivity
    import_times = [(wall, wall * speed ** k) for wall, speed in import_times]
    setup_times = []
    setup_digests = set()
    for r in range(SETUP_REPEATS):
        setup_dir = runner.work / f"setup{r}"
        setup_times.append(runner.setup(setup_dir))
        setup_digests.add(benchstats.digest_tree(setup_dir))
    if len(setup_digests) != 1:
        runner.failures.append("set-up outputs differ between repeats")
    ops = wl.ops(setup_dir, runner.work)

    # Stop before a pass that would probably end after --seconds.
    passes, pass_wall = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(pass_wall) <= args.seconds):
        t = time.perf_counter()
        passes.append(runner.run_pass(ops))
        pass_wall.append(time.perf_counter() - t)
    timed_s = time.perf_counter() - start

    timed = passes[1:]
    latencies = [op["latency_s"] for p in timed for op in p["ops"]]
    tail_p = benchstats.tail_percentile(len(latencies))
    # Each op's median calibrated time over the timed passes, summed.
    op_cal_s = [statistics.median(p["ops"][k]["cal_s"] for p in timed) for k in range(len(ops))]

    def setup_s(i):  # i = 0: wall seconds, 1: calibrated seconds
        return (statistics.median(t[i] for t in import_times)
                + statistics.median(t[i] for t in setup_times))

    gated = {
        "setup_s": (setup_s(1), "s"),
        "items_per_s": (passes[0]["items"] / sum(op_cal_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "wall_setup_s": (setup_s(0), "s"),
        "wall_items_per_s": (sum(p["items"] for p in timed) / sum(latencies), "1/s"),
        "host_speed_p50": (statistics.median(op["host_speed"] for p in timed
                                             for op in p["ops"]), "1"),
        "op_p50_ms": (benchstats.percentile_ms(latencies, 50.0), "ms"),
        "fail_frac": (len(runner.failures) / runner.attempted, "1"),
        "op_count": (len(latencies), "count"),
        "timed_passes": (len(timed), "count"),
        "timed_s": (timed_s, "s"),
        "import_s": (statistics.median(t[1] for t in import_times), "s"),
        **wl.quality([op["quality"] for p in passes for op in p["ops"] if op["ok"]]),
    }
    if tail_p is not None:
        extra["op_tail_ms"] = (benchstats.percentile_ms(latencies, tail_p), "ms")
        extra["op_tail_percentile"] = (tail_p, "percentile")
    detail = {"setup_times_s": setup_times, "import_times_s": import_times, "item": wl.item,
              "pass_op_s": [p["op_s"] for p in passes], "pass_items": passes[0]["items"],
              "op_latencies_s": latencies,
              "op_cal_s": [op["cal_s"] for p in timed for op in p["ops"]]}
    return gated, {"extra": extra, "detail": detail}


def run_traced(runner, args) -> tuple[dict, dict]:
    import layertrace

    wl = runner.workload
    tracer = layertrace.Tracer()
    setup_dir = runner.work / "setup0"
    installation = layertrace.install(tracer)
    try:
        runner.setup(setup_dir)
    finally:
        installation.uninstall()
    written = benchstats.output_bytes(setup_dir)
    ops = wl.ops(setup_dir, runner.work)

    # Untraced and traced passes alternate, so host-speed drift hits both alike.
    untraced, traced, pass_counts = [], [], []
    for _ in range(TRACED_PASSES):
        untraced.append(runner.run_pass(ops))
        first = len(tracer.spans)
        installation = layertrace.install(tracer)
        try:
            traced.append(runner.run_pass(ops))
        finally:
            installation.uninstall()
        pass_counts.append({name: {"calls": e["calls"], **e["counts"]} for name, e
                            in layertrace.summarize(tracer.spans[first:]).items()})
        written += sum(op["bytes"] for op in traced[-1]["ops"])
    if any(c != pass_counts[0] for c in pass_counts):
        runner.failures.append("per-layer counts differ between traced passes")

    untraced_s = sum(p["op_s"] for p in untraced) / len(untraced)
    traced_s = sum(p["op_s"] for p in traced) / len(traced)
    metrics = layertrace.layer_metrics(tracer.summary())
    metrics["cli.bytes_written"] = (written, "B")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "1")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    spans_path = results / f"spans-{wl.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.to_json()))
    detail = {"untraced_pass_s": [p["op_s"] for p in untraced],
              "traced_pass_s": [p["op_s"] for p in traced],
              "pass_counts": pass_counts[0], "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, {"extra": {"fail_frac": (len(runner.failures) / runner.attempted, "1")},
                     "detail": detail}


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_times = _import_program()
    import hostspeed
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    work = BENCH / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    # Untraced runs probe the host speed; traced runs leave the spans unprobed.
    period_s = 0.0 if args.trace else hostspeed.PERIOD_S
    runner = Runner(wl, work, functools.partial(hostspeed.Probed, period_s,
                                                wl.host_sensitivity))
    try:
        if args.trace:
            metrics, info = run_traced(runner, args)
        else:
            metrics, info = run_untraced(runner, args, import_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": benchstats.environment(ROOT, args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in info["extra"].items()},
        "detail": info["detail"], "attempted": runner.attempted, "failed": failed,
        "failures": runner.failures, "output_sha256": runner.digests,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for k, (v, u) in {**metrics, **info["extra"]}.items():
        print(f"{args.workload:15s} {k:45s} {v:>16.6g} {u}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
