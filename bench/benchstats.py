"""Statistics, digests and the environment record shared by the benchmark.

Standard library only, so that importing it before the program does not
import numpy ahead of the BLAS thread pinning.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Tail percentiles tried from the highest down; see tail_percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


def rank_of(p: float, n: int) -> int:
    """1-based nearest-rank position of the p-th percentile among n samples."""
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it, or None."""
    for p in TAIL_LADDER:
        if n - rank_of(p, n) >= MIN_BEYOND_TAIL:
            return p
    return None


def percentile_ms(durations_s, p: float) -> float:
    """The median for p = 50, else the nearest-rank percentile; in ms."""
    if p == 50.0:
        return statistics.median(durations_s) * 1000.0
    ordered = sorted(durations_s)
    return ordered[rank_of(p, len(ordered)) - 1] * 1000.0


def digest_tree(root: Path) -> str:
    """sha256 over every file below ``root`` except run manifests.

    Manifests carry a timestamp and input paths, so they are the one output
    that may differ between byte-identical runs.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def output_bytes(root: Path) -> int:
    """Bytes of every output file below ``root`` except run manifests."""
    return sum(p.stat().st_size for p in root.rglob("*")
               if p.is_file() and p.name != "manifest.json")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 of the program's sources, which identifies the code even when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "workload_seed": seed,
    }
