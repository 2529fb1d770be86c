"""Reproducibility record of one run, ``manifest.json``.

The CLI writes it last, after every other file of the run's bundle, and a
failed run removes what it wrote: a directory holding a manifest holds that
run's whole bundle.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from .tga_io import json_text


def config_digest(config: dict) -> str:
    """Deterministic digest of an effective configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(out_dir, command: str, inputs, config: dict, seed, version: str):
    doc = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "config_digest": config_digest(config),
        "seed": seed,
        "version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json_text(doc), encoding="utf-8")
