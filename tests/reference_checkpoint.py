"""The ``format_version`` 1 checkpoint writer that ``save_model`` replaced,
kept as the reference for the files it wrote: the same document, with each
weight tensor as nested row-major decimal lists."""

import json


def save_model_v1(model) -> str:
    doc = {
        "format_version": 1,
        "feature_mode": model.feature_mode,
        "feature_count": model.params.feature_count,
        "config": model.params.config.to_dict(),
        "scaler": {
            "feature_min": model.scaler.feature_min.tolist(),
            "feature_max": model.scaler.feature_max.tolist(),
            "target_min": model.scaler.target_min,
            "target_max": model.scaler.target_max,
        },
        "weights": {k: v.tolist() for k, v in sorted(model.params.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
