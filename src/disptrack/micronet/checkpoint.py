"""Versioned JSON checkpoints for parameter dictionaries.

Format (version 1):
    {
      "format_version": 1,
      "kind": "<model kind string>",
      "config": { ... arbitrary JSON-serializable configuration ... },
      "params": { "<name>": {"shape": [...], "values": [flat floats]}, ... }
    }

JSON floats round-trip float64 exactly (shortest-repr encoding), so a
save/load cycle is bit-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


def save_checkpoint(path, kind: str, config: dict, params: dict[str, np.ndarray]) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "params": {
            name: {"shape": list(arr.shape), "values": np.asarray(arr, dtype=float).ravel().tolist()}
            for name, arr in params.items()
        },
    }
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, config, params) of a checkpoint file; a file that is not a
    version-1 checkpoint raises ValueError."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"a checkpoint must be a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    missing = [key for key in ("kind", "config", "params") if key not in payload]
    if missing:
        raise ValueError(f"checkpoint lacks {missing}")
    if not (isinstance(payload["config"], dict) and isinstance(payload["params"], dict)):
        raise ValueError("checkpoint config and params must be JSON objects")
    params = {}
    for name, entry in payload["params"].items():
        if not (isinstance(entry, dict) and "shape" in entry and "values" in entry):
            raise ValueError(f"checkpoint param {name!r} needs a shape and values")
        try:
            params[name] = np.asarray(entry["values"], dtype=float).reshape(entry["shape"])
        except (TypeError, ValueError) as err:
            raise ValueError(f"checkpoint param {name!r}: {err}") from None
    return payload["kind"], payload["config"], params
