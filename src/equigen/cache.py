"""Content-addressed verdict cache for the genericity scan.

Entries are keyed by sha256 of the canonical JSON of the inputs that
determine a verdict: the local model, the index, the engine version, and
the monomial order. Writes go through a temp file and an atomic rename so
parallel workers never see torn entries; a hit returns the stored verdict
bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any

ENV_VAR = "EQUIGEN_CACHE_DIR"


def cache_key(a: int, b: int, index: int, engine_version: str, order: str) -> str:
    payload = {"a": a, "b": b, "i": index, "engine_version": engine_version, "order": order}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def resolve_dir(cli_value: str | None) -> str | None:
    return cli_value if cli_value is not None else os.environ.get(ENV_VAR)


def load(cache_dir: str, key: str) -> dict[str, Any] | None:
    """The stored entry, or None when it is missing, unreadable, not JSON,
    or not a JSON object."""
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
        return None
    return entry if isinstance(entry, dict) else None


def store(cache_dir: str, key: str, payload: dict[str, Any]) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
