"""Content-addressed verdict cache for the genericity scan.

Entries are keyed by sha256 of the canonical JSON of the inputs that
determine a verdict: the local model, the index, the engine version, and
the monomial order (always grevlex). Each stored entry also carries the
engine fingerprint, a sha256 of the package's own sources; an entry written
by another engine is a miss, so the scan recomputes it and overwrites it in
place. Writes go through a temp file and an atomic rename so parallel
workers never see torn entries; a hit returns the stored verdict
bit-identically.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from typing import Any

ENV_VAR = "EQUIGEN_CACHE_DIR"
FINGERPRINT_FIELD = "engine_fingerprint"


@functools.cache
def engine_fingerprint() -> str:
    """sha256 over the names and bytes of this package's ``*.py`` sources.

    Read on first use only, which is when a cache directory is in use, so
    importing the package costs nothing extra."""
    package_dir = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                source = fh.read()
            digest.update(f"{name}\0{len(source)}\0".encode())
            digest.update(source)
    return digest.hexdigest()


def cache_key(a: int, b: int, index: int, engine_version: str) -> str:
    payload = {"a": a, "b": b, "i": index, "engine_version": engine_version, "order": "grevlex"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def resolve_dir(cli_value: str | None) -> str | None:
    return cli_value if cli_value is not None else os.environ.get(ENV_VAR)


def load(cache_dir: str, key: str) -> dict[str, Any] | None:
    """The stored entry without its fingerprint, or None when it is missing,
    unreadable, not JSON, not a JSON object, or written by another engine."""
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
        return None
    if not isinstance(entry, dict) or entry.pop(FINGERPRINT_FIELD, None) != engine_fingerprint():
        return None
    return entry


def store(cache_dir: str, key: str, payload: dict[str, Any]) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({**payload, FINGERPRINT_FIELD: engine_fingerprint()}, fh, sort_keys=True)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
