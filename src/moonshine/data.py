"""Access to the bundled data tables.

Resolution order for the data directory: an explicit ``set_data_dir`` call
(the CLI wires its --data-dir flag here), the MOONSHINE_DATA_DIR environment
variable, then the files shipped inside the package.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

LAMBENCIES = (2, 3, 4, 5, 7, 13)

_override: Path | None = None
_table_caches: list = []


def table_cache() -> dict:
    """A new dict for values built from the tables; ``set_data_dir`` empties it."""
    cache: dict = {}
    _table_caches.append(cache)
    return cache


def set_data_dir(path=None):
    global _override
    _override = Path(path) if path else None
    load_json.cache_clear()
    for cache in _table_caches:
        cache.clear()


def data_dir() -> Path:
    if _override is not None:
        return _override
    env = os.environ.get("MOONSHINE_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


@lru_cache(maxsize=None)
def load_json(name: str):
    with open(data_dir() / name) as f:
        return json.load(f)
