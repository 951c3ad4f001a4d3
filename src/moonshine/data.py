"""Access to the bundled data tables, and the one memo of built values.

Resolution order for the data directory: an explicit ``set_data_dir`` call
(the CLI wires its --data-dir flag here), the MOONSHINE_DATA_DIR environment
variable, then the files shipped inside the package.

``memo`` is the one cache of built values, under one policy.  A call is bound
to the builder's signature, so keywords and defaults land on one key.  A builder
with a ``qcut`` parameter keeps one value per other arguments, built at the
deepest cutoff asked so far: a shallower call gets it truncated (sound, as a
value is exact below its cutoff), a call at that cutoff the stored object.  Any
other builder keeps one value per argument tuple.  Keys hold the data directory
too, so a changed MOONSHINE_DATA_DIR never serves tables of the old one.
``set_data_dir`` empties the memo.
"""
from __future__ import annotations

import inspect
import json
import os
from functools import lru_cache, wraps
from pathlib import Path

from .algebra import as_rat

LAMBENCIES = (2, 3, 4, 5, 7, 13)

_PACKAGE_DATA = Path(__file__).parent / "data"
_override: Path | None = None
_registry: dict = {}


def memo(build):
    """Memoize ``build`` under the policy of the module docstring."""
    sig = inspect.signature(build)
    names = list(sig.parameters)
    at = names.index("qcut") if "qcut" in names else None

    @wraps(build)
    def cached(*args, **kwargs):
        if kwargs or len(args) < len(names):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        if at is None:
            qcut, head = None, args
        else:
            qcut, head = as_rat(args[at]), args[:at] + args[at + 1:]
            args = (*head[:at], qcut, *head[at:])
        key = (data_dir(), build, *head)
        built = _registry.get(key)
        if built is None or qcut is not None and built[0] < qcut:
            built = _registry[key] = (qcut, build(*args))
        return built[1] if built[0] == qcut else built[1].truncate(qcut)
    return cached


def set_data_dir(path=None):
    """Read tables from ``path`` (None: the default order), empty the memo, return the old path."""
    global _override
    old, _override = _override, Path(path) if path else None
    load_json.cache_clear()
    _registry.clear()
    return old


def data_dir() -> Path:
    if _override is not None:
        return _override
    env = os.environ.get("MOONSHINE_DATA_DIR")
    if env:
        return Path(env)
    return _PACKAGE_DATA


def load_json(name: str):
    """The parsed table ``name`` of the current data directory, cached."""
    return _read_json(data_dir(), name)


@lru_cache(maxsize=None)
def _read_json(directory: Path, name: str):
    with open(directory / name) as f:
        return json.load(f)


# statistics and reset of the cache, as an lru_cache function has them
load_json.cache_info = _read_json.cache_info
load_json.cache_clear = _read_json.cache_clear
