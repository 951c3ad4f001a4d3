"""Access to the bundled data tables, and the one memo of built values.

Resolution order for the data directory: an explicit ``set_data_dir`` call
(the CLI wires its --data-dir flag here), the MOONSHINE_DATA_DIR environment
variable, then the files shipped inside the package.

``memo`` is the one cache of built values.  A builder whose last parameter
is ``qcut`` keeps one value per leading arguments, built at the deepest cutoff
asked so far: a shallower call gets it truncated (sound, as a value is exact
below its cutoff), a call at that cutoff gets the stored object itself.  Other
builders keep one value per exact argument tuple, as ``mckay._twisted_H``, whose
stored columns and lambency-4 bridge report cutoffs that truncating a deeper
value would not reproduce.  Both caches are keyed by the data directory as
well, so setting MOONSHINE_DATA_DIR in a running process never serves tables
of the old one.  ``set_data_dir`` empties both.
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
    by_cut = list(inspect.signature(build).parameters)[-1] == "qcut"

    @wraps(build)
    def cached(*args):
        head, qcut = (args[:-1], as_rat(args[-1])) if by_cut else (args, None)
        key = (data_dir(), build, *head)
        built = _registry.get(key)
        if built is None or by_cut and built[0] < qcut:
            built = _registry[key] = (qcut, build(*head, qcut) if by_cut else build(*args))
        return built[1] if built[0] == qcut else built[1].truncate(qcut)
    return cached


def set_data_dir(path=None):
    global _override
    _override = Path(path) if path else None
    load_json.cache_clear()
    _registry.clear()


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
