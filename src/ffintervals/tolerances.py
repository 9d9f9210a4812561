"""Calibrated tolerance constants for the sqrt(q)-scale acceptance checks.

The shipped fixtures file is produced once by ``scripts/calibrate.py``: each
constant is twice the maximum observed |error|/sqrt(q) over pilot runs (the
Morse-scan bounds are observed maxima of exact integer counts).  A different
fixtures file can be supplied on the command line (--tolerance-file).
"""

from __future__ import annotations

import json
from importlib import resources

_cache = None


def load_tolerances(path: str | None = None) -> dict:
    """Fixture constants, from the packaged file or an explicit override."""
    global _cache
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    if _cache is None:
        text = resources.files("ffintervals.data").joinpath("tolerances.json").read_text()
        _cache = json.loads(text)
    return _cache

