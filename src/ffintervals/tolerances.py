"""Calibrated tolerance constants for the sqrt(q)-scale acceptance checks.

The shipped fixtures file is produced once by ``scripts/calibrate.py``: each
constant is twice the maximum observed |error|/sqrt(q) over pilot runs (the
Morse-scan bounds are observed maxima of exact integer counts).  A different
fixtures file can be supplied on the command line (--tolerance-file).
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import ToleranceFileError

_cache = None


def load_tolerances(path: str | None = None) -> dict:
    """Fixture constants, from the packaged file or an explicit override.

    An override must give every constant of the packaged file (each key
    without a leading underscore) as an int or a float.
    """
    global _cache
    if _cache is None:
        text = resources.files("ffintervals.data").joinpath("tolerances.json").read_text()
        _cache = json.loads(text)
    if path is None:
        return _cache
    try:
        with open(path, encoding="utf-8") as handle:
            tol = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ToleranceFileError(f"cannot read tolerance file {path!r}: {exc}") from None
    if not isinstance(tol, dict):
        raise ToleranceFileError(f"tolerance file {path!r} must hold a JSON object")
    bad = [k for k in sorted(_cache) if k[0] != "_" and type(tol.get(k)) not in (int, float)]
    if bad:
        raise ToleranceFileError(f"tolerance file {path!r} needs a number for {', '.join(bad)}")
    return tol
