"""Tunable limits, overridable through environment variables.

``BRANCHPAIRS_SEARCH_BUDGET``
    Node budget for backtracking searches (path-pair enumeration, the
    verifier-guided construction fallback).  Default 1_000_000.
"""

from __future__ import annotations

import os

_DEFAULT_SEARCH_BUDGET = 1_000_000


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def search_budget() -> int:
    return _env_int("BRANCHPAIRS_SEARCH_BUDGET", _DEFAULT_SEARCH_BUDGET)
