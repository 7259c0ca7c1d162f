"""Size caps for the exhaustive algorithms, overridable via RANKMAT_CAPS.

The environment variable holds comma-separated ``name=value`` pairs,
e.g. ``RANKMAT_CAPS="matrix_cells=1000000,monadic_universe=8"``.
"""
from __future__ import annotations

import os

_DEFAULTS = {
    # Maximum number of cells in a type matrix.
    "matrix_cells": 10**7,
    # Maximum universe size of a monadic structure (2^n subsets enumerated).
    "monadic_universe": 10,
    # Maximum m * n when building monadic type matrices.
    "monadic_matrix_mn": 12,
    # Maximum number of rows or columns a Kronecker normal form may reach
    # before finite_order gives up with Unknown.
    "kronecker_normal_form": 512,
    # Maximum number of words scanned by prefix/suffix/multiset checks.
    "word_scan": 500_000,
}


class CapExceeded(Exception):
    """A requested computation exceeds the configured size caps."""


class Overflow:
    """Sentinel result: a count or search went past its limit."""

    def __repr__(self):
        return "Overflow"

    def __eq__(self, other):
        return isinstance(other, Overflow)

    def __hash__(self):
        return hash("Overflow")


# (raw RANKMAT_CAPS string, caps parsed from it); re-parsed when it changes
_parsed: tuple = (None, None)


def load() -> dict:
    """The caps in force; a ``ValueError`` when RANKMAT_CAPS is malformed."""
    global _parsed
    raw = os.environ.get("RANKMAT_CAPS", "")
    if raw != _parsed[0]:
        _parsed = (raw, _parse(raw))
    return _parsed[1]


def _parse(raw: str) -> dict:
    caps = dict(_DEFAULTS)
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name, value = name.strip(), value.strip()
        if name not in caps:
            raise ValueError(f"unknown cap {name!r}")
        if not value.isdecimal():
            raise ValueError(f"RANKMAT_CAPS: cap {name!r} needs a whole number >= 0, "
                             f"as {name}=N, not {item!r}")
        caps[name] = int(value)
    return caps


def get(name: str) -> int:
    return load()[name]


def check(name: str, requested: int, what: str) -> None:
    limit = get(name)
    if requested > limit:
        raise CapExceeded(f"{what}: {requested} exceeds cap {name}={limit}")
