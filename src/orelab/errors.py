"""Shared error types for cap-bounded exact searches."""

from __future__ import annotations


class SizeCapError(ValueError):
    """An exact search was asked to exceed its configured size cap.

    Raised instead of silently truncating: a capped run must never be
    mistaken for a completed one.
    """

    def __init__(self, what: str, requested: int, cap: int):
        super().__init__(f"{what}: requested {requested} exceeds cap {cap}")
