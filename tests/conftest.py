"""Shared fixtures.

The expensive piece is the search sweep: `search` over every Springer set
for every m in SWEEP_MS, each covering all its candidates (each walked up
its classes to the first node that fails integrality, full data
condition-checked).  Several
acceptance tests consume it, so it runs once per session.
"""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from lsgreen.springer import SearchOutcome, all_springer_sets, search

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SWEEP_MS = range(3, 15)


@pytest.fixture(scope="session")
def sweep() -> dict[int, list[SearchOutcome]]:
    """`search` over every admissible Springer set, m = 3..14."""
    out: dict[int, list[SearchOutcome]] = {}
    for m in SWEEP_MS:
        out[m] = [search(s) for s in all_springer_sets(m)]
    return out
