"""Shared fixtures and helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures on the
synthetic stand-in corpora of ``repro.data`` (see the README's package
layout), prints the resulting table and writes it to
``benchmarks/results/`` so its numbers can be re-derived (the README's
"Verifying" section shows how benchmarks are run).

The corpora are deliberately scaled down (records per floor, number of
buildings) so the full benchmark suite runs on a laptop in tens of minutes;
the *shape* of every comparison — who wins, by roughly how much, where the
crossovers fall — is what is being reproduced, not absolute values.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.data import (
    dense_mall_floor,
    hong_kong_like_buildings,
    microsoft_like_campus,
    three_story_campus_building,
)
from repro.evaluation import format_table

warnings.filterwarnings("ignore")

RESULTS_DIR = Path(__file__).parent / "results"


def save_table(name: str, rows, columns=None, header: str = "") -> str:
    """Render rows as a table, print it and persist it under results/."""
    table = format_table(rows, columns=columns)
    text = f"{header}\n{table}\n" if header else table + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n=== {name} ===\n{text}")
    return table


@pytest.fixture(scope="session")
def microsoft_corpus():
    """Scaled-down stand-in for the Microsoft (Hangzhou) corpus: 3 buildings."""
    return microsoft_like_campus(num_buildings=3, records_per_floor=60, seed=0)


@pytest.fixture(scope="session")
def hong_kong_corpus():
    """Scaled-down stand-in for the Hong Kong corpus (all five facilities)."""
    return hong_kong_like_buildings(records_per_floor=150, seed=1)


@pytest.fixture(scope="session")
def campus_building():
    """The three-storey campus building used by Fig. 6 / Fig. 8."""
    return three_story_campus_building(records_per_floor=100, seed=7)


@pytest.fixture(scope="session")
def mall_floor():
    """A dense single mall floor for the record statistics of Fig. 1."""
    return dense_mall_floor(num_records=1500, num_aps=150, seed=3)
