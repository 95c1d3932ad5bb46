"""Shared campaign fixtures for the benchmark harness.

Campaigns are expensive (they simulate a whole scan), so they run once
per session and the benchmarks time the *analyzers* over the captured
data. Every benchmark also writes its rendered table to
``benchmarks/results/`` so the paper-shaped output is regenerated on
each run.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

import pytest

from repro.core import Campaign, CampaignConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Repo root — where ``BENCH_*.json`` records are published.
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Default benchmark scales: coarse for the packet-level tables,
#: fine for the malicious-subset tables (whose full-scale counts are
#: only ~27k and need a denser sample to keep their shape).
COARSE_SCALE = 4096
FINE_SCALE = 1024
SEED = 7


@pytest.fixture(scope="session")
def campaign_2018():
    return Campaign(
        CampaignConfig(year=2018, scale=COARSE_SCALE, seed=SEED,
                       time_compression=4.0)
    ).run()


@pytest.fixture(scope="session")
def campaign_2013():
    return Campaign(
        CampaignConfig(year=2013, scale=COARSE_SCALE, seed=SEED,
                       time_compression=64.0)
    ).run()


@pytest.fixture(scope="session")
def campaign_2018_fine():
    return Campaign(
        CampaignConfig(year=2018, scale=FINE_SCALE, seed=SEED,
                       time_compression=8.0)
    ).run()


@pytest.fixture(scope="session")
def campaign_2013_fine():
    return Campaign(
        CampaignConfig(year=2013, scale=FINE_SCALE, seed=SEED,
                       time_compression=256.0)
    ).run()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(path: pathlib.Path, name: str, content: str) -> None:
    (path / name).write_text(content + "\n")


def load_bench_record(name: str) -> dict:
    """The committed ``BENCH_<name>.json`` record, or ``{}``.

    Benchmarks that gate against a committed baseline go through here
    so a fresh clone (or a truncated file) degrades to "no baseline" —
    the caller then records a first measurement and skips the gate —
    instead of erroring inside the harness.
    """
    try:
        record = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
    except (OSError, ValueError):
        return {}
    return record if isinstance(record, dict) else {}


def host_note() -> dict:
    """Where a timing ran: usable cores, Python, and a calibration score.

    The score is the best of five runs of a fixed 300k-iteration loop,
    in millions of iterations per second, so records from hosts of
    different speed can be told apart before they are compared.
    """
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        value = 0
        for index in range(300_000):
            value = (value * 31 + index) & 0xFFFFFFF
        best = min(best, time.perf_counter() - started)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_mops": round(300_000 / best / 1e6, 3),
    }


def publish_bench_record(name: str, record: dict) -> str:
    """Write the canonical repo-root ``BENCH_<name>.json`` record.

    The root is the *only* location: rendered tables land in
    ``benchmarks/results/`` but machine-readable baselines live at the
    repo root, where the CI gates (and ``load_bench_record``) find
    them. Publishing a second copy under results/ left the two free to
    drift — this helper is the single write path for every bench.
    """
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (REPO_ROOT / f"BENCH_{name}.json").write_text(payload)
    return payload
