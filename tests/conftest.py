"""Shared fixtures for the stdchk reproduction test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro import StdchkConfig, StdchkPool
from repro.obs import set_enabled
from repro.util.clock import VirtualClock
from repro.util.units import MiB

#: Sequences the manager's differential test (tests/manager/
#: test_state_machine.py) draws in tier-1, derandomised; sized to run in
#: well under 10 s.
STATE_MACHINE_EXAMPLES = 250

# CI's fault-injection job runs that test with ``--hypothesis-profile=ci``:
# ten times the sequences, fresh seeds every run, and the reproduction blob
# printed so a failing sequence can be pasted back as an ``@example``.
settings.register_profile(
    "ci", max_examples=10 * STATE_MACHINE_EXAMPLES, derandomize=False,
    print_blob=True, deadline=None,
)


def pytest_addoption(parser):
    parser.addoption(
        "--obs-off", action="store_true", default=False,
        help="run with observability switched off (set_enabled(False)) for "
             "the whole session: nothing functional may depend on telemetry",
    )


def pytest_configure(config):
    if config.getoption("--obs-off"):
        set_enabled(False)


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def small_config() -> StdchkConfig:
    """A configuration with small chunks so tests move little data."""
    return StdchkConfig(
        chunk_size=64 * 1024,
        stripe_width=3,
        replication_level=2,
        incremental_file_size=128 * 1024,
    )


@pytest.fixture
def pool(small_config: StdchkConfig) -> StdchkPool:
    """A four-benefactor in-process pool with small chunks."""
    return StdchkPool(
        benefactor_count=4,
        benefactor_capacity=64 * MiB,
        config=small_config,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def make_bytes(size: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random payload for tests."""
    return random.Random(seed).randbytes(size)
