"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.common.rng import SeedSequenceFactory


def pytest_configure(config: pytest.Config) -> None:
    # Registered here as well as in pyproject.toml so the marker exists
    # even when the suite runs from an sdist without the project config.
    config.addinivalue_line(
        "markers",
        "lint: static-analysis gate tests (deselect with '-m \"not lint\"')",
    )
    # Tier-1 runs exercise the runtime invariants (the dynamic half of
    # repro.checks) by default; export REPRO_CHECKS=0 to opt out.
    os.environ.setdefault("REPRO_CHECKS", "1")
from repro.core.histograms import AgeBins, default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import Machine, MachineConfig
from repro.kernel.oracle import ReferenceMemCg


@pytest.fixture
def bins() -> AgeBins:
    """The paper-default candidate threshold grid."""
    return default_age_bins()


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def seeds() -> SeedSequenceFactory:
    """A fixed-root seed factory."""
    return SeedSequenceFactory(42)


@pytest.fixture
def compressible_profile() -> ContentProfile:
    """A profile where every page compresses (no incompressible tail)."""
    return ContentProfile(median_ratio=3.0, sigma=0.2, incompressible_fraction=0.0, min_ratio=1.5)


@pytest.fixture
def memcg(bins, rng, compressible_profile) -> ReferenceMemCg:
    """A small reference memcg with 1000 fully-compressible page slots."""
    return ReferenceMemCg(
        job_id="test-job",
        capacity_pages=1000,
        content_profile=compressible_profile,
        bins=bins,
        rng=rng,
    )


@pytest.fixture
def machine(seeds) -> Machine:
    """A 1 GiB proactive machine."""
    return Machine("m-test", MachineConfig(dram_bytes=1 << 30), seeds=seeds)


@pytest.fixture(scope="session")
def warm_fleet():
    """A small fleet run for 4 simulated hours (expensive; shared)."""
    from repro.cluster import quickfleet

    fleet = quickfleet(
        clusters=2,
        machines_per_cluster=2,
        jobs_per_machine=4,
        seed=2024,
    )
    fleet.run(4 * 3600)
    return fleet
