"""Shared fixtures for the serve suite.

The AEP catalog (database + demo retriever) is expensive enough to build
once per test session; each test gets its own :class:`ServeApp` (fresh
session manager, fresh tenant stacks) over the shared read-only catalog.
"""

import itertools

import pytest

from repro import obs
from repro.core import DemonstrationRetriever
from repro.datasets import build_aep_database, generate_aep_suite
from repro.serve import CatalogEntry, ServeApp, SessionManager


@pytest.fixture(scope="session")
def aep_catalog():
    database = build_aep_database()
    _traffic, demos = generate_aep_suite(n_questions=10)
    return {"aep": CatalogEntry(database, DemonstrationRetriever(demos))}


@pytest.fixture
def sequential_ids():
    counter = itertools.count(1)
    return lambda: f"s{next(counter)}"


@pytest.fixture
def app(aep_catalog, sequential_ids):
    return ServeApp(
        aep_catalog,
        manager=SessionManager(id_factory=sequential_ids),
    )


@pytest.fixture
def enabled_obs():
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


@pytest.fixture
def rejected(enabled_obs):
    """Reads ``serve.transport.rejected`` for one refusal reason."""
    return lambda reason: obs.get_metrics().counter_value(
        "serve.transport.rejected", reason=reason
    )
