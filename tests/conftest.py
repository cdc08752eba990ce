"""Shared fixtures: small seeded suites so tests stay fast."""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.aep import build_aep_database, generate_aep_suite
from repro.datasets.spider import generate_spider_suite
from repro.sql.engine import Database


@pytest.fixture(scope="session")
def small_suite():
    """A small SPIDER-like suite shared across tests (read-only)."""
    return generate_spider_suite(n_databases=16, n_dev=90, n_train=70)


@pytest.fixture(scope="session")
def aep_suite():
    """The AEP benchmark + demonstration pool (read-only)."""
    return generate_aep_suite(n_questions=70)


@pytest.fixture(scope="session")
def aep_db() -> Database:
    return build_aep_database()


@pytest.fixture
def loop_env():
    """A live event loop on a daemon thread plus a dispatch executor —
    the environment the serve transport hands to its loop batcher."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    executor = ThreadPoolExecutor(max_workers=2)
    yield loop, executor
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5)
    loop.close()
    executor.shutdown(wait=False)


@pytest.fixture()
def music_db() -> Database:
    """A hand-built database exercising most engine features."""
    db = Database.from_ddl(
        "music",
        """
        CREATE TABLE singer (
            singer_id INTEGER PRIMARY KEY,
            Name TEXT,
            Age INTEGER,
            Country TEXT,
            Song_Name TEXT
        );
        CREATE TABLE song (
            song_id INTEGER PRIMARY KEY,
            singer_id INTEGER,
            Title TEXT,
            Sales REAL,
            Release_year INTEGER,
            FOREIGN KEY (singer_id) REFERENCES singer(singer_id)
        );
        """,
    )
    db.execute(
        "INSERT INTO singer VALUES "
        "(1, 'Joe Sharp', 52, 'Netherlands', 'Sun'),"
        "(2, 'Timbaland', 32, 'United States', 'Love'),"
        "(3, 'Justin Brown', 29, 'France', 'Hey Oh'),"
        "(4, 'Rose White', 41, 'France', 'Sun'),"
        "(5, 'John Nizinik', 43, 'France', 'Gentleman'),"
        "(6, 'Tribal King', 25, 'France', 'Fake It')"
    )
    db.execute(
        "INSERT INTO song VALUES "
        "(1, 2, 'Do They Know', 8.0, 2002),"
        "(2, 2, 'The Way I Are', 9.0, 2007),"
        "(3, 3, 'Hey Oh', 7.5, 2013),"
        "(4, 6, 'Fake It', 6.5, 2016),"
        "(5, 5, 'Gentleman', 5.5, 2014),"
        "(6, 4, 'Sun', 8.5, 2008)"
    )
    return db
