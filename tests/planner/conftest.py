"""Isolate planner unit tests from host environment pins.

CI runs the whole suite under ``REPRO_PLAN=vertical`` to prove plans
are a performance decision, not a correctness one; these tests probe
the *unpinned* decision procedure, so the pin variables are cleared
here and set explicitly (``monkeypatch.setenv``) where a test wants
them.
"""

import pytest


@pytest.fixture(autouse=True)
def _clear_planner_env(monkeypatch):
    monkeypatch.delenv("REPRO_PLAN", raising=False)
