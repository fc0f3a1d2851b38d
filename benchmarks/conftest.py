"""Pytest set-up for the benchmark harness: import paths and shared fixtures.

The constants and helpers live in :mod:`bench_common`.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

try:  # pragma: no cover
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_common import paper_analyzer  # noqa: E402


@pytest.fixture(scope="session")
def analyzer():
    return paper_analyzer()
