import random
import sys
from pathlib import Path

import hypothesis
import pytest

from cyclebalance import engine

sys.path.insert(0, str(Path(__file__).parent))

hypothesis.settings.register_profile(
    "ci", max_examples=40, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_unsigned_entry():
    """Start each test without the engine's reusable unsigned series, so no
    test's trace work or log records depend on the test before it."""
    engine._unsigned_entry = None


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def widened(monkeypatch):
    """Dtypes of every array the engine's exact trace routines widen."""
    seen = set()
    widen = engine._widen

    def spy(a, dtype):
        out = widen(a, dtype)
        seen.add(out.dtype)
        return out

    monkeypatch.setattr(engine, "_widen", spy)
    return seen
