import pytest

from tftlib import FieldCtx, bridge


@pytest.fixture(scope="session")
def ctx():
    """Default field, shared across the suite; tests measure counter deltas."""
    return FieldCtx()


@pytest.fixture(scope="session")
def ctx5():
    return FieldCtx(5)


@pytest.fixture
def exact_length(monkeypatch):
    """Products at transform length exactly deg(fg) + 1: the block cap of
    ``bridge._transform_length`` lifted past any length's set bits."""
    monkeypatch.setattr(bridge, "_MAX_BLOCKS", 64)
