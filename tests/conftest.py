import pytest

from ffperiods import cmshtuka


@pytest.fixture
def tower_units(monkeypatch):
    """The precision units of every component tower built during the test,
    in order: a rerun after a precision error shows as a second entry."""
    seen = []
    build = cmshtuka.component_tower

    def spy(*args, units=2, **kw):
        seen.append(units)
        return build(*args, units=units, **kw)

    monkeypatch.setattr(cmshtuka, "component_tower", spy)
    return seen
