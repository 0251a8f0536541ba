import pytest

from .mna_reference import install


@pytest.fixture
def reference_mna(monkeypatch):
    """Run the test with every MnaSystem assembly routed through the
    scalar reference stampers of ``tests/mna_reference.py``."""
    install(monkeypatch.setattr)
