"""Fixtures shared by the test modules."""

import importlib

import numpy as np
import pytest

# The package's function mu shadows the submodule on the package object.
mu_module = importlib.import_module("quadsg.mu")


@pytest.fixture
def fresh_head(monkeypatch):
    """An empty mu head, so a test sees how far the forward fill goes."""
    monkeypatch.setattr(mu_module, "_head", np.zeros_like(mu_module._head))
    monkeypatch.setattr(mu_module, "_filled", -1)
