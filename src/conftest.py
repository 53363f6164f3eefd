"""Fixtures for the module doctests: ``pytest --doctest-modules src/repro``."""

import pytest


@pytest.fixture(autouse=True)
def doctest_tmp_path(doctest_namespace, tmp_path):
    """Each example that writes files writes them under its own ``tmp_path``."""
    doctest_namespace["tmp_path"] = tmp_path
