import pytest

from quorder import generate_all_quandles


@pytest.fixture(scope="session")
def labeled_catalog():
    """All labeled quandles of order 1..4."""
    return {n: generate_all_quandles(n) for n in range(1, 5)}


@pytest.fixture(scope="session")
def class_catalog():
    """One representative per isomorphism class for orders 1..5."""
    return {n: generate_all_quandles(n, up_to_iso=True) for n in range(1, 6)}


@pytest.fixture(scope="session")
def order6_classes():
    """One representative per isomorphism class of order 6."""
    return generate_all_quandles(6, up_to_iso=True)
