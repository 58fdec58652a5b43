import pytest

from weylkit import bessel


@pytest.fixture(autouse=True)
def cold_zero_table():
    """Every test starts with no stored Bessel zeros, so a spy on `_j`,
    `_refine` or `_zeros_pass` sees the passes a fresh process makes."""
    bessel._ZERO_TABLE.clear()
