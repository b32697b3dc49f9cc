import pytest

from ddks.paper import Rows


@pytest.fixture(scope="session")
def rows_cache():
    """Session-wide memo of both routes' order-32 rows: the one
    `verify-paper` uses."""
    return Rows()
