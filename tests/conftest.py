import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Every worker process a test starts has ended when the test ends."""
    yield
    assert multiprocessing.active_children() == []
