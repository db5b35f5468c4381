import os

# one OpenBLAS thread, set before anything imports numpy: the oracle's small
# products slow down by orders of magnitude when its threads contend with
# other processes for the cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from gaugeqec.catalog import catalog  # noqa: E402
from gaugeqec.search import SweepSpec, find_gauge_symmetries, sweep_nonexistence  # noqa: E402


@pytest.fixture(scope="session")
def shor9_gauge_search():
    """The expensive positive search, shared by module and acceptance tests."""
    return find_gauge_symmetries(catalog("shor9"), 3)


@pytest.fixture(scope="session")
def sweep_5113():
    return sweep_nonexistence(SweepSpec(5, 1, 1, 3))


@pytest.fixture(scope="session")
def sweep_5103():
    return sweep_nonexistence(SweepSpec(5, 1, 0, 3))
