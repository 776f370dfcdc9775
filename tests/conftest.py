import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hardyz.catalog import builtin


@pytest.fixture(scope="session")
def zeta():
    return builtin("zeta")


@pytest.fixture(scope="session")
def chi3():
    return builtin("chi3")


@pytest.fixture(scope="session")
def chi4():
    return builtin("chi4")


@pytest.fixture(scope="session")
def chi5():
    return builtin("chi5")


@pytest.fixture(scope="session")
def delta():
    return builtin("delta", experimental=True)
