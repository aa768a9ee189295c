import pathlib
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from homlie import PrimeField
from homlie.field import QQ
from homlie.lab import catalog

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Property tests replay the same examples on every run, keep no example
# database and set no per-example deadline; each sets its own max_examples.
settings.register_profile("homlie", derandomize=True, database=None, deadline=None)
settings.load_profile("homlie")


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def fp():
    return PrimeField(10007)


@pytest.fixture(scope="session")
def named():
    return {c.name: c for c in catalog()}
