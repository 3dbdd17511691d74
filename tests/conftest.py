import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mdlab import builtin, distribution_of_Sn, parse_model_text


@pytest.fixture(scope="session")
def two_state04():
    return builtin("two_state", rho=0.4)


@pytest.fixture(scope="session")
def rademacher():
    return builtin("rademacher")


@pytest.fixture(scope="session")
def mean_13_12():
    """A three-state chain whose stationary payoff mean, 13/12, is not a binary
    fraction: i mu is no float, so ties of the centred sums rest on the centring."""
    return parse_model_text("states = a b c\ndenom = 1\nf_num = 0 1 3\n"
                            "transition = 0.5 0.25 0.25  0.25 0.5 0.25  0.5 0.25 0.25")


@pytest.fixture(scope="session")
def table_two_state_256(two_state04):
    return distribution_of_Sn(two_state04, 256)


@pytest.fixture(scope="session")
def table_two_state_1024(two_state04):
    return distribution_of_Sn(two_state04, 1024)
