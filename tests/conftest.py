import os

import pytest
from hypothesis import settings

from infalg.generators import gen_lattice_valued, gen_multivariate, gen_string
from infalg.order import chain_lattice

# HYPOTHESIS_PROFILE=ci: a fixed example sequence and no per-example deadline,
# so property tests neither flake nor time out on slow runners
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def string22():
    return gen_string(2, 2)


@pytest.fixture(scope="session")
def string23():
    return gen_string(2, 3)


@pytest.fixture(scope="session")
def multivariate22():
    return gen_multivariate([2, 2])


@pytest.fixture(scope="session")
def mv22_algebra(multivariate22):
    return multivariate22.to_info_algebra()


@pytest.fixture(scope="session")
def lv_2_chain3():
    return gen_lattice_valued([2], chain_lattice(3))


@pytest.fixture(scope="session")
def lv_2_chain2():
    return gen_lattice_valued([2], chain_lattice(2))


@pytest.fixture(scope="session")
def generated_suite(string22, string23, mv22_algebra, lv_2_chain3, lv_2_chain2):
    """The algebras every 'for every generated algebra' clause ranges over."""
    return {
        "string22": string22,
        "string23": string23,
        "multivariate22": mv22_algebra,
        "lattice_valued_2_chain3": lv_2_chain3,
        "lattice_valued_2_chain2": lv_2_chain2,
    }
