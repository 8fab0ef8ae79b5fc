import pytest

from twoselmer.curve import FullTwoTorsionModel

CORPUS_ROOTS = [(-1, 0, 1), (0, 1, 2), (0, 1, 5)]
# the corpus and three curves with odd primes in Sigma: the searches' test curves
SEARCH_ROOTS = CORPUS_ROOTS + [(-3, 0, 3), (0, 4, 9), (-7, 1, 20)]


@pytest.fixture(scope="session")
def m101():
    return FullTwoTorsionModel((-1, 0, 1))


@pytest.fixture(scope="session")
def m012():
    return FullTwoTorsionModel((0, 1, 2))


@pytest.fixture(scope="session")
def m015():
    return FullTwoTorsionModel((0, 1, 5))


@pytest.fixture(scope="session")
def corpus(m101, m012, m015):
    return [m101, m012, m015]


@pytest.fixture(scope="session")
def search_curves():
    return [FullTwoTorsionModel(roots) for roots in SEARCH_ROOTS]
