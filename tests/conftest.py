import pytest
from hypothesis import Phase, settings

from tanglekit import builtin_system

# ``tools/mutants.py`` selects this profile: a failing example kills a mutant
# as soon as it is found, with no wait while it shrinks; other runs keep the
# default profile
settings.register_profile(
    "no-shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target)
)


@pytest.fixture(scope="session")
def min3():
    return builtin_system("min3")


@pytest.fixture(scope="session")
def p3():
    return builtin_system("p3")


@pytest.fixture(scope="session")
def c4():
    return builtin_system("c4")


@pytest.fixture(scope="session")
def k4():
    return builtin_system("k4")


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def masks_of(family) -> tuple[int, ...]:
    """Oracle family (iterable of frozensets) as a sorted mask tuple."""
    return tuple(sorted(mask_of(side) for side in family))
