import numpy as np
import pytest

from bohrlab import build_group


# Writers for the text formats the CLI reads, for tests that make input files.

def format_cayley_table(group) -> str:
    lines = [str(group.order)]
    lines += [" ".join(str(int(x)) for x in row) for row in group.table]
    return "\n".join(lines) + "\n"


def format_subset(subset) -> str:
    return " ".join(str(int(i)) for i in subset.indices) + "\n"


def format_function(fn) -> str:
    return "\n".join(repr(float(v)) for v in fn.values) + "\n"


def pass_all(span):
    """The screen for a direct ``bohr.first_accepted`` call that keeps every
    candidate, so that ``accept`` alone decides."""
    return np.ones(len(span), dtype=bool)


@pytest.fixture(scope="session")
def z4():
    return build_group("zmod:4")


@pytest.fixture(scope="session")
def z6():
    return build_group("zmod:6")


@pytest.fixture(scope="session")
def z12():
    return build_group("zmod:12")


@pytest.fixture(scope="session")
def z101():
    return build_group("zmod:101")


@pytest.fixture(scope="session")
def klein8():
    return build_group("product:zmod:2,zmod:2,zmod:2")


@pytest.fixture(scope="session")
def s3():
    return build_group("sym:3")


@pytest.fixture(scope="session")
def q8():
    return build_group("quaternion:8")


@pytest.fixture(scope="session")
def a5():
    return build_group("alt:5")
