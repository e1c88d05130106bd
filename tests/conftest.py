import pytest

from btlab.exact import QC, QC_I
from btlab.operators import OperatorMatrix, equal_exact, lincomb_exact
from btlab.symbols import (
    CanonicalSymbol,
    constant,
    random_real_symbol,
    sphere_coord_x,
    sphere_height,
)


@pytest.fixture
def height() -> CanonicalSymbol:
    return sphere_height()


@pytest.fixture
def xcoord() -> CanonicalSymbol:
    return sphere_coord_x()


@pytest.fixture
def one() -> CanonicalSymbol:
    return constant(1)


def rand(seed: int, max_r: int = 2) -> CanonicalSymbol:
    return random_real_symbol(seed, max_r)


def equals_i_times(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    """Whether a = i b exactly, decided as one exact equality."""
    return equal_exact(a, lincomb_exact([(QC_I, b)]))


def rand_complex(seed: int, max_r: int = 2) -> CanonicalSymbol:
    """A non-real symbol: s1 + i*s2 from two independent real draws."""
    return rand(seed, max_r) + rand(seed + 5000, max_r).scale(QC(0, 1))
