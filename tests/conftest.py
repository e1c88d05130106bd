from fractions import Fraction

import pytest

from btlab.errors import ShapeMismatch
from btlab.exact import QC, QC_I
from btlab.operators import OperatorMatrix, lincomb_exact, operator_norm, prequantum_geometric, toeplitz_exact
from btlab.semiclassics import tuynman_difference
from btlab.symbols import (
    CanonicalSymbol,
    constant,
    laplacian,
    random_real_symbol,
    sphere_coord_x,
    sphere_height,
    sup_norm,
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


def equal_exact(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    """Whether a = b exactly; operators of different levels raise ShapeMismatch, as the kernel arithmetic does."""
    if a.m != b.m:
        raise ShapeMismatch("levels differ")
    return a.kernel == b.kernel


def equals_i_times(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    """Whether a = i b exactly, decided as one exact equality."""
    return equal_exact(a, lincomb_exact([(QC_I, b)]))


def calibrate_laplacian_coeff() -> Fraction:
    """Pin the Laplacian normalization against the quantization identity.

    Tries candidate coefficients c in {1, 2, 4} for Delta_c = (c/2)*Delta
    and returns the one for which Q_f = i T_{f - Delta_c f/(2m)} holds
    exactly at m = 2 on the height symbol.  Raises if none matches.
    """
    f = sphere_height()
    m = 2
    q = prequantum_geometric(f, m)
    for c in (Fraction(1), Fraction(2), Fraction(4)):
        if equals_i_times(q, toeplitz_exact(f - laplacian(f).scale(c / 2 * Fraction(1, 2 * m)), m)):
            return c
    raise RuntimeError("no candidate Laplacian coefficient satisfies the quantization identity")


def norm_defect(f: CanonicalSymbol, m: int) -> float:
    """sup|f| minus the norm of T_f at level m, the value of a norms row."""
    return sup_norm(f) - operator_norm(toeplitz_exact(f, m))


def tuynman_defect(f: CanonicalSymbol, m: int) -> float:
    """|| Q_f - i T_{f - Delta f/(2m)} ||, the float value of a tuynman row; identically zero for this model."""
    return operator_norm(tuynman_difference(f, m))


def rand_complex(seed: int, max_r: int = 2) -> CanonicalSymbol:
    """A non-real symbol: s1 + i*s2 from two independent real draws."""
    return rand(seed, max_r) + rand(seed + 5000, max_r).scale(QC(0, 1))
