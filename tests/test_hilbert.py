"""Section spaces: dimensions, exact norms, Bergman density."""

import random
from fractions import Fraction
from math import pi

import pytest

from btlab.exact import QC
from btlab.symbols import average
from hilbert_reference import basis_norm_sq, bergman_density, bergman_density_symbol, dimension
from quadrature_reference import gram_quadrature
from symbols_reference import INF


def test_dimension_values():
    assert dimension(0) == 1
    assert dimension(1) == 2
    assert dimension(10) == 11
    with pytest.raises(ValueError):
        dimension(-1)


def test_basis_norms_small_levels():
    # ||z^0||^2 at m=1 is pi, ||z^1||^2 at m=2 is pi/3 (values carry a 2*pi)
    assert basis_norm_sq(1, 0) == Fraction(1, 2)
    assert 2 * pi * float(basis_norm_sq(1, 0)) == pytest.approx(pi)
    assert basis_norm_sq(2, 1) == Fraction(1, 6)
    assert 2 * pi * float(basis_norm_sq(2, 1)) == pytest.approx(pi / 3)


def test_basis_norm_symmetry():
    for m in (3, 8, 17):
        for j in range(m + 1):
            assert basis_norm_sq(m, j) == basis_norm_sq(m, m - j)


def test_basis_norm_index_errors():
    with pytest.raises(IndexError):
        basis_norm_sq(4, 5)
    with pytest.raises(IndexError):
        basis_norm_sq(4, -1)


def test_bergman_density_values():
    assert bergman_density(0, 0.0) == pytest.approx(1 / (2 * pi), rel=1e-14)
    assert bergman_density(5, 1.3 + 0.2j) == pytest.approx(6 / (2 * pi), rel=1e-12)
    assert bergman_density(5, INF) == pytest.approx(bergman_density(5, 0.0), rel=1e-14)


def test_bergman_density_is_constant():
    rng = random.Random(2)
    for m in (1, 4, 9):
        want = (m + 1) / (2 * pi)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(bergman_density(m, z) - want) <= 1e-12 * want


def test_bergman_symbol_reduces_to_constant_and_counts_dimension():
    for m in (0, 1, 5, 12):
        sym = bergman_density_symbol(m)
        assert sym.is_constant and sym.terms == {(0, 0): QC(m + 1)}
        # integral of the density over the sphere reproduces the dimension
        assert average(sym) == QC(dimension(m))


def test_gram_matrix_diagonal_and_matches_norms():
    m = 6
    gram = gram_quadrature(m)
    for j in range(m + 1):
        for k in range(m + 1):
            if j == k:
                want = 2 * pi * float(basis_norm_sq(m, j))
                assert abs(gram[j, j].real - want) <= 1e-10 * want
            else:
                assert abs(gram[j, k]) <= 1e-10
