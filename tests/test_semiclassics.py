"""Defect functions and sweep machinery."""

from fractions import Fraction

import pytest

from assembly_reference import values
from btlab.errors import DegenerateTable, UnknownCoefficientOrder
from btlab.exact import QC
from btlab.operators import compose_exact, hermitian_eigenvalues, lincomb_exact, toeplitz_exact, trace_exact
from btlab.semiclassics import (
    ConvergenceTable,
    dirac_defect,
    loglog_slope,
    norm_defect,
    product_coefficients,
    sass_remainder,
    spectral_moment,
    tuynman_defect,
)
from btlab.symbols import average
from conftest import rand


# -- slope fitting ------------------------------------------------------------


def test_slope_on_synthetic_decay():
    t1 = ConvergenceTable("c_over_m", [(m, 3.1 / m) for m in (8, 16, 32, 64, 128)])
    assert abs(loglog_slope(t1).slope + 1.0) < 1e-6
    t2 = ConvergenceTable("c_over_m2", [(m, 0.7 / m**2) for m in (8, 16, 32, 64, 128)])
    assert abs(loglog_slope(t2).slope + 2.0) < 1e-6


def test_slope_flags_exact_identities():
    table = ConvergenceTable("zeros", [(m, 0.0) for m in (8, 16, 32, 64)])
    fit = loglog_slope(table)
    assert fit.exact_identity and fit.slope is None and fit.intercept is None


def test_slope_needs_enough_records():
    with pytest.raises(DegenerateTable):
        loglog_slope(ConvergenceTable("short", [(8, 1.0), (16, 0.5), (32, 0.25)]))


def test_table_validation():
    with pytest.raises(ValueError):
        ConvergenceTable("bad", [(8, 1.0), (4, 0.5)])
    with pytest.raises(ValueError):
        ConvergenceTable("bad", [(8, float("nan"))])


# -- norm defect ----------------------------------------------------------------


def test_norm_defect_closed_form(height):
    for m in (1, 5, 16):
        assert norm_defect(height, m) == pytest.approx(1.0 / (m + 2), abs=1e-13)


def test_norm_defect_of_unit(one):
    for m in (1, 7):
        assert abs(norm_defect(one, m)) <= 1e-13


def test_norm_defect_xcoord_level_one(xcoord):
    # eigenvalues of [[0,1/3],[1/3,0]] are +-1/3, sup of 2*Re(z)/(1+t) is 1
    assert norm_defect(xcoord.scale(2), 1) == pytest.approx(2.0 / 3.0, abs=1e-12)


# -- commutator defect -------------------------------------------------------------


def test_dirac_defect_trivial_pair(height):
    for m in (2, 9):
        assert dirac_defect(height, height, m) <= 1e-14


def test_dirac_defect_symmetric(height, xcoord):
    for m in (4, 11):
        assert dirac_defect(height, xcoord, m) == pytest.approx(dirac_defect(xcoord, height, m), abs=1e-14)


# -- product remainders --------------------------------------------------------------


def test_sass_remainder_unit(one, xcoord):
    for m in (1, 6, 13):
        assert sass_remainder(one, xcoord, [xcoord], m) <= 1e-15


def test_sass_remainder_spot_value_exact(height):
    # independent oracle: with T diag((j+1)/(m+2)) and T_{f^2} diag of
    # (j+1)(j+2)/((m+2)(m+3)), the N=1 remainder diagonal at m=2 is
    # -(j+1)(m+1-j)/((m+2)^2 (m+3)) = (-3/80, -1/20, -3/80).
    m = 2
    t = toeplitz_exact(height, m)
    rem = lincomb_exact([(QC(1), compose_exact(t, t)), (QC(-1), toeplitz_exact(height * height, m))])
    want = [QC(Fraction(-(j + 1) * (m + 1 - j), (m + 2) ** 2 * (m + 3))) for j in range(m + 1)]
    rem_values = values(rem.kernel)
    for j in range(m + 1):
        assert rem_values.get((j, j), QC(0)) == want[j]
        for k in range(m + 1):
            if j != k:
                assert rem_values.get((j, k), QC(0)) == QC(0)
    assert [w.re for w in want] == [Fraction(-3, 80), Fraction(-1, 20), Fraction(-3, 80)]
    assert sass_remainder(height, height, [height * height], m) == pytest.approx(1 / 20, abs=1e-15)


def test_sass_remainder_rejects_unknown_orders(height):
    with pytest.raises(UnknownCoefficientOrder):
        sass_remainder(height, height, [height] * 3, 4)
    with pytest.raises(UnknownCoefficientOrder):
        product_coefficients(height, height, 3)


# -- traces -----------------------------------------------------------------------


def test_trace_closed_forms(height, one):
    for m in (1, 4, 9):
        assert trace_exact(toeplitz_exact(height, m)) == QC(Fraction(m + 1, 2))
        assert trace_exact(toeplitz_exact(one, m)) == QC(m + 1)


# -- spectral moments ------------------------------------------------------------------


def spectrum(f, m):
    return hermitian_eigenvalues(toeplitz_exact(f, m))


def test_moment_example(height):
    assert spectral_moment(spectrum(height, 4), 1) == pytest.approx(5 / 8, abs=1e-14)
    assert average(height) == QC(Fraction(1, 2))


def test_moment_of_unit(one):
    for m in (3, 10):
        assert spectral_moment(spectrum(one, m), 1) == pytest.approx((m + 1) / m, abs=1e-13)


def test_moment_validation(height):
    with pytest.raises(ValueError):
        spectral_moment(spectrum(height, 4), 0)


# -- quantization-identity defect -------------------------------------------------------


def test_tuynman_defect_unit(one):
    for m in (1, 3):
        assert tuynman_defect(one, m) <= 1e-15


def test_tuynman_defect_height(height):
    for m in (1, 2, 4, 8):
        assert tuynman_defect(height, m) <= 1e-10


def test_tuynman_defect_random():
    for seed in range(10):
        assert tuynman_defect(rand(seed + 300), 16) <= 1e-10
