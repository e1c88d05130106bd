"""Defect functions and sweep machinery."""

import copy
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_reference import values
from btlab import symbols
from btlab.config import parse_symbols
from btlab.errors import DegenerateTable
from btlab.exact import QC
from btlab.operators import compose_exact, hermitian_eigenvalues, lincomb_exact, toeplitz_exact, trace_exact
from btlab.semiclassics import (
    EXACT_ZERO_TOL,
    ConvergenceTable,
    dirac_defect,
    loglog_slope,
    sass_remainder,
    spectral_moment,
    tuynman_difference,
)
from btlab.symbols import average, constant, poisson_bracket
from conftest import norm_defect, rand, tuynman_defect

DEMO = Path(__file__).resolve().parents[1] / "bench" / "configs" / "demo.cfg"


# -- slope fitting ------------------------------------------------------------


def test_slope_on_synthetic_decay():
    t1 = ConvergenceTable("c_over_m", [(m, 3.1 / m) for m in (8, 16, 32, 64, 128)])
    assert abs(loglog_slope(t1) + 1.0) < 1e-6
    t2 = ConvergenceTable("c_over_m2", [(m, 0.7 / m**2) for m in (8, 16, 32, 64, 128)])
    assert abs(loglog_slope(t2) + 2.0) < 1e-6


def test_slope_keeps_its_bits():
    # the slopes that the details of report.json record, to the bit
    t1 = ConvergenceTable("t1", [(m, 3.1 / m + 0.2 / m**2) for m in (8, 16, 32, 64, 128)])
    t2 = ConvergenceTable("t2", [(m, 0.7 / m**2 + 1e-3 / m**3) for m in (16, 32, 64, 128, 256)])
    assert loglog_slope(t1) == float.fromhex("-0x1.004764acfe345p+0")
    assert loglog_slope(t2) == float.fromhex("-0x1.0000654cee426p+1")


def test_slope_flags_exact_identities():
    assert loglog_slope(ConvergenceTable("zeros", [(m, 0.0) for m in (8, 16, 32, 64)])) is None


# a sweep's levels, each at least twice the last, and its values, some of them below EXACT_ZERO_TOL
sweeps = st.lists(st.integers(0, 12), min_size=4, max_size=8, unique=True).flatmap(
    lambda exps: st.lists(st.floats(1e-15, 1e3), min_size=len(exps), max_size=len(exps)).map(
        lambda vals: list(zip((2**e for e in sorted(exps)), vals))
    )
)


@settings(max_examples=200, deadline=None)
@given(sweeps)
def test_slope_agrees_with_polyfit(records):
    # np.polyfit is the oracle; near slope 0 the slope is compared absolutely, since both fits carry an
    # absolute error of about eps |log v| / (spread of log m).  The fit reads its table and leaves it as it was.
    table = ConvergenceTable("t", records)
    before = copy.deepcopy(table)
    slope = loglog_slope(table)
    assert table == before
    pts = [(m, v) for m, v in records[len(records) // 2 :] if v > EXACT_ZERO_TOL]
    if len(pts) < 2:
        assert slope is None
        return
    oracle, _ = np.polyfit(np.log([m for m, _ in pts]), np.log([v for _, v in pts]), 1)
    assert abs(slope - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_slope_calls_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("loglog_slope called LAPACK")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert abs(loglog_slope(ConvergenceTable("c_over_m", [(m, 3.1 / m) for m in (8, 16, 32, 64)])) + 1.0) < 1e-12


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


def test_sass_remainder_with_a_zero_third_coefficient_gives_the_two_coefficient_bits(height, xcoord):
    # the remainder subtracts the coefficients it is given, any number of them; a zero one moves no bit
    for f, g in ((height, xcoord), (rand(3), rand(4))):
        coeffs = [f * g, rand(5)]
        for m in (2, 9, 16):
            assert sass_remainder(f, g, coeffs + [constant(0)], m) == sass_remainder(f, g, coeffs, m)


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


@pytest.mark.parametrize(
    "name, value", [("HAMILTONIAN_PHASE", QC(0, 1)), ("LAPLACE_COEFF", Fraction(1)), ("LAPLACE_COEFF", Fraction(4))]
)
def test_tuynman_fails_with_the_other_phase_or_laplace_coefficient(monkeypatch, name, value):
    # the README's claim: the tuynman check fails on the demo symbols with sigma = +i, c = 1 or c = 4
    demo = parse_symbols(DEMO)
    brackets = {(f, g): poisson_bracket(demo[f], demo[g]) for f, g in permutations(demo, 2)}
    monkeypatch.setattr(symbols, name, value)
    for f in demo.values():
        for m in (2, 4, 8):
            assert tuynman_difference(f, m).kernel.diags, (name, value, m)
    if name == "HAMILTONIAN_PHASE":  # X^z and its conjugate both change sign, so the bracket does not
        assert {pair: poisson_bracket(demo[pair[0]], demo[pair[1]]) for pair in brackets} == brackets
