"""Operator assembly paths and matrix analysis."""

from fractions import Fraction
from functools import partial
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from assembly_reference import identity_exact, kernel_of, values
from btlab.config import parse_symbols
from btlab.errors import ShapeMismatch
from btlab.exact import QC
from btlab.operators import (
    Kernel,
    OperatorMatrix,
    adjoint,
    commutator,
    compose_exact,
    hermitian_eigenvalues,
    lincomb_exact,
    matmul,
    operator_norm,
    prequantum_geometric,
    toeplitz_exact,
    trace_exact,
)
from btlab.symbols import average, laplacian, sup_norm, symbol
from conftest import equal_exact, equals_i_times, rand, rand_complex
from quadrature_reference import QuadratureBudgetTooSmall, gram_quadrature, toeplitz_quadrature
from symbols_reference import chart_value


def beta(p: int, q: int) -> Fraction:
    return Fraction(factorial(p - 1) * factorial(q - 1), factorial(p + q - 1))


# -- exact Toeplitz path -------------------------------------------------------


def test_unit_symbol_gives_identity(one):
    for m in (0, 1, 5, 12):
        t = toeplitz_exact(one, m)
        assert equal_exact(t, identity_exact(m))
        assert np.allclose(t.entries, np.eye(m + 1), atol=0)


def test_height_is_diagonal_with_beta_ratios(height):
    # oracle: <z^j, f z^j>/<z^j, z^j> = B(j+2, m+1-j)/B(j+1, m+1-j)
    for m in (1, 2, 7):
        t = values(toeplitz_exact(height, m).kernel)
        for j in range(m + 1):
            want = beta(j + 2, m + 1 - j) / beta(j + 1, m + 1 - j)
            assert t.get((j, j), QC(0)) == QC(want)
            assert want == Fraction(j + 1, m + 2)
            for k in range(m + 1):
                if k != j:
                    assert t.get((j, k), QC(0)) == QC(0)


def test_xcoord_level_one(xcoord):
    # off-diagonal Beta integral: 2*pi*B(2,2)/pi = 1/3 for f = 2*Re(z)/(1+t)
    t = toeplitz_exact(xcoord.scale(2), 1)
    v = values(t.kernel)
    assert v.get((0, 1), QC(0)) == QC(Fraction(1, 3))
    assert v.get((1, 0), QC(0)) == QC(Fraction(1, 3))
    assert v.get((0, 0), QC(0)) == QC(0) and v.get((1, 1), QC(0)) == QC(0)
    assert np.allclose(t.entries, np.array([[0, 1 / 3], [1 / 3, 0]]), atol=1e-15)


def test_linearity_exact():
    f, g = rand(20), rand(21)
    lhs = lincomb_exact(
        [(QC(Fraction(2, 3)), toeplitz_exact(f, 6)), (QC(Fraction(-1, 5)), toeplitz_exact(g, 6))]
    )
    rhs = toeplitz_exact(f.scale(Fraction(2, 3)) + g.scale(Fraction(-1, 5)), 6)
    assert equal_exact(lhs, rhs)


def test_positivity_of_nonnegative_symbols(height, xcoord):
    for f in (height, height * height, xcoord * xcoord):
        for m in (2, 9):
            eigs = hermitian_eigenvalues(toeplitz_exact(f, m))
            assert eigs.min() >= -1e-12


def test_norm_contraction(height, xcoord):
    for f in (height, xcoord.scale(2), rand(33)):
        sup = sup_norm(f)
        for m in (2, 8, 21):
            assert operator_norm(toeplitz_exact(f, m)) <= sup + 1e-9


def test_adjoint_identity_exact():
    for seed in (1, 2, 3):
        f = rand_complex(seed)
        assert equal_exact(adjoint(toeplitz_exact(f, 8)), toeplitz_exact(f.conjugate(), 8))


def test_hermitian_for_real_symbols():
    for seed in (4, 5):
        t = toeplitz_exact(rand(seed), 10)
        assert equal_exact(adjoint(t), t)
        assert np.max(np.abs(t.entries - t.entries.conj().T)) <= 1e-12


# -- quadrature oracle ------------------------------------------------------------


def test_quadrature_matches_exact(height):
    q = toeplitz_quadrature(partial(chart_value, height), 2, 64, 64)
    e = toeplitz_exact(height, 2)
    assert np.max(np.abs(q - e.entries)) <= 1e-10


def test_quadrature_identity():
    q = toeplitz_quadrature(lambda z: 1.0, 6, 32, 32)
    assert np.max(np.abs(q - np.eye(7))) <= 1e-12


def test_quadrature_hermitian_for_real_input():
    f = rand(42)
    q = toeplitz_quadrature(partial(chart_value, f), 8, 64, 64)
    assert np.max(np.abs(q - q.conj().T)) <= 1e-10
    assert np.max(np.abs(q - toeplitz_exact(f, 8).entries)) <= 1e-10


def test_quadrature_propagates_evaluator_errors():
    calls = []

    def broken(z):
        calls.append(z)
        return 1.0 / 0.0

    with pytest.raises(ZeroDivisionError):
        toeplitz_quadrature(broken, 2, 8, 8)
    assert len(calls) == 1  # no node-by-node retry of a failing evaluator


def test_quadrature_spectral_convergence():
    # the radial integrand is polynomial in the Legendre variable, so the
    # rule snaps to machine precision once 2n-1 covers the degree
    f = rand(42)
    exact = toeplitz_exact(f, 40).entries
    errs = [
        np.max(np.abs(toeplitz_quadrature(partial(chart_value, f), 40, nr, 96) - exact))
        for nr in (8, 16, 24)
    ]
    assert errs[1] < errs[0] * 1e-3
    assert errs[2] < 1e-12


def test_quadrature_budget_validation():
    with pytest.raises(QuadratureBudgetTooSmall):
        toeplitz_quadrature(lambda z: 1.0, 2, 0, 16)


def test_gram_rank_matches_dimension():
    for m in (0, 3, 10):
        gram = gram_quadrature(m)
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert int(np.sum(eigs > 1e-8 * eigs.max())) == m + 1


# -- prequantum operator ----------------------------------------------------------


def test_prequantum_of_unit(one):
    for m in (1, 4):
        q = prequantum_geometric(one, m)
        assert np.allclose(q.entries, 1j * np.eye(m + 1), atol=0)


def test_prequantum_matches_quantization_identity(height):
    # oracle: the right-hand side i T_{f - Delta f/(2m)} assembled independently
    for m in (1, 2, 4):
        rhs = toeplitz_exact(height - laplacian(height).scale(Fraction(1, 2 * m)), m)
        lhs = prequantum_geometric(height, m)
        assert equal_exact(lhs, lincomb_exact([(QC(0, 1), rhs)]))


def _tuynman_rhs(f, m, coeff=2):
    # T_{f - Delta_c f/(2m)} with Delta_c = (c/2) Delta; Tuynman's identity holds for c = 2
    return toeplitz_exact(f - laplacian(f).scale(Fraction(coeff, 2) * Fraction(1, 2 * m)), m)


def test_i_times_predicate_rejects_a_wrong_laplacian_coefficient(height):
    for f in (height, rand(8)):
        for m in (1, 2, 5):
            q = prequantum_geometric(f, m)
            assert equals_i_times(q, _tuynman_rhs(f, m))
            for coeff in (1, 4):
                assert not equals_i_times(q, _tuynman_rhs(f, m, coeff))


def test_i_times_predicate_sees_one_entry():
    m = 6
    q, rhs = prequantum_geometric(rand(9), m), _tuynman_rhs(rand(9), m)
    rhs_values = values(rhs.kernel)
    key = next(iter(rhs_values))
    dropped = {k: v for k, v in rhs_values.items() if k != key}
    changed = {**rhs_values, key: rhs_values[key] + QC(0, Fraction(1, 10**30))}
    for kernel in (dropped, changed):
        assert not equals_i_times(q, OperatorMatrix(m, kernel_of(kernel, m)))
    dropped_q = {k: v for k, v in values(q.kernel).items() if k != key}
    assert not equals_i_times(OperatorMatrix(m, kernel_of(dropped_q, m)), rhs)


def test_i_times_predicate_rejects_unequal_levels(height):
    q = prequantum_geometric(height, 3)
    with pytest.raises(ShapeMismatch):
        equals_i_times(q, _tuynman_rhs(height, 4))


def test_prequantum_is_anti_hermitian_for_real_symbols():
    for seed in (6, 7):
        q = prequantum_geometric(rand(seed), 12)
        assert np.max(np.abs(q.entries + q.entries.conj().T)) <= 1e-12


# -- matrix analysis ----------------------------------------------------------------


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([0.25, 0.5, 0.75])) == pytest.approx(0.75, abs=1e-15)


def test_operator_norm_of_zero_matrix_skips_the_svd(monkeypatch):
    nonzero = np.diag([0.0, -2.0, 0.5]).astype(complex)
    want = operator_norm(nonzero)
    assert want == pytest.approx(2.0, abs=1e-15)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called on a zero matrix")

    monkeypatch.setattr(np.linalg, "norm", no_svd)
    zero = operator_norm(np.zeros((5, 5), dtype=complex))
    assert zero == 0.0 and type(zero) is float
    t = toeplitz_exact(rand(3), 4)
    empty = lincomb_exact([(1, t), (-1, t)])
    assert operator_norm(empty) == 0.0 and "entries" not in vars(empty)  # no float matrix either


def test_commutator_basics(height):
    t = toeplitz_exact(height, 4)
    assert np.max(np.abs(commutator(t, t))) == 0.0
    with pytest.raises(ShapeMismatch):
        commutator(identity_exact(1), identity_exact(2))
    with pytest.raises(ShapeMismatch):
        matmul(identity_exact(1), identity_exact(2))


def test_eigenvalues_sorted_and_hermiticity_guard():
    eigs = hermitian_eigenvalues(OperatorMatrix(2, Kernel(1, {0: [(3, 0), (-1, 0), (2, 0)]})))
    assert list(eigs) == sorted(eigs)
    upper = OperatorMatrix(1, Kernel(1, {-1: [(1, 0)]}))  # the one entry (0, 1): [[0, 1], [0, 0]] at level 1
    assert np.array_equal(upper.entries, np.array([[0.0, 1.0], [0.0, 0.0]]))
    corner = OperatorMatrix(2, Kernel(1, {-2: [(1, 0)]}))  # the entry (0, 2) alone, off the band routes
    # [[0, 1 + 1e-12], [1, 0]]: a float defect of 1e-12, which no relative tolerance can tell from rounding
    near = OperatorMatrix(1, Kernel(10**12, {1: [(10**12, 0)], -1: [(10**12 + 1, 0)]}))
    for x in (upper, corner, near):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(x)


def test_a_diagonal_operator_with_an_imaginary_part_below_the_float_range_is_not_hermitian(height):
    # (1 + i 10^-400) T_height: its diagonal floats are real, since 10^-400 underflows, but its exact adjoint is not it
    t = toeplitz_exact(height.scale(QC(1, Fraction(1, 10**400))), 4)
    assert not t.diagonal.imag.any() and adjoint(t).kernel != t.kernel
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(t)
    assert operator_norm(t) == operator_norm(toeplitz_exact(height, 4))


def test_band_routes_take_the_dense_call_where_they_cannot_match_it(monkeypatch):
    calls = []

    def recording(name):
        fn = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, a.dtype))
            return fn(a, *args, **kwargs)

        return call

    for name in ("norm", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    m = 6
    complex_diagonal = toeplitz_exact(symbol({(1, 1): QC(1, 1)}, 1), m)
    both_parts = toeplitz_exact(symbol({(0, 0): QC(1), (1, 0): QC(1, 1), (0, 1): QC(1, -1)}, 1), m)
    pentadiagonal = toeplitz_exact(symbol({(0, 0): QC(1), (2, 0): QC(1), (0, 2): QC(1)}, 2), m)
    # a level-2 kernel on diagonals -2, 0 and 2, which no band route takes; C(2, 0) = C(2, 2), so it is Hermitian
    plain = OperatorMatrix(2, Kernel(1, {-2: [(1, 0)], 0: [(3, 0), (-1, 0), (2, 0)], 2: [(1, 0)]}))
    assert {d for d, _ in pentadiagonal.kernel.diags} == {-2, 0, 2}
    operator_norm(complex_diagonal)
    matmul(complex_diagonal, pentadiagonal)  # a product with it is the dense one
    assert "entries" in vars(complex_diagonal)
    hermitian_eigenvalues(both_parts)
    hermitian_eigenvalues(pentadiagonal)
    operator_norm(plain)
    hermitian_eigenvalues(plain)
    assert calls == [(name, np.dtype(complex)) for name in ("norm", "eigvalsh", "eigvalsh", "norm", "eigvalsh")]


def test_exact_operators_live_past_the_float_underflow():
    # 1/((m+1) C(m, j)) underflows to 0.0 from m = 1071: the floats cannot be formed there, the exact kernel can
    bump = parse_symbols(Path(__file__).resolve().parents[1] / "bench" / "configs" / "stretch-1024.cfg")["bump"]
    m = 1100
    t = toeplitz_exact(bump, m)
    assert trace_exact(t) == QC(m + 1) * average(bump)
    with pytest.raises(ZeroDivisionError, match="underflows to 0.0 at level 1100"):
        t.entries


def test_exact_compose_and_trace(height):
    t = toeplitz_exact(height, 3)
    sq = compose_exact(t, t)
    sq_values, t_values = values(sq.kernel), values(t.kernel)
    for j in range(4):
        assert sq_values.get((j, j), QC(0)) == t_values.get((j, j), QC(0)) * t_values.get((j, j), QC(0))
    assert trace_exact(t) == QC(Fraction(sum(j + 1 for j in range(4)), 5))
