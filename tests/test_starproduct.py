"""Deformation algebra: coefficients, star products, equivalence, trace."""

from fractions import Fraction

import pytest

from btlab.errors import UnknownCoefficientOrder
from btlab.exact import QC, QC_I
from btlab.starproduct import (
    FormalSeries,
    b_inverse,
    b_map,
    c1,
    check_axioms,
    check_equivalence,
    coefficient,
    d1,
    formal_trace,
    star_bt,
    star_geometric,
    tau,
)
from btlab.symbols import CanonicalSymbol, average, constant, laplacian, poisson_bracket
from conftest import rand, rand_complex


# -- c1 -----------------------------------------------------------------------


def test_c1_height_squared(height):
    assert c1(height, height) == CanonicalSymbol({(1, 1): QC(-1)}, 2)


def test_c1_null_on_constants(one, xcoord):
    assert c1(one, xcoord).is_zero
    assert c1(xcoord, one).is_zero


def bracket_compatibility_defect(f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    """c1(f,g) - c1(g,f) + i*{f,g}; the zero symbol when the first-order
    antisymmetric part reproduces the Poisson bracket."""
    return c1(f, g) - c1(g, f) + poisson_bracket(f, g).scale(QC_I)


def test_c1_antisymmetric_part_is_bracket():
    for seed in range(10):
        f, g = rand(seed), rand(seed + 40)
        assert bracket_compatibility_defect(f, g).is_zero


def test_c1_bilinear_over_exact_scalars():
    f, g, h = rand(1), rand(2), rand(3)
    a = QC(Fraction(3, 7))
    assert c1(f.scale(a) + g, h) == c1(f, h).scale(a) + c1(g, h)
    assert c1(h, f.scale(a) + g) == c1(h, f).scale(a) + c1(h, g)


def test_d1_bilinear_over_exact_scalars():
    f, g, h = rand(31), rand(32), rand(33)
    a = QC(Fraction(-2, 5))
    assert d1(f.scale(a) + g, h) == d1(f, h).scale(a) + d1(g, h)
    assert d1(h, f.scale(a) + g) == d1(h, f).scale(a) + d1(h, g)


def test_parity_identity():
    for seed in range(8):
        f, g = rand_complex(seed), rand_complex(seed + 60)
        assert c1(f, g).conjugate() == c1(g.conjugate(), f.conjugate())
    # real pair specialization
    f, g = rand(70), rand(71)
    assert c1(f, g) == c1(g, f).conjugate()


# -- star products ---------------------------------------------------------------


def test_star_unit(one, xcoord):
    g = FormalSeries.of(xcoord, 1)
    assert star_bt(FormalSeries.of(one, 1), g) == g
    assert star_bt(g, FormalSeries.of(one, 1)) == g


def test_star_height_squared(height):
    s = star_bt(FormalSeries.of(height, 1), FormalSeries.of(height, 1))
    assert s.coeffs[0] == height * height
    assert s.coeffs[1] == c1(height, height)


def test_star_antisymmetric_part():
    for seed in range(5):
        f, g = rand(seed), rand(seed + 80)
        fs, gs = FormalSeries.of(f, 1), FormalSeries.of(g, 1)
        diff = star_bt(fs, gs) - star_bt(gs, fs)
        assert diff.coeffs[0].is_zero
        assert diff.coeffs[1] == poisson_bracket(f, g).scale(QC(0, -1))


def test_star_order_zero_is_pointwise_product():
    f, g = rand(90), rand(91)
    s = star_bt(FormalSeries.of(f, 1), FormalSeries.of(g, 1))
    assert s.coeffs[0] == f * g


def test_coefficient_map(one, height, xcoord):
    assert coefficient(0, height, xcoord) == height * xcoord
    assert coefficient(1, height, xcoord) == c1(height, xcoord)
    for k in (2, 3, 7):
        assert coefficient(k, one, xcoord).is_zero and coefficient(k, xcoord, constant(5)).is_zero


def test_coefficient_rejects_unknown_orders(height):
    with pytest.raises(UnknownCoefficientOrder):
        coefficient(2, height, height)


def test_star_with_a_constant_operand_has_every_order(one, height, xcoord):
    gs = FormalSeries((height, xcoord, height * xcoord, xcoord))
    assert star_bt(FormalSeries.of(one, 3), gs) == gs
    assert star_bt(gs, FormalSeries.of(one, 3)) == gs


def test_star_order_two_needs_unknown_coefficient(height, one):
    two = FormalSeries.of(height, 2)
    with pytest.raises(UnknownCoefficientOrder):
        star_bt(two, two)
    # a constant order-0 factor kills every unavailable term
    s = star_bt(FormalSeries.of(one, 2), two)
    assert s == two


# -- geometric star product --------------------------------------------------------


def test_d1_null_on_constants(one, xcoord):
    assert d1(one, xcoord).is_zero
    assert d1(xcoord, one).is_zero


def test_d1_antisymmetric_part_matches_c1():
    for seed in range(5):
        f, g = rand(seed + 11), rand(seed + 95)
        assert d1(f, g) - d1(g, f) == c1(f, g) - c1(g, f)


def test_d1_direct_assembly(height):
    half = Fraction(1, 2)
    want = c1(height, height) + (
        laplacian(height * height) - laplacian(height) * height - height * laplacian(height)
    ).scale(half)
    assert d1(height, height) == want


def test_star_geometric_coefficients(height, xcoord, one):
    s = star_geometric(FormalSeries.of(height, 1), FormalSeries.of(xcoord, 1))
    assert s.coeffs[0] == height * xcoord
    assert s.coeffs[1] == d1(height, xcoord)
    g = FormalSeries.of(xcoord, 1)
    assert star_geometric(FormalSeries.of(one, 1), g) == g


# -- the intertwining map ------------------------------------------------------------


def test_b_map_fixes_constants(one):
    s = FormalSeries.of(one, 1)
    assert b_map(s) == s


def test_b_map_of_height(height):
    bm = b_map(FormalSeries.of(height, 1))
    assert bm.coeffs[0] == height
    assert bm.coeffs[1] == laplacian(height).scale(Fraction(-1, 2))


def test_b_inverse_roundtrip():
    for seed in range(5):
        series = FormalSeries((rand(seed), rand(seed + 17), rand(seed + 29)))
        assert b_inverse(b_map(series)) == series
        assert b_map(b_inverse(series)) == series


def test_equivalence_defect_is_zero(one, height):
    passed = dict.fromkeys(("nu1_defect_zero", "b_roundtrip"), True)
    assert check_equivalence(one, height) == passed
    assert check_equivalence(height, height) == passed
    for seed in range(10):
        assert check_equivalence(rand(seed), rand(seed + 23)) == passed


# -- axiom bundle --------------------------------------------------------------------


def test_axioms_with_unit(one, xcoord, height):
    assert check_axioms(one, xcoord, height) == dict.fromkeys(("unit", "parity", "assoc_order1", "trace_antisym"), True)


def test_axioms_products(height, xcoord):
    assert all(check_axioms(height, xcoord, height * xcoord).values())


def test_axioms_random_triples():
    for seed in range(25):
        f, g, h = rand(seed), rand(seed + 111), rand(seed + 222)
        assert all(check_axioms(f, g, h).values())


# -- formal trace ---------------------------------------------------------------------


def test_formal_trace_of_unit(one):
    tr = formal_trace(FormalSeries.of(one, 1))
    assert tr.coeff(-1) == QC(1) and tr.coeff(0) == QC(1)


def test_formal_trace_of_height(height):
    tr = formal_trace(FormalSeries.of(height, 1))
    assert tr.coeff(-1) == QC(Fraction(1, 2)) and tr.coeff(0) == QC(Fraction(1, 2))


def test_formal_trace_kills_commutators():
    f, g = rand(5), rand(55)
    comm_nu1 = (
        star_bt(FormalSeries.of(f, 1), FormalSeries.of(g, 1))
        - star_bt(FormalSeries.of(g, 1), FormalSeries.of(f, 1))
    ).coeffs[1]
    assert average(comm_nu1) == QC(0)
    assert formal_trace(FormalSeries.of(comm_nu1, 1)).coeff(-1) == QC(0)


def test_trace_coefficients_beyond_order_one_unavailable(height):
    with pytest.raises(UnknownCoefficientOrder):
        tau(height, 2)
    with pytest.raises(UnknownCoefficientOrder):
        formal_trace(FormalSeries.of(height, 2))


def test_series_validation():
    with pytest.raises(ValueError):
        FormalSeries(())
    s = FormalSeries.of(constant(3), 2)
    assert s.order == 2 and len(s.coeffs) == 3
