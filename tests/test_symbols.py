"""Symbol algebra: reduction, derivatives, bracket, Laplacian, integration."""

import random
from fractions import Fraction
from functools import partial

import pytest

from btlab.errors import NotSmoothAtInfinity
from btlab.exact import QC
from btlab.symbols import (
    HAMILTONIAN_PHASE,
    CanonicalSymbol,
    ChartRational,
    average,
    constant,
    hamiltonian_field,
    laplacian,
    omega_contract,
    poisson_bracket,
    random_real_symbol,
    reduce,
    sup_norm,
    symbol,
    wirtinger,
)
from conftest import rand, rand_complex
from symbols_reference import INF, calibrate_hamiltonian_phase, chart_value, finite_diff_wirtinger

import numpy as np


# -- reduction ---------------------------------------------------------------


def test_reduce_cancels_common_factor():
    raw = ChartRational({(1, 1): QC(1), (2, 2): QC(1)}, 2)  # (1+t) t / (1+t)^2
    red = reduce(raw)
    assert red.terms == {(1, 1): QC(1)}
    assert red.denom_exp == 1


def test_reduce_identity_case():
    red = reduce(ChartRational({(0, 0): QC(1)}, 0))
    assert red.terms == {(0, 0): QC(1)} and red.denom_exp == 0


def test_reduce_rejects_pole_at_infinity():
    # z^2/(1+t): substituting z = 1/w leaves 1/(w zbar... ) with a pole at w=0
    with pytest.raises(NotSmoothAtInfinity):
        reduce(ChartRational({(2, 0): QC(1)}, 1))


def test_reduce_cancels_across_gaps_on_a_diagonal():
    # 1 + t^3 = (1 + t)(1 - t + t^2): the numerator has a gap of two on its diagonal
    gapped = symbol({(0, 0): 1, (3, 3): 1}, 3)
    assert gapped == symbol({(0, 0): 1, (1, 1): -1, (2, 2): 1}, 2)
    assert gapped.denom_exp == 2


def test_reduce_zero_normalizes():
    z = reduce(ChartRational({}, 3))
    assert z.is_zero and z.denom_exp == 0


# -- pointwise algebra --------------------------------------------------------


def test_multiply_squares_height(height):
    sq = height * height
    assert sq.terms == {(2, 2): QC(1)} and sq.denom_exp == 2


def test_conjugate_fixes_real_symbol(xcoord):
    assert xcoord.conjugate() == xcoord


def test_additive_inverse(height):
    assert (height + height.scale(-1)).is_zero


def test_conjugate_of_product():
    f, g = rand_complex(1), rand_complex(2)
    assert (f * g).conjugate() == f.conjugate() * g.conjugate()


# -- Wirtinger derivatives ----------------------------------------------------


def test_wirtinger_dz_height(height):
    # quotient rule by hand: d/dz [t/(1+t)] = zbar/(1+t)^2
    assert reduce(wirtinger(height, "dz")) == CanonicalSymbol({(0, 1): QC(1)}, 2)


def test_wirtinger_of_constant(one):
    assert reduce(wirtinger(one, "dz")).is_zero


def test_wirtinger_dzbar_xcoord(xcoord):
    # (1 - z^2)/(2 (1+t)^2) by hand
    expected = CanonicalSymbol({(0, 0): QC(Fraction(1, 2)), (2, 0): QC(Fraction(-1, 2))}, 2)
    assert reduce(wirtinger(xcoord, "dzbar")) == expected


def test_wirtinger_bad_direction(height):
    with pytest.raises(ValueError):
        wirtinger(height, "dw")


# -- Hamiltonian fields and the bracket ----------------------------------------


def test_field_of_constant_is_zero(one):
    x = hamiltonian_field(one)
    assert x.comp_z.is_zero and x.comp_zbar.is_zero


def test_field_of_height_is_pure_phase_times_z(height):
    x = hamiltonian_field(height)
    assert x.comp_z == ChartRational({(1, 0): QC(0, -1)}, 0)
    assert x.comp_zbar == x.comp_z.conjugate()


def test_field_conjugation_invariant():
    for seed in range(5):
        x = hamiltonian_field(rand(seed))
        assert x.comp_zbar == x.comp_z.conjugate()


def test_omega_antisymmetry():
    for seed in range(5):
        x = hamiltonian_field(rand(seed))
        assert reduce(omega_contract(x, x)).is_zero


def test_field_satisfies_defining_relation():
    # omega(X_f, v) = df(v) at 20 random points, 2 directions, df by finite
    # differences: the calibration oracle for the frozen phase constant.
    rng = random.Random(0)
    f = rand(17)
    x = hamiltonian_field(f)
    for _ in range(20):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        t = abs(z) ** 2
        for _ in range(2):
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            dfdz, dfdzbar = (finite_diff_wirtinger(partial(chart_value, f), z, which) for which in ("dz", "dzbar"))
            df_v = dfdz * v + dfdzbar * v.conjugate()
            xz = chart_value(x.comp_z, z)
            omega_xv = 1j * (1 + t) ** -2 * (xz * v.conjugate() - xz.conjugate() * v)
            assert abs(omega_xv - df_v) < 1e-8


def test_calibration_matches_frozen_phase():
    assert calibrate_hamiltonian_phase() == HAMILTONIAN_PHASE == QC(0, -1)


def test_bracket_antisymmetry_and_central_constants(height, xcoord, one):
    assert poisson_bracket(height, height).is_zero
    assert poisson_bracket(one, xcoord).is_zero
    for seed in range(3):
        f, g = rand(seed), rand(seed + 50)
        assert poisson_bracket(f, g) == poisson_bracket(g, f).scale(-1)


def test_bracket_height_xcoord(height, xcoord):
    # finite-difference oracle: omega(X_f, X_g) evaluated pointwise
    br = poisson_bracket(height, xcoord)
    rng = random.Random(3)
    for _ in range(20):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        t = abs(z) ** 2
        fz = finite_diff_wirtinger(partial(chart_value, height), z, "dz")
        fzb = finite_diff_wirtinger(partial(chart_value, height), z, "dzbar")
        gz = finite_diff_wirtinger(partial(chart_value, xcoord), z, "dz")
        gzb = finite_diff_wirtinger(partial(chart_value, xcoord), z, "dzbar")
        numeric = 1j * (1 + t) ** 2 * (fzb * gz - fz * gzb)
        assert abs(chart_value(br, z) - numeric) < 1e-8
    # closed form: -(Im z)/(1+t)
    assert abs(chart_value(br, 0.3 + 0.7j) - (-0.7 / (1 + abs(0.3 + 0.7j) ** 2))) < 1e-14


def test_bracket_is_real_for_real_inputs():
    for seed in range(3):
        assert poisson_bracket(rand(seed), rand(seed + 9)).is_real


def test_leibniz_exact():
    f, g, h = rand(4), rand(5), rand(6)
    assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)


def test_jacobi_exact():
    for seeds in [(7, 8, 9), (10, 11, 12)]:
        f, g, h = (rand(s, 1) for s in seeds)
        total = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert total.is_zero


# -- Laplacian ------------------------------------------------------------------


def test_laplacian_of_constant(one):
    assert laplacian(one).is_zero


def test_laplacian_of_height(height):
    # 2 (1-t)/(1+t) under the c = 2 normalization
    assert laplacian(height) == CanonicalSymbol({(0, 0): QC(2), (1, 1): QC(-2)}, 1)


def test_laplacian_integrates_to_zero():
    for seed in range(5):
        assert average(laplacian(rand(seed))) == QC(0)


def test_laplacian_self_adjoint():
    f, g = rand(13), rand(14)
    assert average(f * laplacian(g)) == average(laplacian(f) * g)


# -- integration -----------------------------------------------------------------


def test_average_of_one(one):
    assert average(one) == QC(1)
    assert abs(2 * np.pi * complex(average(one)) - 2 * np.pi) < 1e-14  # the integral is vol = 2 pi times the average


def test_average_of_height(height):
    assert average(height) == QC(Fraction(1, 2))
    assert abs(2 * np.pi * complex(average(height)) - np.pi) < 1e-14


def test_bracket_integrates_to_zero():
    for seed in range(5):
        assert average(poisson_bracket(rand(seed), rand(seed + 31))) == QC(0)


# -- evaluation -------------------------------------------------------------------


def test_evaluate_points(height, xcoord):
    assert chart_value(height, 0.0) == 0.0
    assert chart_value(height, INF) == 1.0
    assert chart_value(xcoord, 1.0) == 0.5


def flip_chart(f: CanonicalSymbol) -> CanonicalSymbol:
    """The same function written in the w = 1/z chart (an involution)."""
    r = f.denom_exp
    return CanonicalSymbol({(r - a, r - b): c for (a, b), c in f.terms.items()}, r)


def test_chart_transition_consistency():
    rng = random.Random(1)
    for seed in range(5):
        f = rand_complex(seed)
        g = flip_chart(f)
        assert flip_chart(g) == f
        for _ in range(4):
            z = complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            assert abs(chart_value(f, z) - chart_value(g, 1 / z)) < 1e-12


# -- sup norm --------------------------------------------------------------------


def test_sup_norm_known_values(height, xcoord, one):
    assert sup_norm(one) == 1.0
    assert sup_norm(height) == 1.0  # attained at infinity
    assert abs(sup_norm(xcoord.scale(2)) - 1.0) < 1e-12  # attained at z = 1


# -- random generator --------------------------------------------------------------


def test_random_symbol_deterministic():
    assert random_real_symbol(7, 2) == random_real_symbol(7, 2)


def test_random_symbols_are_real_and_reduced():
    for seed in range(100):
        f = random_real_symbol(seed, 2)
        assert f.is_real
        assert reduce(f) == f


def test_random_symbol_rejects_bad_budget():
    with pytest.raises(ValueError):
        random_real_symbol(0, 0)
