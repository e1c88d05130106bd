"""Property tests: the exact kernel arithmetic against the float matrices,
equal kernels giving bit-equal floats, the banded assembly against the entry-by-entry reference, the disk cache
as an exact round trip, the uniqueness of the canonical form, the
Leibniz and Jacobi identities of the Poisson bracket, Tuynman's identity
(through a product kernel and through the i-times helper), the hash/eq contract of
QC, and the inverse of the equivalence b, over random symbols and levels."""

import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assembly_reference import prequantum_reference, toeplitz_reference
from btlab.cache import MatrixCache
from btlab.errors import NotSmoothAtInfinity
from btlab.exact import QC, QC_I
from btlab.operators import (
    OperatorMatrix,
    adjoint,
    compose_exact,
    equal_exact,
    lincomb_exact,
    prequantum_geometric,
    toeplitz_exact,
    trace_exact,
)
from btlab.starproduct import FormalSeries, b_inverse, b_map
from btlab.symbols import ChartRational, laplacian, poisson_bracket, reduce
from conftest import equals_i_times, rand, rand_complex

REL_TOL = 1e-12

seeds = st.integers(min_value=0, max_value=10_000)
levels = st.integers(min_value=0, max_value=24)
small_levels = st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=3, max_value=24))
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=7)
complex_coeffs = st.builds(QC, coeffs, coeffs)
properties = settings(max_examples=25, deadline=None)


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert np.max(np.abs(got - want)) <= REL_TOL * max(1.0, float(np.max(np.abs(want))))


@properties
@given(seeds, seeds, levels, coeffs, coeffs)
def test_exact_arithmetic_matches_floats(seed_f, seed_g, m, c, d):
    a, b = toeplitz_exact(rand(seed_f), m), toeplitz_exact(rand(seed_g), m)
    ab = compose_exact(a, b)
    assert_close(ab.entries, a.entries @ b.entries)
    combo = lincomb_exact([(c, a), (d, b)])
    assert_close(combo.entries, float(c) * a.entries + float(d) * b.entries)
    star = adjoint(ab)
    assert_close(OperatorMatrix(m, star.kernel).entries, ab.entries.conj().T)
    assert_close(np.array(complex(trace_exact(ab))), np.array(np.trace(ab.entries)))


@properties
@given(seeds, seeds, levels)
def test_adjoint_is_an_involution(seed_f, seed_g, m):
    ab = compose_exact(toeplitz_exact(rand(seed_f), m), toeplitz_exact(rand(seed_g), m))
    assert equal_exact(adjoint(adjoint(ab)), ab)


@properties
@given(seeds, seeds, levels)
def test_cache_round_trip_is_exact(seed_f, seed_g, m):
    ab = compose_exact(toeplitz_exact(rand(seed_f), m), toeplitz_exact(rand(seed_g), m))
    with tempfile.TemporaryDirectory() as root:
        cache = MatrixCache(Path(root))
        cache.store(ab, "0" * 64, "toeplitz")
        again = cache.load("0" * 64, "toeplitz", m)
    assert equal_exact(again, ab) and again.kernel is not None
    assert np.array_equal(again.entries, ab.entries)


@properties
@given(complex_coeffs, st.one_of(st.integers(min_value=-50, max_value=50), coeffs))
def test_rational_scaling_is_the_full_product(q, r):
    assert q * r == q * QC(r)
    assert r * q == q * r


@properties
@given(st.one_of(st.integers(min_value=-50, max_value=50), coeffs), st.one_of(st.just(0), coeffs))
def test_equal_values_hash_alike(r, im):
    # a real QC equals its int or Fraction, so the two must hash alike and share a set slot
    q = QC(r, im)
    assert (q == r) == (im == 0)
    if q == r:
        assert hash(q) == hash(r) and len({q, r}) == 1


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@properties
@given(seeds, seeds, st.booleans(), levels)
def test_equal_kernels_give_equal_floats(seed_f, seed_g, real, m):
    # every exact matrix takes its floats from its kernel alone, whichever operation built it
    f, g = (rand(seed_f), rand(seed_g)) if real else (rand_complex(seed_f), rand_complex(seed_g))
    a, b = toeplitz_exact(f, m), toeplitz_exact(g, m)
    made = [a, adjoint(a), lincomb_exact([(QC(2, -1), a), (Fraction(-1, 3), b)]), compose_exact(a, b)]
    if m >= 1:
        made.append(prequantum_geometric(rand(seed_f), m))
    with tempfile.TemporaryDirectory() as root:
        cache = MatrixCache(Path(root))
        cache.store(made[-1], "0" * 64, "toeplitz")
        made.append(cache.load("0" * 64, "toeplitz", m))
    for mat in made:
        assert _same_bits(mat.entries, OperatorMatrix(m, mat.kernel).entries)
    assert _same_bits(adjoint(a).entries, toeplitz_exact(f.conjugate(), m).entries)


@properties
@given(seeds, st.booleans(), small_levels)
def test_banded_assembly_matches_the_reference(seed, real, m):
    f = rand(seed, 3) if real else rand_complex(seed, 3)
    pairs = [(toeplitz_exact(f, m), toeplitz_reference(f, m))]
    if real and m >= 1:
        pairs.append((prequantum_geometric(f, m), prequantum_reference(f, m)))
    for got, want in pairs:
        assert got.kernel == want.kernel
        assert _same_bits(got.entries, want.entries)


def test_banded_assembly_matches_the_reference_on_large_binomials():
    # C(200, 100) has 59 digits: the integer numerators must still give the same rationals
    f, m = rand_complex(11, 3), 200
    got, want = toeplitz_exact(f, m), toeplitz_reference(f, m)
    assert got.kernel == want.kernel
    assert _same_bits(got.entries, want.entries)


def _outcome(assemble, *args):
    try:
        return assemble(*args).kernel
    except ValueError as exc:
        return f"ValueError: {exc}"


@properties
@given(
    st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), complex_coeffs, min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
    small_levels,
)
def test_banded_assembly_fails_like_the_reference(terms, r, m):
    # a chart rational that need not be smooth at infinity: some pairings diverge
    g = ChartRational(terms, r)
    assert _outcome(toeplitz_exact, g, m) == _outcome(toeplitz_reference, g, m)


def test_prequantum_rejects_like_the_reference():
    for f, m in ((rand(1), 0), (rand_complex(2), 3)):
        want = _outcome(prequantum_reference, f, m)
        assert want.startswith("ValueError") and _outcome(prequantum_geometric, f, m) == want


def _canonical(raw: ChartRational):
    try:
        return reduce(raw)
    except NotSmoothAtInfinity:
        return NotSmoothAtInfinity


small_coeffs = st.builds(QC, st.integers(-2, 2), st.integers(-2, 2))


# Random sparse numerators rarely hold the alternating runs c, -c, c whose
# products with (1+t) leave a gap of two on a diagonal, so two are pinned.
@properties
@example({(0, 0): QC(1), (1, 1): QC(-1), (2, 2): QC(1)}, 2, 1)
@example({(1, 0): QC(0, 1), (2, 1): QC(0, -1), (3, 2): QC(0, 1)}, 3, 2)
@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), small_coeffs, max_size=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_reduction_is_canonical(terms, r, k):
    # N (1+t)^k / (1+t)^(r+k) and N / (1+t)^r are one function, so they have one canonical form
    n = ChartRational(terms, r)
    widened = n * ChartRational({(i, i): QC(comb(k, i)) for i in range(k + 1)}, k)
    assert _canonical(widened) == _canonical(n)


@properties
@given(seeds, seeds, seeds)
def test_leibniz_rule(seed_f, seed_g, seed_h):
    f, g, h = rand(seed_f), rand(seed_g), rand(seed_h)
    assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)


@properties
@given(seeds, seeds, seeds)
def test_jacobi_identity(seed_f, seed_g, seed_h):
    f, g, h = rand(seed_f), rand(seed_g), rand(seed_h)
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.is_zero


@properties
@given(seeds, st.integers(min_value=1, max_value=12))
def test_tuynman_identity_is_exact(seed, m):
    # Q_f = i T_{f - Delta f/(2m)} on rational kernels
    f = rand(seed)
    rhs = toeplitz_exact(f - laplacian(f).scale(Fraction(1, 2 * m)), m)
    assert equal_exact(prequantum_geometric(f, m), lincomb_exact([(QC_I, rhs)]))


@properties
@given(seeds, st.integers(min_value=1, max_value=12))
def test_tuynman_identity_is_decided_in_place(seed, m):
    # Q_f = i T_{f - Delta f/(2m)}, decided by the i-times helper the predicate tests use
    f = rand(seed)
    q, rhs = prequantum_geometric(f, m), toeplitz_exact(f - laplacian(f).scale(Fraction(1, 2 * m)), m)
    assert equals_i_times(q, rhs)


@properties
@given(st.lists(seeds, min_size=1, max_size=3))
def test_b_inverse_undoes_b(coeff_seeds):
    series = FormalSeries(tuple(rand_complex(seed) for seed in coeff_seeds))
    assert b_inverse(b_map(series)) == series
