"""Property tests: the exact kernel arithmetic against the float matrices,
equal kernels giving bit-equal floats, the banded assembly against the entry-by-entry reference, the disk cache
as an exact round trip, the uniqueness of the canonical form, the
Leibniz and Jacobi identities of the Poisson bracket, Tuynman's identity
(through a product kernel and through the i-times helper), the hash/eq contract of
QC, the inverse of the equivalence b, and the band routes of the float linear algebra
against the dense LAPACK and BLAS calls, over random symbols and levels."""

import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
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
    hermitian_eigenvalues,
    lincomb_exact,
    matmul,
    operator_norm,
    prequantum_geometric,
    toeplitz_exact,
    trace_exact,
)
from btlab.starproduct import FormalSeries, b_inverse, b_map
from btlab.symbols import (
    CanonicalSymbol,
    ChartRational,
    hamiltonian_field,
    laplacian,
    poisson_bracket,
    random_real_symbol,
    reduce,
    symbol,
)
from conftest import equal_exact, equals_i_times, rand, rand_complex

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
        cache.store(ab, rand(seed_f), "toeplitz")
        again = cache.load(rand(seed_f), "toeplitz", m)
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
        cache.store(made[-1], rand(seed_f), "toeplitz")
        made.append(cache.load(rand(seed_f), "toeplitz", m))
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
    # a chart rational that need not be smooth at infinity.  A term z^a zbar^b with b > R raises at every level,
    # though the reference's Beta integrals can still give a kernel for it; every other draw gives the reference's
    # kernel, or its error message
    g = ChartRational(terms, r)
    if g.deg_zbar() > r:
        with pytest.raises(ValueError, match="not smooth at infinity"):
            toeplitz_exact(g, m)
    else:
        assert _outcome(toeplitz_exact, g, m) == _outcome(toeplitz_reference, g, m)


@properties
@given(seeds, st.integers(min_value=1, max_value=16))
def test_prequantum_families_have_no_zbar_power_above_their_denominator(seed, m):
    # the zbar^R terms of N_zbar (1+t) - R z N cancel, so m X^z has zbar-degree <= its exponent R - 1 and every
    # family of Q_f is one the banded assembly takes
    f = random_real_symbol(seed, 4)
    xz = hamiltonian_field(f).comp_z
    assert xz.deg_zbar() <= xz.denom_exp
    got, want = prequantum_geometric(f, m), prequantum_reference(f, m)
    assert got.kernel == want.kernel
    assert _same_bits(got.entries, want.entries)


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


# -- band routes ---------------------------------------------------------------------

band_levels = st.integers(min_value=0, max_value=80)  # past 32, where zhetrd and zgebrd switch to blocked steps


@st.composite
def diagonal_symbols(draw) -> CanonicalSymbol:
    """A real U(1)-invariant symbol, sum_a c_a t^a / (1+t)^R with real c_a: its operators are real and diagonal."""
    r = draw(st.integers(min_value=1, max_value=3))
    return symbol({(a, a): QC(draw(coeffs)) for a in range(r + 1)}, r)


@st.composite
def tridiagonal_symbols(draw) -> CanonicalSymbol:
    """A real symbol whose terms z^a zbar^b have |a - b| <= 1 and whose off-diagonal coefficients are all real or
    all imaginary (bump's are imaginary): its operators are tridiagonal, each off-diagonal entry on one axis."""
    r = draw(st.integers(min_value=1, max_value=3))
    axis = QC(0, 1) if draw(st.booleans()) else QC(1)
    terms = {(a, a): QC(draw(coeffs)) for a in range(r + 1)}
    for a in range(r):
        terms[a + 1, a] = axis * QC(draw(coeffs))
        terms[a, a + 1] = terms[a + 1, a].conjugate()
    return symbol(terms, r)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


# At m = 1 zgesdd's 2 x 2 step can move the last bit of max |a_jj|, so the norm there runs the SVD.
@properties
@example(symbol({(0, 0): QC(Fraction(10, 3)), (1, 1): QC(Fraction(18, 7))}, 1), symbol({}, 1), 1)
@given(diagonal_symbols(), tridiagonal_symbols(), band_levels)
def test_diagonal_routes_give_the_dense_bits(f, g, m):
    t, u = toeplitz_exact(f, m), toeplitz_exact(g, m)
    dense = OperatorMatrix(m, t.kernel).entries  # the same operator's float matrix, read on a copy
    assert operator_norm(t) == float(np.linalg.norm(dense, 2))
    assert _bits(hermitian_eigenvalues(t)) == _bits(np.linalg.eigvalsh((dense + dense.conj().T) / 2.0))
    assert np.array_equal(matmul(t, u), dense @ u.entries) and np.array_equal(matmul(u, t), u.entries @ dense)
    assert _bits(matmul(t, u)) == _bits(dense @ u.entries + 0.0)  # every exact zero is +0.0 on both ways
    assert _bits(matmul(u, t)) == _bits(u.entries @ dense + 0.0)
    assert _bits(t.diagonal.sum()) == _bits(np.trace(dense))
    assert m == 1 or "entries" not in vars(t)  # no dense matrix, so no LAPACK or BLAS call on it either


@properties
@given(tridiagonal_symbols(), band_levels)
def test_tridiagonal_spectrum_gives_the_dense_bits_from_the_real_eigensolver(g, m):
    u = toeplitz_exact(g, m)
    want = np.linalg.eigvalsh((u.entries + u.entries.conj().T) / 2.0)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        got = hermitian_eigenvalues(u)
    assert _bits(got) == _bits(want)
    diagonal = all(d == 0 for d, _ in u.kernel.diags)  # every off-diagonal coefficient drawn was 0
    assert [call.args[0].dtype for call in eigvalsh.call_args_list] == ([] if diagonal else [np.float64])
