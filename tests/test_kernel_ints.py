"""The exact kernel on Gaussian integers over one denominator, against a plain-QC oracle.

Every exact operation adds and multiplies the ints of ``Kernel.diags``, diagonal
by diagonal; the oracle here does the same operation entry by entry on ``QC``
values read with ``values``.  Every result must be the oracle's kernel and be
canonical, and the floats taken from a kernel must be bit-equal to the
entry-by-entry reference conversion.
"""

import copy
import pickle
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_reference import kernel_of, matrix_reference, values
from btlab.exact import QC, QC_I
from btlab.operators import (
    Kernel,
    OperatorMatrix,
    adjoint,
    compose_exact,
    equal_exact,
    lincomb_exact,
    prequantum_geometric,
    toeplitz_exact,
    trace_exact,
)
from btlab.symbols import ChartRational, sphere_height
from conftest import equals_i_times, rand, rand_complex

seeds = st.integers(min_value=0, max_value=10_000)
levels = st.integers(min_value=0, max_value=16)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=7)
complex_coeffs = st.builds(QC, coeffs, coeffs)
properties = settings(max_examples=25, deadline=None)


def _symbol(seed: int, real: bool):
    return rand(seed) if real else rand_complex(seed)


def _oracle(entries: dict, m: int) -> Kernel:
    return kernel_of({key: v for key, v in entries.items() if v}, m)


def assert_canonical(kernel: Kernel) -> None:
    assert isinstance(kernel, Kernel) and kernel.den > 0
    assert gcd(kernel.den, *(p for cells in kernel for cell in cells for p in cell)) == 1
    offsets = [d for d, _ in kernel.diags]
    assert offsets == sorted(set(offsets))
    assert all(cells and cells[-1] != (0, 0) for cells in kernel)


@properties
@given(seeds, seeds, st.booleans(), levels)
def test_compose_matches_the_oracle(seed_f, seed_g, real, m):
    a, b = toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m)
    got = compose_exact(a, b).kernel
    va, vb = values(a.kernel), values(b.kernel)
    want: dict = {}
    for (j, l), x in va.items():
        for (l2, k), y in vb.items():
            if l == l2:
                want[j, k] = want.get((j, k), QC(0)) + x * y
    assert got == _oracle(want, m)
    assert_canonical(got)


@properties
@given(seeds, seeds, st.booleans(), levels, complex_coeffs, st.one_of(coeffs, st.integers(-5, 5)))
def test_lincomb_matches_the_oracle(seed_f, seed_g, real, m, c, d):
    a, b = toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m)
    got = lincomb_exact([(c, a), (d, b)]).kernel
    want = {key: c * v for key, v in values(a.kernel).items()}
    for key, v in values(b.kernel).items():
        want[key] = want.get(key, QC(0)) + v * d
    assert got == _oracle(want, m)
    assert_canonical(got)


@properties
@given(seeds, seeds, st.booleans(), levels)
def test_adjoint_and_trace_match_the_oracle(seed_f, seed_g, real, m):
    ab = compose_exact(toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m))
    entries = values(ab.kernel)
    star = adjoint(ab).kernel
    want = {(k, j): v.conjugate() * Fraction(comb(m, k), comb(m, j)) for (j, k), v in entries.items()}
    assert star == _oracle(want, m)
    assert_canonical(star)
    assert trace_exact(ab) == sum((v for (j, k), v in entries.items() if j == k), QC(0))


@properties
@given(seeds, seeds, st.booleans(), levels)
def test_equality_predicates_match_the_oracle(seed_f, seed_g, real, m):
    a, b = toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m)
    va, vb = values(a.kernel), values(b.kernel)
    assert equal_exact(a, b) == (va == vb)
    assert equal_exact(a, OperatorMatrix(m, kernel_of(va, m)))
    i_b = {key: QC_I * v for key, v in vb.items()}
    assert equals_i_times(a, b) == (va == i_b)
    assert equals_i_times(OperatorMatrix(m, kernel_of(i_b, m)), b)
    # the same numerators over another denominator: a/2 and i (-i a/2) differ from a unless a = 0
    assert equal_exact(a, lincomb_exact([(Fraction(1, 2), a)])) == (not va)
    assert equals_i_times(a, lincomb_exact([(QC(0, Fraction(-1, 2)), a)])) == (not va)


def _scaled(kernel: Kernel, factor: int) -> tuple[int, list]:
    return kernel.den * factor, [(d, [(re * factor, im * factor) for re, im in cells]) for d, cells in kernel.diags]


@properties
@given(seeds, st.booleans(), levels)
def test_assembly_gives_canonical_kernels(seed, real, m):
    f = _symbol(seed, real)
    mats = [toeplitz_exact(f, m)] + ([prequantum_geometric(f, m)] if real and m >= 1 else [])
    for mat in mats:
        assert_canonical(mat.kernel)
        assert Kernel(*_scaled(mat.kernel, 6)) == mat.kernel  # the constructor divides the gcd out


def test_the_constructor_drops_zeros_and_rejects_a_non_positive_den():
    # a trailing zero cell, an empty diagonal and a common factor, from a map d -> cells and from pairs
    want = Kernel(2, [(-1, [(0, 1)]), (0, [(1, -3)])])
    for got in (
        Kernel(4, {0: [(2, -6), (0, 0)], 2: [(0, 0)], -1: [(0, 2), (0, 0), (0, 0)]}),
        Kernel(4, [(-1, [(0, 2)]), (0, [(2, -6)]), (3, [])]),
    ):
        assert got == want and hash(got) == hash(want)
        assert got.diags == ((-1, ((0, 1),)), (0, ((1, -3),)))
    # the layout: entry (j, k) is cell min(j, k) of diagonal j - k, both ways
    assert list(want.nonzeros()) == [(0, 0, 1, -3), (0, 1, 0, 1)]
    assert Kernel.of_entries(4, 3, [(0, 1, 0, 2), (0, 0, 2, -6)]) == want
    with pytest.raises(ValueError, match="out of range"):
        Kernel.of_entries(1, 3, [(0, -1, 1, 0)])
    # a leading zero cell stays: the by_k family of Q_f skips k = 0, so diagonal 1 starts at (1, 0) with a zero
    lead = Kernel(1, {1: [(0, 0), (5, 0)]})
    assert lead.diags == ((1, ((0, 0), (5, 0))),) and lead != Kernel(1, {1: [(5, 0)]})
    assert list(lead.nonzeros()) == [(2, 1, 5, 0)]  # the zero cell at (1, 0) is no entry
    # iterating yields each diagonal's cells, the stored entries a counter of kernel entries reads
    assert list(lead) == [((0, 0), (5, 0))] and [len(cells) for cells in want] == [1, 1]
    for den in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            Kernel(den, {0: [(1, 0)]})


@pytest.mark.parametrize("m", [1, 2, 17, 256, 1024])
def test_floats_are_bit_equal_to_the_reference_conversion(m):
    mats = [toeplitz_exact(f, m) for f in (sphere_height(), rand(3), rand_complex(4))]
    for mat in mats + [prequantum_geometric(rand(3), m)]:
        want = matrix_reference(values(mat.kernel), m)
        assert mat.entries.tobytes() == want.entries.tobytes()


def test_exact_values_survive_pickle_and_deepcopy():
    f = rand_complex(7)
    values = [
        QC(Fraction(-3, 7), Fraction(2, 5)),
        QC(4),
        f,
        ChartRational({(3, 0): QC(1, 2), (0, 0): QC(Fraction(1, 3))}, 1),
        toeplitz_exact(f, 5).kernel,
    ]
    for value in values:
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(again) is type(value)
            assert again == value and hash(again) == hash(value)
