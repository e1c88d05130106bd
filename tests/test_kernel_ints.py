"""The exact kernel on Gaussian integers over one denominator, against a plain-QC oracle.

Every exact operation adds and multiplies the ints of ``Kernel.nums``; the oracle
here does the same operation entry by entry on ``QC`` values read through the
kernel's ``Mapping`` interface.  Every result must be the oracle's map and be
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

from assembly_reference import matrix_reference
from btlab.exact import QC, QC_I
from btlab.operators import (
    Kernel,
    adjoint,
    compose_exact,
    equal_exact,
    equals_i_times_exact,
    from_kernel,
    lincomb_exact,
    prequantum_geometric,
    toeplitz_exact,
    trace_exact,
)
from btlab.symbols import ChartRational, sphere_height
from conftest import rand, rand_complex

seeds = st.integers(min_value=0, max_value=10_000)
levels = st.integers(min_value=0, max_value=16)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=7)
complex_coeffs = st.builds(QC, coeffs, coeffs)
properties = settings(max_examples=25, deadline=None)


def _symbol(seed: int, real: bool):
    return rand(seed) if real else rand_complex(seed)


def _values(kernel) -> dict:
    """The kernel as a plain map (j, k) -> QC, read through its Mapping interface."""
    return dict(kernel.items())


def _oracle(values: dict) -> dict:
    return {key: v for key, v in values.items() if v}


def assert_canonical(kernel: Kernel) -> None:
    assert isinstance(kernel, Kernel) and kernel.den > 0
    assert gcd(kernel.den, *(p for v in kernel.nums.values() for p in v)) == 1
    assert all(re or im for re, im in kernel.nums.values())


@properties
@given(seeds, seeds, st.booleans(), levels)
def test_compose_matches_the_oracle(seed_f, seed_g, real, m):
    a, b = toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m)
    got = compose_exact(a, b).kernel
    va, vb = _values(a.kernel), _values(b.kernel)
    want: dict = {}
    for (j, l), x in va.items():
        for (l2, k), y in vb.items():
            if l == l2:
                want[j, k] = want.get((j, k), QC(0)) + x * y
    assert got == _oracle(want)
    assert_canonical(got)


@properties
@given(seeds, seeds, st.booleans(), levels, complex_coeffs, st.one_of(coeffs, st.integers(-5, 5)))
def test_lincomb_matches_the_oracle(seed_f, seed_g, real, m, c, d):
    a, b = toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m)
    got = lincomb_exact([(c, a), (d, b)]).kernel
    want = {key: c * v for key, v in _values(a.kernel).items()}
    for key, v in _values(b.kernel).items():
        want[key] = want.get(key, QC(0)) + v * d
    assert got == _oracle(want)
    assert_canonical(got)


@properties
@given(seeds, seeds, st.booleans(), levels)
def test_adjoint_and_trace_match_the_oracle(seed_f, seed_g, real, m):
    ab = compose_exact(toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m))
    values = _values(ab.kernel)
    star = adjoint(ab).kernel
    want = {(k, j): v.conjugate() * Fraction(comb(m, k), comb(m, j)) for (j, k), v in values.items()}
    assert star == _oracle(want)
    assert_canonical(star)
    assert trace_exact(ab) == sum((v for (j, k), v in values.items() if j == k), QC(0))


@properties
@given(seeds, seeds, st.booleans(), levels)
def test_equality_predicates_match_the_oracle(seed_f, seed_g, real, m):
    a, b = toeplitz_exact(_symbol(seed_f, real), m), toeplitz_exact(_symbol(seed_g, real), m)
    va, vb = _values(a.kernel), _values(b.kernel)
    assert equal_exact(a, b) == (va == vb)
    assert equal_exact(a, from_kernel(va, m))
    i_b = {key: QC_I * v for key, v in vb.items()}
    assert equals_i_times_exact(a, b) == (va == i_b)
    assert equals_i_times_exact(from_kernel(i_b, m), b)
    # the same numerators over another denominator: a/2 and i (-i a/2) differ from a unless a = 0
    assert equal_exact(a, lincomb_exact([(Fraction(1, 2), a)])) == (not va)
    assert equals_i_times_exact(a, lincomb_exact([(QC(0, Fraction(-1, 2)), a)])) == (not va)


def _scaled(kernel: Kernel, factor: int) -> tuple[int, dict]:
    return kernel.den * factor, {key: (re * factor, im * factor) for key, (re, im) in kernel.nums.items()}


@properties
@given(seeds, st.booleans(), levels)
def test_assembly_gives_canonical_kernels(seed, real, m):
    f = _symbol(seed, real)
    mats = [toeplitz_exact(f, m)] + ([prequantum_geometric(f, m)] if real and m >= 1 else [])
    for mat in mats:
        assert_canonical(mat.kernel)
        assert Kernel(*_scaled(mat.kernel, 6)) == mat.kernel  # the constructor divides the gcd out


def test_the_constructor_drops_zeros_and_rejects_a_non_positive_den():
    assert Kernel(4, {(0, 0): (2, -6), (1, 1): (0, 0)}) == Kernel(2, {(0, 0): (1, -3)})
    assert dict(Kernel(4, {(0, 0): (2, -6), (1, 1): (0, 0)}).nums) == {(0, 0): (1, -3)}
    for den in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            Kernel(den, {(0, 0): (1, 0)})


@pytest.mark.parametrize("m", [1, 2, 17, 256, 1024])
def test_floats_are_bit_equal_to_the_reference_conversion(m):
    mats = [toeplitz_exact(f, m) for f in (sphere_height(), rand(3), rand_complex(4))]
    for mat in mats + [prequantum_geometric(rand(3), m)]:
        want = matrix_reference(_values(mat.kernel), m)
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
