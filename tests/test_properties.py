"""Property tests: the exact kernel arithmetic against the float matrices,
and the disk cache as an exact round trip, over random symbols and levels."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from btlab.cache import MatrixCache
from btlab.operators import (
    adjoint,
    compose_exact,
    equal_exact,
    from_kernel,
    lincomb_exact,
    toeplitz_exact,
    trace_exact,
)
from conftest import rand

REL_TOL = 1e-12

seeds = st.integers(min_value=0, max_value=10_000)
levels = st.integers(min_value=0, max_value=24)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=7)
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
    assert_close(from_kernel(star.kernel, m, "exact", "").entries, ab.entries.conj().T)
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
    assert equal_exact(again, ab) and again.provenance == "exact"
    assert np.array_equal(again.entries, ab.entries)
