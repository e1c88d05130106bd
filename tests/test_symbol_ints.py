"""The symbol algebra on Gaussian integers against plain QC arithmetic
(``symbols_reference``): every operation gives an equal value with bit-equal
``chart_value`` floats, the stored pair is in lowest terms, the floats of a
value do not depend on the order its terms were given in, and the cache file
names of the demo symbols do not drift."""

import copy
import pickle
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import symbols_reference as ref
from btlab.cache import symbol_hash
from btlab.config import parse_symbols
from btlab.errors import NotSmoothAtInfinity
from btlab import symbols as symbols_module
from btlab.exact import QC
from btlab.symbols import CanonicalSymbol, ChartRational, random_real_symbol, reduce, sup_norm, wirtinger

DEMO = Path(__file__).resolve().parents[1] / "bench" / "configs" / "demo.cfg"
POINTS = (0j, 0.3 - 0.7j, 1.25 + 0.5j, -2.0 + 3.0j)

# small integers cancel often; fractions put each coefficient on its own denominator
cancelling = st.builds(QC, st.integers(-2, 2), st.integers(-2, 2))
mixed = st.builds(QC, st.fractions(-3, 3, max_denominator=12), st.fractions(-3, 3, max_denominator=12))
coefficients = st.one_of(cancelling, mixed)
raw = st.tuples(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=6),
    st.integers(0, 3),
)
# numerator degrees <= R: smooth at infinity, so reduction runs to the end
smooth = st.integers(0, 3).flatmap(
    lambda r: st.tuples(
        st.dictionaries(st.tuples(st.integers(0, r), st.integers(0, r)), coefficients, max_size=6), st.just(r)
    )
)
scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=9), coefficients)
properties = settings(max_examples=60, deadline=None)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def assert_matches(got: ChartRational, want) -> None:
    terms, r = want
    assert got.terms == terms and got.denom_exp == r
    assert gcd(got.den, *(p for v in got.nums.values() for p in v)) == 1 and got.den > 0
    for z in POINTS:
        assert _bits(ref.chart_value(got, z)) == _bits(ref.evaluate(want, z))


def _chart(pair) -> tuple[ChartRational, tuple]:
    terms, r = pair
    return ChartRational(terms, r), (ref.clean(terms), r)


# (1+t+t^2)(1-t+t^2): the partial sum at t^2 hits zero, is dropped, and comes back
@example(({(0, 0): QC(1), (1, 1): QC(1), (2, 2): QC(1)}, 2), ({(2, 2): QC(1), (1, 1): QC(-1), (0, 0): QC(1)}, 2))
@properties
@given(raw, raw)
def test_products_match_the_reference(f, g):
    (cf, rf), (cg, rg) = _chart(f), _chart(g)
    assert_matches(cf * cg, ref.mul(rf, rg))


# seed 0 is one of the symbols whose sup_norm bits once followed the order of its terms
@example(0)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_a_symbol_rebuilt_from_its_terms_in_reverse_order_has_the_same_floats(seed):
    f = random_real_symbol(seed, 3)
    again = CanonicalSymbol(dict(reversed(f.terms.items())), f.denom_exp)
    assert again == f
    assert sup_norm(again).hex() == sup_norm(f).hex()


@properties
@given(raw, raw)
def test_sums_and_differences_match_the_reference(f, g):
    (cf, rf), (cg, rg) = _chart(f), _chart(g)
    assert_matches(cf + cg, ref.add(rf, rg))
    assert_matches(cf - cg, ref.add(rf, ref.scale(rg, -1)))
    assert (cf - cf).is_zero


@properties
@given(raw, scalars)
def test_scaling_matches_the_reference(f, c):
    cf, rf = _chart(f)
    assert_matches(cf.scale(c), ref.scale(rf, c))


@properties
@given(raw, st.integers(-2, 4))
def test_conjugate_and_shift_match_the_reference(f, k):
    cf, rf = _chart(f)
    assert_matches(cf.conjugate(), ref.conjugate(rf))
    assert_matches(cf.shifted(k), ref.shifted(rf, k))


@properties
@given(raw, st.sampled_from(["dz", "dzbar"]))
def test_wirtinger_matches_the_reference(f, which):
    cf, rf = _chart(f)
    assert_matches(wirtinger(cf, which), ref.wirtinger(rf, which))
    assert_matches(wirtinger(wirtinger(cf, which), "dzbar"), ref.wirtinger(ref.wirtinger(rf, which), "dzbar"))


def _reduced(reduce_fn, value):
    try:
        return reduce_fn(value)
    except NotSmoothAtInfinity:
        return NotSmoothAtInfinity


# gapped diagonals: 1 + t^3 = (1+t)(1 - t + t^2), and an imaginary alternating run
@example(({(0, 0): QC(1), (3, 3): QC(1)}, 3), ({(0, 0): QC(Fraction(1, 3))}, 0), 0)
@example(({(1, 0): QC(0, 1), (2, 1): QC(0, -1), (3, 2): QC(0, 1), (4, 3): QC(0, 1)}, 4), ({(1, 1): QC(2)}, 1), 0)
@properties
@given(st.one_of(smooth, raw), smooth, st.integers(0, 2))
def test_division_by_one_plus_t_matches_the_reference(f, g, k):
    # a product times (1+t)^k / (1+t)^k: (1+t) divides it at least k times
    (cf, rf), (cg, rg) = _chart(f), _chart(g)
    widen = ({(i, i): QC(comb(k, i)) for i in range(k + 1)}, k)
    got = _reduced(reduce, cf * cg * ChartRational(*widen))
    want = _reduced(ref.reduce, ref.mul(ref.mul(rf, rg), widen))
    if want is NotSmoothAtInfinity:
        assert got is NotSmoothAtInfinity
        return
    assert isinstance(got, CanonicalSymbol)
    assert_matches(got, want)
    assert got.is_real == ref.is_real(want[0])
    assert_matches(got + got.conjugate(), ref.reduce(ref.add(want, ref.conjugate(want))))
    assert (got + got.conjugate()).is_real


def test_demo_symbols_keep_their_cache_file_names():
    # symbol_hash names every cache file; a change here orphans every cache on disk, so it
    # changes only with the file format (since btlab-matrix 3 it hashes R, den and the int numerators)
    symbols = parse_symbols(DEMO)
    assert symbol_hash(symbols["height"]) == "ee317858bffdf2d34e3e9cb47ce83012b3780bcc3bb7b6cd669054b5ea62a727"
    assert symbol_hash(symbols["bump"]) == "34612269e7cfb30b7c61f4fddd94b4be42e0184430d691f68a41ef063890d351"


def assert_same_value(again: ChartRational, value: ChartRational) -> None:
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert (again.den, again.nums, again.denom_exp) == (value.den, value.nums, value.denom_exp)


@properties
@given(smooth, smooth)
def test_a_pickled_symbol_comes_back_as_it_was(f, g):
    # a chart rational need not be canonical
    for value in (CanonicalSymbol(*f) * CanonicalSymbol(*g), ChartRational(*f) * ChartRational(*g)):
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert_same_value(again, value)


def test_unpickling_a_symbol_does_not_reduce_it_again(monkeypatch):
    # the workers pickle their memo keys back to the calling process, which need not canonicalize them again
    demo = parse_symbols(DEMO)
    values = [*demo.values(), demo["bump"] * demo["height"], demo["bump"].conjugate()]
    payload = pickle.dumps(values)
    calls = []
    monkeypatch.setattr(symbols_module, "_divide_one_plus_t", lambda nums: calls.append(nums))
    again = pickle.loads(payload)
    assert calls == []
    for got, want in zip(again, values, strict=True):
        assert_same_value(got, want)
    CanonicalSymbol({(1, 1): QC(1)}, 1)  # the patch is live: constructing a symbol reduces it
    assert calls == [{(1, 1): (1, 0)}]
