"""Truncated formal star products and their exact symbolic identities.

Each star-product law is defined once here.  ``coefficient(k, f, g)`` gives
the Toeplitz coefficients known in closed form on this geometry:

    C_0(f, g) = f * g
    C_1(f, g) = c1(f, g) = -(1+t)^2 (df/dz)(dg/dzbar)
    C_k(f, g) = 0 for k >= 2 when f or g is constant

and raises UnknownCoefficientOrder for any other C_k instead of fabricating
it.  The geometric product replaces C_1 by

    d1(f, g) = c1(f, g) + (Delta(fg) - Delta(f) g - f Delta(g))/2

The series map b(f) = f - nu*Delta(f)/2 intertwines the two products; its
inverse is the truncated Neumann series id + sum_k nu^k Delta^k / 2^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownCoefficientOrder
from .exact import QC, Rational
from .symbols import (
    CanonicalSymbol,
    average,
    constant,
    laplacian,
    reduce,
    wirtinger,
)


@dataclass(frozen=True)
class FormalSeries:
    """A truncated power series in the formal parameter nu with symbol coefficients."""

    coeffs: tuple[CanonicalSymbol, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a formal series needs at least the order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def of(f: CanonicalSymbol, order: int = 0) -> "FormalSeries":
        return FormalSeries((f,) + (constant(0),) * order)

    def coeff(self, j: int) -> CanonicalSymbol:
        return self.coeffs[j] if j <= self.order else constant(0)

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        order = max(self.order, other.order)
        return FormalSeries(tuple(self.coeff(j) + other.coeff(j) for j in range(order + 1)))

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + other.scale(-1)

    def scale(self, c: QC | Rational) -> "FormalSeries":
        return FormalSeries(tuple(f.scale(c) for f in self.coeffs))


def c1(f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    """First-order coefficient of the Toeplitz star product."""
    raw = (wirtinger(f, "dz") * wirtinger(g, "dzbar")).scale(-1).shifted(2)
    return reduce(raw)


def d1(f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    """First-order coefficient of the geometric-quantization star product."""
    half = Fraction(1, 2)
    correction = (laplacian(f * g) - laplacian(f) * g - f * laplacian(g)).scale(half)
    return c1(f, g) + correction


def coefficient(k: int, f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    """C_k(f, g) of the Toeplitz star product: fg, then c1(f, g), then 0 when f or g is constant (the unit law and
    bilinearity); any other order raises UnknownCoefficientOrder."""
    if k == 0:
        return f * g
    if k == 1:
        return c1(f, g)
    if f.is_constant or g.is_constant:
        return constant(0)
    raise UnknownCoefficientOrder(f"coefficient of order {k} is not available")


def _star(fs: FormalSeries, gs: FormalSeries, coeff) -> FormalSeries:
    out = []
    for n in range(min(fs.order, gs.order) + 1):
        term = constant(0)
        for k in range(n + 1):
            for i in range(n - k + 1):
                term = term + coeff(k, fs.coeff(i), gs.coeff(n - k - i))
        out.append(term)
    return FormalSeries(tuple(out))


def star_bt(fs: FormalSeries, gs: FormalSeries) -> FormalSeries:
    """Toeplitz star product, truncated at the lower of the two operand orders:
    Cauchy product over ``coefficient``."""
    return _star(fs, gs, coefficient)


def star_geometric(fs: FormalSeries, gs: FormalSeries) -> FormalSeries:
    """Geometric-quantization star product, truncated at the lower of the two
    operand orders: Cauchy product over ``coefficient`` with d1 at order 1."""
    return _star(fs, gs, lambda k, f, g: d1(f, g) if k == 1 else coefficient(k, f, g))


def b_map(fs: FormalSeries) -> FormalSeries:
    """(id - nu*Delta/2) applied to a series, truncated at the series' order."""
    out = [fs.coeff(0)]
    for n in range(1, fs.order + 1):
        out.append(fs.coeff(n) - laplacian(fs.coeff(n - 1)).scale(Fraction(1, 2)))
    return FormalSeries(tuple(out))


def b_inverse(fs: FormalSeries) -> FormalSeries:
    """Neumann inverse of b_map, sum_k nu^k Delta^k/2^k, truncated at the series' order."""
    out = []
    for n in range(fs.order + 1):
        term = constant(0)
        for k in range(n + 1):
            g = fs.coeff(n - k)
            for _ in range(k):
                g = laplacian(g)
            term = term + g.scale(Fraction(1, 2**k))
        out.append(term)
    return FormalSeries(tuple(out))


def check_equivalence(f: CanonicalSymbol, g: CanonicalSymbol) -> dict[str, bool]:
    """The exact equivalence laws on one (f, g) pair, by name: the nu^1 coefficient of b(f) * b(g) - b(f *_G g) is
    zero, and b_inverse(b_map) is the identity on f to order 2.

    The first catches a C_0 that is not the pointwise product, since the
    b-correction in d1 assumes it is; but no error in c1 or in a linear
    Laplacian, since d1 is c1 plus that correction.  The round trip holds for
    any linear Laplacian.  A check that relates the two quantizations needs
    the level-m geometric product."""
    lhs = star_bt(b_map(FormalSeries.of(f, 1)), b_map(FormalSeries.of(g, 1)))
    rhs = b_map(star_geometric(FormalSeries.of(f, 1), FormalSeries.of(g, 1)))
    series = FormalSeries.of(f, 2)
    return {"nu1_defect_zero": (lhs - rhs).coeff(1).is_zero, "b_roundtrip": b_inverse(b_map(series)) == series}


def check_axioms(f: CanonicalSymbol, g: CanonicalSymbol, h: CanonicalSymbol) -> dict[str, bool]:
    """The exact star-product axioms on one (f, g, h) triple, by name: the unit law c1(1, g) = c1(g, 1) = 0, parity,
    associativity at order 1 and the trace property of c1."""
    one = constant(1)
    unit_ok = c1(one, g).is_zero and c1(g, one).is_zero
    c1_fg = c1(f, g)
    parity_ok = c1_fg.conjugate() == c1(g.conjugate(), f.conjugate())
    assoc_ok = f * c1(g, h) + c1(f, g * h) == c1_fg * h + c1(f * g, h)
    trace_ok = average(c1_fg - c1(g, f)) == QC(0)
    return {"unit": unit_ok, "parity": parity_ok, "assoc_order1": assoc_ok, "trace_antisym": trace_ok}


@dataclass(frozen=True)
class TraceSeries:
    """A truncated Laurent scalar sum_{j} coeffs[j] * nu^(lead + j)."""

    coeffs: tuple[QC, ...]
    lead: int = -1

    def coeff(self, power: int) -> QC:
        idx = power - self.lead
        return self.coeffs[idx] if 0 <= idx < len(self.coeffs) else QC(0)


def tau(f: CanonicalSymbol, j: int) -> QC:
    """Trace-expansion coefficients: tau_0 = tau_1 = average(f) here; the trace
    check decides Tr T_f = m tau_0 + tau_1 exactly at every level."""
    if j not in (0, 1):
        raise UnknownCoefficientOrder(f"tau_{j} is not available")
    return average(f)


def formal_trace(fs: FormalSeries) -> TraceSeries:
    """The formal trace of a series, truncated at the series' own order N:
    through the nu^(N-1) coefficient.

    Tr F = nu^{-1} sum_j nu^j tau_j(F), extended nu-linearly; with tau_j
    known for j <= 1 the output carries powers nu^{-1} .. nu^{N-1}, N <= 1.
    """
    if fs.order > 1:
        raise UnknownCoefficientOrder("formal_trace supports order <= 1")
    coeffs = [tau(fs.coeff(0), 0)]
    for p in range(fs.order):
        coeffs.append(tau(fs.coeff(p), 1) + tau(fs.coeff(p + 1), 0))
    return TraceSeries(tuple(coeffs))
