"""Truncated formal star products and their exact symbolic identities.

Two deformations of the pointwise product are available through the
coefficients known in closed form on this geometry:

    c0(f, g) = f * g
    c1(f, g) = -(1+t)^2 (df/dz)(dg/dzbar)              (Toeplitz product)
    d1(f, g) = c1(f, g) + (Delta(fg) - Delta(f) g - f Delta(g))/2
                                                        (geometric product)

The series map b(f) = f - nu*Delta(f)/2 intertwines the two products; its
inverse is the truncated Neumann series id + sum_k nu^k Delta^k / 2^k.
Coefficients of order >= 2 are not available and any request that needs
one raises UnknownCoefficientOrder instead of fabricating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownCoefficientOrder
from .exact import QC, QC_I, Rational
from .symbols import (
    CanonicalSymbol,
    average,
    constant,
    laplacian,
    poisson_bracket,
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


def _coeff_map(order_one, k: int, f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    if k == 0:
        return f * g
    if k == 1:
        return order_one(f, g)
    # C_k(c, g) = C_k(g, c) = 0 for constants by bilinearity and the unit law.
    if f.is_constant or g.is_constant:
        return constant(0)
    raise UnknownCoefficientOrder(f"coefficient of order {k} is not available")


def _star(fs: FormalSeries, gs: FormalSeries, order: int, order_one) -> FormalSeries:
    if order > 2:
        raise UnknownCoefficientOrder(f"truncation order {order} exceeds the known coefficients")
    if order > min(fs.order, gs.order):
        raise ValueError("truncation order exceeds the operand orders")
    out = []
    for n in range(order + 1):
        term = constant(0)
        for k in range(n + 1):
            for i in range(n - k + 1):
                term = term + _coeff_map(order_one, k, fs.coeff(i), gs.coeff(n - k - i))
        out.append(term)
    return FormalSeries(tuple(out))


def star_bt(fs: FormalSeries, gs: FormalSeries, order: int = 1) -> FormalSeries:
    """Toeplitz star product, truncated: Cauchy product over c0, c1."""
    return _star(fs, gs, order, c1)


def star_geometric(fs: FormalSeries, gs: FormalSeries, order: int = 1) -> FormalSeries:
    """Geometric-quantization star product, truncated: Cauchy product over d0, d1."""
    return _star(fs, gs, order, d1)


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


def check_equivalence(f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    """nu^1 coefficient of b(f) * b(g) - b(f *_G g); the zero symbol iff the
    two star products are intertwined by b at first order."""
    lhs = star_bt(b_map(FormalSeries.of(f, 1)), b_map(FormalSeries.of(g, 1)), 1)
    rhs = b_map(star_geometric(FormalSeries.of(f, 1), FormalSeries.of(g, 1), 1))
    return (lhs - rhs).coeff(1)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exact star-product axiom checks on one (f, g, h) triple."""

    unit_ok: bool
    parity_ok: bool
    assoc_order1_ok: bool
    trace_antisym_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.unit_ok and self.parity_ok and self.assoc_order1_ok and self.trace_antisym_ok


def check_axioms(f: CanonicalSymbol, g: CanonicalSymbol, h: CanonicalSymbol) -> AxiomReport:
    one = constant(1)
    unit_ok = (
        c1(one, g).is_zero
        and c1(g, one).is_zero
        and star_bt(FormalSeries.of(one, 1), FormalSeries.of(g, 1), 1) == FormalSeries.of(g, 1)
    )
    parity_ok = c1(f, g).conjugate() == c1(g.conjugate(), f.conjugate())
    lhs = f * c1(g, h) + c1(f, g * h)
    rhs = c1(f, g) * h + c1(f * g, h)
    assoc_ok = lhs == rhs
    trace_ok = average(c1(f, g) - c1(g, f)) == QC(0)
    return AxiomReport(unit_ok, parity_ok, assoc_ok, trace_ok)


def bracket_compatibility_defect(f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    """c1(f,g) - c1(g,f) + i*{f,g}; the zero symbol when the first-order
    antisymmetric part reproduces the Poisson bracket."""
    return c1(f, g) - c1(g, f) + poisson_bracket(f, g).scale(QC_I)


@dataclass(frozen=True)
class TraceSeries:
    """A truncated Laurent scalar sum_{j} coeffs[j] * nu^(lead + j)."""

    coeffs: tuple[QC, ...]
    lead: int = -1

    def coeff(self, power: int) -> QC:
        idx = power - self.lead
        return self.coeffs[idx] if 0 <= idx < len(self.coeffs) else QC(0)


def tau(f: CanonicalSymbol, j: int) -> QC:
    """Trace-expansion coefficients: tau_0 = tau_1 = average(f) here, since
    the matrix trace is exactly (m+1) * average(f) at every level."""
    if j not in (0, 1):
        raise UnknownCoefficientOrder(f"tau_{j} is not available")
    return average(f)


def formal_trace(fs: FormalSeries, order: int = 1) -> TraceSeries:
    """The formal trace of a series, through the nu^(order-1) coefficient.

    Tr F = nu^{-1} sum_j nu^j tau_j(F), extended nu-linearly; with tau_j
    known for j <= 1 the output carries powers nu^{-1} .. nu^{order-1}.
    """
    if order > 1:
        raise UnknownCoefficientOrder("formal_trace supports order <= 1")
    coeffs = [tau(fs.coeff(0), 0)]
    for p in range(order):
        coeffs.append(tau(fs.coeff(p), 1) + tau(fs.coeff(p + 1), 0))
    return TraceSeries(tuple(coeffs))
