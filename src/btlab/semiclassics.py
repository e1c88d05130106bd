"""Level sweeps quantifying the semiclassical laws of the quantization.

Every defect function here computes a single defect at one level m;
``sweep`` turns a per-level function into a ``ConvergenceTable`` over a
sweep of levels, and log-log slope fits turn the O(m^-N) statements into
checkable numbers.  Defects below EXACT_ZERO_TOL are flagged as exact
identities and never enter a fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateTable, UnknownCoefficientOrder
from .exact import QC
from .operators import (
    OperatorMatrix,
    commutator,
    lincomb_exact,
    operator_norm,
    prequantum_geometric,
    toeplitz_exact,
)
from .starproduct import c1
from .symbols import CanonicalSymbol, average, laplacian, poisson_bracket, sup_norm

DEFAULT_SWEEP = (8, 16, 32, 64, 128)
EXACT_ZERO_TOL = 1e-13


@dataclass
class FitResult:
    """A log-log line fit; an exact identity has no line, so its slope and intercept are None."""

    slope: float | None
    intercept: float | None
    residual: float
    n_used: int
    exact_identity: bool = False


@dataclass
class ConvergenceTable:
    name: str
    records: list[tuple[int, float]] = field(default_factory=list)
    fit: FitResult | None = None

    def __post_init__(self):
        ms = [m for m, _ in self.records]
        if ms != sorted(set(ms)):
            raise ValueError("levels must be strictly increasing")
        if not all(math.isfinite(v) for _, v in self.records):
            raise ValueError("table values must be finite")

    def values(self) -> list[float]:
        return [v for _, v in self.records]


def loglog_slope(table: ConvergenceTable) -> FitResult:
    """Least-squares slope of log(value) vs log(m) over the upper half of
    the sweep.  Near-zero values are excluded; if fewer than two survive the
    table is flagged as an exact identity, with no slope or intercept."""
    if len(table.records) < 4:
        raise DegenerateTable(f"{table.name}: need >= 4 records, have {len(table.records)}")
    upper = table.records[len(table.records) // 2 :]
    pts = [(m, v) for m, v in upper if v > EXACT_ZERO_TOL]
    if len(pts) < 2:
        table.fit = FitResult(None, None, 0.0, len(pts), exact_identity=True)
        return table.fit
    xs = np.log([m for m, _ in pts])
    ys = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((slope * xs + intercept - ys) ** 2)))
    table.fit = FitResult(float(slope), float(intercept), residual, len(pts))
    return table.fit


def sweep(name: str, m_list, fn) -> ConvergenceTable:
    """The table of fn(m) over m_list, one level after another in the calling thread."""
    return ConvergenceTable(name, [(m, fn(m)) for m in m_list])


def norm_defect(f: CanonicalSymbol, m: int, sup: float | None = None, toeplitz=toeplitz_exact) -> float:
    """sup|f| minus the operator norm of the level-m Toeplitz matrix."""
    if sup is None:
        sup = sup_norm(f)
    return sup - operator_norm(toeplitz(f, m))


def dirac_defect(f: CanonicalSymbol, g: CanonicalSymbol, m: int, toeplitz=toeplitz_exact) -> float:
    """|| m i [T_f, T_g] - T_{{f,g}} || at level m."""
    bracket = toeplitz(poisson_bracket(f, g), m)
    comm = commutator(toeplitz(f, m), toeplitz(g, m))
    return operator_norm(m * 1j * comm - bracket.entries)


def sass_remainder(
    f: CanonicalSymbol,
    g: CanonicalSymbol,
    coeffs: list[CanonicalSymbol],
    m: int,
    toeplitz=toeplitz_exact,
) -> float:
    """|| T_f T_g - sum_{j<N} m^-j T_{coeffs[j]} || for N = len(coeffs) <= 2."""
    n = len(coeffs)
    if n > 2:
        raise UnknownCoefficientOrder(f"remainder order {n} needs unavailable coefficients")
    acc = toeplitz(f, m).entries @ toeplitz(g, m).entries
    for j, cj in enumerate(coeffs):
        acc = acc - float(m) ** (-j) * toeplitz(cj, m).entries
    return operator_norm(acc)


def product_coefficients(f: CanonicalSymbol, g: CanonicalSymbol, order: int) -> list[CanonicalSymbol]:
    """[c0(f,g)] or [c0(f,g), c1(f,g)] for use in sass_remainder."""
    if order == 1:
        return [f * g]
    if order == 2:
        return [f * g, c1(f, g)]
    raise UnknownCoefficientOrder(f"no closed-form coefficients beyond order 2 (got {order})")


def tuynman_difference(
    f: CanonicalSymbol, m: int, toeplitz=toeplitz_exact, prequantum=prequantum_geometric
) -> OperatorMatrix:
    """Q_f - i T_{f - Delta f/(2m)}, exactly: Tuynman's identity says its kernel is empty."""
    q = prequantum(f, m)
    return lincomb_exact([(1, q), (QC(0, -1), toeplitz(f - laplacian(f).scale(Fraction(1, 2 * m)), m))])


def tuynman_defect(f: CanonicalSymbol, m: int, toeplitz=toeplitz_exact, prequantum=prequantum_geometric) -> float:
    """|| Q_f - i T_{f - Delta f/(2m)} ||; identically zero for this model."""
    return operator_norm(tuynman_difference(f, m, toeplitz, prequantum))


def spectral_moment(eigs: np.ndarray, k: int) -> float:
    """(1/m) sum of the k-th powers of a level-m spectrum, which has m + 1 eigenvalues."""
    if k < 1:
        raise ValueError("moment order k must be >= 1")
    return float(np.sum(eigs**k) / (eigs.size - 1))


def moment_limit(f: CanonicalSymbol, k: int) -> QC:
    """Classical limit of the k-th spectral moment: the average of f^k."""
    fk = f
    for _ in range(k - 1):
        fk = fk * f
    return average(fk)
