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

from .errors import DegenerateTable
from .exact import QC
from .operators import (
    OperatorMatrix,
    commutator,
    lincomb_exact,
    matmul,
    operator_norm,
    prequantum_geometric,
    toeplitz_exact,
)
from .symbols import CanonicalSymbol, average, laplacian, poisson_bracket

EXACT_ZERO_TOL = 1e-13
MIN_FIT_LEVELS = 4  # the fit uses the upper half of a table, so at least two levels


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
    the sweep, in closed form with ``math.fsum``, so no LAPACK call.  Near-zero
    values are excluded; if fewer than two survive the table is flagged as an
    exact identity, with no slope or intercept."""
    if len(table.records) < MIN_FIT_LEVELS:
        raise DegenerateTable(f"{table.name}: need >= {MIN_FIT_LEVELS} records, have {len(table.records)}")
    upper = table.records[len(table.records) // 2 :]
    pts = [(m, v) for m, v in upper if v > EXACT_ZERO_TOL]
    if len(pts) < 2:
        table.fit = FitResult(None, None, 0.0, len(pts), exact_identity=True)
        return table.fit
    xs, ys = [math.log(m) for m, _ in pts], [math.log(v) for _, v in pts]
    x_bar, y_bar = math.fsum(xs) / len(pts), math.fsum(ys) / len(pts)
    dxs = [x - x_bar for x in xs]
    slope = math.fsum(dx * (y - y_bar) for dx, y in zip(dxs, ys)) / math.fsum(dx * dx for dx in dxs)
    intercept = y_bar - slope * x_bar
    residual = math.sqrt(math.fsum((slope * x + intercept - y) ** 2 for x, y in zip(xs, ys)) / len(pts))
    table.fit = FitResult(slope, intercept, residual, len(pts))
    return table.fit


def sweep(name: str, m_list, fn) -> ConvergenceTable:
    """The table of fn(m) over m_list, one level after another in the calling thread."""
    return ConvergenceTable(name, [(m, fn(m)) for m in m_list])


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
    """|| T_f T_g - sum_{j<N} m^-j T_{coeffs[j]} || for N = len(coeffs), the coefficients C_j(f, g) it is given."""
    acc = matmul(toeplitz(f, m), toeplitz(g, m))
    for j, cj in enumerate(coeffs):
        acc = acc - float(m) ** (-j) * toeplitz(cj, m).entries
    return operator_norm(acc)


def tuynman_difference(
    f: CanonicalSymbol, m: int, toeplitz=toeplitz_exact, prequantum=prequantum_geometric
) -> OperatorMatrix:
    """Q_f - i T_{f - Delta f/(2m)}, exactly: Tuynman's identity says its kernel is empty."""
    q = prequantum(f, m)
    return lincomb_exact([(1, q), (QC(0, -1), toeplitz(f - laplacian(f).scale(Fraction(1, 2 * m)), m))])


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
