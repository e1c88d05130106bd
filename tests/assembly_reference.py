"""Test-only reference for the exact assembly: one Beta integral per entry.

This is the straightforward construction that the banded assembly in
``btlab.operators`` replaces: ``math.comb`` for every entry, and Q_f built
column by column as a symbolic ``ChartRational`` product that is then
paired with every z^j, and the float entries filled with one
``basis_norm_sq`` per index.  It is kept only as an oracle for the
property tests.  ``values`` and ``kernel_of`` are the tests' one way to
read a ``Kernel`` entry by entry and to write one, on top of ``nonzeros``
and ``kernel_of_entries``, which go between diagonals and (j, k) entries;
``identity_exact`` is the level-m identity operator.
"""

from fractions import Fraction
from math import comb, sqrt
from types import SimpleNamespace

import numpy as np

from btlab.exact import QC, QC_I, over_common_den
from btlab.operators import Kernel, OperatorMatrix
from btlab.symbols import CanonicalSymbol, ChartRational, hamiltonian_field
from hilbert_reference import basis_norm_sq


def nonzeros(kernel: Kernel):
    """(j, k, re, im) of every nonzero entry, row by row and by column within a row."""
    entries = []
    for d, cells in kernel.diags:
        entries += [(j, j - d, re, im) for j, (re, im) in enumerate(cells, max(d, 0)) if re or im]
    yield from sorted(entries)


def kernel_of_entries(den: int, m: int, entries) -> Kernel:
    """The level-m kernel of the entries (j, k, re, im) over ``den``, each diagonal allocated once."""
    diags = {}
    for j, k, re, im in entries:
        if not (0 <= j <= m and 0 <= k <= m):
            raise ValueError(f"index ({j}, {k}) out of range for level {m}")
        if j - k not in diags:
            diags[j - k] = [(0, 0)] * (m + 1 - abs(j - k))
        diags[j - k][min(j, k)] = (re, im)
    return Kernel(den, diags)


def values(kernel: Kernel) -> dict[tuple[int, int], QC]:
    """The kernel's nonzero entries as a plain map (j, k) -> QC."""
    return {(j, k): QC.of_ints(re, im, kernel.den) for j, k, re, im in nonzeros(kernel)}


def kernel_of(entries: dict, m: int) -> Kernel:
    """The level-m ``Kernel`` of a map (j, k) -> QC."""
    den, nums = over_common_den(entries)
    return kernel_of_entries(den, m, ((j, k, re, im) for (j, k), (re, im) in nums.items()))


def identity_exact(m: int) -> OperatorMatrix:
    return OperatorMatrix(m, Kernel(1, {0: [(1, 0)] * (m + 1)}))


def matrix_reference(kernel: dict, m: int) -> SimpleNamespace:
    """A plain record (m, entries, kernel) of a map (j, k) -> QC: its float matrix and its ``Kernel``."""
    scale = [sqrt(float(basis_norm_sq(m, j))) for j in range(m + 1)]
    entries = np.zeros((m + 1, m + 1), dtype=complex)
    for (j, k), v in kernel.items():
        entries[j, k] = complex(v) * (scale[j] / scale[k])
    return SimpleNamespace(m=m, entries=entries, kernel=kernel_of(kernel, m))


def radial_fraction(m: int, r: int, j: int, s: int) -> Fraction:
    # B(s+1, m+r+1-s) / ||z^j||^2, both in units of 2*pi
    x = m + r
    if s > x:
        raise ValueError(f"non-integrable pairing: s={s} exceeds m+R={x}")
    return Fraction((m + 1) * comb(m, j), (x + 1) * comb(x, s))


def toeplitz_reference(f: ChartRational, m: int) -> SimpleNamespace:
    if m < 0:
        raise ValueError("level m must be >= 0")
    kernel: dict[tuple[int, int], QC] = {}
    r = f.denom_exp
    for (a, b), c in f.terms.items():
        for k in range(m + 1):
            j = a + k - b
            if not 0 <= j <= m:
                continue
            s = (a + b + j + k) // 2
            kernel[j, k] = kernel.get((j, k), QC(0)) + c * radial_fraction(m, r, j, s)
    return matrix_reference(kernel, m)


def pairing_kernel_column(g: ChartRational, m: int) -> list[QC]:
    """<z^j, g> / (2*pi * ||z^j||^2) for j = 0..m, exact."""
    col = [QC(0)] * (m + 1)
    r = g.denom_exp
    for (a, b), c in g.terms.items():
        j = a - b
        if not 0 <= j <= m:
            continue
        s = (a + b + j) // 2
        col[j] = col[j] + c * radial_fraction(m, r, j, s)
    return col


def prequantum_reference(f: CanonicalSymbol, m: int) -> SimpleNamespace:
    if m < 1:
        raise ValueError("level m must be >= 1")
    if not f.is_real:
        raise ValueError("prequantum_geometric requires a real symbol")
    xz = hamiltonian_field(f).comp_z.scale(Fraction(1, m))
    kernel: dict[tuple[int, int], QC] = {}
    for k in range(m + 1):
        # P_f z^k = -X^z (k z^{k-1} - m z^k zbar/(1+t)) + i f z^k
        g = (f * ChartRational({(k, 0): QC(1)}, 0)).scale(QC_I)
        g = g + xz * ChartRational({(k, 1): QC(m)}, 1)
        if k:
            g = g + (xz * ChartRational({(k - 1, 0): QC(k)}, 0)).scale(-1)
        for j, v in enumerate(pairing_kernel_column(g, m)):
            if v:
                kernel[j, k] = v
    return matrix_reference(kernel, m)
