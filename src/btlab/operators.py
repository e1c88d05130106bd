"""Operator assembly on the level-m section spaces, exact and by quadrature.

Matrices are expressed in the orthonormal monomial basis z^j/||z^j||.  The
exact path assembles the operator in the *unnormalized* monomial basis,
where every entry is a rational combination of Beta integrals, and converts
to floating point once at the end; that rational kernel is kept on the
result so identities can be checked with no tolerance at all.

For a numerator monomial z^a zbar^b over (1+t)^R paired between z^j and
z^k, the angular integral enforces j = a + k - b and the radial integral is
B(s+1, m+R+1-s) with s = a + k.  By that U(1) selection rule a symbol of
exponent R has at most (2R+1)(m+1) nonzero kernel entries, so a kernel is a
read-only map (j, k) -> QC holding only its nonzero entries; an absent key
is an exact zero.  Assembly is banded: each monomial fills its one diagonal
from the binomial rows C(m, .) and C(m+R, .), computed once per level by
recurrence, with one rational per entry and no symbolic product.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import sqrt
from types import MappingProxyType

import numpy as np

from .errors import QuadratureBudgetTooSmall, ShapeMismatch
from .exact import QC, QC_I
from .hilbert import basis_norm_sq, dimension
from .symbols import CanonicalSymbol, hamiltonian_field

Kernel = Mapping[tuple[int, int], QC]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A dense operator on the level-m section space.

    ``entries`` is the matrix in the orthonormal basis; ``kernel``, when
    present, is the exact matrix in the unnormalized monomial basis as a
    read-only map (j, k) -> QC of its nonzero entries (the two are
    conjugate by the diagonal of basis norms).  A matrix is exact exactly
    when it has a kernel: exact assembly and the disk cache give one,
    quadrature does not.
    """

    m: int
    entries: np.ndarray
    kernel: Kernel | None = None

    def __post_init__(self):
        n = dimension(self.m)
        if self.entries.shape != (n, n):
            raise ShapeMismatch(f"expected {(n, n)} entries, got {self.entries.shape}")
        self.entries.flags.writeable = False


def from_kernel(kernel: Kernel, m: int) -> OperatorMatrix:
    """The matrix of an exact kernel given as a map (j, k) -> QC.

    Zero values are dropped, so equal operators have equal kernels; the
    float entries are filled from the nonzero ones.
    """
    frozen = MappingProxyType({key: v for key, v in kernel.items() if v})
    scale = [sqrt(float(Fraction(1, (m + 1) * c))) for c in _binomial_row(m)]  # sqrt(basis_norm_sq(m, j))
    entries = np.zeros((m + 1, m + 1), dtype=complex)
    for (j, k), v in frozen.items():
        entries[j, k] = complex(v) * (scale[j] / scale[k])
    return OperatorMatrix(m, entries, frozen)


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n) by the multiplicative recurrence."""
    return list(accumulate(range(n), lambda c, i: c * (n - i) // (i + 1), initial=1))


def _banded_kernel(m: int, families) -> dict[tuple[int, int], QC]:
    """The exact kernel <z^j, g_k> / (2*pi ||z^j||^2) of columns g_k summed from
    ``families`` (terms, r, by_k): each term (a, b) -> c adds c z^(a+k) zbar^b / (1+t)^r,
    times k if ``by_k``, on the diagonal j = a + k - b only, with the Beta-integral
    value c (m+1) C(m,j) / ((x+1) C(x,s)), x = m + r, s = a + k."""
    kernel: dict[tuple[int, int], QC] = {}
    cm = _binomial_row(m)
    for terms, r, by_k in families:
        x, cx = m + r, _binomial_row(m + r)
        for (a, b), c in terms.items():
            lo, hi = max(0, b - a), min(m, m + b - a)
            if lo <= hi and a + hi > x:
                raise ValueError(f"non-integrable pairing: s={max(a + lo, x + 1)} exceeds m+R={x}")
            for k in range(max(lo, 1) if by_k else lo, hi + 1):
                j = a + k - b
                rho = Fraction((m + 1) * cm[j] * (k if by_k else 1), (x + 1) * cx[a + k])
                v = QC(c.re * rho, c.im * rho)
                kernel[j, k] = kernel[j, k] + v if (j, k) in kernel else v
    return kernel


def toeplitz_exact(f: CanonicalSymbol, m: int) -> OperatorMatrix:
    """The Toeplitz operator of f at level m: compress multiplication by f
    onto holomorphic sections.  Exact rational assembly."""
    if m < 0:
        raise ValueError("level m must be >= 0")
    return from_kernel(_banded_kernel(m, [(f.terms, f.denom_exp, False)]), m)


def prequantum_geometric(f: CanonicalSymbol, m: int) -> OperatorMatrix:
    """Geometric-quantization operator Q_f at level m, exactly.

    Compresses the prequantum operator P_f = -nabla_{X} + i f onto the
    holomorphic sections, where X is the Hamiltonian field of f for the
    level-m form m*omega (so X = X_f/m in the chart) and nabla acts on a
    holomorphic section as X^z (d/dz + m dlog(hhat)/dz) with
    dlog(hhat)/dz = -zbar/(1+t).  So
    P_f z^k = i f z^k + m X^z z^k zbar/(1+t) - k X^z z^(k-1).
    """
    if m < 1:
        raise ValueError("level m must be >= 1")
    if not f.is_real:
        raise ValueError("prequantum_geometric requires a real symbol")
    xz = hamiltonian_field(f).comp_z  # m X^z
    families = [
        ({key: QC_I * c for key, c in f.terms.items()}, f.denom_exp, False),
        ({(a, b + 1): c for (a, b), c in xz.terms.items()}, xz.denom_exp + 1, False),
        ({(a - 1, b): c * Fraction(-1, m) for (a, b), c in xz.terms.items()}, xz.denom_exp, True),
    ]
    return from_kernel(_banded_kernel(m, families), m)


# -- quadrature path --------------------------------------------------------


def _sphere_rule(n_radial: int, n_angular: int):
    if n_radial < 1 or n_angular < 1:
        raise QuadratureBudgetTooSmall("need at least one node in each direction")
    u, w = np.polynomial.legendre.leggauss(n_radial)
    phi = 2.0 * np.pi * np.arange(n_angular) / n_angular
    return u, w, phi


def _eval_on_grid(fn, z: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(fn(z), dtype=complex)
        if vals.shape == z.shape:
            return vals
    except (TypeError, ValueError):
        pass  # not vectorised: evaluate node by node below
    return np.vectorize(lambda p: complex(fn(p)))(z)


def toeplitz_quadrature(fn, m: int, n_radial: int, n_angular: int) -> OperatorMatrix:
    """Toeplitz assembly for a black-box point evaluator fn(z) -> complex.

    Gauss-Legendre in u = (t-1)/(t+1) times a uniform (trapezoid) rule in
    the phase; for symbol-algebra inputs with m + R < 2*n_radial the radial
    integrand is a polynomial in u and the rule is exact up to rounding.
    """
    u, w, phi = _sphere_rule(n_radial, n_angular)
    tau_hi = (1.0 + u) / 2.0  # t/(1+t) on the nodes
    tau_lo = (1.0 - u) / 2.0  # 1/(1+t)
    t = tau_hi / tau_lo
    z = np.sqrt(t)[:, None] * np.exp(1j * phi[None, :])
    vals = _eval_on_grid(fn, z)
    scale = max(1.0, float(np.max(np.abs(vals))))
    looks_real = float(np.max(np.abs(vals.imag))) <= 1e-9 * scale

    # angular transform: ang[i, nu+m] = sum_l vals[i,l] e^{i nu phi_l} * (2 pi / n_a)
    nus = np.arange(-m, m + 1)
    ang = vals @ np.exp(1j * np.outer(phi, nus)) * (2.0 * np.pi / n_angular)

    norms = np.array([2.0 * np.pi * float(basis_norm_sq(m, j)) for j in range(m + 1)])
    entries = np.empty((m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        for k in range(m + 1):
            radial = tau_hi ** ((j + k) / 2.0) * tau_lo ** (m - (j + k) / 2.0)
            val = np.sum((w / 2.0) * radial * ang[:, (k - j) + m])
            entries[j, k] = val / sqrt(norms[j] * norms[k])

    if looks_real:
        defect = float(np.max(np.abs(entries - entries.conj().T)))
        if defect > 1e-6:
            raise QuadratureBudgetTooSmall(
                f"Hermiticity defect {defect:.3e} at ({n_radial}, {n_angular}) nodes"
            )
    return OperatorMatrix(m, entries)


def gram_quadrature(m: int, n_radial: int = 64, n_angular: int = 64) -> np.ndarray:
    """Gram matrix <z^j, z^k> of the unnormalized monomials by quadrature."""
    u, w, phi = _sphere_rule(n_radial, n_angular)
    tau_hi = (1.0 + u) / 2.0
    tau_lo = (1.0 - u) / 2.0
    ang = np.array([np.sum(np.exp(1j * nu * phi)) * (2.0 * np.pi / n_angular) for nu in range(-m, m + 1)])
    gram = np.empty((m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        for k in range(m + 1):
            radial = tau_hi ** ((j + k) / 2.0) * tau_lo ** (m - (j + k) / 2.0)
            gram[j, k] = np.sum((w / 2.0) * radial) * ang[(k - j) + m]
    return gram


# -- matrix analysis --------------------------------------------------------


def _as_array(x) -> np.ndarray:
    if isinstance(x, OperatorMatrix):
        return x.entries
    return np.asarray(x, dtype=complex)


def operator_norm(x) -> float:
    """Largest singular value; exactly 0.0, with no SVD, for a zero matrix."""
    arr = _as_array(x)
    return float(np.linalg.norm(arr, 2)) if arr.any() else 0.0


def hermitian_eigenvalues(x) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending; a defect |A - A*| above 1e-9 relative raises."""
    arr = _as_array(x)
    defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if defect > 1e-9 * max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)


def commutator(x, y) -> np.ndarray:
    a, b = _as_array(x), _as_array(y)
    if a.shape != b.shape:
        raise ShapeMismatch(f"commutator of shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def adjoint(x):
    """Hermitian adjoint; exact on the monomial-basis kernel when present."""
    if isinstance(x, OperatorMatrix):
        kernel = None
        if x.kernel is not None:
            c = _binomial_row(x.m)  # basis_norm_sq(m, j) / basis_norm_sq(m, k) = C(m, k) / C(m, j)
            kernel = MappingProxyType({(k, j): v.conjugate() * Fraction(c[k], c[j]) for (j, k), v in x.kernel.items()})
        return OperatorMatrix(x.m, x.entries.conj().T.copy(), kernel)
    return _as_array(x).conj().T


# -- exact kernel arithmetic -------------------------------------------------


def _require_kernels(*mats: OperatorMatrix) -> int:
    m = mats[0].m
    for mat in mats:
        if mat.kernel is None:
            raise ValueError(f"no exact kernel on a level-{mat.m} matrix")
        if mat.m != m:
            raise ShapeMismatch("levels differ")
    return m


def compose_exact(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    m = _require_kernels(a, b)
    b_rows = defaultdict(list)
    for (l, k), v in b.kernel.items():
        b_rows[l].append((k, v))
    kernel: dict[tuple[int, int], QC] = {}
    for (j, l), alj in a.kernel.items():
        for k, blk in b_rows[l]:
            kernel[j, k] = kernel.get((j, k), QC(0)) + alj * blk
    return from_kernel(kernel, m)


def lincomb_exact(terms: list[tuple[QC | int | Fraction, OperatorMatrix]]) -> OperatorMatrix:
    m = _require_kernels(*[mat for _, mat in terms])
    kernel: dict[tuple[int, int], QC] = {}
    for coeff, mat in terms:
        c = QC.coerce(coeff)
        for key, v in mat.kernel.items():
            kernel[key] = kernel.get(key, QC(0)) + c * v
    return from_kernel(kernel, m)


def trace_exact(a: OperatorMatrix) -> QC:
    _require_kernels(a)
    return sum((v for (j, k), v in a.kernel.items() if j == k), QC(0))


def equal_exact(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    _require_kernels(a, b)
    return a.kernel == b.kernel


def identity_exact(m: int) -> OperatorMatrix:
    return from_kernel({(j, j): QC(1) for j in range(m + 1)}, m)
