"""Operator assembly on the level-m section spaces, exact and by quadrature.

Matrices are expressed in the orthonormal monomial basis z^j/||z^j||.  The
exact path assembles the operator in the *unnormalized* monomial basis,
where every entry is a rational combination of Beta integrals, and converts
to floating point once at the end; that rational kernel is kept on the
result so identities can be checked with no tolerance at all.

For a numerator monomial z^a zbar^b over (1+t)^R paired between z^j and
z^k, the angular integral enforces j = a + k - b and the radial integral is
B(s+1, m+R+1-s) with s = a + k.  By that U(1) selection rule a symbol of
exponent R has at most (2R+1)(m+1) nonzero kernel entries, so a kernel holds
only its nonzero entries; an absent key is an exact zero.  A ``Kernel`` is
held on Gaussian integers over one denominator, as a symbol is: one positive
int ``den`` and a read-only map ``nums``: (j, k) -> (re, im) of ints, in
lowest terms and with no zero entry, so equal operators have equal kernels.
Assembly is banded and in closed form, with no symbolic product: each
monomial z^a zbar^b fills its one diagonal, where an entry is
(j+1)...(j+b) (m-j+1)...(m-j+R-b), a product of R small integers, over the
one level denominator (m+2)...(m+R+1).  The exact operations (composition,
linear combination, adjoint, trace, equality) add and multiply ints, and the
float entries are taken from ``nums`` with one int/int division per part.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain
from math import gcd, lcm, perm, sqrt
from types import MappingProxyType

import numpy as np

from .errors import QuadratureBudgetTooSmall, ShapeMismatch
from .exact import QC, Rational, over_common_den
from .hilbert import basis_norm_sq, dimension
from .symbols import CanonicalSymbol, hamiltonian_field


class Kernel(Mapping):
    """The exact matrix of an operator in the unnormalized monomial basis: the map
    (j, k) -> (re + i*im)/den of its nonzero entries, with ``den`` one positive int
    and ``nums`` a read-only map (j, k) -> (re, im) of ints.  Constructing one drops
    zero entries and divides out the gcd of ``den`` and every part, so the pair is
    unique.  As a ``Mapping`` its values read as ``QC``, one built per lookup."""

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: Mapping[tuple[int, int], tuple[int, int]]):
        if den <= 0:
            raise ValueError(f"kernel denominator must be positive, got {den}")
        nums = {key: v for key, v in nums.items() if v[0] or v[1]}
        g = gcd(den, *chain.from_iterable(nums.values()))
        if g > 1:
            den, nums = den // g, {key: (re // g, im // g) for key, (re, im) in nums.items()}
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", MappingProxyType(nums))

    def __setattr__(self, name, value):
        raise AttributeError("Kernel values are immutable")

    def __reduce__(self):
        return Kernel, (self.den, dict(self.nums))

    def __getitem__(self, key: tuple[int, int]) -> QC:
        re, im = self.nums[key]
        return QC.of_ints(re, im, self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        if isinstance(other, Kernel):
            return self.den == other.den and self.nums == other.nums
        return super().__eq__(other)

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __repr__(self):
        return f"Kernel({self.den}, {dict(self.nums)!r})"


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A dense operator on the level-m section space.

    ``entries`` is the matrix in the orthonormal basis; ``kernel``, when
    present, is the exact matrix in the unnormalized monomial basis as a
    ``Kernel`` (the two are conjugate by the diagonal of basis norms).  A
    matrix is exact exactly when it has a kernel: exact assembly and the disk
    cache give one, quadrature does not.
    """

    m: int
    entries: np.ndarray
    kernel: Kernel | None = None

    def __post_init__(self):
        n = dimension(self.m)
        if self.entries.shape != (n, n):
            raise ShapeMismatch(f"expected {(n, n)} entries, got {self.entries.shape}")
        self.entries.flags.writeable = False


def from_kernel(kernel: Mapping, m: int) -> OperatorMatrix:
    """The matrix of an exact kernel: a ``Kernel``, or a map (j, k) -> QC, which is
    brought to one first.

    The float entry at (j, k) is (re/den + i im/den) * scale[j]/scale[k] with
    scale[j] = sqrt(basis_norm_sq(m, j)); each re/den is an int/int true division
    and so correctly rounded.  The entries go into the dense matrix in one scatter.
    """
    if not isinstance(kernel, Kernel):
        kernel = Kernel(*over_common_den(kernel))
    den, nums, n = kernel.den, kernel.nums, len(kernel)
    scale = np.sqrt([1 / ((m + 1) * c) for c in _binomial_row(m)])
    if not scale.all():  # 1/((m+1) C(m, j)) underflows to 0.0 from m = 1071
        raise ZeroDivisionError(f"a basis norm underflows to 0.0 at level {m}")
    j, k = np.fromiter(chain.from_iterable(nums), dtype=np.intp, count=2 * n).reshape(n, 2).T
    parts = np.fromiter(chain.from_iterable(nums.values()), dtype=object, count=2 * n) / den  # Python int / int
    re, im = parts.astype(float).reshape(n, 2).T
    ratio = scale[j] / scale[k]
    entries = np.zeros((m + 1, m + 1), dtype=complex)
    entries.real[j, k] = re * ratio
    entries.imag[j, k] = im * ratio
    return OperatorMatrix(m, entries, kernel)


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n) by the multiplicative recurrence."""
    return list(accumulate(range(n), lambda c, i: c * (n - i) // (i + 1), initial=1))


def _banded_kernel(m: int, families) -> Kernel:
    """The exact kernel <z^j, g_k> / (2*pi ||z^j||^2) of columns g_k summed from
    ``families`` (den, nums, r, by_k): each term (a, b) -> (re, im) adds
    (re + i im)/den z^(a+k) zbar^b / (1+t)^r, times k if ``by_k``, on the diagonal
    j = a + k - b only.

    Its Beta-integral value is c (m+1) C(m,j) / ((x+1) C(x,s)) with x = m + r and
    s = a + k = j + b, which is c (j+1)...(j+b) * (x-s)!/(m-j)! / D_r with
    D_r = (m+2)...(m+r+1).  For b <= r, as for every canonical symbol and every
    family of Q_f, (x-s)!/(m-j)! = (m-j+1)...(m-j+r-b): the entry is r small integers
    over D_r.  For b > r it is the reciprocal 1/((x-s+1)...(m-j)), which only a
    non-canonical chart rational reaches.  Every entry sums integer numerators over
    one denominator, the lcm of every family's D_r times its den, widened by the
    reciprocals' lcm when a b > r term occurs.
    """
    den = lcm(*(perm(m + r + 1, r) * c_den for c_den, _, r, _ in families))
    acc: dict[tuple[int, int], tuple[int, int]] = {}  # (j, k) -> (re, im) over den
    off = []  # the b > r terms: ((j, k), re, im, d), adding (re + i im) / (den * d)
    for c_den, nums, r, by_k in families:
        x, base = m + r, den // (perm(m + r + 1, r) * c_den)
        for (a, b), (c_re, c_im) in nums.items():
            lo, hi = max(0, b - a), min(m, m + b - a)
            if lo <= hi and a + hi > x:
                raise ValueError(f"non-integrable pairing: s={max(a + lo, x + 1)} exceeds m+R={x}")
            c_re, c_im = c_re * base, c_im * base
            for k in range(max(lo, 1) if by_k else lo, hi + 1):
                j = a + k - b
                n = perm(j + b, b) * (k if by_k else 1)
                if b > r:
                    off.append(((j, k), c_re * n, c_im * n, perm(m - j, b - r)))
                    continue
                n *= perm(m - j + r - b, r - b)
                re0, im0 = acc.get((j, k), (0, 0))
                acc[j, k] = (re0 + c_re * n, im0 + c_im * n)
    if off:
        s = lcm(*(d for *_, d in off))
        den, acc = den * s, {key: (re * s, im * s) for key, (re, im) in acc.items()}
        for key, re, im, d in off:
            re0, im0 = acc.get(key, (0, 0))
            acc[key] = (re0 + re * (s // d), im0 + im * (s // d))
    return Kernel(den, acc)


def toeplitz_exact(f: CanonicalSymbol, m: int) -> OperatorMatrix:
    """The Toeplitz operator of f at level m: compress multiplication by f
    onto holomorphic sections.  Exact rational assembly."""
    if m < 0:
        raise ValueError("level m must be >= 0")
    return from_kernel(_banded_kernel(m, [(f.den, f.nums, f.denom_exp, False)]), m)


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
        (f.den, {key: (-im, re) for key, (re, im) in f.nums.items()}, f.denom_exp, False),  # i f
        (xz.den, {(a, b + 1): v for (a, b), v in xz.nums.items()}, xz.denom_exp + 1, False),
        (xz.den * m, {(a - 1, b): (-re, -im) for (a, b), (re, im) in xz.nums.items()}, xz.denom_exp, True),  # -X^z/m
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


def gram_quadrature(m: int) -> np.ndarray:
    """Gram matrix <z^j, z^k> of the unnormalized monomials by quadrature on 64 x 64 nodes."""
    n_radial = n_angular = 64
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
    """Hermitian adjoint.  An exact matrix's adjoint is exact, and its floats come from
    its kernel alone, as for any other exact matrix; a quadrature matrix's floats are
    conjugate-transposed."""
    if isinstance(x, OperatorMatrix):
        if x.kernel is None:
            return OperatorMatrix(x.m, x.entries.conj().T.copy())
        # entry (k, j) is conj(entry (j, k)) * C(m, k) / C(m, j), over den times the lcm of the row binomials
        c, nums = _binomial_row(x.m), x.kernel.nums
        rows = lcm(*{c[j] for j, _ in nums})
        scaled = {}
        for (j, k), (re, im) in nums.items():
            s = c[k] * (rows // c[j])
            scaled[k, j] = (re * s, -im * s)
        return from_kernel(Kernel(x.kernel.den * rows, scaled), x.m)
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
    for (l, k), v in b.kernel.nums.items():
        b_rows[l].append((k, v))
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for (j, l), (a_re, a_im) in a.kernel.nums.items():
        for k, (b_re, b_im) in b_rows[l]:
            re, im = acc.get((j, k), (0, 0))
            acc[j, k] = (re + a_re * b_re - a_im * b_im, im + a_re * b_im + a_im * b_re)
    return from_kernel(Kernel(a.kernel.den * b.kernel.den, acc), m)


def lincomb_exact(terms: list[tuple[QC | Rational, OperatorMatrix]]) -> OperatorMatrix:
    m = _require_kernels(*[mat for _, mat in terms])
    parts = []  # (denominator of coeff * kernel, coefficient numerator, kernel numerators)
    for coeff, mat in terms:
        c_den, c = over_common_den({None: QC.coerce(coeff)})
        parts.append((c_den * mat.kernel.den, c[None], mat.kernel.nums))
    den = lcm(*(d for d, _, _ in parts))
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for d, (c_re, c_im), nums in parts:
        c_re, c_im = c_re * (den // d), c_im * (den // d)
        for key, (re, im) in nums.items():
            re0, im0 = acc.get(key, (0, 0))
            acc[key] = (re0 + c_re * re - c_im * im, im0 + c_re * im + c_im * re)
    return from_kernel(Kernel(den, acc), m)


def trace_exact(a: OperatorMatrix) -> QC:
    m = _require_kernels(a)
    diag = [a.kernel.nums[j, j] for j in range(m + 1) if (j, j) in a.kernel.nums]
    return QC.of_ints(sum(re for re, _ in diag), sum(im for _, im in diag), a.kernel.den)


def equal_exact(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    _require_kernels(a, b)
    return a.kernel == b.kernel


def equals_i_times_exact(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    """Whether a = i b exactly, decided on the two kernels in place.  i b has b's
    denominator and numerators (-im, re), still in lowest terms, so a = i b iff the
    denominators agree and so does every numerator.  No product kernel and no float
    matrix is built.  Raises like ``equal_exact`` on a missing kernel or unequal levels."""
    _require_kernels(a, b)
    na, nb = a.kernel.nums, b.kernel.nums
    return a.kernel.den == b.kernel.den and len(na) == len(nb) and all(
        na.get(key) == (-im, re) for key, (re, im) in nb.items()
    )


def identity_exact(m: int) -> OperatorMatrix:
    return from_kernel(Kernel(1, {(j, j): (1, 0) for j in range(m + 1)}), m)
