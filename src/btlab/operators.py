"""Operator assembly on the level-m section spaces, exact and by quadrature.

An operator is its exact kernel: ``OperatorMatrix(m, kernel)`` holds the
operator in the *unnormalized* monomial basis, where every entry is a
rational combination of Beta integrals, so identities are checked with no
tolerance at all.  Its float matrix in the orthonormal monomial basis
z^j/||z^j|| is taken from the kernel on first read and kept.  Quadrature
assembly has no kernel and gives plain arrays.

For a numerator monomial z^a zbar^b over (1+t)^R paired between z^j and
z^k, the angular integral enforces j = a + k - b and the radial integral is
B(s+1, m+R+1-s) with s = a + k.  By that U(1) selection rule a symbol of
exponent R fills at most 2R+1 diagonals j - k = a - b, and a ``Kernel`` is
stored that way: per diagonal, the (re, im) int pairs of its entries over one
positive ``den``, in lowest terms, so equal operators have equal kernels.
Assembly is banded and in closed form, with no symbolic product: each
monomial z^a zbar^b fills its one diagonal, where an entry is
(j+1)...(j+b) (m-j+1)...(m-j+R-b), a product of R small integers, over the
one level denominator (m+2)...(m+R+1).  The exact operations work diagonal
by diagonal on ints (a composition convolves diagonals, the adjoint sends d
to -d, the trace sums diagonal 0), and the float entries are taken from the
cells with one int/int division per part.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm, perm, sqrt

import numpy as np

from .errors import QuadratureBudgetTooSmall, ShapeMismatch
from .exact import QC, Rational, over_common_den
from .hilbert import basis_norm_sq
from .symbols import CanonicalSymbol, hamiltonian_field


@dataclass(frozen=True)
class Kernel:
    """The exact matrix of an operator in the unnormalized monomial basis, by diagonal:
    ``diags`` holds one pair (d, cells) per nonzero diagonal d = j - k, in increasing
    d, and cells[i] = (re, im) is the entry (re + i*im)/den at (i + max(d, 0), i + max(-d, 0)).
    Construction, from such pairs or a map d -> cells, strips trailing zero cells (a
    leading one fixes where its diagonal starts), drops empty diagonals and divides out
    the gcd of the positive ``den`` and every part, so ``==`` and ``hash`` compare
    operators.  Iterating a kernel yields each diagonal's cells, the entries it stores,
    which is how ``bench/tracing.py`` counts kernel entries."""

    den: int
    diags: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def __post_init__(self):
        den, diags = self.den, []
        if den <= 0:
            raise ValueError(f"kernel denominator must be positive, got {den}")
        for d, cells in sorted(dict(self.diags).items()):
            cells, n = tuple(map(tuple, cells)), len(cells)
            while n and cells[n - 1] == (0, 0):
                n -= 1
            if n:
                diags.append((d, cells[:n]))
        g = gcd(den, *chain.from_iterable(chain.from_iterable(cells for _, cells in diags)))
        if g > 1:  # the cells are rebuilt only here
            den, diags = den // g, [(d, tuple((re // g, im // g) for re, im in cells)) for d, cells in diags]
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "diags", tuple(diags))

    @classmethod
    def of_entries(cls, den: int, m: int, entries) -> Kernel:
        """The level-m kernel of the entries (j, k, re, im) over ``den``, each diagonal allocated once."""
        diags = {}
        for j, k, re, im in entries:
            if not (0 <= j <= m and 0 <= k <= m):
                raise ValueError(f"index ({j}, {k}) out of range for level {m}")
            if j - k not in diags:
                diags[j - k] = [(0, 0)] * (m + 1 - abs(j - k))
            diags[j - k][min(j, k)] = (re, im)
        return cls(den, diags)

    def __iter__(self):
        return (cells for _, cells in self.diags)

    def nonzeros(self):
        """(j, k, re, im) of every nonzero entry, row by row and by column within a row."""
        entries = []
        for d, cells in self.diags:
            entries += [(j, j - d, re, im) for j, (re, im) in enumerate(cells, max(d, 0)) if re or im]
        yield from sorted(entries)


def _accumulator(m: int) -> defaultdict:
    """Diagonal -> its m + 1 cells [re, im] of ints; the cells past its end stay zero, for ``Kernel`` to strip."""
    return defaultdict(lambda: [[0, 0] for _ in range(m + 1)])


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """An exact operator on the level-m section space: its ``Kernel``, the matrix in
    the unnormalized monomial basis.  ``entries``, the read-only float matrix in the
    orthonormal basis (conjugate to the kernel by the diagonal of basis norms), is
    built from the kernel on first read, so equal kernels give bit-equal floats and
    an operator that is only decided exactly never fills a dense matrix.
    """

    m: int
    kernel: Kernel

    @cached_property
    def entries(self) -> np.ndarray:
        """The float entry at (j, k) is (re/den + i im/den) * scale[j]/scale[k] with
        scale[j] = sqrt(basis_norm_sq(m, j)); each re/den is an int/int true division
        and so correctly rounded.  Each diagonal goes into the dense matrix in one scatter.
        """
        m, den = self.m, self.kernel.den
        scale = np.sqrt([1 / ((m + 1) * c) for c in _binomial_row(m)])
        if not scale.all():  # 1/((m+1) C(m, j)) underflows to 0.0 from m = 1071
            raise ZeroDivisionError(f"a basis norm underflows to 0.0 at level {m}")
        entries = np.zeros((m + 1, m + 1), dtype=complex)
        for d, cells in self.kernel.diags:
            j = np.arange(len(cells)) + max(d, 0)  # cell i is the entry (j[i], j[i] - d)
            parts = np.fromiter(chain.from_iterable(cells), dtype=object, count=2 * len(cells)) / den  # int / int
            re, im = parts.astype(float).reshape(-1, 2).T
            ratio = scale[j] / scale[j - d]
            entries.real[j, j - d] = re * ratio
            entries.imag[j, j - d] = im * ratio
        entries.flags.writeable = False
        return entries


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
    acc = _accumulator(m)  # over den
    off = []  # the b > r terms: (d, i, re, im, q), adding (re + i im) / (den * q) at cell i of diagonal d
    for c_den, nums, r, by_k in families:
        x, base = m + r, den // (perm(m + r + 1, r) * c_den)
        for (a, b), (c_re, c_im) in nums.items():
            d, lo, hi = a - b, max(0, b - a), min(m, m + b - a)
            if lo <= hi and a + hi > x:
                raise ValueError(f"non-integrable pairing: s={max(a + lo, x + 1)} exceeds m+R={x}")
            c_re, c_im = c_re * base, c_im * base
            cells = acc[d]
            for k in range(max(lo, 1) if by_k else lo, hi + 1):
                j = k + d
                n = perm(j + b, b) * (k if by_k else 1)
                if b > r:
                    off.append((d, k - lo, c_re * n, c_im * n, perm(m - j, b - r)))
                    continue
                n *= perm(m - j + r - b, r - b)
                cells[k - lo][0] += c_re * n
                cells[k - lo][1] += c_im * n
    if off:
        s = lcm(*(q for *_, q in off))
        den, acc = den * s, {d: [[re * s, im * s] for re, im in cells] for d, cells in acc.items()}
        for d, i, re, im, q in off:
            acc[d][i][0] += re * (s // q)
            acc[d][i][1] += im * (s // q)
    return Kernel(den, acc)


def toeplitz_exact(f: CanonicalSymbol, m: int) -> OperatorMatrix:
    """The Toeplitz operator of f at level m: compress multiplication by f
    onto holomorphic sections.  Exact rational assembly."""
    if m < 0:
        raise ValueError("level m must be >= 0")
    return OperatorMatrix(m, _banded_kernel(m, [(f.den, f.nums, f.denom_exp, False)]))


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
    return OperatorMatrix(m, _banded_kernel(m, families))


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


def toeplitz_quadrature(fn, m: int, n_radial: int, n_angular: int) -> np.ndarray:
    """The Toeplitz matrix, in the orthonormal basis, of a black-box point evaluator
    fn(z) -> complex; it has no exact kernel.

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
    return entries


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
    """Largest singular value; exactly 0.0, with no SVD, for a zero matrix, and with no
    float matrix either for an operator whose kernel is empty."""
    if isinstance(x, OperatorMatrix) and not x.kernel.diags:
        return 0.0
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
    """Hermitian adjoint.  An operator's adjoint is exact, and its floats come from its
    kernel alone, as for any other operator; an array is conjugate-transposed."""
    if isinstance(x, OperatorMatrix):
        # entry (k, j) is conj(entry (j, k)) * C(m, k) / C(m, j), over den times the lcm of the row binomials,
        # so cell i of diagonal d goes to cell i of diagonal -d
        c, diags = _binomial_row(x.m), x.kernel.diags
        rows = lcm(*{c[i + max(d, 0)] for d, cells in diags for i in range(len(cells))})
        star = {}
        for d, cells in diags:
            scales = [c[i + max(-d, 0)] * (rows // c[i + max(d, 0)]) for i in range(len(cells))]
            star[-d] = [(re * s, -im * s) for (re, im), s in zip(cells, scales)]
        return OperatorMatrix(x.m, Kernel(x.kernel.den * rows, star))
    return _as_array(x).conj().T


# -- exact kernel arithmetic -------------------------------------------------


def _level(*mats: OperatorMatrix) -> int:
    m = mats[0].m
    if any(mat.m != m for mat in mats):
        raise ShapeMismatch("levels differ")
    return m


def compose_exact(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB as a convolution of diagonals: diagonals da of A and db of B fill diagonal da + db."""
    m, acc = _level(a, b), _accumulator(a.m)
    for da, ca in a.kernel.diags:
        for db, cb in b.kernel.diags:
            # (l + da, l) is cell l - oa of ca, (l, l - db) cell l - ob of cb, (l + da, l - db) cell l + oc of da + db
            oa, ob, oc = max(-da, 0), max(db, 0), min(da, -db)
            lo, hi = max(oa, ob), min(len(ca) + oa, len(cb) + ob)
            cells = zip(acc[da + db][lo + oc : hi + oc], ca[lo - oa : hi - oa], cb[lo - ob : hi - ob])
            for cell, (a_re, a_im), (b_re, b_im) in cells:
                cell[0] += a_re * b_re - a_im * b_im
                cell[1] += a_re * b_im + a_im * b_re
    return OperatorMatrix(m, Kernel(a.kernel.den * b.kernel.den, acc))


def lincomb_exact(terms: list[tuple[QC | Rational, OperatorMatrix]]) -> OperatorMatrix:
    m = _level(*[mat for _, mat in terms])
    parts = []  # (denominator of coeff * kernel, coefficient numerator, kernel diagonals)
    for coeff, mat in terms:
        c_den, c = over_common_den({None: QC.coerce(coeff)})
        parts.append((c_den * mat.kernel.den, c[None], mat.kernel.diags))
    den = lcm(*(d for d, _, _ in parts))
    acc = _accumulator(m)
    for scale, (c_re, c_im), diags in parts:
        c_re, c_im = c_re * (den // scale), c_im * (den // scale)
        for d, cells in diags:
            for cell, (re, im) in zip(acc[d], cells):
                cell[0] += c_re * re - c_im * im
                cell[1] += c_re * im + c_im * re
    return OperatorMatrix(m, Kernel(den, acc))


def trace_exact(a: OperatorMatrix) -> QC:
    diag = dict(a.kernel.diags).get(0, ())
    return QC.of_ints(sum(re for re, _ in diag), sum(im for _, im in diag), a.kernel.den)


def equal_exact(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    _level(a, b)
    return a.kernel == b.kernel


def identity_exact(m: int) -> OperatorMatrix:
    return OperatorMatrix(m, Kernel(1, {0: [(1, 0)] * (m + 1)}))
