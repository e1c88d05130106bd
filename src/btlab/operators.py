"""Exact operator assembly on the level-m section spaces, and its float linear algebra.

An operator is its exact kernel: ``OperatorMatrix(m, kernel)`` holds the
operator in the *unnormalized* monomial basis, where every entry is a
rational combination of Beta integrals, so identities are checked with no
tolerance at all.  Its float matrix in the orthonormal monomial basis
z^j/||z^j|| is taken from the kernel on first read and kept.

For a numerator monomial z^a zbar^b over (1+t)^R paired between z^j and
z^k, the angular integral enforces j = a + k - b and the radial integral is
B(s+1, m+R+1-s) with s = a + k.  By that U(1) selection rule a symbol of
exponent R fills at most 2R+1 diagonals j - k = a - b, and a ``Kernel`` is
stored that way: per diagonal, the (re, im) int pairs of its entries over one
positive ``den``, in lowest terms, so equal operators have equal kernels.
Assembly is banded and in closed form, with no symbolic product: each
monomial z^a zbar^b fills its one diagonal, where an entry is
(j+1)...(j+b) (m-j+1)...(m-j+R-b), a product of R small integers, over the
one level denominator (m+2)...(m+R+1).  Along a diagonal the entries of
T_f and Q_f are a polynomial of degree at most R in the cell index, so each
term is evaluated on the first cells of its diagonal only and the diagonal
is extended from its Newton column: the first entry of each row of the
forward-difference table, at most R + 1 ints per part.  ``newton_column``
and ``newton_cells`` go between a part's cells and its column, exactly for
any cells; the disk cache stores kernels that way.  The exact operations
work diagonal by diagonal on ints (a composition convolves diagonals, the
adjoint sends d to -d, the trace sums diagonal 0), and the float entries
are taken from the cells with one int/int division per part.
Assembly needs b <= R, as in every smooth symbol and every family of
Q_f, and rejects a chart rational with a term b > R, which is not smooth
at infinity.

The float linear algebra lives here.  It takes operators, except that
``operator_norm`` also takes a float array, such as a defect of float
products.  Some of it takes a band route that gives the bits of the dense
LAPACK or BLAS call, so no caller needs to know.
A real diagonal operator (``height``) has its norm max |a_jj| and its sorted
diagonal as spectrum, with no dense matrix: zgesdd's and zhetrd's
Householder steps are identities on it, and dlasq1 and dsterf then take
absolute values and sort.  A product with it scales rows or columns, since
each zgemm sum has one nonzero term; every product, by either way, then
makes its exact zeros +0.0, whose sign the zgemm leaves to its kernel.  A
spectrum is taken only of an operator whose exact adjoint is itself,
``adjoint(x).kernel == x.kernel``.  A tridiagonal operator (``bump``) whose
off-diagonal entries of (A + A*)/2 are each real or imaginary has its
spectrum from the real eigensolver: zhetrd's steps on it are exact, and
zheevd and dsyevd both end in dsterf.  The norm and spectrum routes apply
only where LAPACK does not scale its input first; every other SVD,
eigensolve and product calls LAPACK or BLAS.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm, perm

import numpy as np

from .errors import ShapeMismatch
from .exact import QC, Rational, over_common_den
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

    def __iter__(self):
        return (cells for _, cells in self.diags)


def newton_column(values) -> list[int]:
    """The Newton column of a sequence of ints: the first entry of each row of its forward-difference table, with
    no trailing zero.  The values of a polynomial of degree p in the index have at most p + 1 entries."""
    column, row = [], list(values)
    while any(row):
        column.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return column


def newton_cells(column, n: int) -> list[int]:
    """The first n >= 1 values whose Newton column is ``column``: each row of the difference table, from the last,
    constant one up, is the prefix sums of the row below it, started at that row's entry of the column."""
    row = [column[-1] if column else 0] * n
    for c in reversed(column[:-1]):
        row = list(accumulate(row[:-1], initial=c))
    return row


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
        scale[j] = sqrt(1/((m+1) C(m, j))), the basis norm ||z^j|| over sqrt(2 pi);
        each re/den is an int/int true division and so correctly rounded.  Each
        diagonal goes into the dense matrix in one scatter.
        """
        m, den = self.m, self.kernel.den
        scale = np.sqrt([1 / ((m + 1) * c) for c in _binomial_row(m)])
        if not scale.all():  # 1/((m+1) C(m, j)) underflows to 0.0 from m = 1071
            raise ZeroDivisionError(f"a basis norm underflows to 0.0 at level {m}")
        entries = np.zeros((m + 1, m + 1), dtype=complex)
        for d, cells in self.kernel.diags:
            j = np.arange(len(cells)) + max(d, 0)  # cell i is the entry (j[i], j[i] - d)
            re, im = _cell_floats(cells, den)
            ratio = scale[j] / scale[j - d]
            entries.real[j, j - d] = re * ratio
            entries.imag[j, j - d] = im * ratio
        entries.flags.writeable = False
        return entries

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The float diagonal, complex, read-only: entry (j, j) of ``entries``, whose ratio
        scale[j]/scale[j] is 1.0, so it is re/den + i im/den and needs no basis norm and no
        dense matrix.  Its sum pairs the terms as ``np.trace(entries)`` does."""
        diagonal = np.zeros(self.m + 1, dtype=complex)
        cells = dict(self.kernel.diags).get(0, ())
        diagonal.real[: len(cells)], diagonal.imag[: len(cells)] = _cell_floats(cells, self.kernel.den)
        diagonal.flags.writeable = False
        return diagonal


def _cell_floats(cells, den: int) -> tuple[np.ndarray, np.ndarray]:
    """re/den and im/den of each cell, each an int/int true division and so correctly rounded."""
    parts = np.fromiter(chain.from_iterable(cells), dtype=object, count=2 * len(cells)) / den
    return parts.astype(float).reshape(-1, 2).T


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n) by the multiplicative recurrence."""
    return list(accumulate(range(n), lambda c, i: c * (n - i) // (i + 1), initial=1))


def _banded_kernel(m: int, families) -> Kernel:
    """The exact kernel <z^j, g_k> / (2*pi ||z^j||^2) of columns g_k summed from
    ``families`` (den, nums, r, by_k): each term (a, b) -> (re, im) adds
    (re + i im)/den z^(a+k) zbar^b / (1+t)^r, times k if ``by_k``, on the diagonal
    j = a + k - b only.

    Its Beta-integral value is c (m+1) C(m,j) / ((x+1) C(x,s)) with x = m + r and
    s = a + k = j + b, which is c (j+1)...(j+b) (m-j+1)...(m-j+r-b) / D_r with
    D_r = (m+2)...(m+r+1): r small integers over D_r, a polynomial of degree r in k,
    or r + 1 if ``by_k``.  So each term is evaluated on the first cells of its
    diagonal only, as many as fix a polynomial of the families' highest degree, and
    each diagonal is extended from the Newton column of their sum, over one
    denominator, the lcm of every family's D_r times its den.  That needs b <= r,
    which holds for every canonical symbol and every family of Q_f; a term with
    b > r, which only a chart rational that is not smooth at infinity has, raises.
    """
    den = lcm(*(perm(m + r + 1, r) * c_den for c_den, _, r, _ in families))
    p = 1 + max(r + by_k for _, _, r, by_k in families)  # the cells that fix a polynomial of each family's degree
    heads = _accumulator(p - 1)  # diagonal -> its first p cells, over den
    for c_den, nums, r, by_k in families:
        base = den // (perm(m + r + 1, r) * c_den)
        for (a, b), (c_re, c_im) in nums.items():
            if b > r:
                raise ValueError(f"term z^{a} zbar^{b} over (1+t)^{r} is not smooth at infinity")
            d, lo, hi = a - b, max(0, b - a), min(m, m + b - a)
            if lo > hi:
                continue
            c_re, c_im, cells = c_re * base, c_im * base, heads[d]
            for k in range(lo, min(hi, lo + p - 1) + 1):
                j = k + d
                n = perm(j + b, b) * perm(m - j + r - b, r - b) * (k if by_k else 1)
                cells[k - lo][0] += c_re * n
                cells[k - lo][1] += c_im * n
    diags = {}
    for d, head in heads.items():
        n = m + 1 - abs(d)
        diags[d] = list(zip(*(newton_cells(newton_column(part), n) for part in zip(*head[:n]))))
    return Kernel(den, diags)


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


# -- matrix analysis --------------------------------------------------------


# zgesdd, and so numpy's 2-norm, scales a matrix whose largest entry |a| is not in [sqrt(safe min)/eps, its
# reciprocal] = [2^-459, 2^459] before it starts, which moves the last bits; zheevd's range is wider.  A band route
# that stands for one of them is taken only inside this range.
_UNSCALED = (2.0**-459, 2.0**459)


def _unscaled(values: np.ndarray) -> bool:
    top = float(np.max(np.abs(values), initial=0.0))
    return top == 0.0 or _UNSCALED[0] <= top <= _UNSCALED[1]


def _real_diagonal(x: OperatorMatrix) -> np.ndarray | None:
    """The float diagonal of an operator whose kernel lies on diagonal 0 alone with every imaginary part exactly 0
    (``height``, or any real U(1)-invariant symbol), else None.  The ints decide: an imaginary part below the float
    range reads as 0.0 in the diagonal floats."""
    if all(d == 0 and not any(im for _, im in cells) for d, cells in x.kernel.diags):
        return x.diagonal.real
    return None


def _tridiagonal(x: OperatorMatrix) -> bool:
    """Whether x's kernel lies on diagonals -1, 0 and 1, as ``bump``'s does."""
    return all(abs(d) <= 1 for d, _ in x.kernel.diags)


def operator_norm(x) -> float:
    """Largest singular value of an operator or of a float array, such as a defect of float products; exactly
    0.0, with no SVD, for a zero matrix.  A real diagonal operator, or an empty kernel, gives max |a_jj| with no
    SVD and no dense matrix, except at m = 1, where zgesdd's 2 x 2 step can move the last bit."""
    if isinstance(x, OperatorMatrix):
        d = _real_diagonal(x)
        if d is not None and x.m != 1 and _unscaled(d):
            return float(np.max(np.abs(d)))
        x = x.entries
    arr = np.asarray(x, dtype=complex)
    return float(np.linalg.norm(arr, 2)) if arr.any() else 0.0


def hermitian_eigenvalues(x: OperatorMatrix) -> np.ndarray:
    """Eigenvalues of a self-adjoint operator, ascending; an operator whose exact adjoint is not itself raises.

    A real diagonal operator gives its sorted diagonal, as it is self-adjoint by construction.  A tridiagonal
    operator goes to the real eigensolver when each subdiagonal entry of (A + A*)/2 is real or imaginary: dsterf
    reads that entry only squared or in absolute value.
    """
    d = _real_diagonal(x)
    if d is not None and _unscaled(d):
        return np.sort(d)
    if adjoint(x).kernel != x.kernel:
        raise ValueError("matrix is not Hermitian")
    arr = x.entries
    if _tridiagonal(x):
        diag = np.diagonal(arr).real
        sub = (np.diagonal(arr, -1) + np.diagonal(arr, 1).conj()) / 2.0  # the lower triangle of (A + A*)/2
        if ((sub.real == 0) | (sub.imag == 0)).all() and _unscaled(np.concatenate([diag, sub])):
            real, i = np.diag(diag), np.arange(len(sub))
            real[i + 1, i] = real[i, i + 1] = sub.real + sub.imag
            return np.linalg.eigvalsh(real)
    return np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)


def matmul(x: OperatorMatrix, y: OperatorMatrix) -> np.ndarray:
    """The float product xy of two operators of one level, with +0.0 for each exact zero.

    A real diagonal factor scales the other operator's rows or columns, with no dense matrix of its own.  The zgemm
    leaves the sign of an exact zero to its kernel, and that sign can move the last bit of a later SVD, so both
    ways end by adding +0.0, which turns -0.0 into +0.0 and leaves every other entry as it is."""
    _level(x, y)
    d, e = _real_diagonal(x), _real_diagonal(y)
    if d is not None and e is not None:
        product = np.diag((d * e).astype(complex))
    elif d is not None:
        product = d[:, None] * y.entries
    elif e is not None:
        product = x.entries * e
    else:
        product = x.entries @ y.entries
    product += 0.0
    return product


def commutator(x: OperatorMatrix, y: OperatorMatrix) -> np.ndarray:
    """The float commutator xy - yx of two operators of one level."""
    return matmul(x, y) - matmul(y, x)


def adjoint(x: OperatorMatrix) -> OperatorMatrix:
    """Hermitian adjoint, exactly; its floats come from its kernel alone, as for any other operator."""
    # entry (k, j) is conj(entry (j, k)) * C(m, k) / C(m, j), over den times the lcm of the row binomials,
    # so cell i of diagonal d goes to cell i of diagonal -d
    c, diags = _binomial_row(x.m), x.kernel.diags
    rows = lcm(*{c[i + max(d, 0)] for d, cells in diags for i in range(len(cells))})
    star = {}
    for d, cells in diags:
        scales = [c[i + max(-d, 0)] * (rows // c[i + max(d, 0)]) for i in range(len(cells))]
        star[-d] = [(re * s, -im * s) for (re, im), s in zip(cells, scales)]
    return OperatorMatrix(x.m, Kernel(x.kernel.den * rows, star))


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
