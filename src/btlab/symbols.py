"""Exact function algebra on the projective line.

Functions are represented in the affine chart z as

    f(z, zbar) = N(z, zbar) / (1 + z*zbar)^R

with a sparse bivariate numerator over Q[i].  A representative extends
smoothly through the second chart w = 1/z exactly when, after cancelling
all common (1 + z*zbar) factors, deg_z N <= R and deg_zbar N <= R; those
reduced representatives form ``CanonicalSymbol``, a subalgebra closed under
products, conjugation, Wirtinger derivatives, the Poisson bracket and the
Laplacian.  Constructing a ``CanonicalSymbol`` performs the cancellation, so
every smooth function has exactly one canonical form and ``==`` on symbols
is equality of functions.

The numerator is held on Gaussian integers over one denominator: ``den``, a
positive int, and ``nums``, a map (a, b) -> (re, im) of int pairs, with
N = sum (re + i im)/den z^a zbar^b, in lowest terms (the gcd of ``den`` and
every numerator part is 1) and with no zero coefficient, so the pair is
unique.  Products, sums, scaling, conjugation, Wirtinger derivatives, the
(1+z*zbar) division and the realness test multiply and add Python ints
only.  ``terms``, the map (a, b) -> QC, is derived from the pair on each
access, with one ``Fraction`` per nonzero part, in the order of ``nums``:
floats summed over a symbol's terms (``eval_sphere_grid``, so
``sup_norm``) follow that order.

Geometric conventions (fixed once as HAMILTONIAN_PHASE and LAPLACE_COEFF,
which every run records in its report; the test suite pins the phase with
a finite-difference oracle and the Laplacian coefficient with Tuynman's
identity Q_f = i T_{f - Delta f/(2m)}):

    omega  = i (1+z*zbar)^{-2} dz ^ dzbar        (Kaehler = symplectic form)
    X_f    : omega(X_f, .) = df,  X_f^z = -i (1+z*zbar)^2 df/dzbar
    {f, g} = omega(X_f, X_g)
    Delta  = 2 (1+z*zbar)^2 d^2/(dz dzbar)
    Omega  = omega (Liouville form),  vol = 2*pi
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .errors import NotSmoothAtInfinity
from .exact import QC, QC_I, Rational, beta_int, over_common_den

# Frozen calibration constants.  HAMILTONIAN_PHASE is the factor sigma in
# X_f^z = sigma * (1+z zbar)^2 df/dzbar; LAPLACE_COEFF the c in
# Delta = c (1+z zbar)^2 d^2/dzdzbar.  Both are pinned by oracles of the
# test suite, and the tuynman check fails on the demo symbols with
# sigma = +i, c = 1 or c = 4.
HAMILTONIAN_PHASE = QC(0, -1)
LAPLACE_COEFF = Fraction(2)

Terms = dict[tuple[int, int], QC]
Nums = dict[tuple[int, int], tuple[int, int]]


def _add(d1: int, n1: Nums, d2: int, n2: Nums) -> tuple[int, Nums]:
    """n1/d1 + n2/d2 over lcm(d1, d2); a key whose sum is zero is dropped."""
    den = lcm(d1, d2)
    s1, s2 = den // d1, den // d2
    out = {key: (re * s1, im * s1) for key, (re, im) in n1.items()}
    for key, (re, im) in n2.items():
        re0, im0 = out.get(key, (0, 0))
        re0, im0 = re0 + re * s2, im0 + im * s2
        if re0 or im0:
            out[key] = (re0, im0)
        else:
            out.pop(key, None)
    return den, out


def _mul(d1: int, n1: Nums, d2: int, n2: Nums) -> tuple[int, Nums]:
    """n1/d1 * n2/d2 over d1*d2.  A key whose partial sum hits zero is dropped and,
    if a later product revives it, inserted again at the end."""
    out: Nums = {}
    for (a1, b1), (r1, i1) in n1.items():
        for (a2, b2), (r2, i2) in n2.items():
            key = (a1 + a2, b1 + b2)
            re, im = out.get(key, (0, 0))
            re, im = re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2
            if re or im:
                out[key] = (re, im)
            else:
                out.pop(key, None)
    return d1 * d2, out


def _one_plus_t_pow(k: int) -> tuple[int, Nums]:
    """(1 + z*zbar)^k as a numerator polynomial."""
    return 1, {(i, i): (comb(k, i), 0) for i in range(k + 1)}


def _divide_one_plus_t(nums: Nums) -> Nums | None:
    """Exact quotient nums/(1+z*zbar) over the same denominator, or None if not divisible.

    Synthetic division up each diagonal a - b = d, gaps included: with n_i
    the coefficient of the monomial with min(a, b) = i, q_i = n_i - q_{i-1}
    from i = 0 to the top of the diagonal, and the division is exact iff
    the top step leaves q = 0.  The quotient comes back in sorted key
    order, so the float sums over a reduced symbol's terms
    (``eval_sphere_grid``, ``sup_norm``) do not depend on the order of the
    input.
    """
    tops: dict[int, int] = {}
    for a, b in nums:
        tops[a - b] = max(tops.get(a - b, 0), min(a, b))
    quot: Nums = {}
    for d, top in tops.items():
        a0, b0 = max(d, 0), max(-d, 0)
        q_re = q_im = 0
        for i in range(top + 1):
            n_re, n_im = nums.get((a0 + i, b0 + i), (0, 0))
            q_re, q_im = n_re - q_re, n_im - q_im
            if (q_re or q_im) and i < top:
                quot[(a0 + i, b0 + i)] = (q_re, q_im)
        if q_re or q_im:
            return None
    return dict(sorted(quot.items()))


class ChartRational:
    """N(z, zbar)/(1 + z*zbar)^R without the smooth-at-infinity invariant,
    with N = nums/den on Gaussian integers (see the module docstring)."""

    __slots__ = ("den", "nums", "denom_exp")

    def __init__(self, terms: Terms, denom_exp: int = 0):
        coeffs: Terms = {}
        for (a, b), c in terms.items():
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in term ({a}, {b})")
            c = QC.coerce(c)
            if c:
                coeffs[(a, b)] = c
        self._set(*over_common_den(coeffs), denom_exp)

    @classmethod
    def _of(cls, den: int, nums: Nums, denom_exp: int):
        """The value nums/den over (1+t)^denom_exp; ``nums`` holds no zero."""
        out = object.__new__(cls)
        out._set(den, nums, denom_exp)
        return out

    def _set(self, den: int, nums: Nums, denom_exp: int) -> None:
        if denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        g = gcd(den, *(p for v in nums.values() for p in v))
        if g > 1:
            den, nums = den // g, {key: (re // g, im // g) for key, (re, im) in nums.items()}
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "denom_exp", denom_exp)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):  # restored slot by slot: a pickled value is in its one form already, so nothing is reduced
        return object.__new__, (type(self),), (self.den, self.nums, self.denom_exp)

    def __setstate__(self, state):
        for name, value in zip(ChartRational.__slots__, state):
            object.__setattr__(self, name, value)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Terms:
        """The numerator as (a, b) -> QC, one ``Fraction`` per nonzero part, in the order of ``nums``."""
        den = self.den
        return {key: QC.of_ints(re, im, den) for key, (re, im) in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def deg_z(self) -> int:
        return max((a for a, _ in self.nums), default=-1)

    def deg_zbar(self) -> int:
        return max((b for _, b in self.nums), default=-1)

    def _key(self):
        return (self.denom_exp if self.nums else 0, self.den, tuple(sorted(self.nums.items())))

    def __eq__(self, other):
        if not isinstance(other, ChartRational):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.is_zero:
            return f"{type(self).__name__}(0)"
        parts = "+".join(f"[{a},{b}]{c!r}" for (a, b), c in sorted(self.terms.items()))
        return f"{type(self).__name__}({parts} / (1+t)^{self.denom_exp})"

    # -- algebra -----------------------------------------------------------

    def _raised(self, r: int) -> tuple[int, Nums]:
        """(den, nums) of the numerator over (1+t)^r, r >= R."""
        if r == self.denom_exp:
            return self.den, self.nums
        return _mul(self.den, self.nums, *_one_plus_t_pow(r - self.denom_exp))

    def __add__(self, other):
        if not isinstance(other, ChartRational):
            return NotImplemented
        r = max(self.denom_exp, other.denom_exp)
        cls = type(self) if type(other) is type(self) else ChartRational
        return cls._of(*_add(*self._raised(r), *other._raised(r)), r)

    def __sub__(self, other):
        if not isinstance(other, ChartRational):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, ChartRational):
            return NotImplemented
        cls = type(self) if type(other) is type(self) else ChartRational
        return cls._of(*_mul(self.den, self.nums, other.den, other.nums), self.denom_exp + other.denom_exp)

    def scale(self, c: QC | Rational) -> "ChartRational":
        return type(self)._of(*_mul(self.den, self.nums, *over_common_den({(0, 0): QC.coerce(c)})), self.denom_exp)

    def conjugate(self) -> "ChartRational":
        return type(self)._of(self.den, {(b, a): (re, -im) for (a, b), (re, im) in self.nums.items()}, self.denom_exp)

    def shifted(self, k: int) -> "ChartRational":
        """The function times (1 + z*zbar)^k, for any integer k."""
        if k > self.denom_exp:
            return ChartRational._of(*self._raised(k), 0)
        return ChartRational._of(self.den, self.nums, self.denom_exp - k)

    # -- evaluation --------------------------------------------------------

    def eval_sphere_grid(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Values on the (cos-polar, azimuth) grid u x phi, poles included.

        Uses t/(1+t) = (1-u)/2 and 1/(1+t) = (1+u)/2, which keeps every
        term bounded all the way to u = -1 (the point at infinity).
        """
        den, r = self.den, self.denom_exp
        lo = (1.0 - u[:, None]) / 2.0
        hi = (1.0 + u[:, None]) / 2.0
        out = np.zeros((u.size, phi.size), dtype=complex)
        for (a, b), (re, im) in self.nums.items():
            radial = lo ** ((a + b) / 2.0) * hi ** (r - (a + b) / 2.0)
            out += complex(re / den, im / den) * radial * np.exp(1j * (a - b) * phi[None, :])
        return out


class CanonicalSymbol(ChartRational):
    """A chart-rational function that is smooth on all of P^1, in its one
    canonical form: constructing one cancels every (1+z*zbar) factor of the
    numerator, then certifies smoothness at infinity, so two symbols are
    equal as functions iff they compare ``==``."""

    __slots__ = ()

    def _set(self, den: int, nums: Nums, denom_exp: int) -> None:
        super()._set(den, nums, denom_exp)
        nums, r = self.nums, (self.denom_exp if self.nums else 0)
        while r > 0 and (quot := _divide_one_plus_t(nums)) is not None:
            nums, r = quot, r - 1
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "denom_exp", r)
        if self.deg_z() > r or self.deg_zbar() > r:
            raise NotSmoothAtInfinity(
                f"numerator degrees ({self.deg_z()}, {self.deg_zbar()}) exceed denominator exponent {r}"
            )

    @property
    def is_real(self) -> bool:
        nums = self.nums
        return all(nums.get((b, a)) == (re, -im) for (a, b), (re, im) in nums.items())

    @property
    def is_constant(self) -> bool:
        return self.denom_exp == 0 and set(self.nums) <= {(0, 0)}


def symbol(terms: Terms, denom_exp: int = 0) -> CanonicalSymbol:
    """Reduce a raw (terms, R) pair into a canonical symbol."""
    return CanonicalSymbol(terms, denom_exp)


def constant(c: QC | Rational) -> CanonicalSymbol:
    return CanonicalSymbol({(0, 0): QC.coerce(c)}, 0)


def sphere_height() -> CanonicalSymbol:
    """|z|^2/(1+|z|^2): the height function (1 - cos theta)/2, range [0, 1]."""
    return CanonicalSymbol({(1, 1): QC(1)}, 1)


def sphere_coord_x() -> CanonicalSymbol:
    """Re(z)/(1+|z|^2): half the x-coordinate of the embedded sphere."""
    return CanonicalSymbol({(1, 0): QC(Fraction(1, 2)), (0, 1): QC(Fraction(1, 2))}, 1)


def reduce(raw: ChartRational) -> CanonicalSymbol:
    """Cancel all (1+z*zbar) factors and certify smoothness at infinity."""
    return CanonicalSymbol._of(raw.den, raw.nums, raw.denom_exp)


def wirtinger(f: ChartRational, which: str = "dz") -> ChartRational:
    """Chart derivative d/dz or d/dzbar of N/(1+z*zbar)^R, exact.

    dz:    (N_z (1+t) - R zbar N) / (1+t)^{R+1}
    dzbar: (N_zbar (1+t) - R z N) / (1+t)^{R+1}
    """
    if which not in ("dz", "dzbar"):
        raise ValueError(f"which must be 'dz' or 'dzbar', got {which!r}")
    r, nums = f.denom_exp, f.nums
    if which == "dz":
        n_prime = {(a - 1, b): (re * a, im * a) for (a, b), (re, im) in nums.items() if a > 0}
        swing = {(a, b + 1): (-r * re, -r * im) for (a, b), (re, im) in nums.items()} if r else {}
    else:
        n_prime = {(a, b - 1): (re * b, im * b) for (a, b), (re, im) in nums.items() if b > 0}
        swing = {(a + 1, b): (-r * re, -r * im) for (a, b), (re, im) in nums.items()} if r else {}
    return ChartRational._of(*_add(*_mul(f.den, n_prime, *_one_plus_t_pow(1)), f.den, swing), r + 1)


@dataclass(frozen=True)
class VectorFieldChart:
    """A real vector field X^z d/dz + X^zbar d/dzbar in chart components."""

    comp_z: ChartRational
    comp_zbar: ChartRational


def hamiltonian_field(f: CanonicalSymbol) -> VectorFieldChart:
    """The field X_f solving omega(X_f, .) = df, for a real symbol f."""
    if not f.is_real:
        raise ValueError("hamiltonian_field requires a real symbol")
    comp_z = wirtinger(f, "dzbar").scale(HAMILTONIAN_PHASE).shifted(2)
    comp_zbar = wirtinger(f, "dz").scale(-HAMILTONIAN_PHASE).shifted(2)
    return VectorFieldChart(comp_z, comp_zbar)


def omega_contract(x: VectorFieldChart, y: VectorFieldChart) -> ChartRational:
    """omega(X, Y) = i (1+t)^{-2} (X^z Y^zbar - X^zbar Y^z), exact."""
    raw = x.comp_z * y.comp_zbar - x.comp_zbar * y.comp_z
    return raw.scale(QC_I).shifted(-2)


def poisson_bracket(f: CanonicalSymbol, g: CanonicalSymbol) -> CanonicalSymbol:
    """{f, g} = omega(X_f, X_g), exact and antisymmetric."""
    return reduce(omega_contract(hamiltonian_field(f), hamiltonian_field(g)))


def laplacian(f: CanonicalSymbol) -> CanonicalSymbol:
    """Laplace-Beltrami operator of the round metric: 2 (1+t)^2 d2f/dzdzbar."""
    return reduce(wirtinger(wirtinger(f, "dz"), "dzbar").scale(LAPLACE_COEFF).shifted(2))


def average(f: CanonicalSymbol) -> QC:
    """(1/vol) * integral of f against the Liouville form, exactly.

    Only the diagonal numerator monomials survive the angular integral;
    each contributes a Beta integral:  avg = sum_a n_aa B(a+1, R+1-a).
    """
    r = f.denom_exp
    total = QC(0)
    for (a, b), c in f.terms.items():
        if a == b:
            total = total + c * beta_int(a + 1, r + 1 - a)
    return total


def sup_norm(f: CanonicalSymbol) -> float:
    """Certified lower bound for the sup of |f| over the sphere.

    Scans a uniform (cos theta, phi) grid of 256^2 cells (poles included)
    and refines twice around the arg-max cell; the returned grid maximum is
    always a true lower bound for the supremum.  For smooth maxima two
    refinement passes converge to ~1e-9 relative.
    """
    if not f.is_real:
        raise ValueError("sup_norm requires a real symbol")
    u = np.linspace(-1.0, 1.0, 257)
    phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    best = 0.0
    for _ in range(3):
        vals = np.abs(f.eval_sphere_grid(u, phi))
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = max(best, float(vals[i, j]))
        u_lo, u_hi = u[max(i - 1, 0)], u[min(i + 1, u.size - 1)]
        phi_step = phi[1] - phi[0] if phi.size > 1 else 2.0 * np.pi
        u = np.linspace(u_lo, u_hi, 33)
        phi = np.linspace(phi[j] - phi_step, phi[j] + phi_step, 33)
    return best


def random_real_symbol(seed: int, max_r: int = 2) -> CanonicalSymbol:
    """Deterministic pseudo-random real symbol with denominator exponent <= max_r."""
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    rng = random.Random(seed)
    while True:
        r = rng.randint(1, max_r)
        terms: Terms = {}
        for a in range(r + 1):
            terms[(a, a)] = QC(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            for b in range(a + 1, r + 1):
                c = QC(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                       Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                terms[(a, b)] = c
                terms[(b, a)] = c.conjugate()
        out = symbol(terms, r)
        if not out.is_constant:
            return out
