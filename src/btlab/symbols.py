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

Geometric conventions (fixed once, verified by the finite-difference
calibration oracle in :func:`calibrate_hamiltonian_phase`):

    omega  = i (1+z*zbar)^{-2} dz ^ dzbar        (Kaehler = symplectic form)
    X_f    : omega(X_f, .) = df,  X_f^z = -i (1+z*zbar)^2 df/dzbar
    {f, g} = omega(X_f, X_g)
    Delta  = 2 (1+z*zbar)^2 d^2/(dz dzbar)
    Omega  = omega (Liouville form),  vol = 2*pi
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import NotSmoothAtInfinity
from .exact import QC, QC_I, Rational, beta_int

# Frozen calibration constants.  HAMILTONIAN_PHASE is the factor sigma in
# X_f^z = sigma * (1+z zbar)^2 df/dzbar; LAPLACE_COEFF the c in
# Delta = c (1+z zbar)^2 d^2/dzdzbar.  Both are pinned by oracles, see
# calibrate_hamiltonian_phase / the quantization test suite.
HAMILTONIAN_PHASE = QC(0, -1)
LAPLACE_COEFF = Fraction(2)

INF = complex(float("inf"), 0.0)

Terms = dict[tuple[int, int], QC]


def _clean(terms: Terms) -> Terms:
    out: Terms = {}
    for (a, b), c in terms.items():
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in term ({a}, {b})")
        c = QC.coerce(c)
        if c:
            out[(a, b)] = c
    return out


def _poly_add(t1: Terms, t2: Terms) -> Terms:
    out = dict(t1)
    for key, c in t2.items():
        s = out.get(key, QC(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _poly_scale(c: QC, t: Terms) -> Terms:
    if not c:
        return {}
    return {key: c * v for key, v in t.items()}


def _poly_mul(t1: Terms, t2: Terms) -> Terms:
    out: Terms = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            key = (a1 + a2, b1 + b2)
            s = out.get(key, QC(0)) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _one_plus_t_pow(k: int) -> Terms:
    """(1 + z*zbar)^k as a numerator polynomial."""
    return {(i, i): QC(comb(k, i)) for i in range(k + 1)}


def _divide_one_plus_t(terms: Terms) -> Terms | None:
    """Exact quotient terms/(1+z*zbar), or None if not divisible.

    Synthetic division up each diagonal a - b = d, gaps included: with n_i
    the coefficient of the monomial with min(a, b) = i, q_i = n_i - q_{i-1}
    from i = 0 to the top of the diagonal, and the division is exact iff
    the top step leaves q = 0.  The quotient comes back in sorted key
    order, so the float sums over a reduced symbol's terms (``evaluate``,
    ``sup_norm``) do not depend on the order of the input.
    """
    tops: dict[int, int] = {}
    for a, b in terms:
        tops[a - b] = max(tops.get(a - b, 0), min(a, b))
    quot: Terms = {}
    for d, top in tops.items():
        a0, b0 = max(d, 0), max(-d, 0)
        q = QC(0)
        for i in range(top + 1):
            q = terms.get((a0 + i, b0 + i), QC(0)) - q
            if q and i < top:
                quot[(a0 + i, b0 + i)] = q
        if q:
            return None
    return dict(sorted(quot.items()))


class ChartRational:
    """N(z, zbar)/(1 + z*zbar)^R without the smooth-at-infinity invariant."""

    __slots__ = ("terms", "denom_exp")

    def __init__(self, terms: Terms, denom_exp: int = 0):
        if denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        object.__setattr__(self, "terms", _clean(terms))
        object.__setattr__(self, "denom_exp", denom_exp)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def deg_z(self) -> int:
        return max((a for a, _ in self.terms), default=-1)

    def deg_zbar(self) -> int:
        return max((b for _, b in self.terms), default=-1)

    def _key(self):
        return (self.denom_exp if self.terms else 0, tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

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

    def __add__(self, other):
        if not isinstance(other, ChartRational):
            return NotImplemented
        r = max(self.denom_exp, other.denom_exp)
        t1 = _poly_mul(self.terms, _one_plus_t_pow(r - self.denom_exp)) if r > self.denom_exp else self.terms
        t2 = _poly_mul(other.terms, _one_plus_t_pow(r - other.denom_exp)) if r > other.denom_exp else other.terms
        cls = type(self) if type(other) is type(self) else ChartRational
        return cls(_poly_add(t1, t2), r)

    def __sub__(self, other):
        if not isinstance(other, ChartRational):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, ChartRational):
            return NotImplemented
        cls = type(self) if type(other) is type(self) else ChartRational
        return cls(_poly_mul(self.terms, other.terms), self.denom_exp + other.denom_exp)

    def scale(self, c: QC | Rational) -> "ChartRational":
        return type(self)(_poly_scale(QC.coerce(c), self.terms), self.denom_exp)

    def conjugate(self) -> "ChartRational":
        return type(self)({(b, a): c.conjugate() for (a, b), c in self.terms.items()}, self.denom_exp)

    def shifted(self, k: int) -> "ChartRational":
        """The function times (1 + z*zbar)^k, for any integer k."""
        if k >= 0:
            if k <= self.denom_exp:
                return ChartRational(self.terms, self.denom_exp - k)
            return ChartRational(_poly_mul(self.terms, _one_plus_t_pow(k - self.denom_exp)), 0)
        return ChartRational(self.terms, self.denom_exp - k)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Value at a finite chart point z, or at INF (the w = 0 point)."""
        z = complex(z)
        if cmath.isinf(z):
            r = self.denom_exp
            return complex(QC.coerce(self.terms.get((r, r), QC(0))))
        zb = z.conjugate()
        num = sum(complex(c) * z**a * zb**b for (a, b), c in self.terms.items())
        return num / (1.0 + (z * zb).real) ** self.denom_exp

    def eval_sphere_grid(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Values on the (cos-polar, azimuth) grid u x phi, poles included.

        Uses t/(1+t) = (1-u)/2 and 1/(1+t) = (1+u)/2, which keeps every
        term bounded all the way to u = -1 (the point at infinity).
        """
        r = self.denom_exp
        lo = (1.0 - u[:, None]) / 2.0
        hi = (1.0 + u[:, None]) / 2.0
        out = np.zeros((u.size, phi.size), dtype=complex)
        for (a, b), c in self.terms.items():
            radial = lo ** ((a + b) / 2.0) * hi ** (r - (a + b) / 2.0)
            out += complex(c) * radial * np.exp(1j * (a - b) * phi[None, :])
        return out


class CanonicalSymbol(ChartRational):
    """A chart-rational function that is smooth on all of P^1, in its one
    canonical form: constructing one cancels every (1+z*zbar) factor of the
    numerator, then certifies smoothness at infinity, so two symbols are
    equal as functions iff they compare ``==``."""

    __slots__ = ("is_real",)

    def __init__(self, terms: Terms, denom_exp: int = 0):
        super().__init__(terms, denom_exp)
        terms, r = self.terms, (self.denom_exp if self.terms else 0)
        while r > 0 and (quot := _divide_one_plus_t(terms)) is not None:
            terms, r = quot, r - 1
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "denom_exp", r)
        if self.deg_z() > r or self.deg_zbar() > r:
            raise NotSmoothAtInfinity(
                f"numerator degrees ({self.deg_z()}, {self.deg_zbar()}) exceed denominator exponent {r}"
            )
        object.__setattr__(
            self,
            "is_real",
            all(self.terms.get((b, a), QC(0)) == c.conjugate() for (a, b), c in self.terms.items()),
        )

    @property
    def is_constant(self) -> bool:
        return self.denom_exp == 0 and set(self.terms) <= {(0, 0)}

    def constant_value(self) -> QC:
        if not self.is_constant:
            raise ValueError("symbol is not constant")
        return self.terms.get((0, 0), QC(0))


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
    return CanonicalSymbol(raw.terms, raw.denom_exp)


def wirtinger(f: ChartRational, which: str = "dz") -> ChartRational:
    """Chart derivative d/dz or d/dzbar of N/(1+z*zbar)^R, exact.

    dz:    (N_z (1+t) - R zbar N) / (1+t)^{R+1}
    dzbar: (N_zbar (1+t) - R z N) / (1+t)^{R+1}
    """
    if which not in ("dz", "dzbar"):
        raise ValueError(f"which must be 'dz' or 'dzbar', got {which!r}")
    r = f.denom_exp
    if which == "dz":
        n_prime = {(a - 1, b): c * a for (a, b), c in f.terms.items() if a > 0}
        swing = {(a, b + 1): c * (-r) for (a, b), c in f.terms.items()}
    else:
        n_prime = {(a, b - 1): c * b for (a, b), c in f.terms.items() if b > 0}
        swing = {(a + 1, b): c * (-r) for (a, b), c in f.terms.items()}
    num = _poly_add(_poly_mul(_clean(n_prime), _one_plus_t_pow(1)), _clean(swing))
    return ChartRational(num, r + 1)


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


def integrate(f: CanonicalSymbol) -> complex:
    """Integral of f over P^1 against the Liouville form (vol = 2*pi)."""
    return 2.0 * np.pi * complex(average(f))


def evaluate(f: ChartRational, z: complex) -> complex:
    """Value of f at a finite chart point or at INF."""
    return f.evaluate(z)


def flip_chart(f: CanonicalSymbol) -> CanonicalSymbol:
    """The same function written in the w = 1/z chart (an involution)."""
    r = f.denom_exp
    return CanonicalSymbol({(r - a, r - b): c for (a, b), c in f.terms.items()}, r)


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


def _finite_diff_wirtinger(fn, z: complex, which: str, eps: float = 1e-6) -> complex:
    fx = (fn(z + eps) - fn(z - eps)) / (2 * eps)
    fy = (fn(z + 1j * eps) - fn(z - 1j * eps)) / (2 * eps)
    return 0.5 * (fx - 1j * fy) if which == "dz" else 0.5 * (fx + 1j * fy)


def calibrate_hamiltonian_phase(seed: int = 0) -> QC:
    """Fix the phase sigma in X_f^z = sigma (1+t)^2 df/dzbar by oracle.

    Checks omega(X_f, v) = df(v) to 1e-8 relative at 20 random chart points
    and directions, with df evaluated by central finite differences, for
    both candidate phases +-i.  Returns the matching phase (the frozen
    HAMILTONIAN_PHASE).
    """
    rng = random.Random(seed)
    f = random_real_symbol(seed + 101, 2)
    fn = f.evaluate
    candidates = {QC(0, -1): -1j, QC(0, 1): 1j}
    surviving = set(candidates)
    for _ in range(20):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = (z * z.conjugate()).real
        dfdzbar = _finite_diff_wirtinger(fn, z, "dzbar")
        df_v = _finite_diff_wirtinger(fn, z, "dz") * v + dfdzbar * v.conjugate()
        for phase in list(surviving):
            xz = candidates[phase] * (1 + t) ** 2 * dfdzbar
            xzbar = xz.conjugate()
            omega_xv = 1j * (1 + t) ** -2 * (xz * v.conjugate() - xzbar * v)
            if abs(omega_xv - df_v) > 1e-8 * max(1.0, abs(df_v)):
                surviving.discard(phase)
    if len(surviving) != 1:
        raise RuntimeError(f"calibration did not isolate a unique phase: {surviving}")
    return surviving.pop()
