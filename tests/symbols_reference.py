"""Test-only reference for the symbol algebra: plain ``QC`` arithmetic.

This is the construction that the Gaussian-integer arithmetic in
``btlab.symbols`` replaces: every coefficient a ``QC``, every product and
sum a new pair of ``Fraction`` values.  A value is a pair (terms, R) for
N/(1+z*zbar)^R, with terms a dict (a, b) -> QC.  It is kept only as an
oracle for the property tests.  Its floats are summed in sorted (a, b)
order, as ``eval_sphere_grid`` sums them, so they depend only on the value.

``hamiltonian_fields`` and ``omega`` build the bracket as omega(X_f, X_g)
from both components of each field, X^zbar from its own derivative
d/dz; ``btlab.symbols`` reads only X^z and takes X^zbar as its conjugate.

It also holds ``chart_value``, the float value of a ``ChartRational`` at a
chart point or at ``INF``, which the pointwise oracles of the tests read,
and the finite-difference oracle that pins the Hamiltonian phase,
``calibrate_hamiltonian_phase``, which reads no exact derivative at all.
"""

import cmath
import random
from functools import partial
from math import comb

from btlab.errors import NotSmoothAtInfinity
from btlab.exact import QC
from btlab.symbols import HAMILTONIAN_PHASE, random_real_symbol

INF = complex(float("inf"), 0.0)  # the w = 0 point of the second chart


def clean(terms):
    return {key: QC.coerce(c) for key, c in terms.items() if QC.coerce(c)}


def poly_add(t1, t2):
    out = dict(t1)
    for key, c in t2.items():
        s = out.get(key, QC(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def poly_mul(t1, t2):
    out = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            key = (a1 + a2, b1 + b2)
            s = out.get(key, QC(0)) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def one_plus_t_pow(k):
    return {(i, i): QC(comb(k, i)) for i in range(k + 1)}


def add(f, g):
    (t1, r1), (t2, r2) = f, g
    r = max(r1, r2)
    t1 = poly_mul(t1, one_plus_t_pow(r - r1)) if r > r1 else t1
    t2 = poly_mul(t2, one_plus_t_pow(r - r2)) if r > r2 else t2
    return poly_add(t1, t2), r


def mul(f, g):
    return poly_mul(f[0], g[0]), f[1] + g[1]


def scale(f, c):
    c = QC.coerce(c)
    return ({key: c * v for key, v in f[0].items()} if c else {}), f[1]


def conjugate(f):
    return {(b, a): c.conjugate() for (a, b), c in f[0].items()}, f[1]


def shifted(f, k):
    terms, r = f
    if k > r:
        return poly_mul(terms, one_plus_t_pow(k - r)), 0
    return terms, r - k


def wirtinger(f, which):
    terms, r = f
    if which == "dz":
        n_prime = {(a - 1, b): c * a for (a, b), c in terms.items() if a > 0}
        swing = {(a, b + 1): c * (-r) for (a, b), c in terms.items()}
    else:
        n_prime = {(a, b - 1): c * b for (a, b), c in terms.items() if b > 0}
        swing = {(a + 1, b): c * (-r) for (a, b), c in terms.items()}
    return poly_add(poly_mul(clean(n_prime), one_plus_t_pow(1)), clean(swing)), r + 1


def divide_one_plus_t(terms):
    """Synthetic division up each diagonal; None if (1+t) does not divide."""
    tops = {}
    for a, b in terms:
        tops[a - b] = max(tops.get(a - b, 0), min(a, b))
    quot = {}
    for d, top in tops.items():
        a0, b0 = max(d, 0), max(-d, 0)
        q = QC(0)
        for i in range(top + 1):
            q = terms.get((a0 + i, b0 + i), QC(0)) - q
            if q and i < top:
                quot[(a0 + i, b0 + i)] = q
        if q:
            return None
    return quot


def reduce(f):
    """The canonical form; raises NotSmoothAtInfinity like ``btlab.symbols.reduce``."""
    terms = clean(f[0])
    r = f[1] if terms else 0
    while r > 0 and (quot := divide_one_plus_t(terms)) is not None:
        terms, r = quot, r - 1
    if max((a for a, _ in terms), default=-1) > r or max((b for _, b in terms), default=-1) > r:
        raise NotSmoothAtInfinity("not smooth at infinity")
    return terms, r


def is_real(terms):
    return all(terms.get((b, a), QC(0)) == c.conjugate() for (a, b), c in terms.items())


def evaluate(f, z):
    terms, r = f
    zb = z.conjugate()
    return sum(complex(c) * z**a * zb**b for (a, b), c in sorted(terms.items())) / (1.0 + (z * zb).real) ** r


def chart_value(f, z: complex) -> complex:
    """The value of the ChartRational ``f`` at a finite chart point z, or at INF, summed in sorted (a, b) order."""
    z, den, r = complex(z), f.den, f.denom_exp
    if cmath.isinf(z):
        re, im = f.nums.get((r, r), (0, 0))
        return complex(re / den, im / den)
    zb = z.conjugate()
    num = sum(complex(re / den, im / den) * z**a * zb**b for (a, b), (re, im) in sorted(f.nums.items()))
    return num / (1.0 + (z * zb).real) ** r


def hamiltonian_fields(f):
    """(X_f^z, X_f^zbar) of a real symbol f as reference pairs: X^z = sigma (1+t)^2 df/dzbar and
    X^zbar = -sigma (1+t)^2 df/dz, each from its own Wirtinger derivative."""
    pair = (f.terms, f.denom_exp)
    return tuple(
        shifted(scale(wirtinger(pair, which), phase), 2)
        for which, phase in (("dzbar", HAMILTONIAN_PHASE), ("dz", -HAMILTONIAN_PHASE))
    )


def omega(x, y):
    """omega(X, Y) = i (1+t)^{-2} (X^z Y^zbar - X^zbar Y^z) of two reference fields, reduced."""
    (xz, xzb), (yz, yzb) = x, y
    return reduce(shifted(scale(add(mul(xz, yzb), scale(mul(xzb, yz), -1)), QC(0, 1)), -2))


def finite_diff_wirtinger(fn, z: complex, which: str, eps: float = 1e-6) -> complex:
    """d/dz or d/dzbar of ``fn`` at z, by central differences along the real and imaginary axes."""
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
    fn = partial(chart_value, f)
    candidates = {QC(0, -1): -1j, QC(0, 1): 1j}
    surviving = set(candidates)
    for _ in range(20):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = (z * z.conjugate()).real
        dfdzbar = finite_diff_wirtinger(fn, z, "dzbar")
        df_v = finite_diff_wirtinger(fn, z, "dz") * v + dfdzbar * v.conjugate()
        for phase in list(surviving):
            xz = candidates[phase] * (1 + t) ** 2 * dfdzbar
            xzbar = xz.conjugate()
            omega_xv = 1j * (1 + t) ** -2 * (xz * v.conjugate() - xzbar * v)
            if abs(omega_xv - df_v) > 1e-8 * max(1.0, abs(df_v)):
                surviving.discard(phase)
    if len(surviving) != 1:
        raise RuntimeError(f"calibration did not isolate a unique phase: {surviving}")
    return surviving.pop()
