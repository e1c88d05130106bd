"""Test-only reference: Toeplitz and Gram matrices by numerical quadrature.

An independent route to the float matrices that ``btlab.operators`` builds
from exact kernels: Gauss-Legendre nodes in u = (t-1)/(t+1) times a uniform
(trapezoid) rule in the phase, applied to a black-box point evaluator.  It
gives plain arrays, with no kernel, and is kept only as an oracle for the
exact assembly.
"""

from math import sqrt

import numpy as np

from hilbert_reference import basis_norm_sq


class QuadratureBudgetTooSmall(RuntimeError):
    """Quadrature node counts too small for the requested assembly."""


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
