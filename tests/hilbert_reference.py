"""Test-only reference for the quantum Hilbert spaces: holomorphic sections of O(m) on P^1.

In the affine chart a section is a polynomial psi(z) of degree <= m with
pointwise metric weight (1+|z|^2)^{-m}.  The monomials z^j are mutually
orthogonal with exactly known norms, so everything here is closed form.
``btlab.operators`` takes the same norms from one binomial row; this module
is kept as an oracle for the quadrature and assembly references and for the
Bergman-density tests.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb, pi

from btlab.exact import QC
from btlab.symbols import CanonicalSymbol


def dimension(m: int) -> int:
    """dim of the space of holomorphic sections at level m."""
    if m < 0:
        raise ValueError("level m must be >= 0")
    return m + 1


def basis_norm_sq(m: int, j: int) -> Fraction:
    """||z^j||^2 at level m, as an exact multiple of 2*pi.

    The radial Beta integral gives j!(m-j)!/(m+1)! = 1/((m+1) C(m,j)).
    """
    if not 0 <= j <= m:
        raise IndexError(f"basis index {j} out of range for level {m}")
    return Fraction(1, (m + 1) * comb(m, j))


def bergman_density(m: int, z: complex) -> float:
    """Sum_j |s_j(z)|^2 h^m(z) over an orthonormal basis, evaluated pointwise.

    Constant equal to (m+1)/(2*pi) on this homogeneous geometry; computed
    honestly as the basis sum so the constancy is a checkable fact.
    """
    z = complex(z)
    if cmath.isinf(z):
        t = 0.0  # w = 0 in the flipped chart; the basis sum is chart-invariant
    else:
        t = (z * z.conjugate()).real
    total = 0.0
    weight = (1.0 + t) ** float(-m)
    for j in range(m + 1):
        total += t**j / (2.0 * pi * float(basis_norm_sq(m, j))) * weight
    return total


def bergman_density_symbol(m: int) -> CanonicalSymbol:
    """2*pi times the Bergman density as an exact symbol.

    Built as sum_j t^j/||z^j||^2 over (1+t)^m; reduction collapses it via
    the binomial identity to the constant m+1.
    """
    terms = {(j, j): QC(1 / basis_norm_sq(m, j)) for j in range(m + 1)}
    return CanonicalSymbol(terms, m)
