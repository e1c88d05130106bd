"""btlab: an exact quantization laboratory on the projective line.

Berezin-Toeplitz and geometric quantization of the round sphere P^1,
with an exact symbol algebra, closed-form exact operator assembly and the
float linear algebra on its kernels, semiclassical sweep verification,
truncated star products, and a reproducible experiment CLI (``btlab``).
The package holds only what a run, the CLI or the benchmark reaches; the
test suite keeps its independent oracles (numerical quadrature, Bergman
density) to itself.

Each public name has one import path, its module (``btlab.symbols``,
``btlab.operators``, ...); the package root holds only ``__version__``,
so ``import btlab`` loads no submodule and no numpy.
"""

__version__ = "0.1.0"
