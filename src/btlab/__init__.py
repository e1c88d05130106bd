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
so ``import btlab`` loads no submodule and no numpy.  Unless numpy is
loaded already, it pins BLAS to one thread: forked workers are the only
parallelism, and LAPACK's bits do not change with the environment.
"""

import os
import sys

if "numpy" not in sys.modules:  # BLAS reads its thread count once, when numpy loads it
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

__version__ = "0.1.0"
