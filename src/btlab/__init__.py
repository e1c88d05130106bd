"""btlab: an exact quantization laboratory on the projective line.

Berezin-Toeplitz and geometric quantization of the round sphere P^1,
with an exact symbol algebra, closed-form exact operator assembly and the
float linear algebra on its kernels, semiclassical sweep verification,
truncated star products, and a reproducible experiment CLI (``btlab``).
The package holds only what a run, the CLI or the benchmark reaches; the
test suite keeps its independent oracles (numerical quadrature, Bergman
density) to itself.
"""

from .errors import (
    CacheCorruption,
    DegenerateTable,
    NotSmoothAtInfinity,
    ParseError,
    ShapeMismatch,
    UnknownCoefficientOrder,
    ValidationError,
)
from .exact import QC, beta_int
from .operators import (
    OperatorMatrix,
    adjoint,
    commutator,
    hermitian_eigenvalues,
    operator_norm,
    prequantum_geometric,
    toeplitz_exact,
)
from .semiclassics import (
    ConvergenceTable,
    FitResult,
    dirac_defect,
    loglog_slope,
    sass_remainder,
    spectral_moment,
    sweep,
)
from .starproduct import (
    AxiomReport,
    FormalSeries,
    b_inverse,
    b_map,
    c1,
    check_axioms,
    check_equivalence,
    d1,
    formal_trace,
    star_bt,
    star_geometric,
)
from .symbols import (
    INF,
    CanonicalSymbol,
    ChartRational,
    VectorFieldChart,
    average,
    constant,
    hamiltonian_field,
    laplacian,
    poisson_bracket,
    random_real_symbol,
    reduce,
    sphere_coord_x,
    sphere_height,
    sup_norm,
    symbol,
    wirtinger,
)

__version__ = "0.1.0"
