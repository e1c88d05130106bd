"""btlab: an exact quantization laboratory on the projective line.

Berezin-Toeplitz and geometric quantization of the round sphere P^1,
with an exact symbol algebra, closed-form operator assembly, semiclassical
sweep verification, truncated star products, and a reproducible experiment
CLI (``btlab``).
"""

from .errors import (
    CacheCorruption,
    DegenerateTable,
    NotSmoothAtInfinity,
    ParseError,
    QuadratureBudgetTooSmall,
    ShapeMismatch,
    UnknownCoefficientOrder,
    ValidationError,
)
from .exact import QC, beta_int
from .hilbert import basis_norm_sq, bergman_density, bergman_density_symbol, dimension
from .operators import (
    OperatorMatrix,
    adjoint,
    commutator,
    gram_quadrature,
    hermitian_eigenvalues,
    operator_norm,
    prequantum_geometric,
    toeplitz_exact,
    toeplitz_quadrature,
)
from .semiclassics import (
    ConvergenceTable,
    FitResult,
    dirac_defect,
    loglog_slope,
    norm_defect,
    sass_remainder,
    spectral_moment,
    sweep,
    tuynman_defect,
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
    calibrate_hamiltonian_phase,
    constant,
    evaluate,
    flip_chart,
    hamiltonian_field,
    integrate,
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
