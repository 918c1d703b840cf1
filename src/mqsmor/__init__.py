"""Model order reduction toolkit for 3D linear magneto-quasistatic field-circuit systems.

The pipeline: generate a structured tetrahedral mesh with labeled conducting /
coil / air regions, assemble the edge-element system matrices, regularize the
singular DAE by graph-theoretic subspace elimination, and compute a passive
reduced model by low-rank ADI + balanced truncation, with certified error
bounds and an independent dense verification oracle.
"""

from .lacore import (
    LanczosResult,
    SingularMatrixError,
    dense_sym_eig,
    factorize,
    is_positive_definite,
    lanczos_extremal,
    nested_dissection,
    read_matrix_market,
    write_matrix_market,
)
from .mesh import (
    AIR,
    COIL,
    IRON,
    GeometrySpec,
    IncidenceSet,
    Mesh,
    build_incidence,
    eliminate_boundary,
    generate_mesh,
)
from .assembly import (
    AssembledSystem,
    MaterialSpec,
    WindingSpec,
    assemble_edge_mass,
    assemble_face_mass,
    assemble_upsilon,
    build_system,
)
from .regularize import (
    KernelBases,
    RegularizedSystem,
    build_regularized,
    kernel_bases,
    kernel_incidence,
    reduced_gradient,
    theorem1_check,
)
from .ops import OperatorContext, SpectralBounds
from .mor import (
    LowRankFactor,
    ReducedModel,
    ShiftSet,
    balanced_truncate,
    error_bound,
    hankel_values,
    hinf_error,
    lr_adi,
    reduced_order,
    wachspress_shifts,
)
from .analysis import (
    FrequencyResponse,
    SimulationResult,
    frequency_response,
    passivity_scan,
    simulate,
    transfer_full,
    transfer_reduced,
)
from .oracle import DenseOracle, build_dense_oracle, dense_gramians
from .config import ConfigError, RunConfig, default_config, parse_config

__version__ = "0.1.0"
