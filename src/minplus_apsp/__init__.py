"""All-pairs shortest paths via exponentially encoded matrix products."""

from .codec import (
    EMAX,
    DecodeError,
    EncodedMatrix,
    EncodeParams,
    FeasibilityError,
    NegativeEntryError,
    NonFiniteEntryError,
    PrecisionLimits,
    decode,
    encode,
    max_finite,
    params_for,
    precision_limits,
)
from .graph import (
    INF,
    DensityReport,
    DistMatrix,
    Graph,
    GraphFormatError,
    density,
    parse_edge_list,
    to_distance_matrix,
)
from .kernels import (
    choose_kernel,
    multiply_dense,
    multiply_sparse,
)
from .netgen import (
    DiameterReport,
    GenSpec,
    diameter,
    estimate_diameter,
    generate_scale_free,
)
from .solver import (
    EpochStats,
    SolveResult,
    distance_product,
    epoch_stats_csv,
    fixed_squaring,
    power_law_bound,
)

__version__ = "0.1.0"

__all__ = [
    "EMAX",
    "INF",
    "DecodeError",
    "DensityReport",
    "DiameterReport",
    "DistMatrix",
    "EncodeParams",
    "EncodedMatrix",
    "EpochStats",
    "FeasibilityError",
    "GenSpec",
    "Graph",
    "GraphFormatError",
    "NegativeEntryError",
    "NonFiniteEntryError",
    "PrecisionLimits",
    "SolveResult",
    "choose_kernel",
    "decode",
    "density",
    "diameter",
    "distance_product",
    "encode",
    "epoch_stats_csv",
    "estimate_diameter",
    "fixed_squaring",
    "generate_scale_free",
    "max_finite",
    "multiply_dense",
    "multiply_sparse",
    "params_for",
    "parse_edge_list",
    "power_law_bound",
    "precision_limits",
    "to_distance_matrix",
]
