"""Asymptotics of cone-preserving linear maps.

Classify classical stochastic matrices, quantum channels, and arbitrary
polyhedral-cone maps as ergodic / mixing / irreducible / primitive, and
simulate their long-run behavior (time averages, normalized powers,
decoupling distances).
"""

from .cones import (
    DimensionMismatchError,
    HermBasis,
    InvalidUnitError,
    Orthant,
    Polyhedral,
    Psd,
    TensorCone,
    UnsupportedConeOperation,
    validate_unit,
)
from .classify import (
    ClassificationReport,
    Digraph,
    NotErgodicError,
    NotStronglyConnectedError,
    classify,
    digraph_of,
    is_ergodic,
    is_irreducible,
    is_mixing,
    is_primitive,
    period,
    stationary_pair,
    strongly_connected,
    strongly_connected_components,
)
from .dynamics import (
    BipartiteLayout,
    NormalizationVanishedError,
    TrajectoryRecord,
    Verdict,
    cesaro_trajectory,
    decoupling_distance,
    decoupling_trace,
    power_trajectory,
    reduced_states,
    u_norm,
)
from .linalg import (
    FLOAT,
    FLOAT_MODE,
    RATIONAL,
    RATIONAL_MODE,
    MultiplicityPair,
    ScalarMode,
    ZeroSpectralRadiusError,
)
from .maps import (
    ColumnSumViolationError,
    DynMap,
    NegativeEntryError,
    PositivityVerdict,
    adjoint,
    choi_matrix,
    from_kraus,
    from_matrix,
    from_stochastic,
    is_dup,
    is_positive,
)

__version__ = "0.1.0"
