"""Invariant para-Kahler Einstein structures on semisimple adjoint orbits.

Exact Lie-theoretic pipeline: root systems -> Chevalley constants ->
fundamental gradations -> Koszul form and its symplectic differential ->
the invariant Einstein metric, everything cross-checked by brute-force
oracles; plus a numeric chart lab for the Einstein residual of a potential.
"""

from .chevalley import (
    AlgebraElement,
    BasisIndex,
    LieAlgebraData,
    bracket,
    cartan_element,
    chevalley_constants,
    killing_form,
    root_vector,
)
from .errors import ConfigError, DomainError, SingularPointError
from .gradation import (
    CrossingSet,
    Gradation,
    SatakeDiagram,
    catalog_lookup,
    catalog_names,
    enumerate_crossings,
    grade_from_crossing,
    orbit_dimension,
)
from .koszul import (
    EinsteinStructure,
    TwoForm,
    delta_sum,
    einstein_structure,
    kernel_is_g0,
    kernel_of,
    killing_dual,
    koszul_coefficients,
    koszul_form,
    koszul_trace,
    omega_z,
    two_form_from_weight,
)
from .paracomplex import (
    ChartPotential,
    MetricSample,
    einstein_residual,
    flat_potential,
    log_model_potential,
    metric_from_potential,
)
from .rootsys import (
    Root,
    RootSystem,
    SimpleType,
    Weight,
    build_root_system,
    inner_product,
    n_pairing,
)

__version__ = "0.1.0"
