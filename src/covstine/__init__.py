"""Finite-dimensional Hilbert C*-module machinery with verified dilations.

The package constructs completely positive maps on full Hilbert C*-modules,
their minimal Stinespring-type dilations (plain and finite-group covariant),
the induced maps on crossed products, and machine-checkable certificates for
every construction.
"""

# Set before the submodules load: certificates record it.
__version__ = "0.1.0"

from .cstar import (
    AlgebraElement,
    AlgebraRepresentation,
    CStarAlgebra,
    check_representation,
    choi_blocks,
    element_positive,
    embedding_representation,
)
from .cpmaps import (
    CovariantCPMap,
    CPMapAlgebra,
    ModuleCPMap,
    check_covariance,
    check_module_cp,
    cp_from_representation,
    covariant_cp_from_representation,
    induced_algebra_cp,
    random_covariant_cp,
    random_module_cp,
)
from .crossed import (
    CrossedAlgebra,
    CrossedModule,
    build_crossed_algebra,
    build_crossed_module,
    check_crossed_algebra,
    check_crossed_module,
    induced_cp,
    integral_form,
)
from .errors import (
    BoundsError,
    ComputeError,
    CovstineError,
    ParseError,
    ValidationError,
)
from .hilbmod import (
    FiniteGroup,
    HilbertModule,
    ModuleDynamicalSystem,
    ModuleRepresentation,
    UnitaryRep,
    check_dynamical_system,
    check_module_axioms,
    check_module_representation,
    concrete_representation,
    cyclic_group,
    induced_algebra_action,
    regular_rep,
    standard_action,
    standard_module,
    symmetric_group,
    trivial_group,
    trivial_rep,
)
from .numkernel import (
    gram_factor,
    hermitian_eigendecomposition,
    least_squares_solve,
    psd_check,
)
from .stinespring import (
    AltDilation,
    Certificate,
    CovariantDilation,
    GnsTriple,
    StinespringDilation,
    dilate_covariant,
    dilate_module_cp,
    gns_construct,
    uniqueness_intertwiners,
    verify_dilation,
)
