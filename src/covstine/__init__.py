"""Finite-dimensional Hilbert C*-module machinery with verified dilations.

The package constructs completely positive maps on full Hilbert C*-modules,
their minimal Stinespring-type dilations (plain and finite-group covariant),
the induced maps on crossed products, and machine-checkable certificates for
every construction.
"""

# Set before the submodules load: certificates record it.
__version__ = "0.1.0"

from .cstar import (
    CStarAlgebra,
    choi_blocks,
    embedding_representation,
)
from .cpmaps import (
    CovariantCPMap,
    CPMapAlgebra,
    ModuleCPMap,
    check_covariance,
    check_module_cp,
    concrete_representation,
    cp_from_representation,
    random_covariant_cp,
)
from .crossed import (
    CrossedAlgebra,
    CrossedModule,
    build_crossed_module,
    induced_cp,
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
    UnitaryRep,
    check_dynamical_system,
    check_module_axioms,
    cyclic_group,
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
