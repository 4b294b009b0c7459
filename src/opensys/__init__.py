"""Decomposition of conservative linear systems into coupled and decoupled
observable/hidden parts, with reduced open-system (memory kernel) dynamics
cross-validated against full conservative propagation."""

from .subspaces import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Spectrum,
    SubspaceBasis,
    SymmetryError,
    orbit,
    orthonormalize,
)
from .systems import (
    BlockSystem,
    FullOperator,
    assemble_full,
    load_system,
    random_system,
    save_system,
)
from .decomposition import (
    DecompositionError,
    FourWayDecomposition,
    TheoremReport,
    decompose,
    verify_block_form,
    verify_theorem,
)
from .dynamics import (
    ForcingSignal,
    NoGainResult,
    ResponseKernel,
    Trajectory,
    make_grid,
    make_kernel,
    no_gain_check,
    propagate_full,
    propagate_reduced,
)
from .lattice import (
    LatticeSpec,
    build_lattice_system,
    multiplicity_bound,
    surface_count,
    verify_example,
)

__version__ = "0.1.0"
