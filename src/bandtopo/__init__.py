"""Band-topology toolkit: nodal loci of Bloch Hamiltonians on the 3-torus,
their topological charges, and cohomological consistency checks."""

from .exceptions import (
    BandTopoError,
    ComplexError,
    ConfigError,
    DomainError,
    LedgerError,
    LinkingError,
    LocusAmbiguityError,
    MeshResolutionError,
    ObstructionError,
    RefinementError,
    SurfaceError,
    UnsupportedModelError,
)
from .model import (
    BlochModel,
    CoefficientSpec,
    Domain,
    TwoBandField,
    builtin,
    load_model_config,
    model_from_config,
    model_from_field,
    save_model_config,
)
from .locus import (
    NodalLocus,
    NodalLoop,
    OpenArc,
    WeylPoint,
    extract_locus,
    refine_point,
    scan_grid,
    split_components,
)
from .surfaces import (
    ClosedSurface,
    LoopPath,
    circle_loop,
    slice_torus,
    sphere_around,
    tube_around,
    validate,
)
from .invariants import (
    BerryPhaseResult,
    Chirality,
    W2Result,
    berry_phase,
    chern_flux,
    chern_scan,
    degree,
    w1_along,
    w2_on,
)
from .knots import LinkingResult, close_arc, linking_matrix, linking_number
from .mvcheck import (
    ChargeLedger,
    assemble_ledger,
    cancellation_chirality,
    cancellation_w2,
    stokes_jump_check,
    verify_ledger,
)
from .cohomology import (
    CellComplex,
    CohomologyGroups,
    ComplementDecomposition,
    cohomology_groups,
    complement_complex,
    klein_complex,
    mv_dimension_check,
    torus_complex,
    uct_check,
    voxel_hopf_link,
    voxel_point,
    voxel_rect_loop,
    voxelize_polyline,
)
from .smith import SmithForm, rank_field, smith_normal_form

__version__ = "0.1.0"
