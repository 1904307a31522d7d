"""Mixed-dimensional scalar elliptic solver toolkit.

Assembles two-by-two block systems for flow in fractured porous media on
axis-aligned matching grids, and solves them with right-preconditioned GMRES
accelerated by factorization-based block preconditioners with smoothed
aggregation AMG inner solves.
"""

from .sparse import (
    CsrMatrix,
    SingularMatrixError,
    canonical,
    csr_equal,
    csr_from_triplets,
    read_matrix_market,
    write_matrix_market,
)
from .grids import (
    BoundaryConfig,
    Interface,
    MixedDimGrid,
    Segment,
    Subdomain,
    build_cross_2d,
    build_network_2d,
    build_random_network_2d,
    build_regular_network_3d,
)
from .assembly import BlockSystem, PhysicalParams, assemble, monolithic
from .amg import (
    AmgHierarchy,
    AmgSetupWarning,
    amg_setup,
    apply_preconditioner_vcycle,
    v_cycle,
)
from .precond import BlockPreconditioner, approx_schur, build_preconditioner
from .krylov import SolveConfig, SolveReport, gmres
from .bench import SweepResult, SweepRow, SweepSpec, emit_table, run_sweep
from .sysio import export_system, import_system

__version__ = "0.1.0"

__all__ = [
    "AmgHierarchy",
    "AmgSetupWarning",
    "BlockPreconditioner",
    "BlockSystem",
    "BoundaryConfig",
    "CsrMatrix",
    "Interface",
    "MixedDimGrid",
    "PhysicalParams",
    "Segment",
    "SingularMatrixError",
    "SolveConfig",
    "SolveReport",
    "Subdomain",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "amg_setup",
    "apply_preconditioner_vcycle",
    "approx_schur",
    "assemble",
    "build_cross_2d",
    "build_network_2d",
    "build_preconditioner",
    "build_random_network_2d",
    "build_regular_network_3d",
    "canonical",
    "csr_equal",
    "csr_from_triplets",
    "emit_table",
    "export_system",
    "gmres",
    "import_system",
    "monolithic",
    "read_matrix_market",
    "run_sweep",
    "v_cycle",
    "write_matrix_market",
]
