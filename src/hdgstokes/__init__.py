"""hdgstokes: hybrid dG Stokes discretisation with TVNF/NVTF boundary
conditions and one-level RAS/MRAS Schwarz preconditioners."""

from .fem_space import NVTF, TVNF, DofMap, build_dof_map
from .krylov import Factorization, KrylovReport, gmres
from .mesh import Triangulation, generate, refine_uniform
from .schwarz import (Decomposition, SchwarzPreconditioner, add_overlap,
                      build_decomposition, build_mras, build_ras, decompose)
from .system import AssembledSystem, assemble, solve_direct
from .verify import ErrorReport, catalogue, energy_norm, eoc, error_norms, interpolate

__all__ = [
    "NVTF", "TVNF", "DofMap", "build_dof_map",
    "Factorization", "KrylovReport", "gmres",
    "Triangulation", "generate", "refine_uniform",
    "Decomposition", "SchwarzPreconditioner", "add_overlap",
    "build_decomposition", "build_mras", "build_ras", "decompose",
    "AssembledSystem", "assemble", "solve_direct",
    "ErrorReport", "catalogue", "energy_norm", "eoc", "error_norms", "interpolate",
]
