"""Matrix-free P1 finite elements on the unit square.

Element-by-element residual evaluation from batched local matrices, with
Richardson, cyclic two-level Chebyshev, and three-level Chebyshev iterations,
plus an assembled sparse reference path for validation.
"""

from .cli import ExperimentConfig, ExperimentReport, run_experiment
from .elements import (
    ElementBatch,
    build_element_batch,
    combine_system,
    local_load_batch,
    local_mass_batch,
    local_stiffness_batch,
)
from .mesh import (
    IndexArrays,
    Mesh,
    build_grid_mesh,
    build_index_arrays,
    build_unit_square_mesh,
    export_mesh,
    uniform_refine,
)
from .operators import (
    DirichletData,
    apply_initial_guess,
    assemble_rhs,
    constant_dirichlet,
    mask_dirichlet,
    residual,
)
from .reference import assemble_sparse, dense_interior_eigenvalues, solve_reference
from .solvers import (
    ChebyshevCycle,
    ConvergenceHistory,
    SpectralBounds,
    chebyshev2,
    chebyshev3,
    chebyshev_roots,
    chebyshev_scaling_factor,
    richardson,
)
from .spectrum import (
    mass_bounds,
    model_eigen_bounds,
    model_eigenvalues_all,
    operator_bounds,
)

__all__ = [
    "ChebyshevCycle",
    "ConvergenceHistory",
    "DirichletData",
    "ElementBatch",
    "ExperimentConfig",
    "ExperimentReport",
    "IndexArrays",
    "Mesh",
    "SpectralBounds",
    "apply_initial_guess",
    "assemble_rhs",
    "assemble_sparse",
    "build_element_batch",
    "build_grid_mesh",
    "build_index_arrays",
    "build_unit_square_mesh",
    "chebyshev2",
    "chebyshev3",
    "chebyshev_roots",
    "chebyshev_scaling_factor",
    "combine_system",
    "constant_dirichlet",
    "dense_interior_eigenvalues",
    "export_mesh",
    "local_load_batch",
    "local_mass_batch",
    "local_stiffness_batch",
    "mask_dirichlet",
    "mass_bounds",
    "model_eigen_bounds",
    "model_eigenvalues_all",
    "operator_bounds",
    "residual",
    "richardson",
    "run_experiment",
    "solve_reference",
    "uniform_refine",
]

__version__ = "0.1.0"
