"""Matrix-free P1 finite elements on the unit square.

Element-by-element residual evaluation from batched local matrices, with
Richardson, cyclic two-level Chebyshev, and three-level Chebyshev iterations,
plus an assembled sparse reference path for validation.
"""

from .cli import ExperimentConfig, ExperimentReport, run_experiment
from .elements import (
    ElementBatch,
    build_element_batch,
    local_mass_batch,
    local_stiffness_batch,
)
from .mesh import (
    IndexArrays,
    Mesh,
    build_grid_mesh,
    build_index_arrays,
    build_unit_square_mesh,
    uniform_refine,
)
from .operators import (
    DirichletData,
    assemble_rhs,
    constant_dirichlet,
    mask_dirichlet,
    residual,
)
from .reference import assemble_sparse, dense_interior_eigenvalues, solve_reference
from .solvers import (
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
    "ConvergenceHistory",
    "DirichletData",
    "ElementBatch",
    "ExperimentConfig",
    "ExperimentReport",
    "IndexArrays",
    "Mesh",
    "SpectralBounds",
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
    "constant_dirichlet",
    "dense_interior_eigenvalues",
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
