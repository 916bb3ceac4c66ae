"""Shared builders for the test suite."""

import numpy as np

from ebsolve import (
    ElementBatch,
    IndexArrays,
    Mesh,
    assemble_rhs,
    build_element_batch,
    build_unit_square_mesh,
    constant_dirichlet,
)


def make_problem(level, nu=0.0):
    """Mesh, element batch, boundary data and assembled rhs for one level."""
    m = build_unit_square_mesh(level)
    batch = build_element_batch(m, nu=nu)
    d = constant_dirichlet(m, 1.0)
    b = assemble_rhs(batch.b_e, batch.index.indt)
    return m, batch, d, b


def diagonal_batch(diag, load):
    """Synthetic 3-node, 1-element batch whose assembled matrix is diag(diag).

    Lets solver behavior be checked against hand-computable linear algebra
    without any mesh in the way.
    """
    A = np.diag(np.asarray(diag, dtype=np.float64)).reshape(3, 3, 1)
    indt = np.array([[0], [1], [2]], dtype=np.int64)
    return ElementBatch(
        A_e=A,
        b_e=np.asarray(load, dtype=np.float64).reshape(3, 1),
        areas=np.array([0.5]),
        nu=0.0,
        index=IndexArrays(indt, 3),
    )


def perturbed_mesh(level, amp, seed):
    """Level-``level`` grid with every interior node moved by <= amp*h per axis.

    For amp <= 0.1 every triangle stays counterclockwise, so element areas
    and shapes vary but stay positive: a mesh the structured generator never
    produces, with the grid's connectivity and boundary.
    """
    grid = build_unit_square_mesh(level)
    h = 1.0 / 2**level
    nodes = grid.nodes.copy()
    interior = np.setdiff1d(np.arange(grid.n_nodes), grid.boundary_nodes)
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, (interior.size, 2))
    nodes[interior] += amp * h * shift
    return Mesh(nodes, grid.elements, grid.boundary_nodes)
