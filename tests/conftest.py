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
from ebsolve.operators import NodeRows


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
    diag = np.asarray(diag, dtype=np.float64)
    # node i is element 0's node i: local row i's one slot is node i's, its
    # columns nodes 0, 1, 2 and its entries row i of diag(diag)
    rows = NodeRows(indptr=np.array([[0, 3, 3, 3], [0, 0, 3, 3], [0, 0, 0, 3]], dtype=np.int32),
                    indices=(np.array([0, 1, 2], dtype=np.int32),) * 3,
                    data=np.diag(diag).reshape(3, 1, 3))
    area = 0.5
    # the assembled load is ``load`` itself; beta is max area*tr(A_e)/3
    return ElementBatch(rows, np.array([area]), 0.0, IndexArrays(np.array([[0], [1], [2]]), 3),
                        np.array(load, dtype=np.float64), area * diag.sum() / 3.0)


def stacked_signed_areas(nodes, elements):
    """Reference signed areas: the (n_e, 3, 2) corner gather, differenced per edge."""
    p = nodes[elements]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def detect_boundary(nodes, tol=1e-12):
    """Nodes within ``tol`` of the unit square's edges, by coordinate scan."""
    near = np.abs(nodes) <= tol
    far = np.abs(nodes - 1.0) <= tol
    return np.flatnonzero((near | far).any(axis=1)).astype(np.int64)


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


def shuffled(m, seed, swaps):
    """``m`` with ``swaps`` random pairs of elements exchanged (-1: all shuffled)."""
    rng = np.random.default_rng(seed)
    order = np.arange(m.n_elements)
    if swaps < 0:
        rng.shuffle(order)
    else:
        for a, b in rng.integers(0, m.n_elements, (swaps, 2)):
            order[[a, b]] = order[[b, a]]
    return Mesh(m.nodes, m.elements[order], m.boundary_nodes)


def renumbered(m, seed):
    """``m`` with its nodes renumbered by a seeded random permutation.

    Returns the mesh and ``new``, the new index of each of ``m``'s nodes, so
    that ``u[new]`` reads a solution on the renumbered mesh in ``m``'s
    order.  Elements keep their order and their corners' cyclic order, so
    every triangle stays counterclockwise; only the node numbering, which
    a fill-reducing ordering of the assembled matrix starts from, changes.
    """
    new = np.random.default_rng(seed).permutation(m.n_nodes)
    nodes = np.empty_like(m.nodes)
    nodes[new] = m.nodes
    return Mesh(nodes, new[m.elements], np.sort(new[m.boundary_nodes])), new


def uniform_refine(m):
    """Split every triangle into 4 congruent children via edge midpoints.

    The result is renumbered canonically, so that refining a structured
    mesh equals ``build_unit_square_mesh(level + 1)`` elementwise: nodes
    sorted lexicographically by (y, x), each triple rotated to start at its
    smallest node index (orientation preserved), element rows sorted by
    (first, third, second) node, which puts each cell's upper triangle
    (ll, ur, ul) before its lower one (ll, lr, ur) as the generator does.
    """
    tri = m.elements
    # one midpoint per geometric edge: key edges by sorted node pairs
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, inv = np.unique(edges, axis=0, return_inverse=True)
    mid_of_edge = m.n_nodes + inv.reshape(3, -1)  # rows: ab, bc, ca per element
    mid_coords = 0.5 * (m.nodes[uniq[:, 0]] + m.nodes[uniq[:, 1]])
    all_nodes = np.vstack([m.nodes, mid_coords])

    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, bc, ca = mid_of_edge
    children = np.concatenate([
        np.column_stack([a, ab, ca]),
        np.column_stack([ab, b, bc]),
        np.column_stack([ca, bc, c]),
        np.column_stack([ab, bc, ca]),
    ])

    # canonical node numbering: lexicographic by (y, x)
    order = np.lexsort((all_nodes[:, 0], all_nodes[:, 1]))
    rank = np.empty(len(all_nodes), dtype=np.int64)
    rank[order] = np.arange(len(all_nodes))
    new_nodes = all_nodes[order]
    children = rank[children]

    # rotate each triple to its smallest index (cyclic, keeps orientation),
    # then order the rows by (first, third, second) node
    shift = np.argmin(children, axis=1)
    cols = (shift[:, None] + np.arange(3)) % 3
    children = np.take_along_axis(children, cols, axis=1)
    children = children[np.lexsort((children[:, 1], children[:, 2], children[:, 0]))]
    return Mesh(new_nodes, children, detect_boundary(new_nodes))
