import numpy as np
import numpy.testing as npt
import pytest

from conftest import perturbed_mesh

from ebsolve import (
    ElementBatch,
    Mesh,
    build_element_batch,
    build_index_arrays,
    build_unit_square_mesh,
    local_mass_batch,
    local_stiffness_batch,
)
from ebsolve.mesh import signed_areas

# closed-form local stiffness of the right triangle with legs along the axes;
# it does not depend on the leg length
K_REF = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])


def right_triangle(h, shift=(0.0, 0.0)):
    sx, sy = shift
    nodes = np.array([[sx, sy], [sx + h, sy], [sx, sy + h]])
    return Mesh(nodes, np.array([[0, 1, 2]]), np.array([0, 1, 2]))


def test_stiffness_reference_triangle():
    for h in (1.0, 0.5, 0.25, 0.0625):
        K = local_stiffness_batch(right_triangle(h))
        npt.assert_array_equal(K[:, :, 0], K_REF)


def test_stiffness_translation_invariant():
    K0 = local_stiffness_batch(right_triangle(0.25))
    K1 = local_stiffness_batch(right_triangle(0.25, shift=(0.375, 0.5)))
    npt.assert_array_equal(K0, K1)


def test_stiffness_row_sums_exactly_zero():
    # constants lie in the P1 kernel; on dyadic grids this holds bitwise
    m = build_unit_square_mesh(3)
    K = local_stiffness_batch(m)
    assert np.all(K.sum(axis=1) == 0.0)
    assert np.all(K.sum(axis=0) == 0.0)


def test_stiffness_symmetric():
    m = build_unit_square_mesh(2)
    K = local_stiffness_batch(m)
    npt.assert_array_equal(K, K.transpose(1, 0, 2))


def test_mass_pattern():
    m = build_unit_square_mesh(2)
    area = 0.5 * 0.25**2
    M = local_mass_batch(m)
    expected = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    for e in range(m.n_elements):
        npt.assert_array_equal(M[:, :, e], expected)


def test_mass_eigenvalues():
    M = local_mass_batch(right_triangle(1.0))[:, :, 0]
    eigs = np.linalg.eigvalsh(M)
    npt.assert_allclose(eigs, [0.5 / 12, 0.5 / 12, 2.0 / 12], rtol=1e-13)


def test_mass_total_is_domain_area():
    for level in (1, 3, 4):
        M = local_mass_batch(build_unit_square_mesh(level))
        assert abs(M.sum() - 1.0) <= 1e-14


def test_mass_scales_with_area():
    M1 = local_mass_batch(right_triangle(0.25))
    M2 = local_mass_batch(right_triangle(0.5))
    npt.assert_array_equal(M2, 4.0 * M1)


def test_load_constant_source():
    m = build_unit_square_mesh(3)
    area = 0.5 * 0.25**3
    b = build_element_batch(m, f=lambda x, y: np.ones_like(x)).b_e
    npt.assert_allclose(b, np.full((3, m.n_elements), area / 3.0), rtol=1e-15)
    assert abs(b.sum() - 1.0) <= 1e-14

    assert np.all(build_element_batch(m, f=lambda x, y: np.zeros_like(x)).b_e == 0.0)


def test_load_centroid_rule():
    # element 0 at level 1 has corners (0,0), (.5,0), (.5,.5)
    m = build_unit_square_mesh(1)
    b = build_element_batch(m, f=lambda x, y: x + y).b_e
    centroid_val = (0.0 + 0.5 + 0.5) / 3 + (0.0 + 0.0 + 0.5) / 3
    npt.assert_allclose(b[:, 0], centroid_val * 0.125 / 3.0, rtol=1e-15)


def test_load_matches_mean_centroid_reference():
    # centroids are summed corner by corner; the reference is the
    # nodes[elements].mean(axis=1) form, bit for bit on an irregular mesh
    m = perturbed_mesh(4, 0.1, 11)
    f = lambda x, y: np.sin(7.0 * x) * np.exp(y)
    centroids = m.nodes[m.elements].mean(axis=1)
    ref = f(centroids[:, 0], centroids[:, 1]) * signed_areas(m.nodes, m.elements) / 3.0
    b = build_element_batch(m, f=f).b_e
    for j in range(3):
        assert b[j].tobytes() == ref.tobytes()


def test_load_scalar_broadcast():
    m = build_unit_square_mesh(1)
    b = build_element_batch(m, f=lambda x, y: 2.0).b_e
    npt.assert_allclose(b, 2.0 * build_element_batch(m, f=lambda x, y: np.ones_like(x)).b_e)


def test_load_rejects_nonfinite_source():
    m = build_unit_square_mesh(1)
    with pytest.raises(ValueError):
        build_element_batch(m, f=lambda x, y: np.full_like(x, np.nan))


def test_degenerate_triangle_rejected():
    # positive area, but below the degeneracy cutoff
    sliver = Mesh(
        nodes=np.array([[0.0, 0.0], [1e-7, 0.0], [0.0, 2e-7]]),
        elements=np.array([[0, 1, 2]]),
        boundary_nodes=np.array([0]),
    )
    with pytest.raises(ValueError, match="degenerate"):
        local_stiffness_batch(sliver)


def test_batch_validation():
    m = build_unit_square_mesh(1)
    K = local_stiffness_batch(m)
    areas = signed_areas(m.nodes, m.elements)
    idx = build_index_arrays(m)
    b = build_element_batch(m).b_e
    with pytest.raises(ValueError):
        ElementBatch(A_e=K, b_e=b[:, :3], areas=areas, nu=0.0, index=idx)
    for nu in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu"):
            ElementBatch(A_e=K, b_e=b, areas=areas, nu=nu, index=idx)
        with pytest.raises(ValueError, match="nu"):
            build_element_batch(m, nu=nu)
    with pytest.raises(ValueError):
        ElementBatch(A_e=K[:, :, :3], b_e=b, areas=areas, nu=0.0, index=idx)
    with pytest.raises(ValueError):
        ElementBatch(A_e=K, b_e=b, areas=areas[:3], nu=0.0, index=idx)


@pytest.mark.parametrize("nu", [0.0, 2.5])
def test_batch_layout_keeps_only_A_e(nu):
    m = build_unit_square_mesh(3)
    batch = build_element_batch(m, nu=nu)
    K, M = local_stiffness_batch(m), local_mass_batch(m)
    assert batch.A_e.shape == (3, 3, m.n_elements)
    assert batch.A_e.flags.c_contiguous
    # bitwise, down to the sign of zero
    assert batch.A_e.tobytes() == (K + nu * M).tobytes()
    # K_e and M_e are not held beside A_e, and no mesh is kept to rebuild them
    stored = [name for name, value in vars(batch).items()
              if isinstance(value, np.ndarray) and value.shape == (3, 3, m.n_elements)]
    assert stored == ["A_e"]
    assert not any(isinstance(value, Mesh) for value in vars(batch).values())


def test_batch_load_is_one_read_only_vector():
    m = build_unit_square_mesh(3)
    batch = build_element_batch(m, f=lambda x, y: x + 2.0 * y)
    assert batch.b_e.shape == (3, m.n_elements)
    assert not batch.b_e.flags.writeable
    owner = batch.b_e
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    assert owner.nbytes == m.n_elements * owner.itemsize
    assert owner.dtype == np.float64


def test_build_element_batch_defaults():
    m = build_unit_square_mesh(2)
    batch = build_element_batch(m, nu=2.0)
    npt.assert_array_equal(batch.A_e, local_stiffness_batch(m) + 2.0 * local_mass_batch(m))
    assert batch.nu == 2.0
    assert batch.n_elements == m.n_elements
    # default source is f = 1
    npt.assert_array_equal(batch.b_e,
                           build_element_batch(m, f=lambda x, y: np.ones_like(x)).b_e)
