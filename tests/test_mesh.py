from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnfem import mesh as M
from dtnfem.harness import _TRI_QP, _quad_points

# mesh-size ladder the refined default pair must reproduce (within 5%)
REFERENCE_H = (0.4304, 0.2151, 0.1076)


def edge_multiplicities(mesh):
    count = Counter()
    for a, b, c in mesh.triangles:
        for e in ((a, b), (b, c), (c, a)):
            count[tuple(sorted(e))] += 1
    return count


def check_invariants(mesh):
    areas = M.triangle_areas(mesh)
    assert np.all(areas > 0.0)

    count = edge_multiplicities(mesh)
    assert max(count.values()) <= 2
    boundary = {tuple(sorted(e)) for e in mesh.boundary_edges}
    assert boundary == {e for e, c in count.items() if c == 1}

    euler = mesh.num_nodes - len(count) + mesh.num_triangles
    assert euler == (1 if mesh.region == M.DISC else 0)

    # every tagged loop is closed: each node appears exactly twice per tag
    for tag in set(mesh.boundary_tags):
        nodes = Counter()
        for (a, b), t in zip(mesh.boundary_edges, mesh.boundary_tags):
            if t == tag:
                nodes[a] += 1
                nodes[b] += 1
        assert set(nodes.values()) == {2}


def boundary_radius_defect(mesh, tag, radius):
    idx = [e for e, t in zip(mesh.boundary_edges, mesh.boundary_tags) if t == tag]
    pts = mesh.nodes[np.unique(np.asarray(idx))]
    return np.max(np.abs(np.linalg.norm(pts, axis=1) - radius))


def test_disc_single_ring_fan():
    mesh = M.build_disc_mesh(1.0, 8)
    assert mesh.num_triangles == 8
    assert mesh.num_nodes == 9
    check_invariants(mesh)


def test_annulus_single_layer():
    mesh = M.build_annulus_mesh(1.0, 2.0, 8)
    assert mesh.num_triangles == 16
    check_invariants(mesh)


def test_boundary_nodes_on_circles():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    assert boundary_radius_defect(disc, M.GAMMA, 1.0) < 1e-12
    assert boundary_radius_defect(ann, M.GAMMA, 1.0) < 1e-12
    assert boundary_radius_defect(ann, M.GAMMA_R, 2.0) < 2e-12
    radii = np.linalg.norm(ann.nodes, axis=1)
    assert np.all(radii >= 1.0 - 1e-12)
    assert np.all(radii <= 2.0 + 1e-12)


def test_interface_conformity_bitwise():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    td = M.boundary_trace(disc, M.GAMMA)
    ta = M.boundary_trace(ann, M.GAMMA)
    assert np.array_equal(disc.nodes[td.node_indices], ann.nodes[ta.node_indices])
    # stays true through refinement (snapping applies the same formula)
    disc2, ann2 = M.refine(disc), M.refine(ann)
    td2 = M.boundary_trace(disc2, M.GAMMA)
    ta2 = M.boundary_trace(ann2, M.GAMMA)
    assert np.allclose(disc2.nodes[td2.node_indices],
                       ann2.nodes[ta2.node_indices], rtol=0, atol=1e-15)


def test_trace_ordering_and_uniformity():
    disc = M.build_disc_mesh(1.0, 8)
    trace = M.boundary_trace(disc, M.GAMMA)
    assert trace.angles[0] == 0.0
    assert np.allclose(trace.angles, np.arange(8) * np.pi / 4, atol=1e-12)
    assert len(trace) == sum(t == M.GAMMA for t in disc.boundary_tags)
    gaps = np.diff(np.append(trace.angles, trace.angles[0] + 2 * np.pi))
    assert np.max(np.abs(gaps - trace.spacing)) < 1e-12


@pytest.mark.parametrize("tag", [M.GAMMA, M.GAMMA_R])
def test_trace_nodes_match_the_edge_loop(tag):
    """The masked edge selection picks the nodes a per-edge loop picks."""
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    for _ in range(3):
        ann = M.refine(ann)
    picked = [e for e, t in zip(ann.boundary_edges, ann.boundary_tags)
              if t == tag]
    nodes = np.unique(np.asarray(picked, dtype=np.int64))
    trace = M.boundary_trace(ann, tag)
    assert np.array_equal(np.sort(trace.node_indices), nodes)


def test_trace_missing_tag():
    disc = M.build_disc_mesh(1.0, 8)
    with pytest.raises(ValueError):
        M.boundary_trace(disc, M.GAMMA_R)


def test_refine_counts_and_tags():
    disc = M.build_disc_mesh(1.0, 8)
    fine = M.refine(disc)
    assert fine.num_triangles == 32
    assert len(fine.boundary_tags) == 2 * len(disc.boundary_tags)
    assert set(fine.boundary_tags) == {M.GAMMA}
    check_invariants(fine)
    # ordering of the trace is preserved: original angles survive as a subset
    t0 = M.boundary_trace(disc, M.GAMMA)
    t1 = M.boundary_trace(fine, M.GAMMA)
    assert np.allclose(t1.angles[::2], t0.angles, atol=1e-12)


def _band_reference(inner_base, outer_base, n_angular):
    tris = []
    for i in range(n_angular):
        j = (i + 1) % n_angular
        a, b = inner_base + i, inner_base + j
        c, d = outer_base + j, outer_base + i
        tris.append((a, d, c))
        tris.append((a, c, b))
    return tris


def _loop_reference(base, n_angular):
    return [(base + i, base + (i + 1) % n_angular) for i in range(n_angular)]


def _disc_reference(R0, n_angular):
    """The per-region disc builder that ``M.build_disc_mesh`` replaces: a
    centre node, rings at R0 * j / n_rings, a fan, then one band a ring."""
    n_rings = M._disc_rings(R0, n_angular)
    nodes = [np.zeros((1, 2))]
    for j in range(1, n_rings + 1):
        nodes.append(M._ring_coords(R0 * j / n_rings, n_angular))
    tris = [(0, 1 + i, 1 + (i + 1) % n_angular) for i in range(n_angular)]
    for j in range(1, n_rings):
        tris.extend(_band_reference(1 + (j - 1) * n_angular,
                                    1 + j * n_angular, n_angular))
    edges = _loop_reference(1 + (n_rings - 1) * n_angular, n_angular)
    return M.Mesh(nodes=np.vstack(nodes),
                  triangles=np.asarray(tris, dtype=np.int64),
                  boundary_edges=np.asarray(edges, dtype=np.int64),
                  boundary_tags=tuple([M.GAMMA] * n_angular), region=M.DISC)


def _annulus_reference(R0, R, n_angular):
    """The per-region annulus builder that ``M.build_annulus_mesh``
    replaces: equally spaced rings, one band a layer, GAMMA then GAMMA_R."""
    n_layers = M._annulus_layers(R0, R, n_angular)
    radii = R0 + (R - R0) * np.arange(n_layers + 1) / n_layers
    nodes = np.vstack([M._ring_coords(r, n_angular) for r in radii])
    tris = []
    for j in range(n_layers):
        tris.extend(_band_reference(j * n_angular, (j + 1) * n_angular,
                                    n_angular))
    edges = (_loop_reference(0, n_angular)
             + _loop_reference(n_layers * n_angular, n_angular))
    return M.Mesh(nodes=nodes, triangles=np.asarray(tris, dtype=np.int64),
                  boundary_edges=np.asarray(edges, dtype=np.int64),
                  boundary_tags=tuple([M.GAMMA] * n_angular
                                      + [M.GAMMA_R] * n_angular),
                  region=M.ANNULUS)


def assert_same_mesh(mesh, want):
    for name in ("nodes", "triangles", "boundary_edges"):
        got, ref = getattr(mesh, name), getattr(want, name)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert mesh.boundary_tags == want.boundary_tags
    assert all(type(tag) is str for tag in mesh.boundary_tags)
    assert mesh.region == want.region


@pytest.mark.parametrize("R0,R", [(1.0, 2.0), (0.5, 3.0), (2.0, 2.6),
                                  (1.0, 1.02)])
@pytest.mark.parametrize("n_angular", [8, 10, 16, 32, 64])
def test_builders_match_the_per_region_references_bitwise(n_angular, R0, R):
    """One ring-and-band builder serves both regions: every array, tag and
    dtype equals the per-region builder's, bitwise."""
    assert_same_mesh(M.build_disc_mesh(R0, n_angular),
                     _disc_reference(R0, n_angular))
    assert_same_mesh(M.build_annulus_mesh(R0, R, n_angular),
                     _annulus_reference(R0, R, n_angular))


def _refine_reference(mesh):
    """The Python-loop red refinement that ``M.refine`` vectorises: a walk
    over the triangles that numbers each edge midpoint when first met."""
    boundary = {}
    snap_radius = {}
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        boundary[(min(a, b), max(a, b))] = tag
        if tag not in snap_radius:
            snap_radius[tag] = float(np.linalg.norm(mesh.nodes[a]))

    new_nodes = [mesh.nodes]
    midpoint = {}

    def midpoint_of(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            point = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            tag = boundary.get(key)
            if tag is not None:
                point = point * (snap_radius[tag] / np.linalg.norm(point))
            new_nodes.append(point[None, :])
            midpoint[key] = mesh.num_nodes + len(midpoint)
        return midpoint[key]

    tris = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(mesh.triangles):
        mab = midpoint_of(a, b)
        mbc = midpoint_of(b, c)
        mca = midpoint_of(c, a)
        tris[4 * t:4 * t + 4] = [(a, mab, mca), (mab, b, mbc),
                                 (mca, mbc, c), (mab, mbc, mca)]

    edges, tags = [], []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = midpoint[(min(a, b), max(a, b))]
        edges.extend([(a, m), (m, b)])
        tags.extend((tag, tag))
    return M.Mesh(nodes=np.vstack(new_nodes), triangles=tris,
                  boundary_edges=np.asarray(edges, dtype=np.int64),
                  boundary_tags=tuple(tags), region=mesh.region)


@pytest.mark.parametrize("coarse", [M.build_disc_mesh(1.0, 16),
                                    M.build_annulus_mesh(1.0, 2.0, 16)],
                         ids=["disc", "annulus"])
def test_refine_matches_the_loop_bitwise(coarse):
    """Nodes, triangles, boundary edges and tags equal the loop's, bitwise,
    at levels 0-5."""
    fast = slow = coarse
    for level in range(6):
        if level:
            fast, slow = M.refine(fast), _refine_reference(slow)
        assert np.array_equal(fast.nodes, slow.nodes)
        assert fast.triangles.dtype == slow.triangles.dtype
        assert np.array_equal(fast.triangles, slow.triangles)
        assert np.array_equal(fast.boundary_edges, slow.boundary_edges)
        assert fast.boundary_tags == slow.boundary_tags


def test_refine_halves_h():
    mesh = M.build_annulus_mesh(1.0, 2.0, 16)
    for _ in range(3):
        fine = M.refine(mesh)
        ratio = M.mesh_size(fine) / M.mesh_size(mesh)
        assert abs(ratio - 0.5) < 0.075  # snapping perturbs within 15%
        mesh = fine


def test_doubling_n_angular_halves_h():
    hs = {n: M.mesh_size(M.build_disc_mesh(1.0, n)) for n in (8, 16, 32, 64)}
    for n in (8, 16, 32):
        ratio = hs[2 * n] / hs[n]
        assert 0.45 < ratio < 0.55


def test_perimeter_and_area_converge():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    per_defect, area_defect = [], []
    for _ in range(3):
        trace = M.boundary_trace(ann, M.GAMMA_R)
        pts = ann.nodes[trace.node_indices]
        per = np.sum(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1))
        per_defect.append(abs(per - 2 * np.pi * 2.0))
        area_defect.append(abs(np.sum(M.triangle_areas(ann)) - np.pi * 3.0))
        disc, ann = M.refine(disc), M.refine(ann)
    # polygonal defects are O(h^2): each refinement shrinks them ~4x
    for seq in (per_defect, area_defect):
        assert seq[1] < seq[0] / 3.0
        assert seq[2] < seq[1] / 3.0


def test_reference_mesh_sizes_reproduced():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    for target in REFERENCE_H:
        disc, ann = M.refine(disc), M.refine(ann)
        h = max(M.mesh_size(disc), M.mesh_size(ann))
        assert abs(h - target) / target < 0.05


def test_build_validation():
    with pytest.raises(ValueError):
        M.build_disc_mesh(1.0, 6)
    with pytest.raises(ValueError):
        M.build_disc_mesh(1.0, 9)
    with pytest.raises(ValueError):
        M.build_disc_mesh(-1.0, 8)
    with pytest.raises(ValueError):
        M.build_annulus_mesh(2.0, 1.0, 8)


def test_mesh_immutable():
    mesh = M.build_disc_mesh(1.0, 8)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 5.0


def test_save_load_roundtrip(tmp_path):
    """The text format read back with numpy: a header line, the nodes at 17
    significant digits (bitwise round trip), the triangles, the tagged
    boundary edges."""
    mesh = M.refine(M.build_annulus_mesh(1.0, 2.0, 16))
    path = tmp_path / "mesh.txt"
    M.save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    V, T, E = mesh.num_nodes, mesh.num_triangles, len(mesh.boundary_tags)
    assert lines[0].split() == ["nodes", str(V), "triangles", str(T),
                                "edges", str(E)]
    assert len(lines) == 1 + V + T + E
    nodes = np.loadtxt(lines[1:1 + V])
    triangles = np.loadtxt(lines[1 + V:1 + V + T], dtype=np.int64)
    edges = np.loadtxt(lines[1 + V + T:], dtype=str)
    assert nodes.tobytes() == mesh.nodes.tobytes()
    assert np.array_equal(triangles, mesh.triangles)
    assert np.array_equal(edges[:, :2].astype(np.int64), mesh.boundary_edges)
    assert tuple(edges[:, 2]) == mesh.boundary_tags


@settings(max_examples=12, deadline=None)
@given(n_angular=st.sampled_from([8, 10, 16, 24, 32]),
       r0=st.floats(min_value=0.3, max_value=2.0),
       scale=st.floats(min_value=1.3, max_value=4.0))
def test_invariants_property(n_angular, r0, scale):
    disc = M.build_disc_mesh(r0, n_angular)
    ann = M.build_annulus_mesh(r0, scale * r0, n_angular)
    check_invariants(disc)
    check_invariants(ann)
    check_invariants(M.refine(ann))


# ------------------------------------------------------------ rotation table

@pytest.mark.parametrize("region", [M.DISC, M.ANNULUS])
@pytest.mark.parametrize("n_angular", [8, 16, 32])
def test_rotation_table_rows_are_row_zero_turned(n_angular, region):
    """Row j of the table lists row 0's triangles turned by 2 pi j / S, in
    the same order and local vertex order: their quadrature points are row
    0's rotated, within 1e-14 R, at levels 0-4.  Every triangle is in
    exactly one row, and refine carries the table child by child.  Row j
    covers the wedge [2 pi j / S, 2 pi (j+1) / S]: at levels 0-3 the
    centroids of its triangles lie in it."""
    R = 2.0
    mesh = (M.build_disc_mesh(R, n_angular) if region == M.DISC
            else M.build_annulus_mesh(1.0, R, n_angular))
    for level in range(5):
        table = mesh.rotations
        assert table.shape == (n_angular, mesh.num_triangles // n_angular)
        assert np.array_equal(np.sort(table, axis=None),
                              np.arange(mesh.num_triangles))
        if level < 4:
            centroid = mesh.nodes[mesh.triangles[table]].mean(axis=2)
            angle = np.mod(np.arctan2(centroid[..., 1], centroid[..., 0]),
                           2 * np.pi)
            sector = np.floor(angle * n_angular / (2 * np.pi))
            assert np.all(sector == np.arange(n_angular)[:, None])
        first = _quad_points(mesh, table[0])
        for j, row in enumerate(table):
            c, s = np.cos(2 * np.pi * j / n_angular), \
                np.sin(2 * np.pi * j / n_angular)
            turned = first @ np.array([[c, s], [-s, c]])
            assert np.max(np.abs(_quad_points(mesh, row) - turned)) \
                <= 1e-14 * R
        if level < 4:
            fine = M.refine(mesh)
            assert np.array_equal(fine.rotations.reshape(n_angular, -1, 4),
                                  4 * table[..., None] + np.arange(4))
            mesh = fine


def test_a_mesh_built_by_hand_has_no_rotation_table():
    mesh = _disc_reference(1.0, 8)
    assert mesh.rotations is None
    assert M.refine(mesh).rotations is None
    assert not M.build_disc_mesh(1.0, 8).rotations.flags.writeable


@pytest.mark.parametrize("level", [0, 3])
def test_take_gathers_are_the_fancy_index_gathers_bitwise(mesh_pairs, level):
    """mesh_size, triangle_areas and _quad_points gather the triangles'
    nodes with np.take; each is bitwise its fancy-index form."""
    for mesh in mesh_pairs[level]:
        p = mesh.nodes[mesh.triangles]
        h = max(float(np.max(np.linalg.norm(p[:, a] - p[:, b], axis=1)))
                for a, b in ((0, 1), (1, 2), (2, 0)))
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert M.mesh_size(mesh) == h
        assert np.array_equal(M.triangle_areas(mesh), areas)
        rows = mesh.rotations[0] if mesh.rotations is not None else [0, 2]
        for triangles in (slice(None), rows):
            want = np.einsum("qa,tad->tqd", _TRI_QP,
                             mesh.nodes[mesh.triangles[triangles]])
            assert np.array_equal(_quad_points(mesh, triangles), want)
