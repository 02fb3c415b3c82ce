"""Structured polar triangulations of the solid disc and the fluid annulus.

Both regions are meshed with the same angular resolution so the interface
circle carries bitwise-identical node coordinates in the two meshes (required
by the interface coupling terms).  Uniform red refinement snaps new boundary
midpoints back onto their circle, so the discrete boundary keeps tracking the
true geometry through the refinement sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAMMA = "GAMMA"      # solid-fluid interface circle, radius R0
GAMMA_R = "GAMMA_R"  # artificial outer circle, radius R
DISC = "DISC"
ANNULUS = "ANNULUS"

MIN_ANGULAR = 8

__all__ = [
    "GAMMA", "GAMMA_R", "DISC", "ANNULUS",
    "Mesh", "BoundaryTrace",
    "build_disc_mesh", "build_annulus_mesh", "refine", "boundary_trace",
    "mesh_size", "triangle_areas", "save_mesh",
]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation with tagged boundary edge loops.

    nodes : (V, 2) float array
    triangles : (T, 3) int array, counter-clockwise
    boundary_edges : (E, 2) int array, each edge ordered counter-clockwise
        by angle along its circle
    boundary_tags : (E,) tuple of GAMMA / GAMMA_R
    region : DISC or ANNULUS
    rotations : (S, T/S) int array, or None for a mesh with no known
        symmetry: row j lists the triangles that are row 0's turned by
        2 pi j / S about the origin, in the same order and with the same
        local vertex order.  Row j covers the wedge of angles
        [2 pi j / S, 2 pi (j+1) / S]: ``_polar_mesh`` builds it so and
        ``refine`` keeps it
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple
    region: str
    rotations: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.boundary_edges,
                    self.rotations):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class BoundaryTrace:
    """One boundary loop, ordered counter-clockwise starting at angle 0."""

    node_indices: np.ndarray
    angles: np.ndarray
    radius: float

    def __post_init__(self):
        self.node_indices.setflags(write=False)
        self.angles.setflags(write=False)

    def __len__(self) -> int:
        return self.node_indices.shape[0]

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / len(self)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas; positive for correctly oriented triangles."""
    p = np.take(mesh.nodes, mesh.triangles, axis=0)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def mesh_size(mesh: Mesh) -> float:
    """h = longest edge over all triangles."""
    p = np.take(mesh.nodes, mesh.triangles, axis=0)
    h = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        h = max(h, float(np.max(np.linalg.norm(p[:, a] - p[:, b], axis=1))))
    return h


def _ring_coords(radius: float, n_angular: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def _check_angular(n_angular: int):
    if n_angular < MIN_ANGULAR or n_angular % 2 != 0:
        raise ValueError(
            f"n_angular must be an even integer >= {MIN_ANGULAR}, got {n_angular}")


def _disc_rings(R0: float, n_angular: int) -> int:
    _check_angular(n_angular)
    if R0 <= 0.0:
        raise ValueError("R0 must be positive")
    # 1.1 biases the rounding so the ring count tracks doubling of n_angular
    # (plain round(n/2pi) sticks at 5 rings across the 32->64 step)
    return max(1, round(1.1 * n_angular / (2.0 * np.pi)))


def _annulus_layers(R0: float, R: float, n_angular: int) -> int:
    _check_angular(n_angular)
    if not (np.isfinite(R) and R > R0 > 0.0):
        raise ValueError("annulus requires a finite R > R0 > 0")
    # radial step keyed to the interface chord, where the field varies fastest;
    # also keeps the refined h ladder close to clean halving
    inner_chord = 2.0 * R0 * float(np.sin(np.pi / n_angular))
    # a subnormal R0 underflows the chord to 0 or the quotient to inf
    layers = float(R - R0) / inner_chord if inner_chord > 0.0 else np.inf
    if np.isinf(layers):
        raise ValueError(f"annulus R0={R0!r} < r < R={R!r} needs more radial "
                         "layers than can be counted")
    return max(1, round(layers))


def _coarse_pair_triangles(R0: float, R: float, n_angular: int) -> int:
    """Triangle count of the unrefined disc/annulus pair, without building
    it: a centre fan plus two triangles per cell of every band."""
    return n_angular * (2 * _disc_rings(R0, n_angular) - 1
                        + 2 * _annulus_layers(R0, R, n_angular))


def _polar_mesh(radii, tags, n_angular: int, region: str) -> Mesh:
    """Rings of n_angular nodes at ``radii``, each band between consecutive
    rings split into quads along the inner->outer diagonal.  A leading radius
    of 0 is the centre node, fanned to the next ring.  The boundary loops are
    the inner ring (unless it is the centre) and the outer ring, in the order
    of ``tags``.  Row j of the rotation table is sector j: its fan triangle,
    then the two triangles of its cell in each band."""
    fan = int(radii[0] == 0)
    i = np.arange(n_angular)
    j = np.roll(i, -1)
    bases = fan + n_angular * np.arange(len(radii) - fan)
    nodes = np.vstack([np.zeros((fan, 2))]
                      + [_ring_coords(r, n_angular) for r in radii[fan:]])
    inner, outer = bases[:-1, None], bases[1:, None]
    a, b, c, d = inner + i, inner + j, outer + j, outer + i
    bands = np.stack([a, d, c, a, c, b], axis=-1).reshape(-1, 3)
    fans = np.column_stack([np.zeros_like(i), 1 + i, 1 + j])[:fan * n_angular]
    loops = bases[[-1] if fan else [0, -1]]
    cells = (2 * n_angular * np.arange(len(bases) - 1)[:, None]
             + np.arange(2)).ravel() + fan * n_angular
    rotations = np.hstack([i[:, None], cells + 2 * i[:, None]])[:, 1 - fan:]
    return Mesh(
        nodes=nodes,
        triangles=np.vstack([fans, bands]).astype(np.int64),
        boundary_edges=np.vstack([np.column_stack([base + i, base + j])
                                  for base in loops]).astype(np.int64),
        boundary_tags=tuple(np.repeat(tags, n_angular).tolist()),
        region=region,
        rotations=rotations,
    )


def build_disc_mesh(R0: float, n_angular: int) -> Mesh:
    """Polar mesh of the disc r <= R0: rings x sectors plus a center fan.

    The ring count keeps radial steps comparable to the outer angular chord
    (near-uniform aspect away from the center).
    """
    n_rings = _disc_rings(R0, n_angular)
    radii = [0.0] + [R0 * j / n_rings for j in range(1, n_rings + 1)]
    return _polar_mesh(radii, [GAMMA], n_angular, DISC)


def build_annulus_mesh(R0: float, R: float, n_angular: int) -> Mesh:
    """Polar mesh of the annulus R0 <= r <= R, conforming to the disc mesh.

    Ring angles match ``build_disc_mesh`` exactly, so the GAMMA trace nodes of
    a disc/annulus pair built with the same n_angular coincide bitwise.
    """
    n_layers = _annulus_layers(R0, R, n_angular)
    radii = R0 + (R - R0) * np.arange(n_layers + 1) / n_layers
    return _polar_mesh(radii, [GAMMA, GAMMA_R], n_angular, ANNULUS)


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement (each triangle into 4 similar children).

    Midpoints of boundary edges are snapped radially onto their tagged circle;
    everything else stays at the straight-edge midpoint, so triangle count is
    exactly 4x and boundary loops/tag ordering are preserved.  New nodes are
    numbered in the order a walk over the triangles, edges (a,b), (b,c),
    (c,a), first meets their edges.  Children keep their parent's local
    vertex order, so the rotation table carries over child by child.
    """
    v = mesh.num_nodes
    ends = np.stack([mesh.triangles, np.roll(mesh.triangles, -1, axis=1)],
                    axis=-1).reshape(-1, 2)
    keys = np.min(ends, axis=1) * v + np.max(ends, axis=1)
    edge_keys, first, inverse = np.unique(keys, return_index=True,
                                          return_inverse=True)
    by_first = np.argsort(first)
    number = np.empty(len(edge_keys), dtype=np.int64)
    number[by_first] = v + np.arange(len(edge_keys))
    lo, hi = np.divmod(edge_keys[by_first], v)
    points = 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])

    a, b = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    boundary_keys = np.minimum(a, b) * v + np.maximum(a, b)
    if not np.all(np.isin(boundary_keys, edge_keys)):
        raise ValueError("a boundary edge is not an edge of any triangle")
    mid = number[np.searchsorted(edge_keys, boundary_keys)]
    # each circle's radius is its first edge's first node's
    tags = np.asarray(mesh.boundary_tags)
    radius = np.empty(len(tags))
    for tag in set(mesh.boundary_tags):
        radius[tags == tag] = float(
            np.linalg.norm(mesh.nodes[a[np.argmax(tags == tag)]]))
    # |p| from one dot product per point, the arithmetic np.linalg.norm uses
    # for a single point (a sum of squares can round differently)
    snapped = points[mid - v]
    norm = np.sqrt(snapped[:, None, :] @ snapped[:, :, None])[:, 0, 0]
    points[mid - v] = snapped * (radius / norm)[:, None]

    # corners (a, b, c, m_ab, m_bc, m_ca) of each parent, then its children
    corners = np.hstack([mesh.triangles, number[inverse].reshape(-1, 3)])
    tris = corners[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]]
    return Mesh(
        nodes=np.vstack([mesh.nodes, points]),
        triangles=tris.reshape(-1, 3),
        boundary_edges=np.column_stack([a, mid, mid, b]).reshape(-1, 2),
        boundary_tags=tuple(np.repeat(tags, 2).tolist()),
        region=mesh.region,
        rotations=None if mesh.rotations is None else (
            4 * mesh.rotations[..., None] + np.arange(4)).reshape(
                len(mesh.rotations), -1),
    )


def boundary_trace(mesh: Mesh, tag: str) -> BoundaryTrace:
    """Nodes of one boundary loop, sorted counter-clockwise from angle 0."""
    picked = mesh.boundary_edges[np.asarray(mesh.boundary_tags, dtype=str)
                                 == tag]
    if not len(picked):
        raise ValueError(f"mesh has no boundary edges tagged {tag!r}")
    indices = np.unique(picked)
    xy = mesh.nodes[indices]
    angles = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * np.pi)
    order = np.argsort(angles)
    return BoundaryTrace(
        node_indices=indices[order],
        angles=angles[order],
        radius=float(np.mean(np.linalg.norm(xy, axis=1))),
    )


def save_mesh(mesh: Mesh, path) -> None:
    """Plain-text dump, round-trip lossless at 17 significant digits."""
    lines = [
        f"nodes {mesh.num_nodes} triangles {mesh.num_triangles} "
        f"edges {len(mesh.boundary_tags)}"
    ]
    for x, y in mesh.nodes:
        lines.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{i} {j} {tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
