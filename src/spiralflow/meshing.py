"""Structured triangulations of the annular region outside a star-shaped body.

The mesh is a polar grid: uniform in angle, geometric (log-graded) in
radius, warped so the innermost ring follows the body boundary exactly
and the outermost is the far circle.  Because radius grading and angular
spacing both scale with r, the triangles stay shape-regular from the
body out to the truncation circle.

Bodies must enclose the closed unit disk (the background flow is defined
outward of it); the supported family is circles and cosine-perturbed
circles, which covers every star-shaped test case while keeping mesh
generation deterministic.

Node (ring i, column j) has index i * n_cols + j, rings ordered from the
body outward.  Every quad cell is split along the same diagonal into two
counterclockwise triangles, so rebuilding a mesh from the same inputs is
bit-for-bit reproducible.

The column count is the arc-length count rounded up to a multiple of
the body's rotation order (body.rotation_order(): 1 for a circle, the
mode of a rippled body), so the grid keeps the body's symmetry: a
circle's grid is invariant under a turn by one column, a k-fold rippled
body's under a turn by n_cols / k columns.  A mesh finds its largest
rotation symmetry from its geometry on first use (detect_rotation),
whatever its numbering; without one it has k = 1, and each node is the
orbit of itself.  Its reduction has one unknown per node orbit and works
on one triangle per triangle orbit, weighted by the orbit size: a Sector
for k > 1, the mesh itself for k = 1.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, InternalConsistencyError, MeshQualityError


def check_finite(contrib, what):
    """Reject NaN/inf per-triangle contributions, naming the first bad triangle."""
    flat = np.isfinite(contrib.reshape(contrib.shape[0], -1)).all(axis=1)
    if not flat.all():
        t = int(np.argmin(flat))
        raise InternalConsistencyError(
            f"non-finite {what} contribution on triangle {t}"
        )


@dataclass(frozen=True)
class Circle:
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius >= 1.0:
            raise DomainError(
                f"circle radius must be at least 1 (body encloses the unit "
                f"disk), got {self.radius:g}"
            )

    def boundary_radius(self, theta):
        return np.full_like(np.asarray(theta, dtype=float), self.radius)

    def max_radius(self):
        return self.radius

    def mean_radius(self):
        return self.radius

    def rotation_order(self):
        return 1


@dataclass(frozen=True)
class PerturbedCircle:
    """Star-shaped body r(theta) = base_radius + amplitude * cos(mode * theta)."""

    base_radius: float = 1.2
    amplitude: float = 0.1
    mode: int = 3

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise DomainError("amplitude must be nonnegative")
        enclosing = self.base_radius - self.amplitude > 1.0 or (
            self.amplitude == 0.0 and self.base_radius >= 1.0
        )
        if not enclosing:
            raise DomainError(
                "perturbed body must stay strictly outside the unit disk "
                f"(base {self.base_radius:g} minus amplitude {self.amplitude:g} "
                "must exceed 1)"
            )
        if not (isinstance(self.mode, (int, np.integer)) and self.mode >= 1):
            raise DomainError(f"mode must be a positive integer, got {self.mode!r}")

    def boundary_radius(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.base_radius + self.amplitude * np.cos(self.mode * theta)

    def max_radius(self):
        return self.base_radius + self.amplitude

    def mean_radius(self):
        return self.base_radius

    def rotation_order(self):
        return self.mode


@dataclass(eq=False)
class Reduction:
    """The unknowns a solve runs on and the reduced P1 matrix pattern.

    Each interior node orbit is free and the outer ring floats on one
    shared unknown, the gauge, which is last.  restriction maps the
    unknowns to nodes; an orbit unknown stands for multiplicity[i] full
    unknowns, k of them (one at k = 1), and the gauge for one.  cells
    holds one triangle per triangle orbit with area weight k: the
    rotation's Sector, or the mesh itself at k = 1.  Every reduced
    matrix shares the Laplacian's CSC pattern; slots sends each entry of
    the flattened (n_tri, 3, 3) local matrices of the cells to its data
    slot, or to the spare slot nnz when a corner carries no unknown.
    """

    restriction: sp.csr_matrix
    slots: np.ndarray  # int32, (9 n_tri,)
    laplacian: sp.csc_matrix  # restriction^T K restriction
    cells: "TriangleMesh | Sector"
    multiplicity: np.ndarray
    _factor: object = field(default=None, init=False, repr=False)

    def norm(self, g):
        """Euclidean norm of the full reduction's vector that g stands for.

        An orbit unknown's component is the sum of its multiplicity equal
        full components, so their squares sum to g_i^2 / multiplicity_i.
        """
        return float(np.sqrt(np.sum(g**2 / self.multiplicity)))

    def laplacian_factor(self, factorize):
        """factorize(laplacian) from the first call, kept for every later one."""
        if self._factor is None:
            self._factor = factorize(self.laplacian)
        return self._factor

    def assemble(self, k_loc):
        """Reduced matrix of per-triangle local matrices, (n_tri, 3, 3)."""
        lap = self.laplacian
        return _scatter(self.slots, k_loc, lap.indices, lap.indptr)


def _scatter(slots, k_loc, indices, indptr):
    """Sum local entries into their slots of the pattern (indices, indptr)."""
    nnz = indices.size
    data = np.bincount(slots, weights=k_loc.ravel(), minlength=nnz + 1)[:nnz]
    n = indptr.size - 1
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _pattern(corner_dofs, n):
    """Slots of the local entries and the CSC pattern (indices, indptr).

    corner_dofs is (n_tri, 3) int64, the unknown at each corner or -1.
    Local entry (i, j) of a triangle sits at key col * n + row, and an
    entry without an unknown at key n * n, past every real one.
    """
    row, col = corner_dofs[:, :, None], corner_dofs[:, None, :]
    keys = np.where((row >= 0) & (col >= 0), col * n + row, n * n).ravel()
    unique = np.sort(keys)
    unique = unique[np.concatenate(([True], unique[1:] != unique[:-1]))]
    slots = np.searchsorted(unique, keys).astype(np.int32)
    unique = unique[unique < n * n]
    indices = (unique % n).astype(np.int32)
    indptr = np.searchsorted(unique, np.arange(n + 1, dtype=np.int64) * n).astype(np.int32)
    return slots, indices, indptr


def _shape_gradients(p, areas):
    """P1 shape-function gradients of triangles with corners p, (n, 3, 2)."""
    out = np.empty((p.shape[0], 3, 2))
    for k in range(3):
        a = p[:, (k + 1) % 3]
        b = p[:, (k + 2) % 3]
        out[:, k, 0] = a[:, 1] - b[:, 1]
        out[:, k, 1] = b[:, 0] - a[:, 0]
    return out / (2.0 * areas)[:, None, None]


class TriangleMesh:
    """Triangle mesh of an annulus with body and outer boundary rings.

    body_nodes and outer_nodes are index arrays ordered counterclockwise
    along their boundary; node numbering is otherwise arbitrary (tests
    exercise permuted numberings).  P1 operators are built on first use.
    """

    def __init__(self, points, triangles, body_nodes, outer_nodes, body_theta=None):
        self.points = points
        self.triangles = triangles
        self.body_nodes = np.asarray(body_nodes, dtype=np.int64)
        self.outer_nodes = np.asarray(outer_nodes, dtype=np.int64)
        self.body_theta = body_theta

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @cached_property
    def corners(self):
        """(n_tri, 3, 2) vertex coordinates."""
        return self.points[self.triangles]

    @cached_property
    def areas(self):
        p = self.corners
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def centroids(self):
        return self.corners.mean(axis=1)

    @cached_property
    def shape_gradients(self):
        """P1 shape-function gradients, (n_tri, 3, 2)."""
        return _shape_gradients(self.corners, self.areas)

    def local_stiffness(self, coef):
        """Per-triangle P1 matrices for one 2x2 coefficient each, (n_tri, 3, 3)."""
        B = self.shape_gradients
        k_loc = B @ coef @ B.transpose(0, 2, 1)
        k_loc *= self.areas[:, None, None]
        check_finite(k_loc, "stiffness")
        return k_loc

    @cached_property
    def interior(self):
        """Nodes on neither boundary ring, ascending."""
        free = np.ones(self.n_points, dtype=bool)
        free[self.body_nodes] = free[self.outer_nodes] = False
        return np.nonzero(free)[0]

    @cached_property
    def hat_norms(self):
        """H1 seminorm of every node's hat function, from the local stiffness diagonal.

        The diagonal area * |grad phi_i|^2 is taken by one batched (1x2)(2x1)
        product per corner, which sums like local_stiffness(eye) does and so
        gives its diagonal bit for bit.
        """
        B = self.shape_gradients
        diag = (B[:, :, None, :] @ B[:, :, :, None])[..., 0, 0] * self.areas[:, None]
        return np.sqrt(
            np.bincount(self.triangles.ravel(), weights=diag.ravel(), minlength=self.n_points)
        )

    @cached_property
    def reduction(self):
        """The Reduction every solve on this mesh runs on, built on first use:
        one unknown per interior node orbit (plus the gauge) on the
        rotation's sector, which at k = 1 is the mesh itself."""
        rotation = self.rotation
        n = self.n_points
        cells = rotation.sector(self)
        # one unknown per orbit, numbered by its smallest node
        interior = self.interior
        interior = interior[rotation.node_orbits[interior] == interior]
        dof = np.full(n, -1, dtype=np.int64)
        dof[interior] = np.arange(interior.size)
        dof = dof[rotation.node_orbits]
        n_red = interior.size + 1
        dof[self.outer_nodes] = n_red - 1
        multiplicity = np.full(n_red, float(rotation.k))
        multiplicity[-1] = 1.0
        nodes = np.nonzero(dof >= 0)[0]
        restriction = sp.csr_matrix(
            (np.ones(nodes.size), (nodes, dof[nodes])), shape=(n, n_red)
        )
        slots, indices, indptr = _pattern(dof[cells.triangles], n_red)
        eye = np.broadcast_to(np.eye(2), (cells.triangles.shape[0], 2, 2))
        lap = _scatter(slots, cells.local_stiffness(eye), indices, indptr)
        return Reduction(restriction, slots, lap, cells, multiplicity)

    @cached_property
    def rotation(self):
        """The mesh's largest rotation symmetry, found on first use."""
        return detect_rotation(self)

    @cached_property
    def body_edge_triangles(self):
        """Index of the triangle that owns each edge of body_edge_list()."""
        t = self.triangles
        key = [self.n_points, 1]  # undirected edge (a < b) -> a n + b
        tri_keys = (np.sort(np.stack([t, np.roll(t, -1, axis=1)], -1), -1) @ key).ravel()
        order = np.argsort(tri_keys, kind="stable")
        body = self.body_edge_list()
        wanted = np.sort(body, axis=1) @ key
        hit = order[np.minimum(np.searchsorted(tri_keys[order], wanted), t.size - 1)]
        missing = np.nonzero(tri_keys[hit] != wanted)[0]
        if missing.size:
            a, b = body[missing[0]]
            raise InternalConsistencyError(
                f"body edge ({a}, {b}) is not an edge of any triangle"
            )
        return hit // 3

    def edges(self, return_counts=False):
        """Unique undirected edges; optionally how many triangles share each."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e = np.sort(e, axis=1)
        return np.unique(e, axis=0, return_counts=return_counts)

    def euler_characteristic(self):
        v = self.n_points
        e = self.edges().shape[0]
        f = self.n_triangles
        return v - e + f

    def min_angle_deg(self):
        p = self.corners
        angles = []
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cosang = np.sum(a * b, axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))

    def max_aspect(self):
        """Longest-edge-squared over twice-area, worst triangle.

        Equals 2/sqrt(3) for an equilateral triangle and grows without
        bound as triangles degenerate.
        """
        p = self.corners
        e = p - np.roll(p, 1, axis=1)
        longest_sq = np.max(np.sum(e**2, axis=-1), axis=1)
        return float(np.max(longest_sq / (2.0 * self.areas)))

    def body_edge_list(self):
        """Directed body-boundary edges, counterclockwise closed cycle."""
        return np.stack([self.body_nodes, np.roll(self.body_nodes, -1)], axis=1)


@dataclass(eq=False)
class Sector:
    """One triangle per rotation orbit, each weighted by the orbit size k.

    The areas carry the weight, so for a field with the mesh's symmetry a
    sum over the sector, such as the energy and its derivatives, is the
    sum over the whole mesh.
    """

    triangles: np.ndarray
    areas: np.ndarray  # k times the triangle areas
    shape_gradients: np.ndarray
    centroids: np.ndarray

    local_stiffness = TriangleMesh.local_stiffness  # reads shape_gradients and areas


@dataclass(frozen=True, eq=False)
class Rotation:
    """A rotation by 2 pi / k about the origin that maps the mesh onto itself.

    node_orbits labels each node by the smallest index in its orbit, and
    triangle_orbits each triangle.  At k = 1, the identity, every node is
    its own orbit (node_orbits is arange(n_points)) and triangle_orbits
    is None: the sector is the mesh.
    """

    k: int
    node_orbits: np.ndarray
    triangle_orbits: np.ndarray | None = None

    def sector(self, mesh):
        """The sector of the orbits' smallest triangles; the mesh itself at k = 1."""
        if self.k == 1:
            return mesh
        index = np.nonzero(self.triangle_orbits == np.arange(mesh.n_triangles))[0]
        corners = mesh.corners[index]
        areas = mesh.areas[index]
        return Sector(
            triangles=mesh.triangles[index],
            areas=self.k * areas,
            shape_gradients=_shape_gradients(corners, areas),
            centroids=corners.mean(axis=1),
        )


#: rotated points match mesh points within this fraction of the mesh extent
ROTATION_TOL = 1e-9

# points are matched by sorting their projections on this direction; at
# one radian it is parallel to no grid line of a polar grid
_DIRECTION = np.array([math.cos(1.0), math.sin(1.0)])


def detect_rotation(mesh):
    """The largest rotation symmetry of the mesh's geometry.

    Candidates for k are the divisors of the body-node count, largest
    first; one is skipped unless turning the counterclockwise body ring
    by n_body / k nodes matches the rotated body points.  A candidate is
    accepted only if every rotated point lands within ROTATION_TOL times
    the mesh extent of a mesh point, both rings and the triangle set map
    onto themselves, and every orbit has k members.  Otherwise k = 1,
    whose orbits are the single nodes.
    """
    points, body = mesh.points, mesh.body_nodes
    n_body = body.size
    ring = points[body]
    tol = ROTATION_TOL * float(np.max(np.abs(points)))
    for k in range(n_body, 1, -1):
        if n_body % k:
            continue
        c, s = math.cos(2.0 * math.pi / k), math.sin(2.0 * math.pi / k)
        turn = np.array([[c, s], [-s, c]])  # p @ turn rotates p by 2 pi / k
        turned_ring = np.roll(body, -(n_body // k))
        if np.max(np.hypot(*(ring @ turn - points[turned_ring]).T)) > tol:
            continue
        image = _match_points(points, points @ turn, tol)
        if (
            image is None
            or not np.array_equal(image[body], turned_ring)
            or not np.array_equal(np.sort(image[mesh.outer_nodes]), np.sort(mesh.outer_nodes))
        ):
            continue
        triangle_image = _triangle_image(mesh.triangles, image)
        if triangle_image is None:
            continue
        node_orbits = _orbit_labels(image, k)
        triangle_orbits = _orbit_labels(triangle_image, k)
        if node_orbits is not None and triangle_orbits is not None:
            return Rotation(k, node_orbits, triangle_orbits)
    return Rotation(1, np.arange(mesh.n_points))


def _match_points(points, images, tol):
    """Index of the point within tol of each image; None if one has none.

    Only points whose projection lies within tol of the image's can be
    that close, and sorting the projections finds them.
    """
    f = points @ _DIRECTION
    order = np.argsort(f)
    f = f[order]
    g = images @ _DIRECTION
    lo = np.searchsorted(f, g - tol, "left")
    hi = np.searchsorted(f, g + tol, "right")
    if np.any(hi <= lo):
        return None
    best = order[lo]
    dist = np.hypot(*(points[best] - images).T)
    for offset in range(1, int(np.max(hi - lo))):
        other = order[np.minimum(lo + offset, hi - 1)]
        d = np.hypot(*(points[other] - images).T)
        closer = d < dist
        best[closer] = other[closer]
        dist[closer] = d[closer]
    if np.any(dist > tol) or np.any(np.bincount(best, minlength=f.size) != 1):
        return None
    return best


def _triangle_image(triangles, image):
    """Index of the triangle each triangle's nodes map onto under image.

    None if the triangle set does not map onto itself.
    """
    own = np.sort(triangles, axis=1)
    moved = np.sort(image[triangles], axis=1)
    a = np.lexsort(own.T[::-1])
    b = np.lexsort(moved.T[::-1])
    if not np.array_equal(own[a], moved[b]):
        return None
    out = np.empty_like(a)
    out[b] = a
    return out


def _orbit_labels(image, k):
    """Smallest index in each orbit of the permutation image.

    Doubling windows take the minimum over the first 1, 2, 4, ... members
    of each orbit.  None unless every orbit has exactly k members.
    """
    label = np.arange(image.size)
    jump, span = image, 1
    while span < k:
        label = np.minimum(label, label[jump])
        jump = jump[jump]
        span *= 2
    sizes = np.bincount(label, minlength=image.size)
    if not np.array_equal(label[image], label) or np.any(sizes[sizes > 0] != k):
        return None
    return label


@dataclass(frozen=True)
class MeshQualityReport:
    min_angle_deg: float
    max_aspect: float
    n_points: int
    n_edges: int
    n_triangles: int


def mesh_quality_report(mesh):
    """Exact angle/aspect extrema and the counts behind the Euler check."""
    return MeshQualityReport(
        min_angle_deg=mesh.min_angle_deg(),
        max_aspect=mesh.max_aspect(),
        n_points=mesh.n_points,
        n_edges=mesh.edges().shape[0],
        n_triangles=mesh.n_triangles,
    )


#: smallest triangle angle, in degrees, that build_annulus_mesh accepts
MIN_ANGLE_DEG = 20.0


def build_annulus_mesh(body, outer_radius, target_h):
    """Mesh the region between the body boundary and the circle r = outer_radius.

    target_h sets the edge length near the body; spacing then grows in
    proportion to r.  The column count is rounded up to a multiple of
    body.rotation_order(), so a k-fold body gets a k-fold invariant mesh.
    Raises MeshQualityError if the warped grid falls below the
    MIN_ANGLE_DEG quality threshold (sharply perturbed bodies).
    """
    if not target_h > 0.0:
        raise DomainError(f"target_h must be positive, got {target_h:g}")
    a_ref = body.mean_radius()
    if not outer_radius >= 4.0 * body.max_radius():
        raise DomainError(
            f"outer_radius {outer_radius:g} must be at least four body radii "
            f"({4.0 * body.max_radius():g})"
        )
    n_cols = max(8, math.ceil(2.0 * math.pi * a_ref / target_h))
    k = body.rotation_order()
    n_cols = -(-n_cols // k) * k
    n_r = max(4, math.ceil(a_ref * math.log(outer_radius / a_ref) / target_h))
    theta = 2.0 * math.pi * np.arange(n_cols) / n_cols
    rb = body.boundary_radius(theta)
    s = (np.arange(n_r + 1) / n_r)[:, None]
    r = np.exp((1.0 - s) * np.log(rb)[None, :] + s * math.log(outer_radius))
    x = r * np.cos(theta)[None, :]
    y = r * np.sin(theta)[None, :]
    points = np.stack([x.ravel(), y.ravel()], axis=1)

    i = np.repeat(np.arange(n_r), n_cols)
    j = np.tile(np.arange(n_cols), n_r)
    jp = (j + 1) % n_cols
    a = i * n_cols + j
    b = i * n_cols + jp
    c = (i + 1) * n_cols + jp
    d = (i + 1) * n_cols + j
    # quad cycle a -> d -> c -> b is counterclockwise; split along a-c
    tris = np.empty((2 * n_r * n_cols, 3), dtype=np.int64)
    tris[0::2] = np.stack([a, d, c], axis=1)
    tris[1::2] = np.stack([a, c, b], axis=1)

    mesh = TriangleMesh(
        points,
        tris,
        body_nodes=np.arange(n_cols),
        outer_nodes=np.arange(n_r * n_cols, (n_r + 1) * n_cols),
        body_theta=theta,
    )
    bad = np.nonzero(mesh.areas <= 0.0)[0]
    if bad.size:
        raise MeshQualityError(f"degenerate triangle {bad[0]} in generated mesh")
    worst = mesh.min_angle_deg()
    if worst < MIN_ANGLE_DEG:
        raise MeshQualityError(
            f"minimum triangle angle {worst:.2f} deg is below the "
            f"{MIN_ANGLE_DEG:g} deg quality threshold"
        )
    return mesh
