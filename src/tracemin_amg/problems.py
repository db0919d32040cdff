"""Benchmark operators: rotated anisotropic diffusion and diffusion with
an oscillatory coefficient.

Both are discretized with linear (P1) finite elements on a structured
triangulation of the unit square: n x n square cells, each split along
the same diagonal into two right triangles (2 n^2 elements).  Homogeneous
Dirichlet boundary rows and columns are eliminated, leaving an SPD
matrix over the (n-1)^2 interior nodes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "ProblemSpec",
    "Problem",
    "assemble",
    "full_stiffness",
]

DEFAULT_THETA = 3.0 * math.pi / 16.0


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of a benchmark problem.

    kind is 'rotated_anisotropic' (diffusion tensor Q^T diag(1, epsilon) Q
    with rotation angle theta) or 'oscillatory' (isotropic tensor whose
    scalar coefficient alternates between 1 and K at neighboring nodes).
    n is the number of mesh intervals per side.
    """

    kind: str
    n: int
    epsilon: float = 1.0
    theta: float = DEFAULT_THETA
    K: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rotated_anisotropic", "oscillatory"):
            raise ValueError(f"unknown problem kind: {self.kind!r}")
        if self.n < 2:
            raise ValueError("need at least 2 mesh intervals per side")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        if self.K <= 0.0:
            raise ValueError("oscillation magnitude K must be positive")


@dataclass
class Problem:
    """An assembled benchmark operator: matrix is SPD, with the
    Dirichlet rows and columns eliminated."""

    spec: ProblemSpec
    matrix: sparse.csr_matrix


def _reference_gradients(h):
    """Barycentric P1 gradients for the two triangles of a mesh cell.

    Cell corners: a=(0,0), b=(h,0), c=(h,h), d=(0,h); the cell is split
    along the diagonal a-c into lower triangle (a, b, c) and upper
    triangle (a, c, d).  Returns two (3, 2) arrays of basis gradients.
    """
    lower = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]) / h
    upper = np.array([[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]]) / h
    return lower, upper


def _element_matrices(tensor, h):
    """3x3 P1 stiffness matrices of the lower/upper reference triangles."""
    area = 0.5 * h * h
    lower, upper = _reference_gradients(h)
    k_lower = area * lower @ tensor @ lower.T
    k_upper = area * upper @ tensor @ upper.T
    return k_lower, k_upper


def _cell_connectivity(n):
    """Vertex triples of all 2 n^2 triangles, nodes numbered x + y*(n+1)."""
    stride = n + 1
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a = (i + j * stride).ravel()
    b = a + 1
    c = a + 1 + stride
    d = a + stride
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    return lower, upper


def _scatter(local_mats, conn, nnodes):
    """Accumulate per-element 3x3 blocks into a global COO matrix."""
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    vals = local_mats.reshape(len(conn), 9).ravel()
    return sparse.coo_matrix((vals, (rows, cols)), shape=(nnodes, nnodes))


def diffusion_tensor(epsilon, theta):
    """Q^T diag(1, epsilon) Q for rotation angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    Q = np.array([[c, -s], [s, c]])
    D = np.diag([1.0, epsilon])
    return Q.T @ D @ Q


def oscillatory_coefficient(spec):
    """Nodal coefficient field of the oscillatory problem.

    f = K where the integer mesh indices (Nx, Ny) have opposite parity,
    and f = 1 where they share parity, giving a checkerboard whose
    frequency follows the mesh.
    """
    n = spec.n
    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    f = np.where((ix + iy) % 2 == 1, spec.K, 1.0)
    return f.ravel(order="F")  # node id = ix + iy*(n+1)


def full_stiffness(spec):
    """Pre-elimination stiffness matrix over all (n+1)^2 mesh nodes."""
    n = spec.n
    h = 1.0 / n
    nnodes = (n + 1) ** 2
    lower_conn, upper_conn = _cell_connectivity(n)

    if spec.kind == "rotated_anisotropic":
        tensor = diffusion_tensor(spec.epsilon, spec.theta)
        k_lower, k_upper = _element_matrices(tensor, h)
        lower_mats = np.broadcast_to(k_lower, (len(lower_conn), 3, 3))
        upper_mats = np.broadcast_to(k_upper, (len(upper_conn), 3, 3))
    else:
        coeff = oscillatory_coefficient(spec)
        k_lower, k_upper = _element_matrices(np.eye(2), h)
        # one-point quadrature of the linearly interpolated coefficient:
        # each element is scaled by the mean of its three nodal values
        lower_scale = coeff[lower_conn].mean(axis=1)
        upper_scale = coeff[upper_conn].mean(axis=1)
        lower_mats = lower_scale[:, None, None] * k_lower
        upper_mats = upper_scale[:, None, None] * k_upper

    A = _scatter(lower_mats, lower_conn, nnodes) + _scatter(upper_mats, upper_conn, nnodes)
    A = A.tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def assemble(spec):
    """Assemble the benchmark operator `spec` describes, with its
    Dirichlet boundary rows and columns eliminated."""
    A_full = full_stiffness(spec)
    n = spec.n
    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    interior = ((ix > 0) & (ix < n) & (iy > 0) & (iy < n)).ravel(order="F")
    keep = np.flatnonzero(interior)
    A = A_full[keep][:, keep].tocsr()
    A.sort_indices()
    return Problem(spec, A)
