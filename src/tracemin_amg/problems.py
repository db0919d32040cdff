"""Benchmark operators: rotated anisotropic diffusion and diffusion with
an oscillatory coefficient.

Both are discretized with linear (P1) finite elements on a structured
triangulation of the unit square: n x n square cells, each split along
the same diagonal into two right triangles (2 n^2 elements).  Homogeneous
Dirichlet boundary rows and columns are eliminated, leaving an SPD
matrix over the (n-1)^2 interior nodes.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "ProblemSpec",
    "Problem",
    "assemble",
]

def check_count(name, value, minimum=0):
    """Raise a ValueError naming `name` unless value is an integer (not a
    bool, not an integral float) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer; got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}; got {value!r}")


def check_real(name, value, low=-math.inf, high=math.inf):
    """Raise a ValueError naming `name` unless value is a finite real
    number (not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number; got {value!r}")
    if not low <= value <= high:
        bound = f"be >= {low:g}" if high == math.inf else f"lie in [{low:g}, {high:g}]"
        raise ValueError(f"{name} must {bound}; got {value!r}")


def check_positive(name, value):
    """check_real(name, value), and a ValueError naming `name` unless value > 0."""
    check_real(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be > 0; got {value!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of a benchmark problem.

    kind is 'rotated_anisotropic' (diffusion tensor Q^T diag(1, epsilon) Q
    with rotation angle theta) or 'oscillatory' (isotropic tensor whose
    scalar coefficient alternates between 1 and K at neighboring nodes).
    n is the number of mesh intervals per side, an integer >= 2;
    epsilon, theta and K are finite real numbers, with epsilon in [0, 1]
    and K > 0.
    """

    kind: str
    n: int
    epsilon: float = 1.0
    theta: float = 3.0 * math.pi / 16.0
    K: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rotated_anisotropic", "oscillatory"):
            raise ValueError(f"unknown problem kind: {self.kind!r}")
        check_count("n", self.n, minimum=2)
        check_real("epsilon", self.epsilon, 0.0, 1.0)
        check_real("theta", self.theta)
        check_positive("K", self.K)


@dataclass
class Problem:
    """An assembled benchmark operator: matrix is SPD, with the
    Dirichlet rows and columns eliminated."""

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


# the (x, y) corners of the local nodes of a cell's lower triangle (a, b, c)
# and upper triangle (a, c, d), as steps from the cell's corner a
_CORNERS = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
# the (x, y) steps from a node to every node it shares a triangle with,
# itself included, in ascending node order
_STENCIL = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


def _stencil_values(spec):
    """Stiffness entries of every mesh node with its _STENCIL neighbours,
    shape (n+1, n+1, 7) indexed [y, x, slot], 0 off the mesh.

    Node (x, y) is local node r of the cell at (x, y) - corner_r, so an
    entry sums one element value per triangle the two nodes share.  Each
    family's terms are added in element order (cells x-major), and then
    the lower family's sum to the upper's: the order, and so the bits,
    of a COO scatter of each family followed by their sum.
    """
    n = spec.n
    h = 1.0 / n
    if spec.kind == "rotated_anisotropic":
        k_families = _element_matrices(diffusion_tensor(spec.epsilon, spec.theta), h)
        scales = (None, None)
    else:
        k_families = _element_matrices(np.eye(2), h)
        f = oscillatory_coefficient(spec).reshape(n + 1, n + 1)  # [y, x]
        # one-point quadrature of the linearly interpolated coefficient:
        # each element is scaled by the mean of its three nodal values
        scales = [np.stack([f[dy:dy + n, dx:dx + n] for dx, dy in corners],
                           axis=-1).mean(axis=-1) for corners in _CORNERS]
    vals = np.empty((n + 1, n + 1, len(_STENCIL)))
    for slot, step in enumerate(_STENCIL):
        sums = []
        for corners, k, scale in zip(_CORNERS, k_families, scales):
            terms = sorted(((-rx, -ry), r, c)
                           for r, (rx, ry) in enumerate(corners)
                           for c, (cx, cy) in enumerate(corners)
                           if (cx - rx, cy - ry) == step)
            family = np.zeros((n + 1, n + 1))
            for (dx, dy), r, c in terms:
                family[-dy:n - dy, -dx:n - dx] += k[r, c] if scale is None else scale * k[r, c]
            sums.append(family)
        np.add(sums[0], sums[1], out=vals[:, :, slot])
    return vals


def _stencil_csr(vals, row_length):
    """The CSR matrix of stencil values vals[y, x, slot] on a grid with
    row_length nodes per row, numbered x + y * row_length.  A zero value
    is not stored, as the sum of the two families' sparse matrices
    stores no entry that sums to exactly zero."""
    ny, nx, _ = vals.shape
    n_rows = ny * nx
    itype = np.int32 if len(_STENCIL) * n_rows < 2**31 else np.int64
    offsets = np.array([dx + dy * row_length for dx, dy in _STENCIL], dtype=itype)
    keep = vals != 0.0
    indptr = np.zeros(n_rows + 1, dtype=itype)
    np.cumsum(keep.sum(axis=2, dtype=itype), out=indptr[1:])
    ids = np.arange(n_rows, dtype=itype).reshape(ny, nx, 1)
    indices = (ids + offsets)[keep]
    return sparse.csr_matrix((vals[keep], indices, indptr), shape=(n_rows, n_rows))


def assemble(spec):
    """Assemble the benchmark operator `spec` describes, with its
    Dirichlet boundary rows and columns eliminated: the stencil values of
    the interior nodes, minus those that reach the boundary."""
    n = spec.n
    interior = _stencil_values(spec)[1:n, 1:n]
    for slot, (dx, dy) in enumerate(_STENCIL):
        if dx:
            interior[:, 0 if dx < 0 else -1, slot] = 0.0
        if dy:
            interior[0 if dy < 0 else -1, :, slot] = 0.0
    return Problem(_stencil_csr(interior, n - 1))
