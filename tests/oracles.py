"""Reference implementations the tests hold the library against.

`tensor_rule` builds the Gauss rule of one box by repeated tiling; the
library builds the rules of whole batches of boxes per direction
(`quadrature.tensor_rules`) and must reproduce it bit for bit.
`boundary_facets` enumerates the facets of a box face one element at a
time, with their clipped parent intervals; `mesh.facet_rules` selects
and clips a whole face per direction instead. `span_index`,
`span_interval`, `element_interval` and `local_interval` read one
element's interval at a time, where the library reads
`SplineDir.intervals()`; `find_span` and `eval_basis` locate and
evaluate the basis at one parameter value, where the library evaluates
whole batches on known spans (`SplineDir.eval`). `signed_distance` and
`inside` test points against an `OverlapRegion` one point at a time;
the library classifies and cuts elements from per-direction covering
flags instead. `b_matrix_solid` and `integrate_btcb` build the solid
strain matrix by hand and integrate w B^T C B; the library states each
model's kinematics as a table and integrates its stiffness form.
"""
import numpy as np

from mdfem.bspline import _basis_ders, _rationalize
from mdfem.elasticity import integrate_atb
from mdfem.errors import DomainError
from mdfem.quadrature import gauss_1d


def tensor_rule(intervals, counts) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss rule on the box spanned by ``intervals``.

    Parameters
    ----------
    intervals : sequence of (a, b)
        One interval per direction.
    counts : sequence of int
        Number of points per direction.

    Returns
    -------
    points : ndarray (npts, d)
        Ordered first direction fastest. With zero directions the rule is
        one point (shape ``(1, 0)``) of weight 1.
    weights : ndarray (npts,)
    """
    points = np.zeros((1, 0))
    weights = np.ones(1)
    for (a, b), n in zip(intervals, counts):
        g, w = gauss_1d(int(n))
        x = 0.5 * (a + b) + 0.5 * (b - a) * g
        m = points.shape[0]
        # The new direction varies slowest: repeat the rule so far per point.
        points = np.column_stack([np.tile(points, (len(x), 1)),
                                  np.repeat(x, m)])
        weights = np.tile(weights, len(x)) * np.repeat(0.5 * (b - a) * w, m)
    return points, weights


def signed_distance(region, pts):
    """Coordinate-wise box distance to an `OverlapRegion`, negative inside
    the solid."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.full(pts.shape[0], -np.inf)
    for k, (lo, hi) in enumerate(region.bounds):
        d = np.maximum(d, np.maximum(lo - pts[:, k], pts[:, k] - hi))
    return d


def inside(region, pts):
    """Points strictly inside ``region``; its boundary is not covered."""
    return signed_distance(region, pts) < 0.0


def span_index(kv, element) -> int:
    """Knot index of the span opening the given element of a knot vector."""
    return int(kv._span_starts[element])


def span_interval(kv, span) -> tuple[float, float]:
    """Parameter interval [t_i, t_{i+1}) of a knot span."""
    return float(kv.knots[span]), float(kv.knots[span + 1])


def element_interval(d, e) -> tuple[float, float]:
    """Parameter interval of element ``e`` of a `SplineDir`."""
    return span_interval(d.kv, span_index(d.kv, e))


def local_interval(d, e) -> tuple[float, float]:
    """Local-coordinate interval of element ``e`` of a `SplineDir`."""
    a, b = element_interval(d, e)
    return d.param_to_local(a), d.param_to_local(b)


def boundary_facets(mesh, axis, side, strip=None):
    """Facets ``(elem, clips)`` of box face ``side`` of direction ``axis``,
    in element order, one element at a time.

    ``strip`` optionally restricts the face in the *local box* coordinates
    of the free axes: one ``(lo, hi)`` pair or ``None`` per free axis.
    Facets that do not intersect the strip are dropped; ``clips`` holds
    one parent interval ``(lo, hi)`` per free axis.
    """
    free = [k for k in range(mesh.dim) if k != axis]
    boundary_e = mesh.dirs[axis].nelem - 1 if side > 0 else 0
    gi = mesh.element_grid_index(np.arange(mesh.nelem))
    facets = []
    for e in np.nonzero(gi[axis] == boundary_e)[0]:
        clips = []
        keep = True
        for j, k in enumerate(free):
            lo, hi = local_interval(mesh.dirs[k], gi[k][e])
            want = None if strip is None else strip[j]
            if want is None:
                clips.append((-1.0, 1.0))
                continue
            clo, chi = max(lo, want[0]), min(hi, want[1])
            if chi - clo <= 1e-12 * (hi - lo):
                keep = False
                break
            # local -> parent on this axis (affine)
            clips.append((
                (2 * clo - lo - hi) / (hi - lo),
                (2 * chi - lo - hi) / (hi - lo),
            ))
        if keep:
            facets.append((int(e), tuple(clips)))
    return facets


def find_span(kv, x: float) -> int:
    """Locate the knot span containing x.

    Returns the unique index i with ``knots[i] <= x < knots[i+1]`` among the
    non-empty spans; the right endpoint of the domain maps to the last
    non-empty span.

    Raises
    ------
    DomainError
        If x lies outside the parameter domain.
    """
    lo, hi = kv.domain
    if x < lo or x > hi:
        raise DomainError(f"parameter {x} outside domain [{lo}, {hi}]")
    knots = kv.knots
    high = knots.size - kv.degree - 1
    if x >= knots[high]:
        # Right endpoint: last non-empty span.
        return int(kv._span_starts[-1])
    span = int(np.searchsorted(knots, x, side="right")) - 1
    return span


def eval_basis(kv, x: float, nders: int = 0):
    """Evaluate the non-vanishing (rational) basis functions at x.

    Parameters
    ----------
    kv : KnotVector
    x : float
        Parameter value inside the domain.
    nders : int
        Highest derivative order requested (0, 1 or 2).

    Returns
    -------
    ders : ndarray (nders + 1, degree + 1)
        Row k holds the k-th derivative of each non-vanishing function.
    indices : ndarray (degree + 1,)
        Global indices of those functions.
    """
    if nders not in (0, 1, 2):
        raise DomainError(f"derivative order must be 0, 1 or 2, got {nders}")
    span = find_span(kv, x)
    ders = _basis_ders(kv.knots, kv.degree, x, span, nders)
    indices = np.arange(span - kv.degree, span + 1)
    if kv.weights is not None:
        ders = _rationalize(ders, kv.weights[indices], nders)
    return ders[0], indices


def b_matrix_solid(dNdx: np.ndarray) -> np.ndarray:
    """Strain-displacement matrices from shape gradients.

    ``dNdx`` has shape (nq, nen, dim); the result has shape
    (nq, nvoigt, dim * nen) with DOFs node-major.
    """
    nq, nen, dim = dNdx.shape
    if dim == 2:
        B = np.zeros((nq, 3, 2 * nen))
        B[:, 0, 0::2] = dNdx[:, :, 0]
        B[:, 1, 1::2] = dNdx[:, :, 1]
        B[:, 2, 0::2] = dNdx[:, :, 1]
        B[:, 2, 1::2] = dNdx[:, :, 0]
        return B
    B = np.zeros((nq, 6, 3 * nen))
    dx, dy, dz = dNdx[:, :, 0], dNdx[:, :, 1], dNdx[:, :, 2]
    B[:, 0, 0::3] = dx
    B[:, 1, 1::3] = dy
    B[:, 2, 2::3] = dz
    B[:, 3, 0::3] = dy
    B[:, 3, 1::3] = dx
    B[:, 4, 1::3] = dz
    B[:, 4, 2::3] = dy
    B[:, 5, 0::3] = dz
    B[:, 5, 2::3] = dx
    return B


def integrate_btcb(B: np.ndarray, C: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over quadrature points of w * B^T C B (GEMM-shaped, batched as
    `elasticity.integrate_atb`)."""
    return integrate_atb(B, np.einsum("ab,...bj->...aj", C, B), w)
