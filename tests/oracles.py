"""Reference implementations the tests hold the library against.

`tensor_rule` builds the Gauss rule of one box by repeated tiling; the
library builds the rules of whole batches of boxes per direction
(`quadrature.tensor_rules`) and must reproduce it bit for bit.
`signed_distance` and `inside` test points against an `OverlapRegion`
one point at a time; the library classifies and cuts elements from
per-direction covering flags instead.
"""
import numpy as np

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
