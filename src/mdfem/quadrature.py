"""Gauss-Legendre quadrature: 1D rules on [-1, 1] and tensor rules on
batches of boxes."""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the n-point Gauss-Legendre points and weights on [-1, 1]."""
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got {n}")
    pts, wts = np.polynomial.legendre.leggauss(n)
    return pts, wts


def tensor_rules(bounds, index, counts):
    """Tensor-product Gauss rules of a batch of boxes, built per direction
    (the one tensor-rule builder: bulk, cut, facet and projection rules).

    Box i spans interval ``bounds[k][index[k][i]]`` in direction k, where
    ``bounds[k]`` is an ``(m_k, 2)`` array, and carries ``counts[k]``
    points there. Returns ``(points, weights, rules)``: ``points``
    ``(E, nq, dim)``, first direction fastest, ``weights`` ``(E, nq)``,
    and per direction ``rules[k] = (x, at)``, the abscissae ``(m_k,
    counts[k])`` on every interval with the index pair that gathers them,
    ``x[at]`` being ``points[..., k]``.
    """
    qi = np.unravel_index(np.arange(int(np.prod(counts))), counts, order="F")
    points, weights, rules = [], np.ones(1), []
    for ab, i, n, q in zip(bounds, index, counts, qi):
        g, w = gauss_1d(int(n))
        a, b = np.asarray(ab, dtype=float).T[..., None]
        x = 0.5 * (a + b) + 0.5 * (b - a) * g
        at = (np.asarray(i)[:, None], q[None, :])
        points.append(x[at])
        weights = weights * (0.5 * (b - a) * w)[at]
        rules.append((x, at))
    return np.stack(points, axis=-1), weights, rules
