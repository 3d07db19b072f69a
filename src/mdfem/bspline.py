"""B-spline and NURBS basis evaluation on open knot vectors.

Univariate machinery shared by curve, surface and volume meshes: one
basis direction (`SplineDir`, knots in local coordinates) with basis
values and first and second derivatives on given elements, Greville
abscissae, and least-squares projection of boundary data onto a spline
space.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, DomainError, RankError
from .quadrature import tensor_rules

#: Denominators smaller than this are treated as zero (0/0 == 0 convention).
DENOM_GUARD = 1e-14


def make_open_knots(degree: int, breaks) -> np.ndarray:
    """Build a clamped knot vector from breakpoints.

    The first and last breakpoints are repeated ``degree + 1`` times; the
    interior breakpoints appear once each.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2:
        raise ConfigError("need at least two breakpoints")
    return np.concatenate(
        [np.full(degree, breaks[0]), breaks, np.full(degree, breaks[-1])]
    )


@dataclass
class SplineDir:
    """One basis direction: clamped, non-decreasing ``knots`` in local
    coordinates (the first and last are ``lo`` and ``hi``), the
    ``degree`` p >= 0 and optional positive NURBS ``weights``, one per
    basis function (None: polynomial, all weights one)."""

    knots: np.ndarray
    degree: int
    weights: np.ndarray | None = None
    _span_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        p = self.degree
        if p < 0:
            raise ConfigError(f"degree must be non-negative, got {p}")
        if self.knots.ndim != 1 or self.knots.size < 2 * (p + 1):
            raise ConfigError("knot vector too short for degree")
        if np.any(np.diff(self.knots) < 0):
            raise ConfigError("knot vector must be non-decreasing")
        if not (
            np.allclose(self.knots[: p + 1], self.knots[0])
            and np.allclose(self.knots[-(p + 1):], self.knots[-1])
        ):
            raise ConfigError("knot vector must be open (clamped at both ends)")
        if self.knots[p] == self.knots[-p - 1]:
            raise ConfigError("knot vector has an empty domain")
        interior = self.knots[p + 1:-p - 1]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > max(p, 1)):
                raise ConfigError("interior knot multiplicity exceeds degree")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.n,):
                raise ConfigError(
                    f"need {self.n} weights, got {self.weights.shape}"
                )
            if np.any(self.weights <= 0.0):
                raise ConfigError("NURBS weights must be positive")
        # Knot indices that open a non-empty span (an element), in order.
        self._span_starts = np.nonzero(np.diff(self.knots) > 0.0)[0]

    @property
    def n(self) -> int:
        """Number of basis functions: len(knots) - degree - 1."""
        return self.knots.size - self.degree - 1

    @property
    def nelem(self) -> int:
        """Number of non-empty knot spans (elements)."""
        return self._span_starts.size

    @property
    def nloc(self) -> int:
        return self.degree + 1

    @property
    def lo(self) -> float:
        return float(self.knots[self.degree])

    @property
    def hi(self) -> float:
        return float(self.knots[-self.degree - 1])

    def greville(self) -> np.ndarray:
        """Greville abscissae: moving average of ``degree`` consecutive knots."""
        p = self.degree
        if p == 0:
            # Midpoints of the spans; the averaging rule has no knots to average.
            return 0.5 * (self.knots[:-1] + self.knots[1:])
        window = self.knots[np.arange(1, p + 1) + np.arange(self.n)[:, None]]
        return window.sum(axis=1) / p

    def indices(self, e):
        """Basis functions of element e (one row per element of an array)."""
        return self._span_starts[e][..., None] + np.arange(-self.degree, 1)

    def eval(self, e, xs, nders):
        """Basis derivatives at local coordinates, on element e's span or,
        for an element array, on the span of ``e[i]`` at ``xs[i]``.

        Uses the polynomial extension of the span, so Newton iterates that
        step slightly outside the element remain well defined.
        """
        out = _basis_ders(self.knots, self.degree, xs, self._span_starts[e],
                          nders)
        if self.weights is not None:
            out = _rationalize(out, self.weights[self.indices(e)], nders)
        return out

    def intervals(self):
        """Local intervals ``(nelem, 2)`` of all elements."""
        s = self._span_starts
        return np.stack([self.knots[s], self.knots[s + 1]], axis=-1)


def _basis_ders(knots: np.ndarray, degree: int, xs, span,
                nders: int) -> np.ndarray:
    """Values and derivatives of the non-vanishing basis functions.

    Standard knot-insertion triangle evaluation, run for a batch of
    coordinates at once (the points ride along as a trailing axis).
    ``span`` is one knot span for all values or an array of one span per
    value. Returns a C-contiguous array of shape
    ``(len(xs), nders + 1, degree + 1)`` where ``[i, k]`` holds the k-th
    derivatives of functions ``span[i] - degree .. span[i]`` at ``xs[i]``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    m = xs.size
    p = degree
    ne = min(nders, p)
    left = np.empty((p, m))
    right = np.empty((p, m))
    ndu = np.empty((p + 1, p + 1, m))
    a = np.empty((2, p + 1, m))
    ders = np.zeros((m, nders + 1, p + 1))

    ndu[0, 0] = 1.0
    for j in range(p):
        left[j] = xs - knots[span - j]
        right[j] = knots[span + 1 + j] - xs
        saved = 0.0
        for r in range(j + 1):
            # Lower triangle: inverse knot differences.
            ndu[j + 1, r] = 1.0 / (right[r] + left[j - r])
            temp = ndu[r, j] * ndu[j + 1, r]
            # Upper triangle: basis values.
            ndu[r, j + 1] = saved + right[r] * temp
            saved = left[j - r] * temp
        ndu[j + 1, j + 1] = saved

    ders[:, 0, :] = ndu[:, p].T
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, ne + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] * ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for ij in range(j1, j2 + 1):
                a[s2, ij] = (a[s1, ij] - a[s1, ij - 1]) * ndu[pk + 1, rk + ij]
                d += a[s2, ij] * ndu[rk + ij, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] * ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[:, k, r] = d
            s1, s2 = s2, s1

    # Multiply by the correct factors p! / (p - k)!
    r = p
    for k in range(1, ne + 1):
        ders[:, k, :] *= r
        r *= p - k
    return ders


def _rationalize(ders: np.ndarray, w: np.ndarray, nders: int) -> np.ndarray:
    """Convert polynomial basis derivatives to rational ones (quotient rule).

    ``ders`` is a batch ``(npts, nders + 1, nloc)`` as returned by
    :func:`_basis_ders`; ``w`` holds the weights of the ``nloc`` functions,
    shared by all points ``(nloc,)`` or per point ``(npts, nloc)``.
    """
    num = ders * w[..., None, :]  # rows: w_i N_i and derivatives
    W = num.sum(axis=2)  # weight function W and derivatives
    if np.any(np.abs(W[:, 0]) < DENOM_GUARD):
        raise DomainError("rational weight function vanished")
    W0 = W[:, 0, None]
    out = np.empty_like(num)
    out[:, 0] = num[:, 0] / W0
    if nders >= 1:
        out[:, 1] = (num[:, 1] - out[:, 0] * W[:, 1, None]) / W0
    if nders >= 2:
        out[:, 2] = (num[:, 2] - 2.0 * out[:, 1] * W[:, 1, None]
                     - out[:, 0] * W[:, 2, None]) / W0
    return out


def least_squares_project(d: SplineDir, target) -> np.ndarray:
    """L2 projection onto the basis of ``d`` over its whole knot domain:
    the control values ``(n, ...)`` of ``target``, which maps an array of
    local coordinates to values with optional trailing component axes.
    RankError if the Gram matrix is numerically singular."""
    n = d.n
    el = np.arange(d.nelem)
    # The (p+1)-point Gauss rule of every element, element-major.
    xs, ws, _ = tensor_rules([d.intervals()], [el], [d.nloc])
    xs, ws = xs.ravel(), ws.ravel()
    at = np.repeat(el, d.nloc)
    idx = d.indices(at)
    N = d.eval(at, xs, 0)[:, 0]
    vals = np.asarray(target(xs), dtype=float)
    comp = (1,) * (vals.ndim - 1)
    # Point by point in element order, each entry w * (N_a N_b).
    gram = np.zeros((n, n))
    np.add.at(gram, (idx[:, :, None], idx[:, None, :]),
              ws[:, None, None] * (N[:, :, None] * N[:, None, :]))
    rhs = np.zeros((n,) + vals.shape[1:])
    np.add.at(rhs, idx, ws.reshape((-1, 1) + comp)
              * (N.reshape(N.shape + comp) * vals[:, None]))
    try:
        c = sla.cho_factor(gram)
        sol = sla.cho_solve(c, rhs.reshape(n, -1))
    except np.linalg.LinAlgError as exc:
        raise RankError(f"singular Gram matrix in projection: {exc}") from exc
    return sol.reshape(rhs.shape)
