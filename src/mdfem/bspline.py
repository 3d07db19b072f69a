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


def _check_knots(k, p):
    """Raise ConfigError unless ``k`` is a knot vector of degree ``p``:
    finite, non-decreasing, clamped at both ends (within `np.allclose`'s
    tolerance), with a non-empty domain and no interior knot repeated
    more than ``max(p, 1)`` times."""
    if p < 0:
        raise ConfigError(f"degree must be non-negative, got {p}")
    if k.ndim != 1 or k.size < 2 * (p + 1):
        raise ConfigError("knot vector too short for degree")
    # NaN fails `>=`, and so does an infinite knot next to another.
    if not np.all(np.diff(k) >= 0.0):
        raise ConfigError("knot vector must be finite and non-decreasing")
    # np.allclose's test (|a - b| <= 1e-8 + 1e-5 |b|) on the innermost
    # end knots: on sorted knots it is the furthest from its end.
    lo, hi = k[0], k[-1]
    if not (abs(k[p] - lo) <= 1e-8 + 1e-5 * abs(lo)
            and abs(k[-p - 1] - hi) <= 1e-8 + 1e-5 * abs(hi)):
        raise ConfigError("knot vector must be open (clamped at both ends)")
    if k[p] == k[-p - 1]:
        raise ConfigError("knot vector has an empty domain")
    # Sorted interior knots: m + 1 equal ones start m places apart.
    interior, m = k[p + 1:-p - 1], max(p, 1)
    if np.any(interior[m:] == interior[:-m]):
        raise ConfigError("interior knot multiplicity exceeds degree")


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
    _ends: np.ndarray = field(init=False, repr=False)
    _mid: np.ndarray = field(init=False, repr=False)
    _taylor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        _check_knots(self.knots, self.degree)
        p = self.degree
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
        self._ends, self._taylor = _taylor_tables(self.knots, p,
                                                  self._span_starts)
        self._mid = 0.5 * (self._ends[:self.nelem] + self._ends[self.nelem:])

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
        """Basis derivatives of order <= ``nders`` (at most 2) at local
        coordinates, on element e's span or, for an element array, on the
        span of ``e[i]`` at ``xs[i]``: ``(len(xs), nders + 1, degree +
        1)``, row k the k-th derivatives of the element's functions.

        Horner steps on the span's Taylor polynomials about its nearer
        end (`_taylor_tables`), so Newton iterates that step slightly
        outside the element remain well defined (the polynomial extension
        of the span).
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        e = np.reshape(e, -1)
        # The table about the nearer end, and the power-m coefficients of
        # the derivatives up to nders, one row per point.
        k = e + self.nelem * (xs > self._mid[e])
        u = (xs - self._ends[k])[:, None]
        T = self._taylor[:, :, :(nders + 1) * (self.degree + 1)]
        out = np.take(T[-1], k, axis=0)
        for m in range(self.degree - 1, -1, -1):
            out *= u
            out += np.take(T[m], k, axis=0)
        out = out.reshape(xs.size, nders + 1, self.degree + 1)
        if self.weights is not None:
            out = _rationalize(out, self.weights[self.indices(e)], nders)
        return out

    def intervals(self):
        """Local intervals ``(nelem, 2)`` of all elements."""
        s = self._span_starts
        return np.stack([self.knots[s], self.knots[s + 1]], axis=-1)


def _taylor_tables(knots, degree, starts):
    """Taylor polynomials of the non-vanishing basis functions of each
    span ``starts[e]`` (knot indices), about each of its two ends: ``(c,
    taylor)``, with ``c[e]`` the lower end of span e and ``c[e + nelem]``
    the upper one, and ``taylor[m, i, k * (degree + 1) + j]`` the
    coefficient of (x - c[i])^m in the k-th derivative (k <= 2) of the
    span's j-th function (``starts[e] - degree + j``). Built by the
    Cox-de Boor recursion on coefficient arrays, all spans at once, with
    0/0 == 0. A factor x - t that vanishes at an end stays an exact zero
    there, so a function or derivative that vanishes at an end evaluates
    to exactly zero on it, as the knot-insertion triangle gives it."""
    p = degree
    c = np.concatenate([knots[starts], knots[starts + 1]])
    # The span's knots t_{s-p} .. t_{s+p+1} less c: w[:, p + r] = t_{s+r} - c.
    w = knots[np.concatenate([starts, starts])[:, None]
              + np.arange(-p, p + 2)] - c[:, None]
    # P[m, i, j]: the coefficient of u^m, u = x - c[i], of the j-th
    # function at degree q, on knots t_{s-q+j} .. t_{s+j+1}.
    P = np.zeros((p + 1, c.size, p + 1))
    P[0, :, 0] = 1.0
    for q in range(1, p + 1):
        # N_{i,q} = (x - t_i) a_{i} + (t_{i+q+1} - x) a_{i+1}, i = s - q + j,
        # with a_i = N_{i,q-1} / (t_{i+q} - t_i) (j - 1 at degree q - 1).
        lo, hi = w[:, p - q + 1:p + 1], w[:, p + 1:p + q + 1]
        a = P[:q, :, :q] / np.where(hi > lo, hi - lo, np.inf)
        new = np.zeros((q + 1, c.size, q + 1))
        new[:q, :, 1:] = -lo * a
        new[:q, :, :-1] += hi * a
        new[1:, :, 1:] += a
        new[1:, :, :-1] -= a
        P[:q + 1, :, :q + 1] = new
    # d^k/du^k sum_m P_m u^m = sum_m P_{m+k} (m + k)! / m! u^m.
    taylor = np.zeros((p + 1, c.size, 3, p + 1))
    m = np.arange(1.0, p + 1)[:, None, None]
    taylor[:, :, 0] = P
    taylor[:p, :, 1] = P[1:] * m
    taylor[:p - 1, :, 2] = P[2:] * (m[:-1] * m[1:])
    return c, taylor.reshape(p + 1, c.size, -1)


def _rationalize(ders: np.ndarray, w: np.ndarray, nders: int) -> np.ndarray:
    """Convert polynomial basis derivatives to rational ones (quotient rule).

    ``ders`` is a batch ``(npts, nders + 1, nloc)`` of polynomial basis
    derivatives (`SplineDir.eval` before the weights); ``w`` holds the
    weights of the ``nloc`` functions, shared by all points ``(nloc,)``
    or per point ``(npts, nloc)``.
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
