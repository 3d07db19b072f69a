"""Nitsche coupling between a continuum body and a reduced model.

The interface is the trace mesh of the solid's boundary face: each solid
facet carries a Gauss rule, and every quadrature point is resolved into
local coordinates of both the solid element and the partner structural
element. There the partner's ``trace`` and the solid's face rule give
the interpolations ``(N, S)``. Over the stacked element DOFs ``[solid |
struct]`` of one segment (the points of one facet in one partner
element), the jump operator ``J = [N_s, -N_b]`` and the summed traction
``T = n . [S_s, S_b]`` give the consistency block ``K^n = -1/2 int J^T
T``, the penalty block ``K^st = int J^T J`` and the stress-bound matrix
``H = int T^T T`` used by the eigenvalue stabilization estimator.

Each interface runs as one batch: one call builds the face's rules and
tables, one stable sort splits its points into segments, the partner is
traced once over all points and the segment products run over a segment
batch axis. The interface hands its segment blocks, on their global
DOFs, to `System`, which sums the blocks of every coupling into CSR.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .elasticity import integrate_atb
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    PairingError,
    RankError,
)
from .mesh import element_batches, facet_rules, live_shapes


# Voigt row of stress component (i, j): (xx, yy, xy) in 2D, (xx, yy, zz,
# xy, yz, xz) in 3D.
_VOIGT = {2: ((0, 2), (2, 1)), 3: ((0, 3, 5), (3, 1, 4), (5, 4, 2))}


def _normal_matrices(normals, rows=None):
    """Traction maps, one per row of ``normals``: ``(nq, d, nvoigt)``
    matrices taking Voigt stress to sigma.n, restricted to the Voigt
    ``rows`` a partner model carries (its ``solid_stress_rows``)."""
    normals = np.asarray(normals, dtype=float)
    nq, d = normals.shape
    lengths = np.linalg.norm(normals, axis=1)
    if np.any(np.abs(lengths - 1.0) > 1e-8):
        raise DomainError("normals must have unit length")
    out = np.zeros((nq, d, d * (d + 1) // 2))
    out[:, np.arange(d)[:, None], _VOIGT[d]] = normals[:, None, :]
    return out if rows is None else out[:, :, rows]


@dataclass
class Segment:
    """Quadrature points of one solid facet paired with one partner element.

    `CouplingOperator.points` holds a whole interface in the same record,
    with one solid and one partner element per point.
    """

    s_elem: int
    s_parent: np.ndarray  # (nq, solid dim)
    b_elem: int
    b_parent: np.ndarray  # (nq, struct dim)
    offsets: np.ndarray   # (nq,) section / thickness offsets
    normals: np.ndarray   # (nq, solid dim), outward from the solid
    weights: np.ndarray   # (nq,) physical surface measure


class CouplingOperator:
    """One coupling interface: paired quadrature plus matrix assembly.

    ``points`` holds every quadrature point of the interface, segment by
    segment: segment ``i`` is points ``starts[i]:starts[i + 1]``.
    ``segments`` views them a segment at a time, ``tables`` the solid's
    basis tables at the same points (`mesh.facet_rules`)."""

    def __init__(self, solid, struct, points, starts, tables):
        self.solid, self.struct, self.points = solid, struct, points
        self.starts, self.tables = starts, tables

    @cached_property
    def segments(self):
        """`points` as one `Segment` of views per segment, on first read."""
        p, s = self.points, self.starts
        return [Segment(int(p.s_elem[a]), p.s_parent[a:b], int(p.b_elem[a]),
                        p.b_parent[a:b], p.offsets[a:b], p.normals[a:b],
                        p.weights[a:b]) for a, b in zip(s[:-1], s[1:])]

    @property
    def measure(self):
        return float(self.points.weights.sum())

    def matrices(self, offsets, with_h):
        """Segment blocks ``(dofs, K^n, K^st, H)``: ``dofs`` ``(S, na)``
        on the global DOFs of models starting at ``offsets = (solid,
        struct)`` and each block ``(S, na, na)``, the S segments in order
        of point count; H is None unless ``with_h`` (only the alpha
        estimate reads it). A segment's Nitsche term is ``K^n + K^n.T +
        alpha * K^st``; `System` sums them into CSR.

        The partner is traced once over all points. The solid's N (row 0
        of the jet table of ``tables``, `mesh.live_shapes`, on the nodes
        nonzero on the face), dN/dx (rows 1 to d) and traction (n C E)
        dN/dx come from that one table. J and T hold only the
        element-local columns nonzero at some point (a solid's inner node
        layers carry neither trace nor traction); the products J^T T, J^T
        J and T^T T run on them over a batch axis of segments, one batch
        per point count, a view where its points are consecutive.
        """
        solid, struct, p = self.solid, self.struct, self.points
        rows = struct.solid_stress_rows
        nmat = _normal_matrices(p.normals, rows)
        nodes, jet = live_shapes(solid.mesh, self.tables)
        N, dN = jet[0], np.moveaxis(jet[1:], 0, -1)
        nq, nn, d = dN.shape
        # n . C B = (n C E) dN/dx: M[q, i, m, c] weighs du_c/dx_m in t_i.
        E = solid.kinematics[1][0, :, :, 1:d + 1].swapaxes(1, 2)
        M = (nmat @ (solid.C if rows is None else solid.C[rows, :])
             @ E.reshape(-1, d * d)).reshape(nq, d, d, d)
        Ts = (dN[:, None] @ M).reshape(nq, d, nn * d)
        Nb, Sb = struct.trace(p.b_elem, p.b_parent, p.offsets)
        Tb = nmat @ Sb
        del Sb
        live = np.flatnonzero(np.repeat(N.any(0), d) | Ts.any((0, 1)))
        live_b = np.flatnonzero(Nb.any((0, 1)) | Tb.any((0, 1)))
        ns, na = live.size, live.size + live_b.size
        J, T = np.zeros((nq, d, na)), np.empty((nq, d, na))
        J[:, live % d, np.arange(ns)] = N[:, live // d]
        np.negative(Nb[:, :, live_b], out=J[:, :, ns:])
        np.take(Ts, live, axis=2, out=T[:, :, :ns], mode="clip")
        np.take(Tb, live_b, axis=2, out=T[:, :, ns:], mode="clip")
        del Nb, Tb, Ts  # J and T hold all the segments read
        # Segments of one point count are one batch, in segment order.
        order = np.argsort(np.diff(self.starts), kind="stable")
        first, counts = self.starts[order], np.diff(self.starts)[order]
        cols = (nodes[:, None] * d + np.arange(d)).ravel()[live]
        dofs = np.concatenate([
            offsets[0] + solid.element_dofs(p.s_elem[first])[:, cols],
            offsets[1] + struct.element_dofs(p.b_elem[first])[:, live_b]],
            axis=1)
        cuts = np.flatnonzero(np.diff(counts, prepend=-1, append=-1))
        blocks = [np.empty((order.size, na, na)) for _ in range(2 + with_h)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            q = (first[a:b, None] + np.arange(counts[a])).ravel()
            if np.all(np.diff(q) == 1):  # consecutive points: views
                q = slice(q[0], q[-1] + 1)
            Jq, Tq, wq = (x[q].reshape((b - a, counts[a]) + x.shape[1:])
                          for x in (J, T, p.weights))
            integrate_atb(Jq, Tq, -0.5 * wq, out=blocks[0][a:b])
            integrate_atb(Jq, Jq, wq, out=blocks[1][a:b])
            if with_h:
                integrate_atb(Tq, Tq, wq, out=blocks[2][a:b])
        return (dofs, *blocks) if with_h else (dofs, *blocks, None)


def build_interface(solid, struct, axis, side, *,
                    strip=None) -> CouplingOperator:
    """Pair the solid boundary face with the structural mesh.

    The trace mesh comes from the solid side, on a Gauss rule of p_solid
    + p_struct + 1 points per in-face direction; every facet quadrature
    point is located in the structural mesh (possibly splitting one
    facet across several partner elements) by the partner's `to_local`
    and `Mesh.locate`; a point outside the partner mesh is a
    PairingError.
    """
    smesh = struct.mesh
    p_struct = max(d.degree for d in smesh.dirs)
    npts = tuple(solid.mesh.dirs[k].degree + p_struct + 1
                 for k in range(solid.mesh.dim) if k != axis)
    elems, parent, phys, w, normals, tabs = facet_rules(
        solid.mesh, axis, side, npts, strip=strip)
    nq = w.size // len(elems)
    # Every interface point is located in the structural mesh at once.
    inplane, offsets = struct.to_local(phys)
    try:
        belems, bparent = smesh.locate(inplane)
    except DomainError as exc:
        raise PairingError(
            f"interface point has no partner element: {exc}") from exc
    # One segment per facet and partner element: a stable sort keeps the
    # facet order, partners ascending in a facet and the point order.
    key = np.arange(w.size) // nq * smesh.nelem + belems
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1))
    points = Segment(
        s_elem=np.repeat(elems, nq)[order],
        s_parent=parent[order], b_elem=belems[order], b_parent=bparent[order],
        offsets=offsets[order], normals=normals[order], weights=w[order])
    return CouplingOperator(solid, struct, points, starts,
                            [t[order] for t in tabs])


_ALPHA_SEED, _ALPHA_TOL, _ALPHA_MAXITER = 0, 1e-8, 5000


def estimate_alpha(solve_solid, K_struct, H):
    """Stabilization parameter alpha = lambda_1 / 2.

    ``lambda_1`` is the largest eigenvalue of the generalized problem
    H v = lambda K~ v on the free DOFs, where K~ = diag(K_solid,
    K_struct) is the uncoupled stiffness. K_solid enters as its solve
    (`system._factor_spd`), on runs of identity columns of at most
    ``mesh._TRIPLET_BUDGET`` entries. The structural block may carry
    rigid modes (an unconstrained beam hanging off the interface); those
    are deflated through a small dense eigendecomposition, which is
    legitimate because the interface stress vanishes on them.

    lambda_1 is taken where power iteration on K~^-1 H would stop, in
    closed form on the interface DOFs I (the rows where H is nonzero).
    The iteration starts from y = (H v)[I] for a random unit v of seed
    ``_ALPHA_SEED`` and steps u = Z y, y = H_II u with Z = K~^-1[I, I]
    (pseudo-inverse on the structural block). With Z = L L^T, L^T H_II L
    = V diag(mu) V^T and c = V^T L^T y, the Rayleigh quotient of step k
    is lambda_k = sum c^2 mu^(2k+1) / sum c^2 mu^(2k), evaluated over a
    block of steps at a time. alpha is lambda_k / 2 at the first k >= 1
    where two quotients agree to relative ``_ALPHA_TOL``.
    ``_ALPHA_MAXITER`` is the iteration's budget of products with H,
    the first one included: a stop needs k < _ALPHA_MAXITER - 1, else
    ConvergenceError. Without a component of c^2 > 0 and mu > 0 the
    first iterate vanishes: alpha 0.
    """
    H = sp.csr_matrix(H)
    if H.nnz == 0 or np.abs(H.data).max() == 0.0:
        return 0.0
    Hscale = np.abs(H.data).max()

    ns, nb = H.shape[0] - len(K_struct), len(K_struct)
    if ns < 0:
        raise ConfigError("H size does not match the stiffness blocks")

    if nb:
        w, Q = np.linalg.eigh(K_struct)
        wmax = w.max() if w.size else 0.0
        if wmax <= 0:
            raise RankError("structural stiffness block is zero")
        null = w <= 1e-10 * wmax
        Qn, Qp, wp = Q[:, null], Q[:, ~null], w[~null]
        # rigid modes must be invisible to the interface stress
        if np.abs(H[:, ns:] @ Qn).max(initial=0.0) > 1e-8 * Hscale:
            raise RankError(
                "stiffness kernel carries interface stress; constrain "
                "the structural model or supply alpha explicitly"
            )

    v = np.random.default_rng(_ALPHA_SEED).standard_normal(ns + nb)
    if nb and Qn.shape[1]:
        v[ns:] -= Qn @ (Qn.T @ v[ns:])
    v /= np.linalg.norm(v)

    iface = np.flatnonzero(abs(H) @ np.ones(ns + nb))
    Is, Ib = iface[iface < ns], iface[iface >= ns] - ns
    Z = np.zeros((iface.size, iface.size))
    for run in element_batches(np.arange(Is.size), max(ns, 1)):
        E = np.zeros((ns, run.size))
        E[Is[run], np.arange(run.size)] = 1.0
        Z[:Is.size, run] = solve_solid(E)[Is]
    if Ib.size:
        Z[Is.size:, Is.size:] = (Qp[Ib] / wp) @ Qp[Ib].T
    H_II = H[iface][:, iface].toarray()
    y = (H @ v)[iface]
    d, U = np.linalg.eigh(Z)
    L = U * np.sqrt(np.clip(d, 0.0, None))  # Z is semi-definite
    mu, V = np.linalg.eigh(L.T @ H_II @ L)
    c2 = (V.T @ (L.T @ y)) ** 2
    pos = (c2 > 0.0) & (mu > 0.0)
    last = _ALPHA_MAXITER - 1  # a stop at step k needs k < last
    if last > 0 and not pos.any():
        return 0.0
    if last > 1:
        lam_old = c2 @ mu / c2.sum()  # step 0: no previous quotient
        # From step 1 on, a component of mu <= 0 (zero but for round-off)
        # weighs nothing. Weights are scaled by the largest mu left, so
        # the sums cannot underflow.
        top = mu[pos].max()
        r, cw = mu[pos] / top, c2[pos]
        for a in range(1, last, 256):
            k = np.arange(a, min(a + 256, last))
            E = np.exp(np.outer(2 * k, np.log(r)))
            lam = top * (E @ (cw * r)) / (E @ cw)
            prev = np.concatenate([[lam_old], lam[:-1]])
            stop = np.flatnonzero(np.abs(lam - prev) <= _ALPHA_TOL * lam)
            if stop.size:
                return float(lam[stop[0]]) / 2.0
            lam_old = lam[-1]
    raise ConvergenceError(f"stabilization eigenvalue stagnant after "
                           f"{_ALPHA_MAXITER} iterations")
