"""Nitsche coupling between a continuum body and a reduced model.

The interface is the trace mesh of the solid's boundary face: each solid
facet carries a Gauss rule, and every quadrature point is resolved into
local coordinates of both the solid element and the partner structural
element. There each model's ``trace`` gives its displacement and stress
interpolation ``(N, S)``. Over the stacked element DOFs ``[solid |
struct]`` of one segment (the points of one facet in one partner
element), the jump operator ``J = [N_s, -N_b]`` and the summed traction
``T = n . [S_s, S_b]`` give the consistency block ``K^n = -1/2 int J^T
T``, the penalty block ``K^st = int J^T J`` and the stress-bound matrix
``H = int T^T T`` used by the eigenvalue stabilization estimator.

Each interface runs as one batch: all facet rules of the face are built
in one call and split into segments by one stable sort, each side is
traced once over all points, the segment products run over a segment
batch axis, and the segment blocks are summed into CSR by one sparse
product, in local or global numbering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .elasticity import integrate_atb
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    PairingError,
    RankError,
)
from .mesh import (_TRIPLET_BUDGET, element_batches, facet_rules,
                   rotation_2d, sum_blocks)


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
    ``segments`` views the same arrays one segment at a time.
    """

    def __init__(self, solid, struct, points, starts):
        self.solid, self.struct, self.starts = solid, struct, starts
        self.points = p = points
        self.segments = [
            Segment(int(p.s_elem[a]), p.s_parent[a:b], int(p.b_elem[a]),
                    p.b_parent[a:b], p.offsets[a:b], p.normals[a:b],
                    p.weights[a:b])
            for a, b in zip(starts[:-1], starts[1:])]

    @property
    def measure(self):
        return float(self.points.weights.sum())

    def matrices(self, offsets=None, ndof=None, with_h=True):
        """Assemble (K^n, K^st, H) as sparse matrices; H is None unless
        ``with_h`` (only the alpha estimate reads it).

        By default over the stacked local DOFs ``[solid | struct]``; with
        the models' ``offsets = (solid, struct)`` in a global numbering of
        ``ndof`` DOFs, straight in that numbering. K^st is returned
        without the alpha factor; the full Nitsche contribution is
        ``K^n + K^n.T + alpha * K^st``.

        Each side is traced once over all points. The segment products
        J^T T, J^T J and T^T T run over a batch axis of segments, one
        batch per point count, and the segment blocks are summed by one
        `sum_blocks` call per run of ``_TRIPLET_BUDGET`` entries.
        """
        solid, struct, p = self.solid, self.struct, self.points
        if offsets is None:
            offsets, ndof = (0, solid.ndof), solid.ndof + struct.ndof
        rows = struct.solid_stress_rows
        Ns, Ss = solid.trace(p.s_elem, p.s_parent, rows=rows)
        Nb, Sb = struct.trace(p.b_elem, p.b_parent, p.offsets)
        J = np.concatenate([Ns, -Nb], axis=2)
        T = np.einsum("qdr,qrj->qdj", _normal_matrices(p.normals, rows),
                      np.concatenate([Ss, Sb], axis=2))
        first, counts = self.starts[:-1], np.diff(self.starts)
        dofs = np.concatenate([
            offsets[0] + solid.element_dofs(p.s_elem[first]),
            offsets[1] + struct.element_dofs(p.b_elem[first])], axis=1)
        na = dofs.shape[1]
        parts = []
        for run in element_batches(np.arange(counts.size), 3 * na * na):
            # Segments of one point count are one batch, in segment order.
            run = run[np.argsort(counts[run], kind="stable")]
            cuts = np.flatnonzero(np.diff(counts[run], prepend=-1, append=-1))
            blocks = [np.empty((run.size, na, na)) for _ in range(2 + with_h)]
            for a, b in zip(cuts[:-1], cuts[1:]):
                q = first[run[a:b], None] + np.arange(counts[run[a]])
                Jq, Tq, wq = J[q], T[q], p.weights[q]
                integrate_atb(Jq, Tq, -0.5 * wq, out=blocks[0][a:b])
                integrate_atb(Jq, Jq, wq, out=blocks[1][a:b])
                if with_h:
                    integrate_atb(Tq, Tq, wq, out=blocks[2][a:b])
            parts.append(sum_blocks((ndof, ndof), [dofs[run]],
                                    *([m] for m in blocks)))
        out = tuple(sum(ps[1:], ps[0]) for ps in zip(*parts))
        return out if with_h else out + (None,)


def _struct_local(struct, phys):
    """Map global interface points into structural local coordinates.

    Returns ``(inplane, offsets)``: the coordinates living on the
    structural mesh and the section / thickness offset per point.
    """
    mesh = struct.mesh
    phys = np.atleast_2d(phys)
    if mesh.model == "beam":
        Rv = rotation_2d(mesh.phi)
        loc = (phys - mesh.origin[None, :]) @ Rv.T
        return loc[:, :1], loc[:, 1]
    if mesh.model == "plate":
        return phys[:, :2], phys[:, 2] - mesh.z_mid
    raise ConfigError(f"unsupported structural mesh {mesh.model!r}")


def _struct_global(struct, inplane, offsets):
    """Inverse of :func:`_struct_local` for the pairing validation."""
    mesh = struct.mesh
    if mesh.model == "beam":
        loc = np.column_stack([inplane[:, 0], offsets])
        return mesh.origin[None, :] + loc @ rotation_2d(mesh.phi)
    return np.column_stack([inplane, mesh.z_mid + offsets])


def build_interface(solid, struct, axis, side, *, strip=None,
                    npts=None) -> CouplingOperator:
    """Pair the solid boundary face with the structural mesh.

    The trace mesh comes from the solid side; every facet quadrature
    point is located in the structural mesh (possibly splitting one
    facet across several partner elements).
    """
    smesh = struct.mesh
    p_struct = max(d.degree for d in smesh.dirs)
    if npts is None:
        npts = tuple(solid.mesh.dirs[k].degree + p_struct + 1
                     for k in range(solid.mesh.dim) if k != axis)
    elems, parent, phys, w, normals, _ = facet_rules(
        solid.mesh, axis, side, npts, strip=strip)
    nf = len(elems)
    nq = w.size // nf
    # Every interface point is located in the structural mesh at once.
    inplane, offsets = _struct_local(struct, phys)
    try:
        belems = smesh.element_containing(inplane)
    except DomainError as exc:
        raise PairingError(
            f"interface point has no partner element: {exc}") from exc
    err = np.linalg.norm(_struct_global(struct, inplane, offsets) - phys,
                         axis=1).reshape(nf, nq)
    box = phys.reshape(nf, nq, -1)
    diam = np.maximum(np.linalg.norm(box.max(axis=1) - box.min(axis=1),
                                     axis=1), 1e-30)
    bad = np.nonzero((err > 1e-8 * diam[:, None]).any(axis=1))[0]
    if bad.size:
        raise PairingError(
            f"interface point mismatch {err[bad[0]].max():.3e} on facet of "
            f"element {elems[bad[0]]}")
    # One segment per facet and partner element: a stable sort keeps the
    # facet order, partners ascending in a facet and the point order.
    key = np.repeat(np.arange(nf), nq) * smesh.nelem + belems
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1))
    points = Segment(
        s_elem=np.repeat(elems, nq)[order],
        s_parent=parent[order], b_elem=belems[order],
        b_parent=smesh.local_to_parent(belems, inplane)[order],
        offsets=offsets[order], normals=normals[order], weights=w[order])
    return CouplingOperator(solid, struct, points, starts)


def estimate_alpha(K_solid, K_struct, H, *, seed=0, tol=1e-8, maxiter=5000):
    """Stabilization parameter alpha = lambda_1 / 2.

    ``lambda_1`` is the largest eigenvalue of the generalized problem
    H v = lambda K~ v on the free DOFs, where K~ = diag(K_solid,
    K_struct) is the uncoupled stiffness. The structural block may carry
    rigid modes (an unconstrained beam hanging off the interface); those
    are deflated through a small dense eigendecomposition, which is
    legitimate because the interface stress vanishes on them.

    Power iteration on K~^-1 H. After a first step in the full space it
    runs on the interface DOFs I only (the rows where H is nonzero): an
    iterate u = Z y with Z = K~^-1[I, I] (pseudo-inverse on the
    structural block) and y = H_II u, and the Rayleigh quotient
    u.H_II u / u.y does not depend on the scaling of y.
    """
    H = sp.csr_matrix(H)
    if H.nnz == 0 or np.abs(H.data).max() == 0.0:
        return 0.0
    Hscale = np.abs(H.data).max()

    K_solid = sp.csr_matrix(K_solid)
    K_struct = np.asarray(K_struct)
    ns = K_solid.shape[0]
    nb = K_struct.shape[0]
    if ns + nb != H.shape[0]:
        raise ConfigError("H size does not match the stiffness blocks")

    lu = splu(K_solid.tocsc()) if ns else None

    if nb:
        w, Q = np.linalg.eigh(K_struct)
        wmax = w.max() if w.size else 0.0
        if wmax <= 0:
            raise RankError("structural stiffness block is zero")
        null = w <= 1e-10 * wmax
        Qn, Qp, wp = Q[:, null], Q[:, ~null], w[~null]
        # rigid modes must be invisible to the interface stress
        for k in range(Qn.shape[1]):
            z = np.concatenate([np.zeros(ns), Qn[:, k]])
            if np.abs(H @ z).max() > 1e-8 * Hscale:
                raise RankError(
                    "stiffness kernel carries interface stress; constrain "
                    "the structural model or supply alpha explicitly"
                )

    def ktilde_mul(v):
        out = np.empty_like(v)
        if ns:
            out[:ns] = K_solid @ v[:ns]
        if nb:
            out[ns:] = K_struct @ v[ns:]
        return out

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(ns + nb)
    if nb and Qn.shape[1]:
        v[ns:] -= Qn @ (Qn.T @ v[ns:])
    v /= np.linalg.norm(v)

    y = H @ v
    lam_old = float(v @ y) / float(v @ ktilde_mul(v))
    iface = np.flatnonzero(abs(H) @ np.ones(ns + nb))
    Is, Ib = iface[iface < ns], iface[iface >= ns] - ns
    Z = np.zeros((iface.size, iface.size))
    # Solid columns of Z in solves of at most _TRIPLET_BUDGET entries.
    step = max(1, _TRIPLET_BUDGET // max(ns, 1))
    for c in range(0, Is.size, step):
        cols = Is[c:c + step]
        E = np.zeros((ns, cols.size))
        E[cols, np.arange(cols.size)] = 1.0
        Z[:Is.size, c:c + cols.size] = lu.solve(E)[Is]
    if Ib.size:
        Z[Is.size:, Is.size:] = (Qp[Ib] / wp) @ Qp[Ib].T
    H_II = H[iface][:, iface].toarray()
    y = y[iface]
    for _ in range(maxiter - 1):
        u = Z @ y
        uy = u @ y  # zero only where u is: Z is semi-definite
        if uy == 0.0:
            return 0.0
        y = H_II @ u
        lam = float(u @ y / uy)
        if abs(lam - lam_old) <= tol * max(abs(lam), 1e-300):
            return lam / 2.0
        lam_old = lam
        yy = y @ y
        if yy == 0.0:
            return 0.0
        y /= np.sqrt(yy)
    raise ConvergenceError(
        f"stabilization eigenvalue stagnant after {maxiter} iterations"
    )
