"""Nitsche coupling between a continuum body and a reduced model.

The interface is the trace mesh of the solid's boundary face: each solid
facet carries a Gauss rule, and every quadrature point is resolved into
local coordinates of both the solid element and the partner structural
element. There each model's ``trace`` gives its displacement and stress
interpolation ``(N, S)``. Over the stacked element DOFs ``[solid |
struct]`` of one segment, the jump operator ``J = [N_s, -N_b]`` and the
summed traction ``T = n . [S_s, S_b]`` give the consistency block
``K^n = -1/2 int J^T T``, the penalty block ``K^st = int J^T J`` and the
stress-bound matrix ``H = int T^T T`` used by the eigenvalue
stabilization estimator.
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
from .mesh import (_TRIPLET_BUDGET, boundary_facets, facet_quadrature,
                   rotation_2d)


def normal_matrix(n, reduced=None) -> np.ndarray:
    """Matrix form of the outward normal: (matrix) @ (Voigt stress) = sigma.n.

    ``reduced`` removes the stress columns a plate model cannot carry:
    'kirchhoff' keeps (xx, yy, xy), 'mindlin' keeps (xx, yy, xy, yz, xz).
    """
    n = np.asarray(n, dtype=float)
    full = _normal_matrices(n[None, :], reduced)
    return full[0]


_REDUCED_COLS = {None: None, "kirchhoff": (0, 1, 3), "mindlin": (0, 1, 3, 4, 5)}


def _normal_matrices(normals, reduced=None):
    """Vectorized normal matrices, one per row of ``normals``."""
    normals = np.asarray(normals, dtype=float)
    nq, d = normals.shape
    lengths = np.linalg.norm(normals, axis=1)
    if np.any(np.abs(lengths - 1.0) > 1e-8):
        raise DomainError("normals must have unit length")
    if d == 2:
        out = np.zeros((nq, 2, 3))
        out[:, 0, 0] = normals[:, 0]
        out[:, 0, 2] = normals[:, 1]
        out[:, 1, 1] = normals[:, 1]
        out[:, 1, 2] = normals[:, 0]
        return out
    out = np.zeros((nq, 3, 6))
    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    out[:, 0, 0] = nx
    out[:, 0, 3] = ny
    out[:, 0, 5] = nz
    out[:, 1, 1] = ny
    out[:, 1, 3] = nx
    out[:, 1, 4] = nz
    out[:, 2, 2] = nz
    out[:, 2, 4] = ny
    out[:, 2, 5] = nx
    cols = _REDUCED_COLS.get(reduced, reduced)
    if cols is not None:
        out = out[:, :, cols]
    return out


@dataclass
class Segment:
    """Quadrature points of one solid facet paired with one partner element."""

    s_elem: int
    s_parent: np.ndarray  # (nq, solid dim)
    b_elem: int
    b_parent: np.ndarray  # (nq, struct dim)
    offsets: np.ndarray   # (nq,) section / thickness offsets
    normals: np.ndarray   # (nq, solid dim), outward from the solid
    weights: np.ndarray   # (nq,) physical surface measure


class CouplingOperator:
    """One coupling interface: paired quadrature plus matrix assembly."""

    def __init__(self, solid, struct, segments):
        self.solid = solid
        self.struct = struct
        self.segments = segments

    @property
    def measure(self):
        return sum(float(seg.weights.sum()) for seg in self.segments)

    def matrices(self):
        """Assemble (K^n, K^st, H) in stacked local DOF numbering.

        All three are sparse over ``[solid DOFs | struct DOFs]``. K^st is
        returned without the alpha factor; the full Nitsche contribution
        is ``K^n + K^n.T + alpha * K^st``.
        """
        ns, nb = self.solid.ndof, self.struct.ndof
        n = ns + nb
        rows, cols = [], []
        vals = ([], [], [])
        reduced = self.struct.solid_stress_rows

        for seg in self.segments:
            dofs = np.concatenate([self.solid.element_dofs(seg.s_elem),
                                   ns + self.struct.element_dofs(seg.b_elem)])
            Ns, Ss = self.solid.trace(seg.s_elem, seg.s_parent, rows=reduced)
            Nb, Sb = self.struct.trace(seg.b_elem, seg.b_parent, seg.offsets)
            J = np.concatenate([Ns, -Nb], axis=2)
            T = np.einsum("qdr,qrj->qdj", _normal_matrices(seg.normals, reduced),
                          np.concatenate([Ss, Sb], axis=2))
            w = seg.weights
            rows.append(np.repeat(dofs, dofs.size))
            cols.append(np.tile(dofs, dofs.size))
            vals[0].append((-0.5 * integrate_atb(J, T, w)).ravel())
            vals[1].append(integrate_atb(J, J, w).ravel())
            vals[2].append(integrate_atb(T, T, w).ravel())

        if not rows:
            return tuple(sp.csr_matrix((n, n)) for _ in vals)
        ij = (np.concatenate(rows), np.concatenate(cols))
        return tuple(
            sp.coo_matrix((np.concatenate(v), ij), shape=(n, n)).tocsr()
            for v in vals
        )


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
    facets = boundary_facets(solid.mesh, axis, side, strip=strip)
    rules = [facet_quadrature(solid.mesh, f, npts) for f in facets]
    # Every interface point is located in the structural mesh at once.
    inplane, offsets = _struct_local(
        struct, np.concatenate([phys for _, phys, _, _ in rules]))
    try:
        belems = smesh.element_containing(inplane)
    except DomainError as exc:
        raise PairingError(
            f"interface point has no partner element: {exc}") from exc
    cut = np.cumsum([len(w) for _, _, w, _ in rules])[:-1]
    segments = []
    for f, (parent, phys, w, normals), f_elems, f_local, f_offsets in zip(
            facets, rules, np.split(belems, cut), np.split(inplane, cut),
            np.split(offsets, cut)):
        diam = max(np.linalg.norm(phys.max(axis=0) - phys.min(axis=0)), 1e-30)
        for be in np.unique(f_elems):
            idx = np.nonzero(f_elems == be)[0]
            b_parent = smesh.local_to_parent(be, f_local[idx])
            back = _struct_global(struct, f_local[idx], f_offsets[idx])
            err = np.linalg.norm(back - phys[idx], axis=1).max()
            if err > 1e-8 * diam:
                raise PairingError(
                    f"interface point mismatch {err:.3e} on facet of element "
                    f"{f.elem}"
                )
            segments.append(Segment(
                s_elem=f.elem, s_parent=parent[idx], b_elem=int(be),
                b_parent=b_parent, offsets=f_offsets[idx],
                normals=normals[idx], weights=w[idx],
            ))
    return CouplingOperator(solid, struct, segments)


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
