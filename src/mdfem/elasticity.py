"""Continuum element kernels: plane-stress 2D and full 3D elasticity.

Voigt order is fixed program-wide: [xx, yy, xy] in 2D and
[xx, yy, zz, xy, yz, xz] in 3D, with engineering shear strains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .mesh import (Mesh, bulk_points, element_batches, facet_rules,
                   grid_nodes, parent_data, quadrature_data)
from .quadrature import tensor_rules


@dataclass
class Material:
    """Isotropic material and section data.

    ``thickness`` (h) and ``width`` (b) feed the reduced models: area
    A = b h, second moment I = b h^3 / 12.
    """

    E: float
    nu: float
    k_shear: float = 5.0 / 6.0
    thickness: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.E <= 0:
            raise ConfigError(f"Young's modulus must be positive, got {self.E}")
        if not -1.0 < self.nu < 0.5:
            raise ConfigError(f"Poisson ratio must be in (-1, 0.5), got {self.nu}")
        if self.thickness <= 0 or self.width <= 0:
            raise ConfigError("section dimensions must be positive")
        if self.k_shear <= 0:
            raise ConfigError("shear correction factor must be positive")

    @property
    def G(self):
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def area(self):
        return self.width * self.thickness

    @property
    def inertia(self):
        return self.width * self.thickness**3 / 12.0

    @property
    def plate_rigidity(self):
        return self.E * self.thickness**3 / (12.0 * (1.0 - self.nu**2))


def constitutive_solid(material: Material, dim: int) -> np.ndarray:
    """Hooke matrix in Voigt order (plane stress for 2D)."""
    E, nu = material.E, material.nu
    if dim == 2:
        c = E / (1.0 - nu**2)
        return c * np.array([
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, 0.5 * (1.0 - nu)],
        ])
    if dim == 3:
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        mu = material.G
        C = np.zeros((6, 6))
        C[:3, :3] = lam
        C[np.arange(3), np.arange(3)] += 2.0 * mu
        C[np.arange(3, 6), np.arange(3, 6)] = mu
        return C
    raise ConfigError(f"solid dimension must be 2 or 3, got {dim}")


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


def disp_matrix(N: np.ndarray, ncomp: int) -> np.ndarray:
    """Displacement interpolation matrices (nq, ncomp, ncomp * nen)."""
    nq, nen = N.shape
    out = np.zeros((nq, ncomp, ncomp * nen))
    for c in range(ncomp):
        out[:, c, c::ncomp] = N
    return out


def integrate_atb(A: np.ndarray, B: np.ndarray, w: np.ndarray,
                  out=None) -> np.ndarray:
    """Sum over quadrature points of w * A^T B (GEMM-shaped).

    ``A`` is ``(..., nq, nr, na)`` and ``B`` is ``(..., nq, nr, nb)``, with
    the same leading batch axes as ``w`` ``(..., nq)``; the result is
    ``(..., na, nb)``, written to ``out`` if given.
    """
    *lead, nq, nr, na = A.shape
    wB = B * w[..., None, None]
    return np.matmul(A.reshape(*lead, nq * nr, na).swapaxes(-1, -2),
                     wB.reshape(*lead, nq * nr, B.shape[-1]), out=out)


def integrate_btcb(B: np.ndarray, C: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over quadrature points of w * B^T C B (GEMM-shaped, batched as
    `integrate_atb`)."""
    return integrate_atb(B, np.einsum("ab,...bj->...aj", C, B), w)


def stiffness_solid(mesh: Mesh, e, material: Material,
                    quadrature=None) -> np.ndarray:
    """Element stiffness with the full (p+1)-point Gauss rule or an
    explicit ``quadrature`` (as `mesh.quadrature_data` takes it), for one
    element or an element array. Tensor form of sum_q w B^T C B:
    P_kl = sum_q w G_k G_l^T (G = dN/dx, one GEMM per direction pair) and
    K[a i, b j] = sum_kl D[i k, j l] P_kl[a, b], D = B^T C B of unit
    gradients.
    """
    _, w, _, G, _, _ = quadrature_data(mesh, e, quadrature)
    *lead, nq, nen, dim = G.shape
    G = np.ascontiguousarray(np.moveaxis(G, -1, 0))  # [k, ..., q, a]
    wG = G * w[..., None]
    P = np.empty((dim, dim, *lead, nen, nen))
    for k in range(dim):
        for l in range(dim):
            np.matmul(G[k].swapaxes(-1, -2), wG[l], out=P[k, l])
    # [i, j, ..., a, b] -> [..., a, i, b, j]
    K = _hooke(material, dim).reshape(dim * dim, -1) @ P.reshape(dim * dim, -1)
    return np.moveaxis(K.reshape(P.shape), (0, 1), (-3, -1)).reshape(
        *lead, nen * dim, nen * dim)


def _hooke(material, dim):
    """D[i, j, k, l] = B^T C B of unit gradients: the coefficient of
    d_k u_i d_l v_j in the strain energy density."""
    D = integrate_btcb(b_matrix_solid(np.eye(dim)[None]),
                       constitutive_solid(material, dim), np.ones(1))
    return D.reshape((dim,) * 4).transpose(1, 3, 0, 2)


def stiffness_separable(mesh: Mesh, material: Material):
    """Whole-mesh stiffness as canonical CSR without exact zeros if the
    nodes are bit for bit the net `grid_nodes` gives and the Jacobian is
    positive; else None, left to `stiffness_solid` (which may raise).

    The map is x = origin + A y, y_k a function of t_k alone, so P_kl =
    det(A) sum_mn G_mk G_nl P^y_mn (G = A^-1), each P^y_mn the Kronecker
    product over directions k (first fastest) of the 1D band matrices
    int B^(a) B^(b) dy_k, a = [m = k], b = [n = k]. One GEMM with D on
    their shared pattern gives the node blocks.
    """
    dim, bands = mesh.dim, [_band_1d(d) for d in mesh.dirs]
    A = np.eye(dim) if mesh.rotation is None else mesh.rotation
    if (np.linalg.det(A) <= 0 or any(b is None for b in bands)
            or not np.array_equal(mesh.nodes, grid_nodes(
                mesh.dirs, mesh.origin, mesh.rotation))):
        return None
    m, n = np.indices((dim, dim)).reshape(2, -1)  # (m, n) of each P column
    P = ()
    for k, (ptr, cols, vals) in enumerate(bands):
        band = ptr, cols, vals[:, 2 * (m == k) + (n == k)]
        P = _kron_csr(*band, *P) if P else band
    G = np.linalg.inv(A)
    D = np.linalg.det(A) * np.einsum("ijkl,mk,nl->mnij", _hooke(material, dim),
                                     G, G).reshape(dim * dim, -1)
    K = sp.bsr_matrix(((P[2] @ D).reshape(-1, dim, dim), P[1], P[0]),
                      shape=(mesh.nnodes * dim,) * 2).tocsr()
    K.eliminate_zeros()
    return K


def _band_1d(d):
    """The 1D matrices int B^(a) B^(b) dy (a, b in {0, 1}, y local) of one
    direction on its (p+1)-point Gauss rule, as CSR ``(indptr, indices,
    values (nnz, 4))`` with value 2a + b; None where dy/dt <= 0."""
    el, p = np.arange(d.nelem), d.degree
    t, w, _ = tensor_rules([d.intervals()], [el], [p + 1])
    tab = d.eval(np.repeat(el, p + 1), t.ravel(), 1).reshape(w.shape + (2, -1))
    idx = d.indices(el)
    dy = np.einsum("eqa,ea->eq", tab[..., 1, :], d.node_coords()[idx])
    if np.any(dy <= 0):
        return None
    tab[..., 1, :] /= dy[..., None]
    band = np.zeros((d.n, 2 * p + 1, 2, 2))  # [i, j - i + p, a, b]
    # Element e holds the consecutive functions idx[e] = s_e + (0 .. p).
    loc = np.arange(p + 1)
    np.add.at(band, (idx[:, :, None], p + loc - loc[:, None]),
              np.einsum("eq,eqai,eqbj->eijab", w * dy, tab, tab))
    i, s = np.indices(band.shape[:2])
    keep = (0 <= i + s - p) & (i + s - p < d.n)
    return (np.concatenate(([0], np.cumsum(keep.sum(1)))), (i + s - p)[keep],
            band[keep].reshape(-1, 4))


def _kron_csr(pa, ca, va, pb, cb, vb):
    """Kronecker product ``(indptr, indices, values)`` of square CSR
    matrices a and b, b fastest, whose values carry a trailing axis
    (multiplied entry by entry); sorted rows stay sorted."""
    la, lb = np.diff(pa), np.diff(pb)
    rowlen = np.outer(la, lb).ravel()
    ptr = np.concatenate(([0], np.cumsum(rowlen)))
    r = np.repeat(np.arange(rowlen.size), rowlen)
    ia, ib = np.divmod(r, lb.size)
    q, s = np.divmod(np.arange(ptr[-1]) - ptr[r], lb[ib])
    ea, eb = pa[ia] + q, pb[ib] + s
    vals = np.take(va, ea, axis=0)
    vals *= np.take(vb, eb, axis=0)
    return ptr, ca[ea] * lb.size + cb[eb], vals


class SolidModel:
    """Continuum body: mesh plus material, exposing coupling kernels."""

    def __init__(self, mesh: Mesh, material: Material):
        if mesh.model not in ("solid2d", "solid3d"):
            raise ConfigError(f"SolidModel needs a solid mesh, got {mesh.model}")
        self.mesh = mesh
        self.material = material
        self.ncomp = mesh.dim
        self.C = constitutive_solid(material, mesh.dim)

    @property
    def ncomp_node(self):
        """Unknowns per node, under the name model-generic code expects."""
        return self.ncomp

    @property
    def ndof(self):
        return self.mesh.nnodes * self.ncomp

    def element_dofs(self, e):
        return self.mesh.element_dofs(e, self.ncomp)

    def element_stiffness(self, e, quadrature=None):
        """Element matrix, or a batch of them for an element array."""
        return stiffness_solid(self.mesh, e, self.material, quadrature)

    def trace(self, e, parent, rows=None):
        """Displacement and stress interpolation at parent points of
        element ``e``, or of ``e[i]`` at point ``i`` for an element array.

        Returns ``(N, S)`` of shapes ``(nq, ncomp, ndof_e)`` and
        ``(nq, nvoigt, ndof_e)`` with ``S = C B``; ``rows`` selects stress
        components.
        """
        N, dNdx, _, _ = parent_data(self.mesh, e, parent)
        C = self.C if rows is None else self.C[rows, :]
        return (disp_matrix(N, self.ncomp),
                np.einsum("ab,qbj->qaj", C, b_matrix_solid(dNdx)))

    def body_force(self, force) -> np.ndarray:
        """Consistent nodal load for a constant body force vector."""
        force = np.asarray(force, dtype=float).reshape(self.ncomp)
        mesh = self.mesh
        out = np.zeros(self.ndof)
        for el in element_batches(np.arange(mesh.nelem),
                                  mesh.nen ** 2 * mesh.dim):
            _, w, N, _, _, _ = bulk_points(mesh, el, nders=1)
            fe = np.einsum("eq,eqn,c->enc", w, N, force)
            np.add.at(out, self.element_dofs(el), fe.reshape(len(el), -1))
        return out

    def traction_force(self, axis, side, traction, npts=None,
                       strip=None) -> np.ndarray:
        """Consistent nodal load for a traction on a boundary face.

        ``traction`` is a constant vector or a callable mapping physical
        points (nq, dim) to traction vectors (nq, dim).
        """
        mesh = self.mesh
        if npts is None:
            npts = max(d.degree for d in mesh.dirs) + 1
        elems, _, phys, w, _, N = facet_rules(mesh, axis, side, npts, strip)
        if callable(traction):
            t = np.asarray(traction(phys), dtype=float)
        else:
            t = np.tile(np.asarray(traction, dtype=float), (len(w), 1))
        fq = (len(elems), -1)
        fe = np.einsum("fq,fqn,fqc->fnc", w.reshape(fq),
                       N.reshape(fq + N.shape[1:]), t.reshape(fq + t.shape[1:]))
        out = np.zeros(self.ndof)
        # Summed facet by facet, in element order.
        np.add.at(out, self.element_dofs(elems), fe.reshape(len(elems), -1))
        return out

    def recover(self, e, parent, a_model):
        """Displacement and stress at parent points from model DOF values,
        with ``e`` as in `trace`."""
        return recover_values(self.trace(e, parent),
                              a_model[self.element_dofs(e)])


def recover_values(trace, ae):
    """``(N a_e, S a_e)`` of a trace ``(N, S)`` and element DOF values
    ``ae``: one row for all points, or one row per point."""
    N, S = trace
    ae = np.broadcast_to(ae, (N.shape[0], N.shape[-1]))[..., None]
    return (N @ ae)[..., 0], (S @ ae)[..., 0]
