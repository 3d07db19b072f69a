"""Reduced-model kernels: beams (Euler-Bernoulli, Timoshenko) and plates
(Kirchhoff, Mindlin-Reissner), their prolongation operators onto the
surrounding continuum, and frame rotation machinery.

Beam DOFs are w (Euler-Bernoulli) or (u, w, theta) (Timoshenko) per
control point; plate DOFs are w (Kirchhoff) or (w, beta1, beta2)
(Mindlin). With a nonzero frame angle the Timoshenko nodal unknowns are
kept in global axes and the element matrices are rotated accordingly.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import block_diag

from .elasticity import Material, integrate_btcb, recover_values
from .errors import ConfigError, DomainError
from .mesh import (Mesh, bulk_points, element_batches, facet_rules,
                   parent_data, quadrature_data)


def frame_transforms(phi: float):
    """Rotation matrices for a frame member at angle ``phi``.

    Returns ``(R_v, T_inv, r)``: the global-to-local vector rotation,
    the local-to-global Voigt stress map, and the per-node DOF rotation
    block for (u, w, theta) unknowns.
    """
    c, s = np.cos(phi), np.sin(phi)
    R_v = np.array([[c, s], [-s, c]])
    T_inv = np.array([
        [c * c, s * s, -2.0 * s * c],
        [s * s, c * c, 2.0 * s * c],
        [s * c, -s * c, c * c - s * s],
    ])
    r = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return R_v, T_inv, r


def _require_c1(mesh: Mesh, what: str):
    if mesh.basis != "spline" or any(d.degree < 2 for d in mesh.dirs):
        raise ConfigError(f"{what} needs a C1 basis (spline, degree >= 2)")


class BeamModel:
    """Beam on a 1D mesh, optionally rotated in the plane by ``mesh.phi``."""

    def __init__(self, mesh: Mesh, material: Material,
                 theory: str = "timoshenko"):
        if mesh.model != "beam":
            raise ConfigError(f"BeamModel needs a beam mesh, got {mesh.model}")
        if theory not in ("euler_bernoulli", "timoshenko"):
            raise ConfigError(f"unknown beam theory {theory!r}")
        if theory == "euler_bernoulli":
            _require_c1(mesh, "Euler-Bernoulli beam")
        self.mesh = mesh
        self.material = material
        self.theory = theory
        self.ncomp_node = 1 if theory == "euler_bernoulli" else 3
        self.phi = mesh.phi or 0.0
        self.R_v, self.T_inv, self._r = frame_transforms(self.phi)

    # section shortcuts
    @property
    def EI(self):
        return self.material.E * self.material.inertia

    @property
    def EA(self):
        return self.material.E * self.material.area

    @property
    def kGA(self):
        return self.material.k_shear * self.material.G * self.material.area

    @property
    def ndof(self):
        return self.mesh.nnodes * self.ncomp_node

    @property
    def solid_stress_rows(self):
        return None  # couples against the full 2D Voigt stress

    def element_dofs(self, e):
        return self.mesh.element_dofs(e, self.ncomp_node)

    def _node_rotation(self, nen):
        if self.phi == 0.0 or self.theory == "euler_bernoulli":
            return None
        return block_diag(*[self._r] * nen)

    def element_stiffness(self, e, quadrature=None):
        """Element matrix, or a batch of them for an element array."""
        mesh = self.mesh
        nders = 2 if self.theory == "euler_bernoulli" else 1
        _, w, N, dNdx, d2Ndx2, _ = quadrature_data(mesh, e, quadrature, nders)
        nen = dNdx.shape[-2]
        if self.theory == "euler_bernoulli":
            B = d2Ndx2[..., 0, 0][..., None, :]
            return integrate_btcb(B, np.array([[self.EI]]), w)
        # Timoshenko: axial + bending with the full rule
        Bab = np.zeros(w.shape + (2, 3 * nen))
        Bab[..., 0, 0::3] = dNdx[..., 0]
        Bab[..., 1, 2::3] = dNdx[..., 0]
        K = integrate_btcb(Bab, np.diag([self.EA, self.EI]), w)
        # shear with one-point rule on linear elements (locking cure)
        if quadrature is None and mesh.dirs[0].degree == 1:
            _, ws, Ns, dNs, _, _ = bulk_points(mesh, e, npts=1, nders=1)
        else:
            ws, Ns, dNs = w, N, dNdx
        Bs = np.zeros(ws.shape + (1, 3 * nen))
        Bs[..., 0, 1::3] = dNs[..., 0]
        Bs[..., 0, 2::3] = -Ns
        K += integrate_btcb(Bs, np.array([[self.kGA]]), ws)
        R = self._node_rotation(nen)
        if R is not None:
            K = R.T @ K @ R
        return K

    def constitutive(self):
        """Section-level Hooke matrix C^b in local (xx, yy, xy) Voigt order."""
        E = self.material.E
        shear = 0.0 if self.theory == "euler_bernoulli" else \
            self.material.k_shear * self.material.G
        return np.diag([E, 0.0, shear])

    def _check_offset(self, offset):
        h = self.material.thickness
        if np.any(np.abs(offset) > h / 2 + 1e-12 * h):
            raise DomainError("section offset outside the beam depth")

    def prolong(self, e, parent, offset):
        """Local-frame prolongation matrices at (x-bar, y-bar) points.

        Returns ``(Nb, Bb)`` mapping local element DOFs to the in-plane
        displacement (2 rows) and Voigt strain (3 rows, eps_yy = 0).
        """
        offset = np.asarray(offset, dtype=float).ravel()
        self._check_offset(offset)
        N, dNdx, d2Ndx2, _ = parent_data(
            self.mesh, e, parent, 2 if self.theory == "euler_bernoulli" else 1)
        nq, nen = N.shape
        yb = offset[:, None]
        if self.theory == "euler_bernoulli":
            Nb = np.zeros((nq, 2, nen))
            Nb[:, 0, :] = -yb * dNdx[:, :, 0]
            Nb[:, 1, :] = N
            Bb = np.zeros((nq, 3, nen))
            Bb[:, 0, :] = -yb * d2Ndx2[:, :, 0, 0]
            return Nb, Bb
        Nb = np.zeros((nq, 2, 3 * nen))
        Nb[:, 0, 0::3] = N
        Nb[:, 0, 2::3] = -yb * N
        Nb[:, 1, 1::3] = N
        Bb = np.zeros((nq, 3, 3 * nen))
        d = dNdx[:, :, 0]
        Bb[:, 0, 0::3] = d
        Bb[:, 0, 2::3] = -yb * d
        Bb[:, 2, 1::3] = d
        Bb[:, 2, 2::3] = -N
        return Nb, Bb

    def trace(self, e, parent, offset):
        """Global displacement and Voigt stress interpolation at section
        points: ``(N, S)`` with ``sigma = S a = T_inv C^b B^c a``. ``e`` is
        one element for all points or an array of one element per point."""
        Nb, Bb = self.prolong(e, parent, offset)
        N = np.einsum("ij,qjk->qik", self.R_v.T, Nb)
        S = np.einsum("ij,qjk->qik", self.T_inv @ self.constitutive(), Bb)
        R = self._node_rotation(Nb.shape[2] // 3 if self.ncomp_node == 3 else 0)
        if R is not None:
            N, S = N @ R, S @ R
        return N, S

    def point_load(self, x_local, components) -> np.ndarray:
        """Consistent nodal load for a point force at local coordinate x.

        ``components`` are given on the nodal unknowns: (w,) for
        Euler-Bernoulli, (f_u, f_w, m) for Timoshenko; for a rotated
        frame member they are interpreted in global axes.
        """
        comp = np.asarray(components, dtype=float).reshape(self.ncomp_node)
        e = self.mesh.element_containing((x_local,))
        parent = self.mesh.local_to_parent(e, np.array([[x_local]]))
        param = self.mesh.parent_to_param(e, parent)
        N, _, _ = self.mesh.shape_ders(e, param, nders=0)
        f = np.zeros(self.ndof)
        fe = (N[0][:, None] * comp[None, :]).ravel()
        f[self.element_dofs(e)] += fe
        return f

    def recover(self, e, parent, offset, a_model):
        """Displacement and stress at section points from model DOF values,
        with ``e`` as in `trace`."""
        return recover_values(self.trace(e, parent, offset),
                              a_model[self.element_dofs(e)])


class PlateModel:
    """Plate on a 2D mid-surface mesh at transverse position ``mesh.z_mid``."""

    def __init__(self, mesh: Mesh, material: Material,
                 theory: str = "mindlin"):
        if mesh.model != "plate":
            raise ConfigError(f"PlateModel needs a plate mesh, got {mesh.model}")
        if theory not in ("kirchhoff", "mindlin"):
            raise ConfigError(f"unknown plate theory {theory!r}")
        if theory == "kirchhoff":
            _require_c1(mesh, "Kirchhoff plate")
        self.mesh = mesh
        self.material = material
        self.theory = theory
        self.ncomp_node = 1 if theory == "kirchhoff" else 3

    @property
    def D_b(self):
        """Moment-curvature matrix Eh^3/(12(1-nu^2)) [[1,nu,0],[nu,1,0],[0,0,(1-nu)/2]]."""
        nu = self.material.nu
        return self.material.plate_rigidity * np.array([
            [1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)],
        ])

    @property
    def D_s(self):
        m = self.material
        return m.k_shear * m.G * m.thickness * np.eye(2)

    @property
    def ndof(self):
        return self.mesh.nnodes * self.ncomp_node

    @property
    def solid_stress_rows(self):
        # selects from the 3D Voigt order (xx, yy, zz, xy, yz, xz)
        if self.theory == "kirchhoff":
            return (0, 1, 3)
        return (0, 1, 3, 4, 5)

    def element_dofs(self, e):
        return self.mesh.element_dofs(e, self.ncomp_node)

    def element_stiffness(self, e, quadrature=None):
        """Element matrix, or a batch of them for an element array."""
        mesh = self.mesh
        nders = 2 if self.theory == "kirchhoff" else 1
        _, w, N, dNdx, d2Ndx2, _ = quadrature_data(mesh, e, quadrature, nders)
        if self.theory == "kirchhoff":
            B = np.zeros(w.shape + (3, d2Ndx2.shape[-3]))
            B[..., 0, :] = d2Ndx2[..., 0, 0]
            B[..., 1, :] = d2Ndx2[..., 1, 1]
            B[..., 2, :] = 2.0 * d2Ndx2[..., 0, 1]
            return integrate_btcb(B, self.D_b, w)
        nen = N.shape[-1]
        d1, d2 = dNdx[..., 0], dNdx[..., 1]
        Bb = np.zeros(w.shape + (3, 3 * nen))
        Bb[..., 0, 1::3] = d1
        Bb[..., 1, 2::3] = d2
        Bb[..., 2, 1::3] = d2
        Bb[..., 2, 2::3] = d1
        Bs = np.zeros(w.shape + (2, 3 * nen))
        Bs[..., 0, 0::3] = d1
        Bs[..., 0, 1::3] = -N
        Bs[..., 1, 0::3] = d2
        Bs[..., 1, 2::3] = -N
        return integrate_btcb(Bb, self.D_b, w) + integrate_btcb(Bs, self.D_s, w)

    def constitutive(self):
        """C^p on the plate's nonzero stress rows (3x3 or 5x5 blocks)."""
        m = self.material
        nu = m.nu
        Cm = m.E / (1.0 - nu**2) * np.array([
            [1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)],
        ])
        if self.theory == "kirchhoff":
            return Cm
        C = np.zeros((5, 5))
        C[:3, :3] = Cm
        C[3, 3] = C[4, 4] = m.k_shear * m.G
        return C

    def _check_offset(self, offset):
        h = self.material.thickness
        if np.any(np.abs(offset) > h / 2 + 1e-12 * h):
            raise DomainError("offset outside the plate thickness")

    def prolong(self, e, parent, offset):
        """Prolongation at mid-surface parent points with offsets x3.

        Returns ``(Np, Bp)``: displacement (3 rows) and reduced Voigt
        strain (3 rows Kirchhoff, 5 rows Mindlin) interpolation.
        """
        offset = np.asarray(offset, dtype=float).ravel()
        self._check_offset(offset)
        N, dNdx, d2Ndx2, _ = parent_data(
            self.mesh, e, parent, 2 if self.theory == "kirchhoff" else 1)
        nq, nen = N.shape
        x3 = offset[:, None]
        if self.theory == "kirchhoff":
            Np = np.zeros((nq, 3, nen))
            Np[:, 0, :] = -x3 * dNdx[:, :, 0]
            Np[:, 1, :] = -x3 * dNdx[:, :, 1]
            Np[:, 2, :] = N
            Bp = np.zeros((nq, 3, nen))
            Bp[:, 0, :] = -x3 * d2Ndx2[:, :, 0, 0]
            Bp[:, 1, :] = -x3 * d2Ndx2[:, :, 1, 1]
            Bp[:, 2, :] = -2.0 * x3 * d2Ndx2[:, :, 0, 1]
            return Np, Bp
        d1, d2 = dNdx[:, :, 0], dNdx[:, :, 1]
        Np = np.zeros((nq, 3, 3 * nen))
        Np[:, 0, 1::3] = -x3 * N
        Np[:, 1, 2::3] = -x3 * N
        Np[:, 2, 0::3] = N
        Bp = np.zeros((nq, 5, 3 * nen))
        Bp[:, 0, 1::3] = -x3 * d1
        Bp[:, 1, 2::3] = -x3 * d2
        Bp[:, 2, 1::3] = -x3 * d2
        Bp[:, 2, 2::3] = -x3 * d1
        Bp[:, 3, 0::3] = d2
        Bp[:, 3, 2::3] = -N
        Bp[:, 4, 0::3] = d1
        Bp[:, 4, 1::3] = -N
        return Np, Bp

    def trace(self, e, parent, offset):
        """Displacement and reduced Voigt stress interpolation ``(N, S)``
        at mid-surface parent points with offsets x3, in one element or
        one element per point."""
        Np, Bp = self.prolong(e, parent, offset)
        return Np, np.einsum("ab,qbj->qaj", self.constitutive(), Bp)

    def pressure_element(self, e, p: float, quadrature=None) -> np.ndarray:
        """Consistent load of a uniform transverse pressure on one element,
        or one row per element of an element array."""
        _, w, N, _, _, _ = quadrature_data(self.mesh, e, quadrature)
        fe = np.zeros(w.shape[:-1] + (N.shape[-1], self.ncomp_node))
        fe[..., 0] = p * np.matmul(w[..., None, :], N)[..., 0, :]
        return fe.reshape(w.shape[:-1] + (-1,))

    def pressure_load(self, p: float) -> np.ndarray:
        """Consistent load for a uniform transverse pressure on w DOFs."""
        out = np.zeros(self.ndof)
        for el in element_batches(np.arange(self.mesh.nelem),
                                  self.mesh.nen ** 2 * self.mesh.dim):
            np.add.at(out, self.element_dofs(el), self.pressure_element(el, p))
        return out

    def edge_load(self, axis, side, q: float) -> np.ndarray:
        """Consistent load for a uniform transverse line load on one edge."""
        mesh = self.mesh
        elems, _, _, w, _, N = facet_rules(
            mesh, axis, side, max(d.degree for d in mesh.dirs) + 1)
        fq = (len(elems), -1)
        fe = np.zeros((len(elems), N.shape[1], self.ncomp_node))
        fe[..., 0] = q * (w.reshape(fq)[:, None, :]
                          @ N.reshape(fq + N.shape[1:]))[:, 0]
        out = np.zeros(self.ndof)
        # Summed facet by facet, in element order.
        np.add.at(out, self.element_dofs(elems), fe.reshape(len(elems), -1))
        return out

    def recover(self, e, parent, offset, a_model):
        """Displacement and stress at section points from model DOF values,
        with ``e`` as in `trace`."""
        return recover_values(self.trace(e, parent, offset),
                              a_model[self.element_dofs(e)])
