"""Reduced models: beams (Euler-Bernoulli, Timoshenko) and plates
(Kirchhoff, Mindlin-Reissner), and their prolongation onto the continuum.

Each theory states its kinematics once, as a table (`KINEMATICS`): the
continuum displacement and strain it implies at a section offset, value
+ offset * slope. `prolong` and `trace` contract the table with the
shape functions, and the stiffness is the section integral of the
prolonged strain energy (`elasticity.section_form`). Timoshenko unknowns
of a member at a frame angle stay in global axes: the rotation acts on
the component axes of the table.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import block_diag

from .elasticity import (Material, Model, constitutive_solid, interpolate,
                         kinematics, recover_values, section_form,
                         stiffness_quadrature)
from .errors import ConfigError, DomainError
from .mesh import Mesh, affine

# Rows: displacement (ux, uy) or (u1, u2, u3), then Voigt strain (xx, yy,
# xy), for Mindlin (xx, yy, xy, yz, xz). Terms: (component, derivative
# multi-index, value, slope); the section offset is y or z.
KINEMATICS = {
    # (w): ux = -y w', uy = w; exx = -y w''.
    "euler_bernoulli": kinematics(
        [[(0, (1,), 0, -1)], [(0, (0,), 1, 0)]], [[(0, (2,), 0, -1)], [], []]),
    # (u, w, theta): ux = u - y theta, uy = w; exx = u' - y theta',
    # gxy = w' - theta.
    "timoshenko": kinematics(
        [[(0, (0,), 1, 0), (2, (0,), 0, -1)], [(1, (0,), 1, 0)]],
        [[(0, (1,), 1, 0), (2, (1,), 0, -1)], [],
         [(1, (1,), 1, 0), (2, (0,), -1, 0)]]),
    # (w): u1 = -z w_x, u2 = -z w_y, u3 = w; exx = -z w_xx, eyy = -z w_yy,
    # gxy = -2 z w_xy.
    "kirchhoff": kinematics(
        [[(0, (1, 0), 0, -1)], [(0, (0, 1), 0, -1)], [(0, (0, 0), 1, 0)]],
        [[(0, (2, 0), 0, -1)], [(0, (0, 2), 0, -1)], [(0, (1, 1), 0, -2)]]),
    # (w, beta1, beta2): u1 = -z beta1, u2 = -z beta2, u3 = w;
    # exx = -z beta1_x, eyy = -z beta2_y, gxy = -z (beta1_y + beta2_x),
    # gyz = w_y - beta2, gxz = w_x - beta1.
    "mindlin": kinematics(
        [[(1, (0, 0), 0, -1)], [(2, (0, 0), 0, -1)], [(0, (0, 0), 1, 0)]],
        [[(1, (1, 0), 0, -1)], [(2, (0, 1), 0, -1)],
         [(1, (0, 1), 0, -1), (2, (1, 0), 0, -1)],
         [(0, (0, 1), 1, 0), (2, (0, 0), -1, 0)],
         [(0, (1, 0), 1, 0), (1, (0, 0), -1, 0)]]),
}


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


def _prolong(model, e, parent, offset):
    """The model's kinematics at section offsets within its thickness."""
    offset = np.asarray(offset, dtype=float).ravel()
    h = model.material.thickness
    if np.any(np.abs(offset) > h / 2 + 1e-12 * h):
        raise DomainError(
            f"section offset outside the {model.mesh.model} thickness")
    return interpolate(model.mesh, e, parent, model.kinematics, offset)


class BeamModel(Model):
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
        self.R_v, self.T_inv, r = frame_transforms(self.phi)
        # Timoshenko unknowns are in global axes: local ones are r @ them.
        self.kinematics = KINEMATICS[theory] if self.ncomp_node == 1 else \
            tuple(np.einsum("psck,cd->psdk", t, r) for t in KINEMATICS[theory])

    @property
    def solid_stress_rows(self):
        return None  # couples against the full 2D Voigt stress

    def to_local(self, phys):
        """Global points ``(n, 2)`` as ``(inplane (n, 1), offsets (n,))``:
        the axis coordinate and the section offset."""
        loc = (np.atleast_2d(phys) - self.mesh.origin) @ self.R_v.T
        return loc[:, :1], loc[:, 1]

    def to_global(self, inplane, offsets):
        """Inverse of `to_local`."""
        return self.mesh.origin + np.column_stack(
            [inplane[:, 0], offsets]) @ self.R_v

    def stiffness_form(self):
        """The `section_form` over the section (A, I); Timoshenko shear on
        linear elements is a second part on the one-point rule."""
        m, C = self.material, self.constitutive()
        parts = [(C, None)]
        if self.theory == "timoshenko" and self.mesh.dirs[0].degree == 1:
            shear = np.diag([0.0, 0.0, C[2, 2]])
            parts = [(C - shear, None), (shear, 1)]
        return [(section_form(self.kinematics, Cp, m.area, m.inertia), npts)
                for Cp, npts in parts]

    def element_stiffness(self, e, quadrature=None):
        """Element matrix, or a batch of them for an element array."""
        return stiffness_quadrature(self.mesh, e, self.stiffness_form(),
                                    quadrature)

    def constitutive(self):
        """Section-level Hooke matrix C^b in local (xx, yy, xy) Voigt order."""
        m = self.material
        shear = 0.0 if self.theory == "euler_bernoulli" else m.k_shear * m.G
        return np.diag([m.E, 0.0, shear])

    def prolong(self, e, parent, offset):
        """Local-frame prolongation matrices at (x-bar, y-bar) points.

        Returns ``(Nb, Bb)`` mapping element DOFs to the in-plane
        displacement (2 rows) and Voigt strain (3 rows, eps_yy = 0) in
        the member's axes.
        """
        return _prolong(self, e, parent, offset)

    def trace(self, e, parent, offset):
        """Global displacement and Voigt stress interpolation at section
        points: ``(N, S)`` with ``sigma = S a = T_inv C^b B^c a``. ``e`` is
        one element for all points or an array of one element per point."""
        Nb, Bb = self.prolong(e, parent, offset)
        return self.R_v.T @ Nb, self.T_inv @ self.constitutive() @ Bb

    def point_load(self, x_local, components) -> np.ndarray:
        """Consistent nodal load for a point force at local coordinate x,
        on an `affine` beam mesh (ConfigError otherwise).

        ``components`` are given on the nodal unknowns: (w,) for
        Euler-Bernoulli, (f_u, f_w, m) for Timoshenko; for a rotated
        frame member they are interpreted in global axes.
        """
        comp = np.asarray(components, dtype=float).reshape(self.ncomp_node)
        if not affine(self.mesh):
            raise ConfigError(
                "point load needs an affine beam map to place x: the net "
                "build_mesh makes, with equal NURBS weights if any")
        e = self.mesh.element_containing((x_local,))
        if self.part_index(e) < 0:
            raise ConfigError(f"point load on element {e}, void or demoted")
        N, _, _ = self.mesh.shape_ders(e, [[x_local]], nders=0)
        f = np.zeros(self.ndof)
        fe = (N[0][:, None] * comp[None, :]).ravel()
        f[self.element_dofs(e)] += fe
        return f

    def recover(self, e, parent, offset, a_model):
        """Displacement and stress at section points from model DOF values,
        with ``e`` as in `trace`."""
        return recover_values(self.trace(e, parent, offset),
                              a_model[self.element_dofs(e)])


class PlateModel(Model):
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
        self.kinematics = KINEMATICS[theory]

    @property
    def solid_stress_rows(self):
        # selects from the 3D Voigt order (xx, yy, zz, xy, yz, xz)
        return (0, 1, 3) if self.theory == "kirchhoff" else (0, 1, 3, 4, 5)

    def to_local(self, phys):
        """Global points ``(n, 3)`` as ``(inplane (n, 2), offsets (n,))``:
        mid-surface coordinates and the offset from ``z_mid``."""
        phys = np.atleast_2d(phys)
        return phys[:, :2], phys[:, 2] - self.mesh.z_mid

    def to_global(self, inplane, offsets):
        """Inverse of `to_local`."""
        return np.column_stack([inplane, self.mesh.z_mid + offsets])

    def stiffness_form(self):
        """The `section_form` through the thickness h (h, h^3 / 12)."""
        h = self.material.thickness
        return [(section_form(self.kinematics, self.constitutive(), h,
                              h ** 3 / 12.0), None)]

    def element_stiffness(self, e, quadrature=None):
        """Element matrix, or a batch of them for an element array."""
        return stiffness_quadrature(self.mesh, e, self.stiffness_form(),
                                    quadrature)

    def constitutive(self):
        """C^p on the plate's nonzero stress rows (3x3 or 5x5 blocks)."""
        m = self.material
        Cm = constitutive_solid(m, 2)  # plane stress
        return Cm if self.theory == "kirchhoff" else block_diag(
            Cm, m.k_shear * m.G * np.eye(2))

    def prolong(self, e, parent, offset):
        """Prolongation at mid-surface parent points with offsets x3.

        Returns ``(Np, Bp)``: displacement (3 rows) and reduced Voigt
        strain (3 rows Kirchhoff, 5 rows Mindlin) interpolation.
        """
        return _prolong(self, e, parent, offset)

    def trace(self, e, parent, offset):
        """Displacement and reduced Voigt stress interpolation ``(N, S)``
        at mid-surface parent points with offsets x3, in one element or
        one element per point."""
        Np, Bp = self.prolong(e, parent, offset)
        return Np, self.constitutive() @ Bp

    def pressure_element(self, e, p: float, quadrature=None) -> np.ndarray:
        """Consistent load of a uniform transverse pressure on one element,
        or one row per element of an element array."""
        return self.element_load(e, p * np.eye(self.ncomp_node)[0],
                                 quadrature)

    def pressure_load(self, p: float) -> np.ndarray:
        """Consistent load for a uniform transverse pressure on w DOFs."""
        return self.element_sum(
            p * np.eye(self.ncomp_node)[0],
            lambda el, rule: self.pressure_element(el, p, rule))

    def edge_load(self, axis, side, q: float) -> np.ndarray:
        """Consistent load for a uniform transverse line load on one edge."""
        return self.face_load(axis, side, q * np.eye(self.ncomp_node)[0])

    def recover(self, e, parent, offset, a_model):
        """Displacement and stress at section points from model DOF values,
        with ``e`` as in `trace`."""
        return recover_values(self.trace(e, parent, offset),
                              a_model[self.element_dofs(e)])
