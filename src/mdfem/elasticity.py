"""Continuum element kernels: plane-stress 2D and full 3D elasticity.

Voigt order is fixed program-wide: [xx, yy, xy] in 2D and
[xx, yy, zz, xy, yz, xz] in 3D, with engineering shear strains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .mesh import (Mesh, direction_tables, facet_rules, gauss_rule, jets,
                   live_shapes, parent_data, quadrature_data)
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
        for name in ("E", "nu", "k_shear", "thickness", "width"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not math.isfinite(value)):
                raise ConfigError(f"material {name} must be a finite number, "
                                  f"got {value!r}")
            if name != "nu" and not value > 0:
                raise ConfigError(f"material {name} must be positive, "
                                  f"got {value}")
        if not -1.0 < self.nu < 0.5:
            raise ConfigError(f"material nu must be in (-1, 0.5), "
                              f"got {self.nu}")

    @property
    def G(self):
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def area(self):
        return self.width * self.thickness

    @property
    def inertia(self):
        return self.width * self.thickness**3 / 12.0


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


def kinematics(disp, strain):
    """Tables ``(U, E)``, each ``(2, rows, ncomp, njet)``: row r of the
    displacement (U) or Voigt strain (E) at section offset y sums ``(a + y
    b) d^m u_c`` over its terms ``(c, m, a, b)``, m a `jets` multi-index."""
    rows = disp + strain
    terms = [t for row in rows for t in row]
    index = {tuple(m): j for j, m in enumerate(jets(len(terms[0][1])))}
    t = np.zeros((2, len(rows), 1 + max(c for c, *_ in terms), len(index)))
    for r, row in enumerate(rows):
        for c, m, a, b in row:
            t[:, r, c, index[m]] = a, b
    return t[:, :len(disp)], t[:, len(disp):]


def solid_kinematics(dim):
    """u_c = N a_c and the Voigt strains, engineering shears; a row's
    terms are a set, so that a normal strain (i = j) has one."""
    pairs = ((0, 0), (1, 1), (0, 1)) if dim == 2 else (
        (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))
    d = [tuple(r) for r in np.eye(dim, dtype=int)]
    return kinematics([[(c, (0,) * dim, 1, 0)] for c in range(dim)],
                      [{(i, d[j], 1, 0), (j, d[i], 1, 0)} for i, j in pairs])


def section_form(kin, C, area=1.0, inertia=0.0):
    """Stiffness form D ``(ncomp, njet, ncomp, njet)``, energy density sum
    D[i a j b] d^a u_i d^b u_j: strain rows E0 + y E1 of ``kin``, law ``C``,
    over a section of moments ``area`` (y^0), ``inertia`` (y^2; no y^1)."""
    return sum(m * np.einsum("rca,rs,sdb->cadb", E, C, E)
               for m, E in zip((area, inertia), kin[1]))


def interpolate(mesh, e, parent, kin, offset=None):
    """``(N, B)``: the displacement and strain rows of ``kin`` at section
    offsets ``offset`` (one per point or one for all) at parent points of
    element ``e``, or of ``e[i]`` at point ``i`` for an element array:
    ``(nq, rows, ncomp * nen)``, DOFs node-major."""
    t = np.concatenate(kin, axis=1)
    r, c, j = np.nonzero(t.any(0))
    # Second derivatives are needed iff a used column follows the first.
    J = parent_data(mesh, e, parent, 2 if j.max() > mesh.dim else 1)
    nq, nen = J.shape[1:]
    y = 0.0 if offset is None else np.reshape(offset, (-1, 1))
    out = np.zeros((nq, t.shape[1], nen, t.shape[2]))
    for row, comp, col, a, b in zip(r.tolist(), c.tolist(), j.tolist(),
                                    *t[:, r, c, j].tolist()):
        out[:, row, :, comp] += (a + y * b) * J[col]
    out = out.reshape(nq, t.shape[1], -1)
    return out[:, :kin[0].shape[1]], out[:, kin[0].shape[1]:]


def stiffness_quadrature(mesh, e, form, quadrature=None) -> np.ndarray:
    """Element matrices of a stiffness ``form``: a list of ``(D, npts)``
    parts, D as `section_form` gives it, each on its ``npts``-point Gauss
    rule (None: p + 1) or all on an explicit ``quadrature`` (as
    `mesh.quadrature_data` takes it); one element or an element array.
    P_ab = sum_q w d^a N (d^b N)^T for each pair of used jet columns (one
    GEMM each), and K[m i, n j] = sum_ab D[i a j b] P_ab[m, n]."""
    if quadrature is not None:
        form = [(sum(D for D, _ in form), None)]
    parts = []
    for D, npts in form:
        used = np.flatnonzero(np.abs(D).sum((0, 2, 3)))
        nders = 2 if used[-1] > mesh.dim else 1
        w, J = quadrature_data(mesh, e, gauss_rule(
            mesh, e, npts) if quadrature is None else quadrature, nders)
        J = J[used]
        *lead, _, nen = J.shape[1:]
        wJ = J * w[..., None]
        nu, nc = used.size, D.shape[0]
        P = np.empty((nu, nu, *lead, nen, nen))
        for a in range(nu):
            for b in range(nu):
                np.matmul(J[a].swapaxes(-1, -2), wJ[b], out=P[a, b])
        # [i, j, ..., m, n]. A one-row product is a GEMV, whose sums depend
        # on the batch size: that row is summed term by term.
        Du = D[:, used][..., used].transpose(0, 2, 1, 3).reshape(nc * nc, -1)
        P = P.reshape(nu * nu, -1)
        Kp = Du @ P if nc > 1 else sum(d * p for d, p in zip(Du[0], P) if d)
        # -> [..., m, i, n, j]
        parts.append(np.moveaxis(Kp.reshape(nc, nc, *lead, nen, nen), (0, 1),
                                 (-3, -1)).reshape(*lead, nen * nc, nen * nc))
    return sum(parts[1:], parts[0])


def stiffness_separable(mesh: Mesh, form, boxes):
    """Upper triangles U of the matrices U + U^T - diag(U) of a stiffness
    ``form`` (as `part_form` gives it) over the element ``boxes`` of
    `Mesh.element_boxes`: one canonical BSR per box on all the mesh's
    DOFs, of node blocks (i, j), j >= i, diagonal ones upper.

    The map is x = origin + A t, so a jet in x combines jets in the local
    coordinates t by ``Mesh.jet_map``, the matrix every point evaluation
    maps its jet table with, and P_ab in t over a box is the Kronecker
    product over directions (first fastest) of the 1D band matrices int
    B^(a_k) B^(b_k) dt_k over the box's elements, on the functions they
    support (`_band_1d`), upper with the slowest direction A:
    strict_upper(A) x R + diag(A) x upper(R) (`_kron_csr`). Gauss
    tables are evaluated once per part and direction (`_tables_1d`). The
    parts share the band pattern, so their jet pairs (a, b) ride side by
    side on the values' trailing axis: one product per box, and one GEMM
    with the parts' D stacked gives the node blocks.
    """
    T, m, det = mesh.jet_map, jets(mesh.dim), mesh.placement[3]
    idx, mats, Dab = [None] * mesh.dim, [[] for _ in mesh.dirs], []
    for D, npts, cover in form:
        D = det * np.einsum("ab,iajc,cd->ibjd", T, D, T)
        used = np.flatnonzero(np.abs(D).sum((0, 2, 3)))
        a, b = (used[i].ravel() for i in np.indices((used.size,) * 2))
        nders = 2 if used[-1] > mesh.dim else 1
        for k, (d, c) in enumerate(zip(mesh.dirs,
                                       cover or (None,) * mesh.dim)):
            idx[k], w, tab = _tables_1d(d, npts or d.degree + 1, nders, c)
            mats[k].append(np.einsum("eq,eqai,eqbj->eijab", w, tab, tab)[
                ..., m[a, k], m[b, k]])
        Dab.append(D[:, a, :, b].reshape(a.size, -1))
    mats, Dab = [np.concatenate(mk, axis=-1) for mk in mats], np.vstack(Dab)
    nc, Ks = form[0][0].shape[0], []
    for box in boxes:
        P, nodes, n = (), np.zeros(1, dtype=int), 1
        for k, (d, mk, mask) in enumerate(zip(mesh.dirs, mats, box)):
            last = k == mesh.dim - 1
            band, live = _band_1d(d.n, idx[k], mk, mask, last)
            P = _kron_csr(*band, P[0], _upper_starts(P[0], P[1], nodes)
                          if last else P[0][:-1], *P[1:], n) if P else band
            nodes = (n * live[:, None] + nodes).ravel()
            n *= d.n
        # The box's rows are the mesh nodes ``nodes``, each led by its
        # diagonal block; other rows are empty.
        blocks = (P[2] @ Dab).reshape(-1, nc, nc)
        blocks[P[0][:-1]] = np.triu(blocks[P[0][:-1]])
        ptr = np.zeros(mesh.nnodes + 1, dtype=P[0].dtype)
        ptr[nodes + 1] = np.diff(P[0])
        Ks.append(sp.bsr_matrix((blocks, P[1], np.cumsum(ptr)),
                                shape=(mesh.nnodes * nc,) * 2))
    return Ks


def _tables_1d(d, npts, nders, cover):
    """Gauss tables of direction ``d`` on its ``npts``-point rule: ``(idx,
    w, tab)``, the functions of each element ``(nelem, p + 1)``, the
    weights ``(nelem, npts)``, zero at points outside ``cover`` (lo, hi)
    if given, and the basis derivatives of order <= ``nders``
    (`mesh.direction_tables`), ``(nelem, npts, nders + 1, p + 1)``."""
    el = np.arange(d.nelem)
    t, w, _ = tensor_rules([d.intervals()], [el], [npts])
    if cover is not None:
        w = np.where((cover[0] < t[..., 0]) & (t[..., 0] < cover[1]), w, 0.0)
    return d.indices(el), w, direction_tables(d, el, t[..., 0], nders)


def _band_1d(n, idx, mats, mask, upper):
    """The 1D matrix (if ``upper`` its upper triangle) of element matrices
    ``mats`` ``(nelem, p + 1, p + 1, ...)`` on functions ``idx``
    (`_tables_1d`) of a direction with ``n`` functions, summed over the
    elements ``mask``: ``((indptr, indices, values), live)``, CSR whose
    rows are the functions ``live`` those elements support (sorted)."""
    idx, p = idx[mask], idx.shape[1] - 1
    band = np.zeros((n, 2 * p + 1) + mats.shape[3:])  # [i, j - i + p]
    # Element e holds the consecutive functions idx[e] = s_e + (0 .. p).
    loc = np.arange(p + 1)
    np.add.at(band, (idx[:, :, None], p + loc - loc[:, None]), mats[mask])
    live = np.zeros(n, dtype=bool)
    live[idx] = True
    i, s = np.indices(band.shape[:2])
    j = i + s - p
    keep = (j >= (i if upper else 0)) & (j < n)
    keep[keep] = live[i[keep]] & live[j[keep]]
    return ((np.concatenate(([0], np.cumsum(keep.sum(1)[live]))), j[keep],
             band[keep]), np.flatnonzero(live))


def load_separable(mesh: Mesh, form, boxes):
    """int s N dx of every node over the element ``boxes`` of
    `Mesh.element_boxes`, summed over the parts of ``form`` (`part_form`,
    a number s for D). Over a box it is the outer product over directions
    of int B dt over the box's elements (`_tables_1d`), times s det A."""
    out = np.zeros(mesh.nnodes)
    for s, npts, cover in form:
        tabs = [_tables_1d(d, npts or d.degree + 1, 1, c) for d, c in
                zip(mesh.dirs, cover or (None,) * mesh.dim)]
        for box in boxes:
            f = np.full(1, s * mesh.placement[3])
            for d, (idx, w, tab), mask in zip(mesh.dirs, tabs, box):
                g = np.zeros(d.n)
                np.add.at(g, idx[mask], np.einsum("eq,eqi->ei", w[mask],
                                                  tab[mask, :, 0]))
                f = np.multiply.outer(g, f).ravel()  # new direction slowest
            out += f
    return out


def part_form(form, rule):
    """A model's stiffness ``form`` on a `Model.parts` entry of ``rule``
    as ``(D, npts, cover)`` parts, each on its npts-point rule with zero
    weight outside the box ``cover`` (None: all kept). The standard rule
    (None) keeps the form's parts. The cut rule ``(npts, bounds)`` of
    `integrate_cut` weighs a point prod_k w_k - prod_k w_k c_k, c_k = 1
    where ``bounds`` covers it in direction k: the summed D on the
    npts-point rule, and -D on that rule with cover ``bounds``."""
    if rule is None:
        return [(D, npts, None) for D, npts in form]
    D = sum(D for D, _ in form)
    return [(D, rule[0], None), (-D, *rule)]


def _upper_starts(ptr, col, rows):
    """Each sorted CSR row's first entry at or past its diagonal ``rows``."""
    r = np.repeat(np.arange(rows.size), np.diff(ptr))
    return ptr[:-1] + np.bincount(r[col < rows[r]], minlength=rows.size)


def _kron_csr(pa, ca, va, pb, sb, cb, vb, nb):
    """Kronecker product ``(indptr, indices, values)`` of CSR a and b, b
    fastest, values with a trailing axis (multiplied entry by entry), b of
    ``nb`` columns; sorted rows stay sorted. Row (i, k) is a's first entry
    of row i times b's row k from entry ``sb[k]``, then a's later ones
    times b's whole row k: the full product with b's row starts, the upper
    triangle with a upper (rows led by the diagonal) and b's diagonals."""
    la, lb = np.diff(pa), np.diff(pb)
    ptr = np.r_[0, np.cumsum((np.outer(la, lb) - (sb - pb[:-1])).ravel())]
    nrun = np.repeat(la, lb.size)  # runs of row (i, k), in row order
    t = np.arange(nrun.sum()) - np.repeat(np.cumsum(nrun) - nrun, nrun)
    k = np.repeat(np.tile(np.arange(lb.size), la.size), nrun)
    ea = np.repeat(pa[:-1], lb.size * la) + t
    start = np.where(t == 0, sb[k], pb[k])
    n = pb[k + 1] - start
    eb = np.arange(ptr[-1]) - np.repeat(np.cumsum(n) - n - start, n)
    vals = np.repeat(va[ea], n, axis=0)
    vals *= np.take(vb, eb, axis=0)
    return ptr, np.repeat(ca[ea] * nb, n) + cb[eb], vals


class Model:
    """``ncomp_node`` unknowns per node of ``mesh``, DOFs node-major,
    integrated over `parts`; none is pinned (`inactive_dofs`)."""

    inactive_dofs = ()

    @property
    def ndof(self):
        return self.mesh.nnodes * self.ncomp_node

    @property
    def parts(self):
        """``[(elements, rule)]``: the first on the standard Gauss rule
        (None), any other on a cut rule (`part_form`). Here one, every
        element."""
        return [(np.arange(self.mesh.nelem), None)]

    def element_dofs(self, e):
        return self.mesh.element_dofs(e, self.ncomp_node)

    def part_index(self, elems):
        """The index in `parts` of each element, -1 where it is in none."""
        at = np.full(self.mesh.nelem, -1)
        for i, (el, _) in enumerate(self.parts):
            at[el] = i
        return at[elems]

    def element_load(self, e, values, quadrature=None):
        """Consistent load of constant ``values`` (one per nodal unknown)
        per unit measure of element ``e``, or one row per element of an
        element array, on the standard or an explicit rule."""
        w, J = quadrature_data(self.mesh, e, quadrature)
        return np.einsum("...q,...qn,c->...nc", w, J[0], np.reshape(
            np.asarray(values, dtype=float), self.ncomp_node)).reshape(
                w.shape[:-1] + (-1,))

    def element_sum(self, values):
        """The load of constant ``values`` (one per nodal unknown) per unit
        measure over `parts`, each from 1D integrals over its grid boxes
        (`load_separable` of its `part_form`)."""
        mesh = self.mesh
        f = sum((load_separable(mesh, part_form([(1.0, None)], rule),
                                mesh.element_boxes(el))
                 for el, rule in self.parts if el.size), np.zeros(mesh.nnodes))
        return np.multiply.outer(f, np.reshape(np.asarray(
            values, dtype=float), self.ncomp_node)).reshape(-1)

    def face_load(self, axis, side, values, strip=None):
        """Consistent load of ``values`` per unit measure of a boundary face
        (`mesh.facet_rules` on p + 1 points), every facet on the
        standard-rule part: one value per nodal unknown, or a callable
        mapping points ``(nq, dim)`` to one such row per point. Summed
        facet by facet, in element order."""
        mesh = self.mesh
        elems, _, phys, w, _, tabs = facet_rules(
            mesh, axis, side, max(mesh.degrees) + 1, strip)
        nodes, J = live_shapes(mesh, tabs)
        bad = elems[self.part_index(elems) != 0]
        if bad.size:
            raise ConfigError(f"face load on element {bad[0]}, void or cut")
        t = np.asarray(values(phys) if callable(values) else
                       np.tile(values, (len(w), 1)), dtype=float)
        fq = (len(elems), -1)
        fe = np.einsum("fq,fqn,fqc->fnc", w.reshape(fq), J[0].reshape(
            fq + J.shape[2:]), t.reshape(fq + t.shape[1:]))
        out = np.zeros(self.ndof)
        dofs = self.element_dofs(elems).reshape(fe.shape[0], -1, fe.shape[2])
        np.add.at(out, dofs[:, nodes], fe)
        return out

    def to_global(self, stored, offsets):
        """Global coordinates of stored ones at section ``offsets``: a solid
        stores global coordinates."""
        return stored

    def to_local(self, phys):
        """Beams and plates map global points to ``(inplane, offsets)``."""
        raise ConfigError(f"a {self.mesh.model} model has no section to "
                          "pair an interface with")


class SolidModel(Model):
    """Continuum body: mesh plus material, exposing coupling kernels."""

    def __init__(self, mesh: Mesh, material: Material):
        if mesh.model not in ("solid2d", "solid3d"):
            raise ConfigError(f"SolidModel needs a solid mesh, got {mesh.model}")
        self.mesh = mesh
        self.material = material
        self.ncomp = self.ncomp_node = mesh.dim
        self.C = constitutive_solid(material, mesh.dim)
        self.kinematics = solid_kinematics(mesh.dim)

    def stiffness_form(self):
        """The `section_form` of the solid kinematics and Hooke's law."""
        return [(section_form(self.kinematics, self.C), None)]

    def element_stiffness(self, e, quadrature=None):
        """Element matrix, or a batch of them for an element array."""
        return stiffness_quadrature(self.mesh, e, self.stiffness_form(),
                                    quadrature)

    def trace(self, e, parent):
        """Displacement and stress interpolation at parent points of
        element ``e``, or of ``e[i]`` at point ``i`` for an element array.

        Returns ``(N, S)`` of shapes ``(nq, ncomp, ndof_e)`` and
        ``(nq, nvoigt, ndof_e)`` with ``S = C B``.
        """
        N, B = interpolate(self.mesh, e, parent, self.kinematics)
        return N, self.C @ B

    def body_force(self, force) -> np.ndarray:
        """Consistent nodal load for a constant body force vector."""
        return self.element_sum(force)

    def traction_force(self, axis, side, traction, strip=None) -> np.ndarray:
        """Consistent nodal load for a traction on a boundary face, a
        constant vector or a callable of the points (`Model.face_load`)."""
        return self.face_load(axis, side, traction, strip)

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
