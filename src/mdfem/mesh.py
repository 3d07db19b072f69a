"""Tensor-product meshes for solids, beams and plates.

A mesh is a tensor product of univariate directions, each a B-spline
knot vector; a 2-noded Lagrange subdivision is the degree-1 B-spline on
open knots, with its nodes at the breaks. Geometry is affine: the control
points are the grid of the directions' Greville abscissae, which the
basis maps to the local (knot) coordinate t itself, and a placement puts
the box at x = origin + A t. Nothing else is expressible: no curved or
perturbed net, so every element's Jacobian is A.

Coordinate stages: parent [-1,1]^d -> local (linear per element and
direction onto the knot spans) -> stored coordinates. Solid meshes
store global coordinates (A is the placement rotation, the identity if
none); beam meshes store the local axis coordinate with placement in
``origin``/``phi``; plate meshes store mid-surface coordinates with the
transverse offset in ``z_mid``.

Every shape evaluation returns one jet table ``(njet, ..., nen)`` (`jets`
order, `jet_table`): J[0] is N, J[1:dim + 1] the gradient. It is in t from
`Mesh.shape_ders`, else in x through ``Mesh.jet_map``, one per mesh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from .bspline import SplineDir, make_open_knots
from .errors import ConfigError, DomainError
from .quadrature import tensor_rules

MODEL_DIMS = {"solid2d": 2, "solid3d": 3, "beam": 1, "plate": 2}


@dataclass
class Mesh:
    """Tensor-product mesh: its directions and their placement."""

    model: str
    basis: str
    dirs: list
    origin: np.ndarray | None = None
    rotation: np.ndarray | None = None  # solids: local box -> global
    phi: float = 0.0       # beams: mid-line rotation angle
    z_mid: float = 0.0     # plates: transverse position of the mid-surface
    _ien: np.ndarray | None = field(default=None, repr=False)
    _nodes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        """``placement``: ``(c, A, G, det A)`` of x = c + A y, G = A^-1,
        and ``jet_map``, the `jet_map` of G."""
        A = np.eye(self.dim) if self.rotation is None else self.rotation
        det, G = _det_inv(A)
        if not (np.isfinite(det) and det > 0 and np.isfinite(G).all()):
            raise ConfigError(f"rotation: expected a finite, positive "
                              f"determinant, got {det} for {A.tolist()}")
        self.placement = (np.zeros(self.dim) if self.rotation is None
                          else self.origin), A, G, float(det)
        self.jet_map = jet_map(G)

    @property
    def dim(self):
        return len(self.dirs)

    @property
    def box(self):
        """``(dim, 2)`` local extents, the directions' knot ends."""
        return np.array([(d.lo, d.hi) for d in self.dirs])

    @property
    def nelem_per_dir(self):
        return tuple(d.nelem for d in self.dirs)

    @property
    def nelem(self):
        return int(np.prod(self.nelem_per_dir))

    @property
    def nnodes(self):
        return int(np.prod([d.n for d in self.dirs]))

    @property
    def nodes(self):
        """``(nnodes, dim)`` storage coordinates of the control points: the
        grid of the directions' Greville abscissae, first direction
        fastest, placed; built once (read-only)."""
        if self._nodes is None:
            c, A, _, _ = self.placement
            grids = np.meshgrid(*[d.greville() for d in self.dirs],
                                indexing="ij")
            self._nodes = c + np.stack([g.T.ravel() for g in grids], -1) @ A.T
            self._nodes.flags.writeable = False
        return self._nodes

    @property
    def nen(self):
        return int(np.prod([d.nloc for d in self.dirs]))

    @property
    def degrees(self):
        return tuple(d.degree for d in self.dirs)

    def element_grid_index(self, e):
        """Per-direction element indices (first direction fastest); an
        element array gives one index array per direction."""
        gi = np.unravel_index(e, self.nelem_per_dir, order="F")
        return gi if np.ndim(e) else tuple(int(i) for i in gi)

    def element_id(self, grid_index):
        """Element of per-direction indices; index arrays give an array."""
        e = np.ravel_multi_index(tuple(grid_index), self.nelem_per_dir,
                                 order="F")
        return e if np.ndim(e) else int(e)

    def element_boxes(self, elems):
        """``elems`` as disjoint grid boxes: tuples of per-direction element
        masks, each box the elements of their outer product. Slices along
        the slowest direction that select the same elements share a box,
        so the whole mesh is one box and an outer-product cut of it (as
        `nonconforming.classify` labels) at most ``dim``."""
        sel = np.zeros(self.nelem, dtype=bool)
        sel[elems] = True
        return _boxes(sel.reshape(self.nelem_per_dir, order="F"))

    def element_nodes(self, e):
        """Global node indices of an element (first direction fastest), or
        a ``(len(e), nen)`` table for an element array."""
        return self.ien()[e]

    def element_dofs(self, e, ncomp):
        """Node-major element DOFs with ``ncomp`` unknowns per node; an
        element array gives one row per element."""
        nodes = self.element_nodes(e)
        return (nodes[..., None] * ncomp + np.arange(ncomp)).reshape(
            nodes.shape[:-1] + (nodes.shape[-1] * ncomp,))

    def ien(self):
        """Node table ``(nelem, nen)``, built once (read-only)."""
        if self._ien is None:
            table = np.zeros((1, 1), dtype=int)
            stride = 1
            for d in self.dirs:
                loc = stride * d.indices(np.arange(d.nelem))
                # New direction slowest in the element and the node index.
                table = (loc[:, None, :, None] + table[None, :, None, :]
                         ).reshape(loc.shape[0] * table.shape[0], -1)
                stride *= d.n
            table.flags.writeable = False
            self._ien = table
        return self._ien

    def _bounds(self, e):
        """Per-direction local intervals ``(a, b)`` of an element, each
        ``(dim,)``; an element array gives ``(len(e), dim)`` arrays."""
        ab = np.stack([d.intervals()[i] for d, i
                       in zip(self.dirs, self.element_grid_index(e))], axis=-2)
        return ab[..., 0], ab[..., 1]

    def parent_to_local(self, e, parent):
        """Local coordinates of parent points in element ``e``, or in
        ``e[i]`` for point ``i`` of an element array."""
        a, b = self._bounds(e)
        return 0.5 * (a + b) + 0.5 * (b - a) * np.atleast_2d(
            np.asarray(parent, dtype=float))

    def local_to_parent(self, e, local):
        """Parent coordinates of local points in element ``e``, or in
        ``e[i]`` for point ``i`` of an element array."""
        a, b = self._bounds(e)
        return (2.0 * np.atleast_2d(np.asarray(local, dtype=float))
                - (a + b)) / (b - a)

    def element_containing(self, x_local):
        """Grid element index of a point given in local (knot) coordinates,
        or one index per row of an ``(npts, dim)`` array.

        Points up to 1e-10 of a direction's length outside the box are
        clamped onto it; a point on an interior element boundary belongs to
        the element on its upper side. Raises DomainError for any point
        further outside, for a NaN coordinate, and unless each point has
        ``dim`` coordinates (a scalar is one point of a beam).
        """
        x = np.asarray(x_local, dtype=float)
        pts = np.atleast_2d(x)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DomainError(f"expected points of {self.dim} local "
                              f"coordinates each, got shape {x.shape}")
        gi = []
        for k, d in enumerate(self.dirs):
            t, lo, hi = pts[:, k], d.lo, d.hi
            tol = 1e-10 * (hi - lo)
            bad = ~((t >= lo - tol) & (t <= hi + tol))  # NaN too
            if bad.any():
                raise DomainError(f"local coordinate {t[bad][0]} outside "
                                  f"direction {k} range [{lo}, {hi}]")
            gi.append(np.searchsorted(d.intervals()[:, 0], np.clip(t, lo, hi),
                                      side="right") - 1)
        e = self.element_id(gi)
        return e if x.ndim == 2 else int(e[0])

    def shape_ders(self, e, local, nders=1):
        """The jet table ``(njet, nq, nen)`` in the local coordinates t of
        order <= ``nders`` at local points (`jet_table`; nodes first
        direction fastest). ``e`` is one element for all points or one per
        point; each direction's basis is evaluated in one call."""
        local = np.atleast_2d(np.asarray(local, dtype=float)).T
        return jet_table([d.eval(i, t, nders) for d, i, t in zip(
            self.dirs, self.element_grid_index(e), local)])

    def locate(self, x_local):
        """Element and parent coordinates ``(e, xi)`` of a point in local
        coordinates (a placed solid passes ``G (x - origin)``); an
        ``(npts, dim)`` array gives an element array and ``(npts, dim)``
        parent points. `element_containing`'s rules apply: an interior
        break goes to the element above it, a point outside the box or of
        the wrong dimension is a DomainError."""
        e = self.element_containing(x_local)
        xi = self.local_to_parent(e, x_local)
        return (e, xi) if np.ndim(e) else (e, xi[0])


def _boxes(sel):
    """`Mesh.element_boxes` of a boolean element grid ``sel``."""
    if sel.ndim == 0:
        return [()] if sel else []
    cols = sel.reshape(-1, sel.shape[-1])
    todo, out = cols.any(axis=0), []
    while todo.any():
        j = int(np.argmax(todo))
        same = todo & (cols == cols[:, j:j + 1]).all(axis=0)
        todo &= ~same
        out += [box + (same,) for box in _boxes(sel[..., j])]
    return out


def build_mesh(model, basis, degrees, nelems, extents, *, origin=None,
               rotation=None, phi=0.0, z_mid=0.0) -> Mesh:
    """Construct a tensor-product mesh.

    Parameters
    ----------
    model : str
        'solid2d', 'solid3d', 'beam' or 'plate'.
    basis : str
        'lagrange' (2-noded lines / Q4) or 'spline'. A Lagrange direction
        is built as the degree-1 spline on open knots, whose nodes (the
        Greville points) are the element breaks; ``mesh.basis`` keeps the
        name.
    degrees : int or sequence
        Polynomial degree per direction. Lagrange requires degree 1.
    nelems : int or sequence
        Elements (knot spans) per direction.
    extents : sequence of (lo, hi)
        Local coordinate range per direction. Beams use the local axis
        range, plates the mid-surface rectangle.
    origin, rotation : placement of solid meshes (global = origin + R @ local,
        R of finite, positive determinant) or, for beams, the global
        position of the local origin.
    phi : beam mid-line rotation angle.
    z_mid : transverse position of a plate mid-surface.
    """
    if model not in MODEL_DIMS:
        raise ConfigError(f"unknown model kind {model!r}")
    dim = MODEL_DIMS[model]
    degrees = _per_dir(degrees, dim, "degrees")
    nelems = _per_dir(nelems, dim, "nelems")
    extents = floats(extents, (dim, 2), "extents")
    if np.any(extents[:, 1] <= extents[:, 0]):
        raise ConfigError("extents must have positive length")
    if basis not in ("lagrange", "spline"):
        raise ConfigError(f"unknown basis kind {basis!r}")

    dirs = []
    for k in range(dim):
        ne, p = nelems[k], degrees[k]
        if p < 1:
            raise ConfigError(f"degree must be at least 1, got {p}")
        if ne < 1:
            raise ConfigError("need at least one element per direction")
        if basis == "lagrange" and p != 1:
            raise ConfigError("lagrange meshes support degree 1 only")
        knots = make_open_knots(p, np.linspace(*extents[k], ne + 1))
        dirs.append(SplineDir(knots, p))

    solid = model.startswith("solid")
    if origin is not None:
        origin = floats(origin, (2 if model in ("solid2d", "beam") else 3,),
                         "origin")
    if rotation is not None:
        if not solid:
            raise ConfigError("rotation applies to solid meshes only")
        rotation = floats(rotation, (dim, dim), "rotation")
    if solid and (rotation is not None or origin is not None):
        origin = np.zeros(dim) if origin is None else origin
        rotation = np.eye(dim) if rotation is None else rotation
    elif model == "beam" and origin is None:
        origin = np.zeros(2)

    return Mesh(model=model, basis=basis, dirs=dirs, origin=origin,
                rotation=rotation, phi=float(floats(phi, (), "phi")),
                z_mid=float(floats(z_mid, (), "z_mid")))


def _per_dir(value, dim, name):
    """One int per direction from a Python or numpy integer (no bool)."""
    out = (value,) * dim if np.ndim(value) == 0 else tuple(value)
    if len(out) != dim or not all(isinstance(v, (int, np.integer))
                                  and not isinstance(v, bool) for v in out):
        raise ConfigError(f"{name}: expected an integer or {dim} "
                          f"per-direction integers, got {value!r}")
    return tuple(int(v) for v in out)


def floats(value, shape, name):
    """``value`` as finite floats of ``shape``, from as many values."""
    n = math.prod(shape)
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # not numbers: rejected below
        out = None
    if out is None or out.size != n or not np.isfinite(out).all():
        got = out.size if out is not None and out.size != n else repr(value)
        raise ConfigError(f"{name}: expected {n} finite values, got {got}")
    return out.reshape(shape)


# Bulk quadrature ------------------------------------------------------

# Entries an element batch may hold (element-matrix entries, or shape
# gradients in loads); bulk and coupling assembly also flush at this count.
_TRIPLET_BUDGET = 5_000_000
_BLOCK = 2**16  # entries of a `system._fill` row block or a stiffness G run


def element_batches(elems, entries):
    """Split ``elems`` into runs of at most ``_TRIPLET_BUDGET // entries``
    elements (one at least), ``entries`` being the per-element size."""
    step = max(1, _TRIPLET_BUDGET // entries)
    return [elems[s:s + step] for s in range(0, len(elems), step)]


def add_blocks(K, dofs, mats):
    """``K`` plus the element blocks ``mats[b]`` on element DOFs
    ``dofs[b]``, summed in element order without sorting triplets: the
    product S X of the stacked element rows X and the 0/1 matrix S sending
    each element row to its global row. Entries that sum to exactly zero
    are not stored; indices are int32 where K's shape allows."""
    if not dofs:
        return K
    itype = np.int32 if max(K.shape) <= np.iinfo(np.int32).max else np.int64
    dofs = [d.astype(itype) for d in dofs]
    rows = _flat(dofs)
    cols = _flat([np.broadcast_to(d[:, None, :], d.shape + d.shape[-1:])
                  for d in dofs])
    lens = np.repeat([d.shape[1] for d in dofs], [d.size for d in dofs])
    ends = np.cumsum(np.bincount(rows, minlength=K.shape[0]))
    S = sp.csr_matrix((np.ones(rows.size), np.argsort(rows, kind="stable"),
                       np.r_[0, ends]), shape=(K.shape[0], rows.size))
    X = S @ sp.csr_matrix((_flat(mats), cols, np.concatenate(
        ([0], np.cumsum(lens)))), shape=(rows.size, K.shape[1]))
    X.sort_indices()
    return K + X if K.nnz else X


def _flat(arrays):
    """The arrays raveled end to end; one contiguous array is not copied."""
    return (arrays[0].ravel() if len(arrays) == 1
            else np.concatenate([a.ravel() for a in arrays]))


@lru_cache
def jets(dim):
    """Derivative multi-indices ``(njet, dim)`` of the shape jet, in the
    order of every table and form: the value, the first derivatives, then
    the second ones d2/dx_k dx_l, k <= l; built once per dim, read-only."""
    one = np.eye(dim, dtype=int)
    k, l = np.triu_indices(dim)
    m = np.concatenate([np.zeros((1, dim), int), one, one[k] + one[l]])
    m.flags.writeable = False
    return m


def jet_map(G):
    """T with d^a/dx = sum_b T[a, b] d^b/dt (`jets` order) for t = G x + c:
    d/dx_k = sum_m G_mk d/dt_m, and d2/dx_k dx_l the product of two; T
    is block diagonal by derivative order."""
    k, l = np.triu_indices(len(G))
    Q = G[k][:, k] * G[l][:, l] + G[l][:, k] * G[k][:, l]
    return block_diag(1.0, G.T, (Q / np.where(k == l, 2.0, 1.0)[:, None]).T)


def jet_table(tables):
    """The jet table ``(njet, ..., nen)`` of the tensor-product functions
    from per-direction basis tables ``tables[k]`` ``(..., nders + 1,
    nloc_k)``: their `jets` of order <= nders, one product chain per jet,
    new direction slowest; leading axes carry through."""
    lead, m = tables[0].shape[:-2], jets(len(tables))

    def chain(orders):
        out = np.ones(lead + (1,))
        for t, o in zip(tables, orders):
            out = (out[..., None, :] * t[..., o, :, None]).reshape(
                lead + (out.shape[-1] * t.shape[-1],))
        return out
    return np.stack([chain(o) for o in m[m.sum(1) < tables[0].shape[-2]]])


def _x_jets(mesh, tables):
    """The `jet_table` of per-direction ``tables`` in x: one GEMM with the
    leading block of ``mesh.jet_map``, its orders up to the tables'."""
    J = jet_table(tables)
    T = mesh.jet_map[:len(J), :len(J)]
    return (T @ J.reshape(len(J), -1)).reshape(J.shape)


def direction_tables(d, el, t, nders):
    """Direction ``d``'s basis derivatives of order <= ``nders`` <= 2 at
    local points ``t`` ``(E, Q)`` of its elements ``el`` ``(E,)``:
    ``(E, Q, nders + 1, p + 1)``."""
    if nders not in (0, 1, 2):
        raise ConfigError(f"nders must be 0 (shape values), 1 (gradients) "
                          f"or 2 (second derivatives), got {nders!r}")
    return d.eval(np.repeat(el, t.shape[1]), t.ravel(), nders).reshape(
        t.shape + (nders + 1, d.nloc))


def gauss_rule(mesh: Mesh, e, npts):
    """The tensor Gauss rule ``(local, weights)`` of one element or an
    element array, ``(E, nq, dim)`` and ``(E, nq)``, with ``npts`` points
    per direction (one count or one per direction; None: p + 1)."""
    return tensor_rules(
        [d.intervals() for d in mesh.dirs],
        mesh.element_grid_index(np.atleast_1d(e)),
        [p + 1 for p in mesh.degrees] if npts is None
        else _per_dir(npts, mesh.dim, "npts"))[:2]


def quadrature_data(mesh, e, quadrature=None, nders=1):
    """``(weights, J)`` of an element array on its `gauss_rule` (None) or
    an explicit local-coordinate rule ``(local, weights)``, ``(E, nq,
    dim)`` and ``(E, nq)``: the weights times det A and the jet table in x
    of order <= ``nders`` <= 2, ``(njet, E, nq, nen)``; one element
    drops the element axis throughout. One basis call per direction."""
    elems = np.atleast_1d(e)
    local, wts = (gauss_rule(mesh, e, None) if quadrature is None
                  else quadrature)
    local = np.reshape(local, (len(elems), -1, mesh.dim))
    wts = np.reshape(wts, local.shape[:2]) * mesh.placement[3]
    J = _x_jets(mesh, _point_tables(mesh, elems, local, nders))
    return (wts, J) if np.ndim(e) else (wts[0], J[:, 0])


def parent_data(mesh, e, parent, nders=1):
    """The jet table in x ``(njet, npts, nen)`` of order <= ``nders`` <= 2
    at parent points ``(npts, dim)`` of one element, or of element ``e[i]``
    at point ``i`` for an element array. Points without ``dim`` coordinates
    each, another count of elements or one off the mesh: DomainError."""
    parent = np.atleast_2d(np.asarray(parent, dtype=float))
    n = len(parent)
    if parent.shape != (n, mesh.dim) or np.ndim(e) and np.shape(e) != (n,):
        raise DomainError(f"expected points of shape ({n}, {mesh.dim}) and "
                          f"one element or {n}, got points of shape "
                          f"{parent.shape} and elements {np.shape(e)}")
    elems = np.broadcast_to(e, (n,))
    bad = elems[(elems < 0) | (elems >= mesh.nelem)]
    if bad.size:
        raise DomainError(f"element {bad[0]} outside [0, {mesh.nelem})")
    local = mesh.parent_to_local(elems, parent)[:, None]
    return _x_jets(mesh, _point_tables(mesh, elems, local, nders))[:, :, 0]


def _point_tables(mesh, e, local, nders):
    """`direction_tables` at local points ``(E, Q, dim)`` of elements
    ``e``."""
    return [direction_tables(d, i, local[..., k], nders) for k, (d, i)
            in enumerate(zip(mesh.dirs, mesh.element_grid_index(e)))]


def _det_inv(J):
    """Determinants ``(...)`` and inverses ``(..., d, d)`` (the adjugate
    over the determinant) of a stack of 1x1, 2x2 or 3x3 matrices, each
    taken as the 3x3 block-diagonal matrix diag(J, I). A singular or
    non-finite one gives a zero or non-finite determinant and no
    floating-point warning; callers test the determinant."""
    d = J.shape[-1]
    P = np.broadcast_to(np.eye(3), J.shape[:-2] + (3, 3)).copy()
    P[..., :d, :d] = J
    # adj_ik = P_k+1,i+1 P_k+2,i+2 - P_k+1,i+2 P_k+2,i+1 (mod 3).
    k1, k2 = (np.arange(3) + 1) % 3, (np.arange(3) + 2) % 3
    with np.errstate(all="ignore"):
        adj = (P[..., k1, k1[:, None]] * P[..., k2, k2[:, None]]
               - P[..., k1, k2[:, None]] * P[..., k2, k1[:, None]])
        det = (P[..., 0, :] * adj[..., 0]).sum(axis=-1)
        return det, (adj / det[..., None, None])[..., :d, :d]


# Boundary faces -------------------------------------------------------


def facet_rules(mesh: Mesh, axis: int, side: int, npts, strip=None):
    """Gauss rules on the boundary facets of one box face, in one batch.

    The face is ``side`` (-1 or +1, in parent coordinates) of direction
    ``axis``; its facets are the elements whose ``axis`` index is the
    first or last one. ``strip`` optionally restricts the face in the
    local coordinates of the free axes: a sequence with one ``(lo,
    hi)`` pair or ``None`` per free axis. Facets that do not intersect
    the strip are dropped; partially covered facets get rules on their
    clipped parent intervals.

    ``npts`` is either one count shared by every in-facet direction or a
    sequence with one count per direction. Returns ``(elems, parent,
    phys, weights, normals, tabs)``: the element of each facet, in
    element order, and the points of each facet in turn; weights carry
    the surface measure, normals are unit outward vectors in storage
    coordinates, ``tabs[k]`` ``(npoints, 2, p_k + 1)`` holds direction k's
    basis values and local derivatives (`live_shapes`). All points are
    tabulated in one call per direction. The outward normal is side G^T
    e_axis, normalised, and the measure det A |G^T e_axis| prod h_k over
    the free directions k, h_k the half-width of the element.
    """
    if mesh.dim == 1:
        raise ConfigError("a beam mesh has no faces")
    if not 0 <= axis < mesh.dim:
        raise ConfigError(f"facet axis {axis} outside mesh dimension {mesh.dim}")
    if side not in (-1, 1):
        raise ConfigError(f"facet side must be -1 or +1, got {side}")
    free = [k for k in range(mesh.dim) if k != axis]
    if strip is not None and len(strip) != len(free):
        raise ConfigError("strip needs one entry per free axis")
    gi = mesh.element_grid_index(np.arange(mesh.nelem))
    keep = gi[axis] == (mesh.dirs[axis].nelem - 1 if side > 0 else 0)
    # Per free direction: the parent interval each element keeps.
    clips = []
    for j, k in enumerate(free):
        d = mesh.dirs[k]
        lo, hi = d.intervals().T
        want = None if strip is None else strip[j]
        if want is None:
            clips.append(np.tile([-1.0, 1.0], (d.nelem, 1)))
            continue
        clo, chi = np.maximum(lo, want[0]), np.minimum(hi, want[1])
        keep &= (chi - clo > 1e-12 * (hi - lo))[gi[k]]
        # local -> parent on this axis
        clips.append(np.stack([2 * clo - lo - hi, 2 * chi - lo - hi],
                              axis=-1) / (hi - lo)[:, None])
    elems = np.flatnonzero(keep)
    if not elems.size:
        raise ConfigError("no facets found on requested face")
    pts, wts, _ = tensor_rules(clips, [gi[k][elems] for k in free],
                               _per_dir(npts, len(free), "npts"))
    parent = np.full(wts.shape + (mesh.dim,), float(side))
    parent[..., free] = pts
    a, b = mesh._bounds(elems)
    mid, h = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    local = mid + h * parent
    tabs = _point_tables(mesh, elems, local, 1)
    c, A, G, det = mesh.placement
    wts = wts * det * np.linalg.norm(G[axis]) * np.prod(h[..., free], -1)
    phys = c + local @ A.T
    return (elems, parent.reshape(-1, mesh.dim), phys.reshape(-1, mesh.dim),
            wts.ravel(), np.tile(side * G[axis] / np.linalg.norm(G[axis]),
                                 (wts.size, 1)),
            [t.reshape(wts.size, 2, -1) for t in tabs])


def live_shapes(mesh, tabs):
    """``(nodes, J)``: `parent_data`'s jet table of the order of per-point
    direction tables ``tabs`` (`facet_rules`, or its value rows ``t[:,
    :1]``), ``(njet, npoints, nodes)``, on the local ``nodes`` (ascending)
    whose function in each direction has a nonzero entry of its table at
    some point, so every node with a nonzero jet."""
    keep = [np.flatnonzero(t.any(axis=(0, 1))) for t in tabs]
    nodes = np.ravel_multi_index(np.ix_(*keep), [t.shape[-1] for t in tabs],
                                 order="F").ravel(order="F")
    return nodes, _x_jets(mesh, [t[..., k] for t, k in zip(tabs, keep)])
