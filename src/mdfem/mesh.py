"""Tensor-product meshes for solids, beams and plates.

A mesh is a tensor product of univariate directions, each a B-spline/NURBS
knot vector; a 2-noded Lagrange subdivision is the degree-1 B-spline on
open knots, with its nodes at the breaks. Geometry is carried by a full
control net (initialised to the Greville points), so the same machinery
serves straight boxes and perturbed patches.

Coordinate stages: parent [-1,1]^d -> local (affine per element and
direction onto the knot spans, whose knots are local coordinates) ->
stored coordinates. Solid meshes store global coordinates
(any placement rotation applied at build time); beam meshes store the local
axis coordinate with placement in ``origin``/``phi``; plate meshes store
mid-surface coordinates with the transverse offset in ``z_mid``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bspline import SplineDir, make_open_knots
from .errors import ConfigError, DomainError, PairingError
from .quadrature import tensor_rules

MODEL_DIMS = {"solid2d": 2, "solid3d": 3, "beam": 1, "plate": 2}


@dataclass
class Mesh:
    """Tensor-product mesh with a full control net."""

    model: str
    basis: str
    dirs: list
    nodes: np.ndarray  # (nnodes, dim) in storage coordinates
    origin: np.ndarray | None = None
    rotation: np.ndarray | None = None  # solids: local box -> global
    phi: float = 0.0       # beams: mid-line rotation angle
    z_mid: float = 0.0     # plates: transverse position of the mid-surface
    _ien: np.ndarray | None = field(default=None, repr=False)

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
        return self.nodes.shape[0]

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
        """Parent coordinates of local-box points in element ``e``, or in
        ``e[i]`` for point ``i`` of an element array."""
        a, b = self._bounds(e)
        return (2.0 * np.atleast_2d(np.asarray(local, dtype=float))
                - (a + b)) / (b - a)

    def element_containing(self, x_local):
        """Grid element index of a point given in local box coordinates, or
        one index per row of an ``(npts, dim)`` array.

        Points up to 1e-10 of a direction's length outside the box are
        clamped onto it; a point on an interior element boundary belongs to
        the element on its upper side. Raises DomainError for any point
        further outside, and for a NaN coordinate.
        """
        x = np.asarray(x_local, dtype=float)
        pts = np.atleast_2d(x)
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
        """Tensor-product shape values and local-coordinate derivatives.

        Returns ``(N, dN, d2N)`` with shapes ``(nq, nen)``,
        ``(nq, nen, dim)`` and ``(nq, nen, dim, dim)`` (``d2N`` is None
        unless requested). Local node ordering: first direction fastest.
        ``e`` is one element for all points or an array of one element per
        point; each direction's basis is evaluated in one call.
        """
        local = np.atleast_2d(np.asarray(local, dtype=float))
        return _tensor_combine(
            [d.eval(i, local[:, k], nders) for k, (d, i)
             in enumerate(zip(self.dirs, self.element_grid_index(e)))], nders)

    def locate(self, x):
        """Element and parent coordinates ``(e, xi)`` of a storage-coordinate
        point; an ``(npts, dim_x)`` array gives an element array and
        ``(npts, dim)`` parent points.

        Each point is paired with every element whose control-net bounding
        box holds it to 1e-8, and all pairs run one batched, damped Newton
        inversion of the element map: at most 50 steps from the element
        centre, each halved until the residual drops or the scale is below
        1e-3, converged at 1e-11 times the diagonal of the element's
        control-net bounding box. Pairs with a singular Jacobian or no
        convergence drop out. The first element in element order whose
        point lies in the parent box to 1e-8 wins; PairingError if a point
        has none.
        """
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, self.nodes.shape[1])
        P = self.nodes[self.ien()]
        lo, hi = P.min(axis=1), P.max(axis=1)
        pad = 1e-8 * np.maximum(1.0, np.abs(pts).max(axis=1))[:, None, None]
        q, e = np.nonzero(np.all((pts[:, None] >= lo - pad)
                                 & (pts[:, None] <= hi + pad), axis=2))
        tol = 1e-11 * np.linalg.norm(hi[e] - lo[e], axis=1)
        a, b = self._bounds(e)

        def residual(k, xi):
            """Residuals and parent Jacobians of pairs ``k`` at ``xi``."""
            N, dN, _ = self.shape_ders(e[k], self.parent_to_local(e[k], xi))
            xk, J = element_map(P[e[k]], N[:, None], dN[:, None])
            return xk[:, 0] - pts[q[k]], J[:, 0] * (0.5 * (b - a))[k, None]

        xi = np.zeros((e.size, self.dim))
        k = np.arange(e.size)
        r, J = residual(k, xi)
        done = np.zeros(e.size, dtype=bool)
        for _ in range(50):
            rn = np.linalg.norm(r, axis=1)
            done[k[rn <= tol[k]]] = True
            go = ~(rn <= tol[k]) & (np.linalg.det(J) != 0)
            k, r, J, rn = k[go], r[go], J[go], rn[go]
            if not k.size:
                break
            step = np.linalg.solve(J, r[..., None])[..., 0]
            x0, scale, todo = xi[k], np.ones(k.size), np.arange(k.size)
            while todo.size:
                xi[k[todo]] = x0[todo] - scale[todo, None] * step[todo]
                r[todo], J[todo] = residual(k[todo], xi[k[todo]])
                todo = todo[~((np.linalg.norm(r[todo], axis=1) < rn[todo])
                              | (scale[todo] < 1e-3))]
                scale[todo] *= 0.5
        win = np.flatnonzero(done & np.all(np.abs(xi) <= 1.0 + 1e-8, axis=1))
        found, first = np.unique(q[win], return_index=True)
        if found.size < len(pts):
            miss = np.setdiff1d(np.arange(len(pts)), found)[0]
            raise PairingError(f"no element contains point {pts[miss]}")
        hit = win[first]
        return (e[hit], xi[hit]) if x.ndim == 2 else (int(e[hit[0]]),
                                                      xi[hit[0]])


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
               rotation=None, phi=0.0, z_mid=0.0, weights=None) -> Mesh:
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
    origin, rotation : placement of solid meshes (global = origin + R @ local)
        or, for beams, the global position of the local origin.
    phi : beam mid-line rotation angle.
    z_mid : transverse position of a plate mid-surface.
    weights : per-direction NURBS weight arrays (optional, spline only).
    """
    if model not in MODEL_DIMS:
        raise ConfigError(f"unknown model kind {model!r}")
    dim = MODEL_DIMS[model]
    degrees = _per_dir(degrees, dim, "degrees")
    nelems = _per_dir(nelems, dim, "nelems")
    extents = _floats(extents, (dim, 2), "extents")
    if np.any(extents[:, 1] <= extents[:, 0]):
        raise ConfigError("extents must have positive length")
    if basis not in ("lagrange", "spline"):
        raise ConfigError(f"unknown basis kind {basis!r}")
    if basis == "lagrange" and weights is not None:
        raise ConfigError("weights apply to spline meshes only, not to "
                          "lagrange meshes")
    if weights is not None and len(weights) != dim:
        raise ConfigError(f"weights: expected {dim} per-direction arrays, "
                          f"got {len(weights)}")

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
        dirs.append(SplineDir(knots, p,
                              None if weights is None else weights[k]))

    ndglobal = 2 if model in ("solid2d", "beam") else 3
    if origin is not None:
        origin = _floats(origin, (ndglobal,), "origin")
    if rotation is not None:
        if model not in ("solid2d", "solid3d"):
            raise ConfigError("rotation applies to solid meshes only")
        rotation = _floats(rotation, (dim, dim), "rotation")
    if model in ("solid2d", "solid3d"):
        if rotation is not None or origin is not None:
            if origin is None:
                origin = np.zeros(dim)
            if rotation is None:
                rotation = np.eye(dim)
    elif model == "beam":
        if origin is None:
            origin = np.zeros(2)

    return Mesh(
        model=model, basis=basis, dirs=dirs,
        nodes=grid_nodes(dirs, origin, rotation), origin=origin,
        rotation=rotation, phi=float(_floats(phi, (), "phi")),
        z_mid=float(_floats(z_mid, (), "z_mid")))


def grid_nodes(dirs, origin=None, rotation=None):
    """The net `build_mesh` makes: the tensor grid of the directions'
    nodes, first direction fastest, placed at ``origin + rotation @ x``
    when a rotation is given."""
    grids = np.meshgrid(*[d.greville() for d in dirs], indexing="ij")
    nodes = np.stack([np.transpose(g).ravel() for g in grids], axis=-1)
    return nodes if rotation is None else origin + nodes @ rotation.T


def on_grid(mesh):
    """Whether ``mesh.nodes`` are bit for bit the net `grid_nodes` gives
    for the mesh's directions and placement."""
    return np.array_equal(mesh.nodes, grid_nodes(mesh.dirs, mesh.origin,
                                                  mesh.rotation))


def affine(mesh):
    """Whether the affine `Mesh.element_containing` and
    `Mesh.local_to_parent` invert the mesh's map: the net is `on_grid`
    and its NURBS weights, if any, are equal."""
    return on_grid(mesh) and not any(
        np.ptp(d.weights) for d in mesh.dirs if d.weights is not None)


def _per_dir(value, dim, name):
    """One int per direction from a Python or numpy integer (no bool)."""
    out = (value,) * dim if np.ndim(value) == 0 else tuple(value)
    if len(out) != dim or not all(isinstance(v, (int, np.integer))
                                  and not isinstance(v, bool) for v in out):
        raise ConfigError(f"{name}: expected an integer or {dim} "
                          f"per-direction integers, got {value!r}")
    return tuple(int(v) for v in out)


def _floats(value, shape, name):
    """``value`` as finite floats of ``shape``, from as many values."""
    n = np.prod(shape, dtype=int)
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # not numbers: rejected below
        out = np.array(np.nan)
    if out.size != n or not np.isfinite(out).all():
        raise ConfigError(f"{name}: expected {n} finite values, "
                          f"got {value!r}")
    return out.reshape(shape)


# Bulk quadrature ------------------------------------------------------

# Entries an element batch may hold (element-matrix entries, or shape
# gradients in loads); bulk and coupling assembly also flush at this count.
_TRIPLET_BUDGET = 5_000_000


def element_batches(elems, entries):
    """Split ``elems`` into runs of at most ``_TRIPLET_BUDGET // entries``
    elements (one at least), ``entries`` being the per-element size."""
    step = max(1, _TRIPLET_BUDGET // entries)
    return [elems[s:s + step] for s in range(0, len(elems), step)]


def add_blocks(K, dofs, mats):
    """``K`` plus element matrices ``mats[b]`` on element DOFs ``dofs[b]``
    (`sum_blocks` of one value list)."""
    return K + sum_blocks(K.shape, dofs, mats)[0] if dofs else K


def sum_blocks(shape, dofs, *values):
    """Sparse sums of element blocks, one per value list: the blocks
    ``values[k][b]`` on element DOFs ``dofs[b]``, summed in element order
    without sorting triplets, as the product S X of the stacked element
    rows X and the 0/1 matrix S sending each element row to its global
    row. All sums are built on one S and one X index set; entries that
    sum to exactly zero are not stored. Indices are int32 where ``shape``
    allows."""
    itype = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    dofs = [d.astype(itype) for d in dofs]
    rows = _flat(dofs)
    cols = _flat([np.broadcast_to(d[:, None, :], d.shape + d.shape[-1:])
                  for d in dofs])
    lens = np.repeat([d.shape[1] for d in dofs], [d.size for d in dofs])
    indptr = np.concatenate(([0], np.cumsum(lens)))
    S = sp.csr_matrix((np.ones(rows.size), (rows, np.arange(rows.size))),
                      shape=(shape[0], rows.size))
    out = []
    for mats in values:
        X = sp.csr_matrix((_flat(mats), cols, indptr),
                          shape=(rows.size, shape[1]))
        out.append(S @ X)
        out[-1].sort_indices()
    return out


def _flat(arrays):
    """The arrays raveled end to end; one contiguous array is not copied."""
    return (arrays[0].ravel() if len(arrays) == 1
            else np.concatenate([a.ravel() for a in arrays]))


def _tensor_combine(uni, nders):
    """``Mesh.shape_ders`` from per-direction basis tables ``uni[k]`` of
    shape ``(..., nq, nders + 1, nloc_k)``; leading axes carry through."""
    lead = uni[0].shape[:-2]
    dim = len(uni)

    def combine(orders):
        out = np.ones(lead + (1,))
        for k in range(dim):
            # New direction slowest.
            out = (out[..., None, :] * uni[k][..., orders[k], :, None]
                   ).reshape(lead + (out.shape[-1] * uni[k].shape[-1],))
        return out

    one = np.eye(dim, dtype=int)
    N = combine(0 * one[0])
    dN = d2N = None
    if nders >= 1:
        # Stored direction-major: each dN[..., k] is contiguous.
        dN = np.moveaxis(np.stack([combine(o) for o in one]), 0, -1)
    if nders >= 2:
        d2N = np.empty(N.shape + (dim, dim))
        for k in range(dim):
            for l in range(k, dim):
                d2N[..., k, l] = d2N[..., l, k] = combine(one[k] + one[l])
    return N, dN, d2N


def bulk_points(mesh: Mesh, e, npts=None, nders=1):
    """Quadrature data for one element or an element array.

    Returns ``(local, weights, N, dNdx, d2Ndx2, phys)`` where weights
    include the physical volume measure; an element array adds a leading
    element axis to each. ``d2Ndx2`` is None unless ``nders >= 2``. Each
    direction's basis is evaluated in one call at the Gauss points of all
    its element intervals, and the tables are combined per element.
    """
    _require_nders(nders)
    if npts is None:
        npts = tuple(d.degree + 1 for d in mesh.dirs)
    elems = np.atleast_1d(e)
    local, wts, rules = tensor_rules([d.intervals() for d in mesh.dirs],
                                     mesh.element_grid_index(elems),
                                     _per_dir(npts, mesh.dim, "npts"))
    uni = []
    for d, (x, at) in zip(mesh.dirs, rules):
        tab = d.eval(np.repeat(np.arange(d.nelem), x.shape[1]), x.ravel(),
                     nders)
        uni.append(tab.reshape(x.shape + tab.shape[1:])[at])
    out = _element_data(mesh, elems, local, wts, nders,
                        _tensor_combine(uni, nders))
    return out if np.ndim(e) else tuple(
        None if a is None else a[0] for a in out)


def quadrature_data(mesh, e, quadrature=None, nders=1):
    """`bulk_points` data of one element or an element array, on the
    standard rule or on an explicit local-coordinate rule ``(local,
    weights)``: ``(E, nq, dim)`` and ``(E, nq)`` for an element array,
    ``(nq, dim)`` and ``(nq,)`` for one element. All points of an
    explicit rule are evaluated in one `Mesh.shape_ders` call."""
    if quadrature is None:
        return bulk_points(mesh, e, nders=nders)
    _require_nders(nders)
    elems = np.atleast_1d(e)
    local = np.reshape(quadrature[0], (len(elems), -1, mesh.dim))
    wts = np.reshape(quadrature[1], local.shape[:2])
    shapes = mesh.shape_ders(np.repeat(elems, local.shape[1]),
                             local.reshape(-1, mesh.dim), nders)
    out = _element_data(mesh, elems, local, wts, nders,
                        [None if s is None else s.reshape(local.shape[:2]
                                                          + s.shape[1:])
                         for s in shapes])
    return out if np.ndim(e) else tuple(
        None if a is None else a[0] for a in out)


def _require_nders(nders):
    if nders not in (1, 2):
        raise ConfigError(f"nders must be 1 (shape gradients) or 2 (also "
                          f"second derivatives), got {nders!r}")


def parent_data(mesh, e, parent, nders=1):
    """``(N, dNdx, d2Ndx2, phys)`` at parent points of one element, or of
    element ``e[i]`` at point ``i`` for an element array; one row per
    point either way. Each point is an element of a one-point rule."""
    parent = np.atleast_2d(np.asarray(parent, dtype=float))
    elems = np.broadcast_to(e, parent.shape[:1])
    rule = (mesh.parent_to_local(elems, parent)[:, None],
            np.ones((len(elems), 1)))
    return tuple(None if a is None else a[:, 0]
                 for a in quadrature_data(mesh, elems, rule, nders)[2:])


def element_map(P, N, dN):
    """Element maps at tabulated points: the points ``N @ P`` and the
    local Jacobians ``P^T dN``, for element nodes ``P`` ``(E, nen,
    dim_x)`` and shape tables ``N`` ``(E, nq, nen)`` and ``dN`` ``(E, nq,
    nen, dim)``."""
    return N @ P, np.swapaxes(P, -1, -2)[:, None] @ dN


def _det_inv(J):
    """Determinants ``(...)`` and inverses ``(..., d, d)`` (the adjugate
    over the determinant) of a stack of 1x1, 2x2 or 3x3 matrices. A
    singular or non-finite one gives a zero or non-finite determinant and
    no floating-point warning; callers test the determinant."""
    with np.errstate(invalid="ignore", divide="ignore"):
        if J.shape[-1] == 1:
            det, adj = J[..., 0, 0], np.ones_like(J)
        elif J.shape[-1] == 2:
            a, b, c, f = (J[..., i, j] for i in (0, 1) for j in (0, 1))
            det = a * f - b * c
            adj = np.stack([f, -b, -c, a], axis=-1).reshape(J.shape)
        else:
            # adj_ik = J_k+1,i+1 J_k+2,i+2 - J_k+1,i+2 J_k+2,i+1 (mod 3).
            k1, k2 = (np.arange(3) + 1) % 3, (np.arange(3) + 2) % 3
            adj = (J[..., k1, k1[:, None]] * J[..., k2, k2[:, None]]
                   - J[..., k1, k2[:, None]] * J[..., k2, k1[:, None]])
            det = (J[..., 0, :] * adj[..., 0]).sum(axis=-1)
        return det, adj / det[..., None, None]


def _element_data(mesh, e, local, wts, nders, shapes):
    """Physical quadrature data of an element array at local points
    ``local`` ``(E, nq, dim)`` with weights ``(E, nq)`` and tabulated
    ``shapes = (N, dN, d2N)``, each with leading axes ``(E, nq)``. A
    Jacobian (`_det_inv`) that is not finite and positive is a
    DomainError."""
    N, dN, d2N = shapes
    P = mesh.nodes[mesh.element_nodes(e)]
    phys, J = element_map(P, N, dN)
    det, Jinv = _det_inv(J)
    bad = np.any(~(np.isfinite(det) & (det > 0)), axis=-1)
    if bad.any():
        raise DomainError(f"non-finite or non-positive jacobian in element "
                          f"{e[bad][0]}")
    # dN/dx_i = sum_j dN/dxi_j (J^-1)_ji.
    dNdx = dN @ Jinv
    d2Ndx2 = None
    if nders >= 2:
        # Chain rule: d2N/dxi2 = J^T (d2N/dx2) J + sum_m dN/dx_m d2x_m/dxi2,
        # the last term vanishing on affine maps only. One (nen, d^2) @
        # (d^2, d^2) product per point applies J^-1 (x) J^-1, whose entry
        # [(k, l), (i, j)] is (J^-1)_ki (J^-1)_lj.
        d2N = d2N.reshape(dN.shape[:-1] + (-1,))
        d2N = d2N - dNdx @ (np.swapaxes(P, -1, -2)[:, None] @ d2N)
        JJ = Jinv[..., :, None, :, None] * Jinv[..., None, :, None, :]
        d2Ndx2 = (d2N @ JJ.reshape(J.shape[:-2] + (d2N.shape[-1],) * 2)
                  ).reshape(dN.shape + dN.shape[-1:])
    return local, wts * det, N, dNdx, d2Ndx2, phys


# Boundary faces -------------------------------------------------------


def facet_rules(mesh: Mesh, axis: int, side: int, npts, strip=None):
    """Gauss rules on the boundary facets of one box face, in one batch.

    The face is ``side`` (-1 or +1, in parent coordinates) of direction
    ``axis``; its facets are the elements whose ``axis`` index is the
    first or last one. ``strip`` optionally restricts the face in the
    *local box* coordinates of the free axes: a sequence with one ``(lo,
    hi)`` pair or ``None`` per free axis. Facets that do not intersect
    the strip are dropped; partially covered facets get rules on their
    clipped parent intervals.

    ``npts`` is either one count shared by every in-facet direction or a
    sequence with one count per direction. Returns ``(elems, parent,
    phys, weights, normals, N)``: the element of each facet, in element
    order, and the points of each facet in turn; weights carry the
    surface measure, normals are unit outward vectors in storage
    coordinates, ``N`` holds the shape values. All points are mapped in
    one `Mesh.shape_ders` call.
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
        # local -> parent on this axis (affine)
        clips.append(np.stack([2 * clo - lo - hi, 2 * chi - lo - hi],
                              axis=-1) / (hi - lo)[:, None])
    elems = np.flatnonzero(keep)
    if not elems.size:
        raise ConfigError("no facets found on requested face")
    pts, wts, _ = tensor_rules(clips, [gi[k][elems] for k in free],
                               _per_dir(npts, len(free), "npts"))
    nq = wts.shape[1]
    parent = np.full((len(elems), nq, mesh.dim), float(side))
    parent[..., free] = pts
    parent, wts = parent.reshape(-1, mesh.dim), wts.ravel()
    at = np.repeat(elems, nq)
    N, dN, _ = mesh.shape_ders(at, mesh.parent_to_local(at, parent))
    # Facet-major: one (nq, nen) @ (nen, dim) product per facet.
    fq = (len(elems), nq)
    phys, J = element_map(mesh.nodes[mesh.element_nodes(elems)],
                          N.reshape(fq + (-1,)), dN.reshape(fq + dN.shape[1:]))
    phys = phys.reshape(-1, mesh.dim)
    a, b = mesh._bounds(elems)
    J = (J * (0.5 * (b - a))[:, None, None, :]).reshape(-1, mesh.dim, mesh.dim)
    if mesh.dim == 3:
        nvec = np.cross(J[:, :, free[0]], J[:, :, free[1]])
    else:
        t = J[:, :, free[0]]
        nvec = np.stack([t[:, 1], -t[:, 0]], axis=-1)
    measure = np.linalg.norm(nvec, axis=1)
    # Orient outward: the tangent product is det(J) J^-T (-1)^axis e_axis.
    sign = np.where(_det_inv(J)[0] * side * (-1) ** axis >= 0, 1.0, -1.0)
    normals = nvec * (sign / np.maximum(measure, 1e-300))[:, None]
    return elems, parent, phys, wts * measure, normals, N
