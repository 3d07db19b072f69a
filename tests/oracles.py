"""Reference implementations the tests hold the library against.

`tensor_rule` builds the Gauss rule of one box by repeated tiling; the
library builds the rules of whole batches of boxes per direction
(`quadrature.tensor_rules`) and must reproduce it bit for bit.
`boundary_facets` enumerates the facets of a box face one element at a
time, with their clipped parent intervals; `mesh.facet_rules` selects
and clips a whole face per direction instead. `span_index`,
`span_interval` and `element_interval` read one element's interval at
a time, where the library reads `SplineDir.intervals()`; `find_span`
and `eval_basis` locate and evaluate the basis at one local coordinate,
where the library evaluates
whole batches on known spans (`SplineDir.eval`). `basis_ders` runs the
knot-insertion triangle (Piegl and Tiller) as O(p^2) array steps per
batch; `SplineDir.eval` takes Horner steps on per-span Taylor tables.
`signed_distance` and `inside` test points against an `OverlapRegion`
one point at a time; the library classifies and cuts elements from
per-direction covering flags instead. `b_matrix_solid` and
`integrate_btcb` build the solid strain matrix by hand and integrate
w B^T C B, and `section_rigidities` gives a beam section's EA, EI and
kGA from its `Material`; the library states each model's kinematics as
a table and integrates its stiffness form over the section.
`coupling_matrices` assembles a coupling interface's Nitsche blocks on
every element-local column; `CouplingOperator.matrices` keeps only the
columns live in the jump or the traction at some interface point.
`lifted` sums the library's segment blocks of one interface into CSR
by `mesh.add_blocks`, as `coupling_matrices` does its own, and
`local_matrices` lifts them over the interface's stacked local DOFs
``[solid | struct]``, the numbering of a system that holds the solid
and then the structure only, and `solid_solve` for its
solid block the solve `coupling.estimate_alpha` takes, by the library's
own factorization. `band_order` is `system._band_order` on a plain
sparse K, each DOF a node, from whole arrays of K's stored entries, a
column place per entry. `band_fill` fills the lower band of given
places and width from the assembled K's stored entries; the library
adds its pieces' node blocks into the band a row block at a time and
must give the same band bit for bit. `node_graph` pairs the nodes of
every stored entry of `system.Pieces` one entry at a time, where the
library lends each node-block piece's block pattern, and `node_band`
measures an order of it node pair by node pair. `power_iteration_alpha` is
the stabilization estimate as a power iteration on the interface DOFs,
one step per loop pass; `coupling.estimate_alpha` evaluates the
quotients of those steps in closed form from one eigendecomposition.
`jet_reference` is `mesh.quadrature_data` by the general
isoparametric map of the control net (`element_map`: the points
``N @ P`` and the Jacobians ``P^T dN`` of the tensor-product shape
functions), LAPACK's stacked determinants and inverses and the chain
rule for the second derivatives, two d x d products per point and node;
the library maps every jet table with one matrix per mesh
(``Mesh.jet_map``).
`locate_point` finds one point's element and parent coordinates a
direction at a time by a scan of the element intervals; `Mesh.locate`
searches whole point arrays.
`csv_text` and `vtk_text` are the CLI's artifacts formatted one value
per Python call (`fmt_value`) and assembled line by line; the writers
(`cli.write_csv`, `cli.write_vtk`) format each numeric block with one
``%`` call and must write the same bytes.
"""
import csv
import io

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from mdfem.coupling import _ALPHA_SEED, _ALPHA_TOL, _normal_matrices
from mdfem.elasticity import _band_1d, _tables_1d, integrate_atb, interpolate
from mdfem.errors import ConfigError, ConvergenceError, DomainError, RankError
from mdfem.mesh import _TRIPLET_BUDGET, add_blocks, element_batches, jets
from mdfem.quadrature import gauss_1d
from mdfem.system import _factor_spd


def tensor_rule(intervals, counts) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss rule on the box spanned by ``intervals``.

    Parameters
    ----------
    intervals : sequence of (a, b)
        One interval per direction.
    counts : sequence of int
        Number of points per direction.

    Returns
    -------
    points : ndarray (npts, d)
        Ordered first direction fastest. With zero directions the rule is
        one point (shape ``(1, 0)``) of weight 1.
    weights : ndarray (npts,)
    """
    points = np.zeros((1, 0))
    weights = np.ones(1)
    for (a, b), n in zip(intervals, counts):
        g, w = gauss_1d(int(n))
        x = 0.5 * (a + b) + 0.5 * (b - a) * g
        m = points.shape[0]
        # The new direction varies slowest: repeat the rule so far per point.
        points = np.column_stack([np.tile(points, (len(x), 1)),
                                  np.repeat(x, m)])
        weights = np.tile(weights, len(x)) * np.repeat(0.5 * (b - a) * w, m)
    return points, weights


def signed_distance(region, pts):
    """Coordinate-wise box distance to an `OverlapRegion`, negative inside
    the solid."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.full(pts.shape[0], -np.inf)
    for k, (lo, hi) in enumerate(region.bounds):
        d = np.maximum(d, np.maximum(lo - pts[:, k], pts[:, k] - hi))
    return d


def inside(region, pts):
    """Points strictly inside ``region``; its boundary is not covered."""
    return signed_distance(region, pts) < 0.0


def span_index(d, element) -> int:
    """Knot index of the span opening the given element of a `SplineDir`."""
    return int(d._span_starts[element])


def span_interval(d, span) -> tuple[float, float]:
    """Local interval [t_i, t_{i+1}) of a knot span."""
    return float(d.knots[span]), float(d.knots[span + 1])


def element_interval(d, e) -> tuple[float, float]:
    """Local interval of element ``e`` of a `SplineDir`."""
    return span_interval(d, span_index(d, e))


def boundary_facets(mesh, axis, side, strip=None):
    """Facets ``(elem, clips)`` of box face ``side`` of direction ``axis``,
    in element order, one element at a time.

    ``strip`` optionally restricts the face in the local coordinates of
    the free axes: one ``(lo, hi)`` pair or ``None`` per free axis. Facets
    that do not intersect the strip are dropped; ``clips`` holds one
    parent interval ``(lo, hi)`` per free axis.
    """
    free = [k for k in range(mesh.dim) if k != axis]
    boundary_e = mesh.dirs[axis].nelem - 1 if side > 0 else 0
    gi = mesh.element_grid_index(np.arange(mesh.nelem))
    facets = []
    for e in np.nonzero(gi[axis] == boundary_e)[0]:
        clips = []
        keep = True
        for j, k in enumerate(free):
            lo, hi = element_interval(mesh.dirs[k], gi[k][e])
            want = None if strip is None else strip[j]
            if want is None:
                clips.append((-1.0, 1.0))
                continue
            clo, chi = max(lo, want[0]), min(hi, want[1])
            if chi - clo <= 1e-12 * (hi - lo):
                keep = False
                break
            # local -> parent on this axis (affine)
            clips.append((
                (2 * clo - lo - hi) / (hi - lo),
                (2 * chi - lo - hi) / (hi - lo),
            ))
        if keep:
            facets.append((int(e), tuple(clips)))
    return facets


def find_span(d, x: float) -> int:
    """Locate the knot span containing x.

    Returns the unique index i with ``knots[i] <= x < knots[i+1]`` among the
    non-empty spans; the right endpoint of the domain maps to the last
    non-empty span.

    Raises
    ------
    DomainError
        If x lies outside the knot domain.
    """
    lo, hi = d.lo, d.hi
    if x < lo or x > hi:
        raise DomainError(f"coordinate {x} outside domain [{lo}, {hi}]")
    knots = d.knots
    high = knots.size - d.degree - 1
    if x >= knots[high]:
        # Right endpoint: last non-empty span.
        return int(d._span_starts[-1])
    span = int(np.searchsorted(knots, x, side="right")) - 1
    return span


def basis_ders(knots, degree, xs, span, nders):
    """Values and derivatives of the non-vanishing basis functions: the
    reference `SplineDir.eval` is held to.

    Standard knot-insertion triangle evaluation, run for a batch of
    coordinates at once (the points ride along as a trailing axis).
    ``span`` is one knot span for all values or an array of one span per
    value. Returns a C-contiguous array of shape
    ``(len(xs), nders + 1, degree + 1)`` where ``[i, k]`` holds the k-th
    derivatives of functions ``span[i] - degree .. span[i]`` at ``xs[i]``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    m = xs.size
    p = degree
    ne = min(nders, p)
    left = np.empty((p, m))
    right = np.empty((p, m))
    ndu = np.empty((p + 1, p + 1, m))
    a = np.empty((2, p + 1, m))
    ders = np.zeros((m, nders + 1, p + 1))

    ndu[0, 0] = 1.0
    for j in range(p):
        left[j] = xs - knots[span - j]
        right[j] = knots[span + 1 + j] - xs
        saved = 0.0
        for r in range(j + 1):
            # Lower triangle: inverse knot differences.
            ndu[j + 1, r] = 1.0 / (right[r] + left[j - r])
            temp = ndu[r, j] * ndu[j + 1, r]
            # Upper triangle: basis values.
            ndu[r, j + 1] = saved + right[r] * temp
            saved = left[j - r] * temp
        ndu[j + 1, j + 1] = saved

    ders[:, 0, :] = ndu[:, p].T
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, ne + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] * ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for ij in range(j1, j2 + 1):
                a[s2, ij] = (a[s1, ij] - a[s1, ij - 1]) * ndu[pk + 1, rk + ij]
                d += a[s2, ij] * ndu[rk + ij, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] * ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[:, k, r] = d
            s1, s2 = s2, s1

    # Multiply by the correct factors p! / (p - k)!
    r = p
    for k in range(1, ne + 1):
        ders[:, k, :] *= r
        r *= p - k
    return ders


def eval_basis(d, x: float, nders: int = 0):
    """Evaluate the non-vanishing basis functions at x.

    Parameters
    ----------
    d : SplineDir
    x : float
        Local coordinate inside the domain.
    nders : int
        Highest derivative order requested (0, 1 or 2).

    Returns
    -------
    ders : ndarray (nders + 1, degree + 1)
        Row k holds the k-th derivative of each non-vanishing function.
    indices : ndarray (degree + 1,)
        Global indices of those functions.
    """
    if nders not in (0, 1, 2):
        raise DomainError(f"derivative order must be 0, 1 or 2, got {nders}")
    span = find_span(d, x)
    ders = basis_ders(d.knots, d.degree, x, span, nders)
    return ders[0], np.arange(span - d.degree, span + 1)


def element_map(P, N, dN):
    """Element maps at tabulated points: the points ``N @ P`` and the
    local Jacobians ``P^T dN``, for element nodes ``P`` ``(E, nen,
    dim_x)`` and shape tables ``N`` ``(E, nq, nen)`` and ``dN`` ``(E, nq,
    nen, dim)``."""
    return N @ P, np.swapaxes(P, -1, -2)[:, None] @ dN


def locate_point(mesh, t):
    """``(e, xi)`` of one point ``t`` in local coordinates: per direction
    the element is the last whose interval starts at or below t clamped
    to the box (an interior knot belongs to the element it opens), and xi
    the parent coordinates of the unclamped t."""
    t = np.asarray(t, dtype=float)
    gi = [max(i for i in range(d.nelem)
              if element_interval(d, i)[0] <= min(max(tk, d.lo), d.hi))
          for d, tk in zip(mesh.dirs, t)]
    e = mesh.element_id(gi)
    return e, mesh.local_to_parent(e, t[None, :])[0]


def jet_reference(mesh, e, local, wts):
    """`mesh.quadrature_data` ``(weights, J)`` of second order for
    elements ``e`` at local points ``local`` ``(E, nq, dim)`` with weights
    ``(E, nq)``: the jets in t of `Mesh.shape_ders` taken to x by the map
    of the control net ``mesh.nodes`` through `element_map`,
    `np.linalg.det` and `np.linalg.inv`, and the chain rule for the second
    derivatives as J^-T (d2N/dxi2 - sum_m dN/dx_m d2x_m/dxi2) J^-1, one
    pair of d x d products per point and node."""
    E, nq, dim = local.shape
    t = mesh.shape_ders(np.repeat(e, nq), local.reshape(-1, dim), 2)
    N, dN, d2N = jet_arrays(t.reshape(-1, E, nq, t.shape[-1]), dim)
    P = mesh.nodes[mesh.element_nodes(e)]
    _, J = element_map(P, N, dN)
    det = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    dNdx = dN @ Jinv
    flat = d2N.shape[:-2] + (-1,)
    d2x = np.swapaxes(P, -1, -2)[:, None] @ d2N.reshape(flat)
    d2N = d2N - (dNdx @ d2x).reshape(d2N.shape)
    Jinv = Jinv[..., None, :, :]
    d2Ndx2 = np.swapaxes(Jinv, -1, -2) @ d2N @ Jinv
    k, l = np.triu_indices(dim)
    return wts * det, np.concatenate([N[None], np.moveaxis(dNdx, -1, 0),
                                      np.moveaxis(d2Ndx2[..., k, l], -1, 0)])


def jet_arrays(J, dim):
    """``(N, dN, d2N)`` of a jet table ``(njet, ..., nen)`` (`mesh.jets`
    order): ``(..., nen)``, ``(..., nen, dim)`` and, for a table of second
    order, the symmetric ``(..., nen, dim, dim)`` (else None)."""
    N, dN = J[0], np.moveaxis(J[1:dim + 1], 0, -1)
    if len(J) == dim + 1:
        return N, dN, None
    k, l = np.triu_indices(dim)
    d2N = np.empty(N.shape + (dim, dim))
    d2N[..., k, l] = d2N[..., l, k] = np.moveaxis(J[dim + 1:], 0, -1)
    return N, dN, d2N


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


def section_rigidities(material):
    """Axial, bending and shear rigidity ``(EA, EI, kGA)`` of a beam
    section."""
    m = material
    return m.E * m.area, m.E * m.inertia, m.k_shear * m.G * m.area


def integrate_btcb(B: np.ndarray, C: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over quadrature points of w * B^T C B (GEMM-shaped, batched as
    `elasticity.integrate_atb`)."""
    return integrate_atb(B, np.einsum("ab,...bj->...aj", C, B), w)


def local_numbering(op):
    """`CouplingOperator.matrices`' offsets and the size ``(offsets,
    ndof)`` of the stacked local DOFs ``[solid | struct]`` of one
    interface."""
    return (0, op.solid.ndof), op.solid.ndof + op.struct.ndof


def lifted(op, offsets, ndof, with_h):
    """(K^n, K^st, H) of one interface: `CouplingOperator.matrices`'
    segment blocks at ``offsets`` summed into CSR of ``ndof`` DOFs by one
    `add_blocks` call each; H is None unless ``with_h``."""
    dofs, *blocks = op.matrices(offsets, with_h)
    return tuple(None if m is None else add_blocks(
        sp.csr_matrix((ndof, ndof)), [dofs], [m]) for m in blocks)


def local_matrices(op, with_h=True):
    """(K^n, K^st, H) of one interface over its stacked local DOFs
    ``[solid | struct]``; H is None unless ``with_h``."""
    return lifted(op, *local_numbering(op), with_h)


def solid_solve(K):
    """The solve `coupling.estimate_alpha` takes for the solid block
    ``K``: the library's `system._factor_spd` on all of K."""
    K = sp.csr_matrix(K)
    n = K.shape[0]
    return _factor_spd(K, np.ones(n, bool), np.zeros((n, 3)))[0]


def kron_csr(pa, ca, va, pb, cb, vb, nb):
    """Kronecker product ``(indptr, indices, values)`` of CSR matrices a
    and b, b fastest, whose values carry a trailing axis (multiplied entry
    by entry), b having ``nb`` columns: every entry, rows sorted."""
    la, lb = np.diff(pa), np.diff(pb)
    rowlen = np.outer(la, lb).ravel()
    ptr = np.concatenate(([0], np.cumsum(rowlen)))
    r = np.repeat(np.arange(rowlen.size), rowlen)
    ia, ib = np.divmod(r, lb.size)
    q, s = np.divmod(np.arange(ptr[-1]) - ptr[r], lb[ib])
    ea, eb = pa[ia] + q, pb[ib] + s
    vals = np.take(va, ea, axis=0)
    vals *= np.take(vb, eb, axis=0)
    return ptr, ca[ea] * nb + cb[eb], vals


def separable_full(mesh, form, boxes, upper=False):
    """`elasticity.stiffness_separable` with both triangles: per box the
    whole Kronecker product (`kron_csr`) of the library's 1D band
    matrices times D, as canonical BSR of node blocks. With ``upper``
    only the product's entries on node pairs (i, j), j >= i, are
    multiplied by D, and the diagonal blocks' strictly lower parts are
    zeroed: its upper blocks, as BLAS computes them on those rows. Each
    part's product is built on its own; one GEMM takes them side by side
    against the parts' D stacked, as the library's does."""
    T, m, det = mesh.jet_map, jets(mesh.dim), mesh.placement[3]
    parts = []
    for D, npts, cover in form:
        D = det * np.einsum("ab,iajc,cd->ibjd", T, D, T)
        used = np.flatnonzero(np.abs(D).sum((0, 2, 3)))
        a, b = (used[i].ravel() for i in np.indices((used.size,) * 2))
        nders = 2 if used[-1] > mesh.dim else 1
        mats = []
        for k, d in enumerate(mesh.dirs):
            idx, wdy, tab = _tables_1d(d, npts or d.degree + 1, nders,
                                       None if cover is None else cover[k])
            mats.append((idx, np.einsum("eq,eqai,eqbj->eijab", wdy, tab,
                                        tab)))
        parts.append((mats, m[a], m[b], D[:, a, :, b].reshape(a.size, -1)))
    nc, Ks = form[0][0].shape[0], []
    Dab = np.vstack([part[3] for part in parts])
    for box in boxes:
        vals = []
        for mats, ma, mb, _ in parts:
            P, nodes, n = (), np.zeros(1, dtype=int), 1
            for k, (d, (idx, mk), mask) in enumerate(zip(mesh.dirs, mats,
                                                         box)):
                (ptr, col, val), live = _band_1d(d.n, idx, mk, mask,
                                                   False)
                band = ptr, col, val[:, ma[:, k], mb[:, k]]
                P = kron_csr(*band, *P, n) if P else band
                nodes = (n * live[:, None] + nodes).ravel()
                n *= d.n
            rows = np.repeat(nodes, np.diff(P[0]))
            keep = P[1] >= rows if upper else np.ones(rows.size, bool)
            vals.append(P[2][keep])
        blocks = (np.concatenate(vals, axis=1) @ Dab).reshape(-1, nc, nc)
        if upper:
            diag = P[1][keep] == rows[keep]
            blocks[diag] = np.triu(blocks[diag])
        ptr = np.zeros(mesh.nnodes + 1, dtype=P[0].dtype)
        ptr[nodes + 1] = np.add.reduceat(keep, P[0][:-1])
        Ks.append(sp.bsr_matrix((blocks, P[1][keep], np.cumsum(ptr)),
                                shape=(mesh.nnodes * nc,) * 2))
    return Ks


def band_order(K, free, points):
    """``(name, pos, cols, bands)`` as `system._band_order` gives
    ``(name, pos, bands)`` for a plain sparse K (each DOF a node), each
    band in one pass over all of K; ``cols`` is the place of each stored
    entry's column in the chosen order."""
    idx = np.flatnonzero(free)
    rcm = reverse_cuthill_mckee(K, symmetric_mode=True)
    p = points[idx]
    orders = {"rcm": rcm[free[rcm]],
              "geometric": idx[np.argsort(p[:, np.argmax(np.ptp(p, 0))],
                                          kind="stable")]}
    rows = np.flatnonzero(np.diff(K.indptr))
    places, cols, bands = {}, {}, {}
    for name, perm in orders.items():
        pos = places[name] = np.full(K.shape[0], -1, dtype=K.indices.dtype)
        pos[perm] = np.arange(perm.size)
        cols[name] = np.take(pos, K.indices)
        last = np.maximum.reduceat(cols[name], K.indptr[rows])
        bands[name] = int((last - pos[rows])[free[rows]].max(initial=0))
    name = min(bands, key=bands.get)
    return name, places[name], cols[name], bands


def band_fill(K, free, pos, u):
    """``(ab, nnz)``: the lower band of width ``u`` that
    `system._factor_spd` hands to ``cholesky_banded`` for the free block
    of the assembled K in the DOF places ``pos`` (-1 where not free),
    filled from whole-K arrays of row and column places, and the stored
    nonzeros of that block. An entry outside the band fails."""
    n = int(np.count_nonzero(free))
    pr = np.repeat(pos, np.diff(K.indptr))
    pc = pos[K.indices]
    kept = (pr >= 0) & (pc >= 0)
    up = np.flatnonzero(kept & (pc >= pr))
    assert (pc[up] - pr[up]).max(initial=0) <= u
    ab = np.zeros((u + 1, n), order="F")  # ab[c - r, r] = K_rc
    ab.T.ravel()[pc[up] + np.int64(u) * pr[up]] = K.data[up]
    return ab, int(np.count_nonzero(K.data[kept]))


def node_graph(pieces):
    """``(G, node)``: the node pairs of every stored entry of
    `system.Pieces` (each entry of a node block, zero or not) and their
    mirrors, as CSR, and the node of each DOF."""
    starts = pieces.starts
    node = np.searchsorted(starts, np.arange(starts[-1]), "right") - 1
    rows, cols = [], []
    for o, p in pieces.parts():
        c = p.tocoo()
        rows.append(node[o + c.row])
        cols.append(node[o + c.col])
    N = starts.size - 1
    rows, cols = np.concatenate(rows + cols), np.concatenate(cols + rows)
    G = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                      shape=(N, N)).tocsr()
    G.sum_duplicates()
    return G, node


def node_band(G, node, free, order):
    """``(band, perm)`` of a node ``order``: each node of it with a free
    DOF gets its free DOFs' places in turn (``perm``, the free DOFs in
    place order), and the band is max(first_j + nfree_j - 1 - first_i)
    over G's node pairs, one pair at a time."""
    nfree = np.bincount(node[free], minlength=G.shape[0])
    order = [i for i in order if nfree[i]]
    first, at = {}, 0
    for i in order:
        first[i], at = at, at + nfree[i]
    band = 0
    for i, j in zip(*G.nonzero()):
        if i in first and j in first:
            band = max(band, first[j] + nfree[j] - 1 - first[i])
    dofs = np.flatnonzero(free)
    perm = np.concatenate([dofs[node[dofs] == i] for i in order]
                          or [np.zeros(0, int)])
    return band, perm


def solid_trace(solid, e, parent, rows):
    """The solid side of an interface the way `SolidModel.trace` builds
    it, over all element DOFs: ``(N, C[rows] B)``, every Voigt row when
    ``rows`` (a partner's `solid_stress_rows`) is None."""
    N, B = interpolate(solid.mesh, e, parent, solid.kinematics)
    return N, (solid.C if rows is None else solid.C[rows, :]) @ B


def coupling_matrices(op, offsets, ndof, with_h):
    """(K^n, K^st, H) of a `CouplingOperator` over all ``na`` stacked
    element DOFs ``[solid | struct]`` of each segment, the columns that
    are zero at every point included; H is None unless ``with_h``.
    Arguments as `CouplingOperator.matrices`."""
    solid, struct, p = op.solid, op.struct, op.points
    rows = struct.solid_stress_rows
    Ns, Ss = solid_trace(solid, p.s_elem, p.s_parent, rows)
    Nb, Sb = struct.trace(p.b_elem, p.b_parent, p.offsets)
    J = np.concatenate([Ns, -Nb], axis=2)
    T = np.einsum("qdr,qrj->qdj", _normal_matrices(p.normals, rows),
                  np.concatenate([Ss, Sb], axis=2))
    first, counts = op.starts[:-1], np.diff(op.starts)
    dofs = np.concatenate([
        offsets[0] + solid.element_dofs(p.s_elem[first]),
        offsets[1] + struct.element_dofs(p.b_elem[first])], axis=1)
    na = dofs.shape[1]
    parts = []
    for run in element_batches(np.arange(counts.size), 3 * na * na):
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
        parts.append([add_blocks(sp.csr_matrix((ndof, ndof)), [dofs[run]],
                                 [m]) for m in blocks])
    out = tuple(sum(ps[1:], ps[0]) for ps in zip(*parts))
    return out if with_h else out + (None,)


def power_iteration_alpha(K_solid, K_struct, H, maxiter, quotients=None):
    """``(alpha, steps)`` of the power iteration on K~^-1 H over the
    interface DOFs I (the rows where H is nonzero), from y = (H v)[I] for
    a random unit v of seed `coupling._ALPHA_SEED`: an iterate u = Z y
    with Z = K~^-1[I, I] (pseudo-inverse on the structural block) and
    y = H_II u, and the Rayleigh quotient u.H_II u / u.y. It stops when
    two quotients agree to relative `coupling._ALPHA_TOL`. ``steps``
    counts the products with H, the first one included: the smallest
    ``maxiter`` that returns this alpha. A ``maxiter`` too small for it
    raises ConvergenceError. Each step's quotient is appended to the list
    ``quotients``, if one is given."""
    H = sp.csr_matrix(H)
    if H.nnz == 0 or np.abs(H.data).max() == 0.0:
        return 0.0, 0
    Hscale = np.abs(H.data).max()

    K_solid, K_struct = sp.csr_matrix(K_solid), np.asarray(K_struct)
    ns, nb = K_solid.shape[0], K_struct.shape[0]
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

    v = np.random.default_rng(_ALPHA_SEED).standard_normal(ns + nb)
    if nb and Qn.shape[1]:
        v[ns:] -= Qn @ (Qn.T @ v[ns:])
    v /= np.linalg.norm(v)

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
    y = (H @ v)[iface]
    lam_old = np.nan  # no previous quotient: the first step cannot stop
    for k in range(maxiter - 1):
        u = Z @ y
        uy = u @ y  # zero only where u is: Z is semi-definite
        if uy == 0.0:
            return 0.0, k + 2
        y = H_II @ u
        lam = float(u @ y / uy)
        if quotients is not None:
            quotients.append(lam)
        if abs(lam - lam_old) <= _ALPHA_TOL * max(abs(lam), 1e-300):
            return lam / 2.0, k + 2
        lam_old = lam
        yy = y @ y
        if yy == 0.0:
            return 0.0, k + 2
        y /= np.sqrt(yy)
    raise ConvergenceError(f"stabilization eigenvalue stagnant after "
                           f"{maxiter} iterations")


def fmt_value(v) -> str:
    """One CSV or VTK value: integers in full, floats to 17 significant
    digits."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def csv_text(header, rows) -> str:
    """`cli.write_csv`'s file contents, one `fmt_value` call per value."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_value(v) for v in row])
    return out.getvalue()


def vtk_text(title, points, cells, cell_type, displacement,
             von_mises_values) -> str:
    """`cli.write_vtk`'s file contents, assembled line by line."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    disp = np.atleast_2d(np.asarray(displacement, dtype=float))
    if points.shape[1] < 3:
        pad = np.zeros((points.shape[0], 3 - points.shape[1]))
        points = np.hstack([points, pad])
        disp = np.hstack([disp, np.zeros_like(pad)])
    cells = np.asarray(cells, dtype=int)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {points.shape[0]} double",
    ]
    lines += [" ".join(fmt_value(c) for c in p) for p in points]
    nc, npc = cells.shape
    lines.append(f"CELLS {nc} {nc * (npc + 1)}")
    lines += [f"{npc} " + " ".join(str(c) for c in row) for row in cells]
    lines.append(f"CELL_TYPES {nc}")
    lines += [str(cell_type)] * nc
    lines.append(f"POINT_DATA {points.shape[0]}")
    lines.append("VECTORS displacement double")
    lines += [" ".join(fmt_value(c) for c in row) for row in disp]
    lines.append("SCALARS von_mises double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [fmt_value(v) for v in von_mises_values]
    return "\n".join(lines) + "\n"
