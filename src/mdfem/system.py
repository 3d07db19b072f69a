"""Global system: DOF layout over several models, sparse assembly of the
bulk + Nitsche terms, Dirichlet elimination, direct solve and reactions.

DOF layout is block-wise per model in construction order, node-major and
component-minor inside each block. The solve factors the pieces assembly
makes (`Pieces`) and forms no global matrix: each model's node-block
(BSR) matrix per grid box (`elasticity.stiffness_separable`) of each of
its parts (one CSR in all with one DOF a node), and one coupling CSR
of each coupling's segment blocks, Kn + Kn^T + alpha Kst folded per
segment (`_nitsche`). Each piece stores only U, its entries with column
>= row (`_upper`; H for the alpha estimate stays whole), and K is
U + U^T - diag(U); each sparse sum is one pass (`_add_runs`). The order
is chosen on the node graph (`_node_graph`): the smaller-band one of
reverse Cuthill-McKee and a sort along the longest axis of the nodes'
global control points (`Model.to_global`), each node's free DOFs in
consecutive places. Each stored entry is added at its (min, max) place
into the lower band of banded Cholesky (`_fill`), which also gives the
``nnz`` of `Solution.stats`. Beyond the pieces and the band the solve
holds the node graph, O(`_BLOCK`) entries and O(n) vectors; it also
solves for the alpha estimate. `Solution.K` is built when first read.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import mesh
from .coupling import estimate_alpha
from .elasticity import part_form, stiffness_separable
from .errors import ConfigError, DefinitenessError, MdfemError, RankError
from .mesh import _BLOCK


@dataclass
class Pieces:
    """U + U^T - diag(U), U the canonical upper-triangle pieces that sum
    to it: ``models[i]``, model i's pieces in its own DOF numbering, at
    ``offsets[i]``, then the ``coupling`` pieces on all DOFs. ``starts``
    is the first DOF of each node, then the size. Entries are summed in
    that order, by the band fill as by `tocsr`."""

    models: list
    offsets: np.ndarray
    coupling: list
    starts: np.ndarray

    def parts(self):
        """``(offset, piece)`` in summation order."""
        return [(int(o), p) for o, ps in zip(self.offsets, self.models)
                for p in ps] + [(0, p) for p in self.coupling]

    def dot(self, x):
        """K x = U x + U^T x - diag(U) x, piece by piece, U^T x a row block
        at a time (`_row_blocks`), so what is copied is a row block."""
        y = np.zeros_like(x)
        for o, p in self.parts():
            R, xp, yp = _blocksize(p), x[o:o + p.shape[0]], y[o:o + p.shape[0]]
            yp += p @ xp - p.diagonal() * xp
            for rows, ptr, ents in _row_blocks(p):
                xr = xp[R * rows.start:R * rows.stop]
                yp += (p if xr.size == xp.size else type(p)((
                    p.data[ents], p.indices[ents], ptr), shape=(
                        xr.size, xp.size))).T @ xr
        return y

    def dense(self, dofs):
        """``K[dofs][:, dofs]`` as an array, ``dofs`` ascending."""
        out = np.zeros((dofs.size,) * 2)
        for o, p in self.parts():
            sel = (dofs >= o) & (dofs < o + p.shape[0])
            if sel.any():
                loc = dofs[sel] - o
                out[np.ix_(sel, sel)] += p.tocsr()[loc][:, loc].toarray()
        return out + np.triu(out, 1).T

    def tocsr(self) -> sp.csr_matrix:
        """U + U^T - diag(U) as canonical CSR without exact zeros, U the
        models' sums on the diagonal (`_block_diag`) plus the coupling."""
        U = sum(self.coupling, _block_diag([_csr_sum(ps, n) for ps, n in zip(
            self.models, np.diff(self.offsets))]))
        return U + U.T - sp.diags(U.diagonal(), format="csr")


@dataclass
class Solution:
    """Solve outcome: solution vector plus bookkeeping for diagnostics."""

    a: np.ndarray
    alphas: list
    pieces: Pieces             # the matrix before constraint elimination
    f: np.ndarray
    free: np.ndarray           # boolean mask of unconstrained DOFs
    residual: float
    reactions: np.ndarray
    stats: dict                # solve sizes, `_factor_spd`

    @cached_property
    def K(self) -> sp.csr_matrix:
        """The assembled matrix before constraint elimination."""
        return self.pieces.tocsr()


class System:
    """Coupled models sharing one global DOF space, their inactive DOFs
    pinned to zero and one stabilization alpha for all couplings."""

    def __init__(self, models):
        models = list(models)
        for i, m in enumerate(models):
            if any(m is other for other in models[:i]):
                raise ConfigError("each model may appear only once")
        self.models = models
        self.couplings = []
        self.offsets = np.cumsum([0] + [m.ndof for m in models])
        # Prescribed value of each DOF; NaN where the DOF is free.
        self._fixed = np.full(self.ndof, np.nan)
        self._f = np.zeros(self.ndof)
        self._parts = None
        for idx, m in enumerate(models):
            self.fix(idx, np.asarray(m.inactive_dofs, int))

    @property
    def ndof(self):
        return int(self.offsets[-1])

    def model_index(self, model):
        for i, m in enumerate(self.models):
            if m is model:
                return i
        raise ConfigError("model is not part of this system")

    def _model(self, idx):
        if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
            raise ConfigError(f"model index {idx!r} is not an integer")
        if not 0 <= idx < len(self.models):
            raise ConfigError(f"model {idx} outside [0, {len(self.models)})")
        return self.models[idx]

    def global_dofs(self, idx, local_dofs):
        n = self._model(idx).ndof
        try:
            local = np.asarray(local_dofs)
        except ValueError:  # ragged nesting
            raise ConfigError(f"model {idx}: local DOFs {local_dofs!r} are "
                              "not an array of integers") from None
        if not np.issubdtype(local.dtype, np.integer):
            bad = [v for v in local.ravel().tolist()
                   if isinstance(v, bool) or not isinstance(v, int)]
            if bad:
                raise ConfigError(f"model {idx}: local DOF {bad[0]!r} is not "
                                  "an integer")
        local = local.astype(int)
        bad = local[(local < 0) | (local >= n)]
        if bad.size:
            raise ConfigError(f"model {idx}: local DOF {bad[0]} outside "
                              f"[0, {n})")
        return self.offsets[idx] + local

    def model_part(self, a, idx):
        self._model(idx)
        if np.shape(a)[:1] != (self.ndof,):
            raise ConfigError(f"expected one row per system DOF ({self.ndof})"
                              f", got shape {np.shape(a)}")
        return a[self.offsets[idx]:self.offsets[idx + 1]]

    def add_coupling(self, op):
        self.couplings.append(op)
        self._parts = None

    def fix(self, idx, local_dofs, values=0.0):
        """Constrain model DOFs to prescribed values. A DOF keeps the value
        it was first given, by an earlier call or earlier in this one;
        another value for it is a conflict."""
        dofs = self.global_dofs(idx, local_dofs).ravel()
        try:
            values = np.broadcast_to(np.asarray(values, dtype=float),
                                     dofs.shape).ravel()
        except (TypeError, ValueError):
            raise ConfigError(f"model {idx}: Dirichlet values are one number "
                              f"or one per DOF ({dofs.size}), got "
                              f"{values!r}") from None
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"model {idx}: Dirichlet values must be finite")
        ref = self._fixed[dofs]
        _, first, inv = np.unique(dofs, return_index=True, return_inverse=True)
        unset = np.isnan(ref)
        ref[unset] = values[first[inv]][unset]
        bad = np.flatnonzero(ref != values)
        if bad.size:
            raise ConfigError(f"conflicting constraint on DOF {dofs[bad[0]]}")
        self._fixed[dofs] = values

    def load(self, idx, f_local):
        n = self._model(idx).ndof
        try:
            f_local = np.asarray(f_local, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"model {idx}: a load is {n} finite values, "
                              "got something other than an array of numbers"
                              ) from None
        if f_local.shape != (n,) or not np.isfinite(f_local).all():
            raise ConfigError(f"model {idx}: a load is {n} finite values, "
                              f"got shape {f_local.shape}")
        self._f[self.offsets[idx]:self.offsets[idx + 1]] += f_local

    # Assembly ----------------------------------------------------------

    def bulk_matrix(self) -> sp.csr_matrix:
        """K~ = U + U^T - diag(U), U the upper pieces of `_bulk`: each
        model's stiffness on the diagonal, no coupling."""
        return self._bulk().tocsr()

    def _bulk(self) -> Pieces:
        """K~ as each model's pieces (`_model_pieces`)."""
        starts = [o + m.ncomp_node * np.arange(m.mesh.nnodes)
                  for o, m in zip(self.offsets, self.models)]
        return Pieces([_model_pieces(m) for m in self.models], self.offsets,
                      [], np.concatenate(starts + [self.offsets[-1:]]))

    def _coupling_blocks(self, with_h):
        """Each coupling's segment blocks (`CouplingOperator.matrices`),
        made one coupling at a time as they are read."""
        return (op.matrices((self.offsets[self.model_index(op.solid)],
                             self.offsets[self.model_index(op.struct)]),
                            with_h) for op in self.couplings)

    def resolve_alpha(self, alpha="auto"):
        """The stabilization alpha of every coupling, as `solve` uses it.

        ``alpha`` is one number for all couplings or ``"auto"``: the
        spectral estimate `coupling.estimate_alpha` on the free DOFs,
        computed from the assembled bulk and coupling matrices without
        solving the system; a solid left unclamped is a RankError.
        """
        if np.isscalar(alpha) and not isinstance(alpha, str):
            a = float(alpha)
        elif not isinstance(alpha, str) or alpha != "auto":
            raise ConfigError(f"alpha must be 'auto' or one number for "
                              f"every coupling, got {alpha!r}")
        elif not self.couplings:
            return []
        else:
            if self._parts is None:  # kept for the solve that follows
                self._parts = (self._bulk(), list(self._coupling_blocks(True)))
            bulk, blocks = self._parts
            free = np.isnan(self._fixed)
            solid = free & np.repeat([m.mesh.model in ("solid2d", "solid3d")
                                      for m in self.models],
                                     np.diff(self.offsets))
            try:
                solve_solid, _ = _factor_spd(bulk, solid, self._dof_points())
            except (DefinitenessError, RankError) as exc:
                raise RankError("solid stiffness is singular: clamp each "
                                "solid, or give alpha as a number") from exc
            struct_free = np.flatnonzero(free & ~solid)
            order = np.concatenate([np.flatnonzero(solid), struct_free])
            H = _add_runs(sp.csr_matrix((self.ndof,) * 2), (
                (d, h) for d, _, _, h in blocks))[order][:, order]
            a = estimate_alpha(solve_solid, bulk.dense(struct_free), H)
        if not 0.0 < a < np.inf:
            raise ConfigError(f"stabilization alpha must be finite and "
                              f"positive, got {a} (degenerate interface?)")
        return [a] * len(self.couplings)

    def _dof_points(self):
        """Global (x, y, z) of each DOF's control point, at section offset
        0 of a beam or plate."""
        parts = []
        for m in self.models:
            x = m.to_global(m.mesh.nodes, np.zeros(m.mesh.nnodes))
            x = np.pad(x, ((0, 0), (0, 3 - x.shape[1])))
            parts.append(np.repeat(x, m.ncomp_node, axis=0))
        return np.concatenate(parts)

    # Solve ---------------------------------------------------------------

    def solve(self, alpha="auto") -> Solution:
        """K = bulk + the sum over couplings of Kn + Kn^T + alpha Kst;
        right-hand side ``(f - K a_c)[free]``; ``K a - f`` gives the
        residual (free DOFs) and the reactions (constrained ones)."""
        alphas = self.resolve_alpha(alpha)
        K, blocks = self._parts or (self._bulk(),
                                    self._coupling_blocks(False))
        self._parts = None
        C = _add_runs(sp.csr_matrix((self.ndof,) * 2),
                      _nitsche(blocks, alphas))
        del blocks  # freed before the factorization
        K = replace(K, coupling=[C] if C.nnz else [])
        free = np.isnan(self._fixed)
        f, a = self._f.copy(), np.where(free, 0.0, self._fixed)
        b = (f - K.dot(a))[free] if a.any() else f[free]
        solve, stats = _factor_spd(K, free, self._dof_points())
        a[free] = solve(b)
        del solve  # the factor, freed before the product
        r = K.dot(a) - f
        residual = (float(np.linalg.norm(r[free]))
                    / max(float(np.linalg.norm(b)), 1e-300))
        r[free] = 0.0
        return Solution(a=a, alphas=alphas, pieces=K, f=f, free=free,
                        residual=residual, reactions=r, stats=stats)


def _model_pieces(m) -> list:
    """One model's stiffness as pieces in its own DOF numbering: each of
    `Model.parts` box by box (`Mesh.element_boxes`) as upper node-block
    BSR from `stiffness_separable` of its `part_form`. With one DOF a node
    a block is an entry, and the pieces are summed into one CSR."""
    form = m.stiffness_form()
    ps = [K for el, rule in m.parts if el.size for K in stiffness_separable(
        m.mesh, part_form(form, rule), m.mesh.element_boxes(el))]
    return [_csr_sum(ps, m.ndof)] if m.ncomp_node == 1 and len(ps) > 1 else ps


def _csr_sum(parts, n) -> sp.csr_matrix:
    """The n x n sparse ``parts`` summed in order, as canonical CSR
    without exact zeros."""
    if not parts:
        return sp.csr_matrix((n, n))
    K = sum(parts[1:], parts[0].tocsr(copy=True))
    K.eliminate_zeros()
    return K


def _nitsche(blocks, alphas):
    """Each coupling's `_upper` ``(dofs, Kn + Kn^T + alpha Kst)``."""
    for (dofs, Kn, Kst, _), alpha in zip(blocks, alphas):
        Kst *= alpha
        Kst += Kn
        yield _upper(dofs, np.add(Kst, Kn.transpose(0, 2, 1), out=Kst))


def _upper(dofs, mats):
    """``(dofs, mats)``, each block's entries below the diagonal of its
    DOFs zeroed in place, which `mesh.add_blocks` does not store."""
    up = np.all(dofs[..., 1:] > dofs[..., :-1])  # ascending: one triangle
    np.copyto(mats, 0.0, where=np.tri(dofs.shape[-1], k=-1, dtype=bool)
              if up else dofs[..., None, :] < dofs[..., :, None])
    return dofs, mats


def _add_runs(K, blocks):
    """``K`` plus each ``(dofs, mats)`` of ``blocks``: one `mesh.add_blocks`
    call per run of ``_TRIPLET_BUDGET`` entries (under twice that)."""
    dofs, mats, size = [], [], 0
    for d, b in blocks:
        entries = max(1, b[:1].size)
        for dr, br in zip(mesh.element_batches(d, entries),
                          mesh.element_batches(b, entries)):
            dofs.append(dr)
            mats.append(br)
            size += br.size
            if size >= mesh._TRIPLET_BUDGET:
                K = mesh.add_blocks(K, dofs, mats)
                dofs, mats, size = [], [], 0
    return mesh.add_blocks(K, dofs, mats)


def _block_diag(parts) -> sp.csr_matrix:
    """Square CSR matrices along the diagonal of one, canonical where
    each part is, its indices int32 where the sizes allow (no conversion)."""
    if len(parts) < 2:
        return parts[0] if parts else sp.csr_matrix((0, 0))
    n = np.cumsum([0] + [p.shape[0] for p in parts])
    nnz = np.cumsum([0] + [p.nnz for p in parts])
    itype = np.int32 if max(n[-1], nnz[-1]) < 2**31 else np.int64
    n, nnz = n.astype(itype), nnz.astype(itype)
    return sp.csr_matrix(
        (np.concatenate([p.data for p in parts]),
         np.concatenate([np.add(p.indices, o, dtype=itype)
                         for p, o in zip(parts, n)]),
         np.concatenate([nnz[:1]] + [np.add(p.indptr[1:], z, dtype=itype)
                                     for p, z in zip(parts, nnz)])),
        shape=(n[-1], n[-1]))


_PIVOT_TOL = 1e-10  # pivot^2 <= this * K_jj: round-off of K_jj, singular


def _pieces(K) -> Pieces:
    """K as `Pieces`: a sparse matrix is one piece, the canonical CSR of
    its upper triangle (K if it is one), each DOF a node."""
    if isinstance(K, Pieces):
        return K
    K = sp.csr_matrix(K)
    rows = np.flatnonzero(np.diff(K.indptr))
    if not K.has_canonical_format or np.any(K.indices[K.indptr[rows]] < rows):
        K = sp.triu(K, format="csr")
        K.sum_duplicates()
    n = K.shape[0]
    return Pieces([[K]], np.array([0, n]), [], np.arange(n + 1))


def _factor_spd(K, free, points):
    """``(solve, stats)`` of ``K[free][:, free]``, K `Pieces` (or a sparse
    matrix by its upper triangle, `_pieces`, which first copies a matrix
    not upper and canonical) positive definite to round-off: in
    `_band_order`'s order of ``points`` (one per DOF), each piece's stored
    entries are added a row block at a time (`_fill`: O(n + ``_BLOCK``)
    memory beyond the pieces, the node graph and the band) into the lower
    band of banded Cholesky. ``solve(b)`` solves for each column of b.
    ``stats``: ndof, nnz (counted on the band), nodes (of the node graph),
    band, band_mb, ordering, each candidate's band; empty with no free
    DOF. A breakdown (alpha too small) is a DefinitenessError, a round-off
    pivot of either sign RankError."""
    n = int(np.count_nonzero(free))
    if n == 0:
        return lambda b: np.zeros(np.shape(b)), {}
    K = _pieces(K)
    name, pos, bands = _band_order(K, free, points)
    u = bands[name]
    ab = np.zeros((u + 1, n), order="F")  # ab[c - r, r] = K_rc, row-contiguous
    _fill(ab.T.reshape(-1), K, pos, u)
    # Bits, as the band holds no -0.0 (`_add`); both triangles.
    nnz = 2 * np.count_nonzero(ab.view(np.int64)) - np.count_nonzero(ab[0])
    stats = dict(ndof=n, nnz=nnz, nodes=K.starts.size - 1, band=u,
                 band_mb=ab.nbytes / 1e6, ordering=name,
                 **{f"{k}_band": v for k, v in bands.items()})
    diag = ab[0].copy()
    try:
        cb = sla.cholesky_banded(ab, overwrite_ab=True, lower=True)
        rank = np.any(cb[0] ** 2 <= _PIVOT_TOL * diag)
    except np.linalg.LinAlgError as exc:
        # The pivot it broke on is the band's first not above 0.
        j = np.argmax(ab[0] <= 0.0)
        if not 0.0 >= ab[0, j] >= -_PIVOT_TOL * diag[j]:
            raise DefinitenessError(
                "stiffness matrix is not positive definite; if this system "
                "is Nitsche-coupled the stabilization alpha is likely too "
                "small") from exc
        rank = True
    if rank:
        raise RankError("stiffness matrix is singular: a rigid mode is "
                        "free; constrain every model")
    q = pos[free]
    inv = np.argsort(q)  # b[inv] is b in the band order
    # The band was checked finite, and so is its factor and b[inv].
    return (lambda b: sla.cho_solve_banded(
        (cb, True), b[inv], overwrite_b=True, check_finite=False)[q]), stats


def _fill(flat, K: Pieces, pos, u):
    """Add each stored entry of K in the DOF places ``pos`` (-1 off the
    free block) at its (min, max) place into the lower band ``flat`` of
    width ``u`` (``ab`` transposed, raveled), a row block of each piece at
    a time (`_row_blocks`): blocks of wholly free nodes off the diagonal
    whole (transposed if the band order flips them), diagonal ones their
    upper triangle (the first piece's stored, as the band is empty before
    it), those of partly free nodes entry by entry. An entry outside the
    band (a pair the node graph lacks) raises before it is added."""
    big, u64 = np.iinfo(pos.dtype).max, np.int64(u)
    for i, (o, p) in enumerate(K.parts()):
        R = _blocksize(p)
        at = pos[o:o + p.shape[0]].reshape(-1, R)  # each block row's places
        full, some = at[:, 0] >= 0, at[:, 0] >= 0
        for k in range(1, R):  # column by column: axis-1 reductions are slow
            full &= at[:, k] >= 0
            some |= at[:, k] >= 0
        # Block (r, c) lies above the band's diagonal iff lo[c] > hi[r],
        # below it iff lo[r] > hi[c], on it iff lo[r] == hi[c].
        lo, hi = (np.where(full, at[:, 0], x) for x in (-1, big))
        part = bool(np.any(some & ~full))
        off = np.arange(R) + u64 * np.arange(R)[:, None]  # [a, b]: b + u a
        tri = np.flatnonzero(np.triu(np.ones((R, R), bool)))
        vals = p.data.reshape(-1, R * R)
        for rows, ptr, ents in _row_blocks(p):
            bc, v, n = p.indices[ents], vals[ents], np.diff(ptr)
            lr, hr, lc, hc = (np.repeat(lo[rows], n), np.repeat(hi[rows], n),
                              lo[bc], hi[bc])
            for w, a, b, at_ab in ((np.flatnonzero(lc > hr), lr, lc, off),
                                   (np.flatnonzero(lr > hc), lc, lr, off.T)):
                a, b = a[w], b[w]  # the band's row and column node places
                _add(flat, u, (b + u64 * a)[:, None, None] + at_ab,
                     b - a + R - 1, np.take(v, w, axis=0).reshape(-1, R, R),
                     i == 0)
            d = np.flatnonzero(lr == hc)
            _add(flat, u, (lr[d] * (u64 + 1))[:, None] + off.ravel()[tri],
                 np.full(d.size, R - 1), np.take(v, d, axis=0)[:, tri],
                 i == 0)
            if part:
                br = np.repeat(np.arange(rows.start, rows.stop), n)
                e = np.flatnonzero(some[br] & some[bc] & ((lr < 0)
                                                          | (lc < 0)))
                pr, pc = at[br[e]][:, :, None], at[bc[e]][:, None, :]
                keep = (np.minimum(pr, pc) >= 0) & (
                    (br[e] != bc[e])[:, None, None] | (pc >= pr))
                lp, hp = np.minimum(pr, pc)[keep], np.maximum(pr, pc)[keep]
                _add(flat, u, hp + u64 * lp, hp - lp,
                     np.take(v, e, axis=0).reshape(-1, R, R)[keep], i == 0)


def _add(flat, u, idx, span, vals, store):
    """``flat[idx] += vals`` (``idx`` unique), or with ``store`` where flat
    is zero ``flat[idx] = vals + 0.0`` (no -0.0; ``vals`` is a copy),
    unless an entry's place ``span`` beyond its row's exceeds ``u``."""
    if span.max(initial=0) > u:
        raise MdfemError("stiffness entry outside the band: a node pair is "
                         "missing from the node graph")
    if store:
        flat[idx] = np.add(vals, 0.0, out=vals)
    else:
        flat[idx] += vals


def _band_order(K, free, points):
    """``(name, pos, bands)``: the order of the ``free`` DOFs with the
    smaller upper band, each DOF's place in it (-1 if not free) and each
    candidate's band. Both order the nodes of K's node graph
    (`_node_graph`) that have a free DOF and give each node's free DOFs
    consecutive places: RCM on the graph, or a stable sort of the nodes'
    points (each its first DOF's of ``points``) along their longest axis;
    RCM wins ties. A band is max(first_j + nfree_j - 1 - first_i) over the
    graph's node pairs and their mirrors, both measured in one pass over
    the upper graph, a row block at a time (`_row_blocks`)."""
    K = _pieces(K)
    G, starts = _node_graph(K), K.starts
    nfree = np.diff(np.r_[0, np.cumsum(free, dtype=G.indices.dtype)][starts])
    live = nfree > 0
    idx = np.flatnonzero(live)
    rcm = reverse_cuthill_mckee(G + G.T, symmetric_mode=True)
    p = points[starts[idx]]
    names = ("rcm", "geometric")
    first = np.full((2, nfree.size), -1, dtype=nfree.dtype)
    for f, perm in zip(first, (rcm[live[rcm]], idx[np.argsort(
            p[:, np.argmax(np.ptp(p, 0))], kind="stable")])):
        f[perm] = np.cumsum(nfree[perm]) - nfree[perm]
    last = first + nfree - 1  # -2 where a node has no free DOF
    low = np.where(live, first, nfree.sum())  # past every place if not
    top = np.zeros(2, dtype=nfree.dtype)  # furthest place - first, by row
    for rows, ptr, ents in _row_blocks(G):
        nz = np.flatnonzero(np.diff(ptr))
        r, j, at = rows.start + nz, G.indices[ents], ptr[nz]
        # Pair (r, j) spans first_r .. last_j or first_j .. last_r.
        out = np.maximum(np.maximum.reduceat(np.take(
            last, j, axis=1), at, axis=1) - first[:, r], last[:, r]
            - np.minimum.reduceat(np.take(low, j, axis=1), at, axis=1))
        top = np.maximum(top, out[:, live[r]].max(1, initial=0))
    bands = dict(zip(names, top.tolist()))
    name = min(bands, key=bands.get)
    node = np.repeat(np.arange(nfree.size, dtype=nfree.dtype), nfree)
    pos = np.full(free.size, -1, dtype=nfree.dtype)
    pos[free] = (first[names.index(name)] - (np.cumsum(nfree) - nfree))[node]
    pos[free] += np.arange(node.size, dtype=nfree.dtype)
    return name, pos, bands


def _node_graph(K: Pieces) -> sp.csr_matrix:
    """The node pairs of K's pieces, canonical CSR: a piece whose block
    rows are nodes lends its block pattern at its first node (the indices
    uncopied if it starts at node 0), any other maps each stored entry to
    its nodes. The pieces being upper triangles, so is the graph."""
    starts = K.starts
    N, size = starts.size - 1, np.diff(starts)
    itype = np.int32 if starts[-1] < 2**31 else np.int64
    lent, keys = {}, []
    for o, p in K.parts():
        R, n0 = _blocksize(p), int(np.searchsorted(starts, o))
        nb, sz = p.indptr.size - 1, size[n0:n0 + p.indptr.size - 1]
        if starts[n0] == o and sz.size == nb and np.all(sz == R):
            lent.setdefault(n0, []).append(p)
        else:  # entry (a, b) of block (i, j) is DOF pair (R i + a, R j + b)
            node = np.repeat(np.arange(N, dtype=np.int64), size)[o:]
            k = np.arange(R)
            i = R * np.repeat(np.arange(nb), np.diff(p.indptr))
            key = (node[i[:, None, None] + k[:, None]] * N
                   + node[(R * p.indices)[:, None, None] + k]).ravel()
            # A sorted CSR row's entries in one node are neighbours.
            keys.append(key[np.r_[True, key[1:] != key[:-1]]])
    lens, idx = np.zeros(N, itype), []
    for n0, ps in sorted(lent.items()):
        g = sum(sp.csr_matrix((np.ones(q.indices.size, bool), q.indices,
                               q.indptr), shape=(q.indptr.size - 1,) * 2)
                for q in ps) if ps[1:] else ps[0]
        lens[n0:n0 + g.indptr.size - 1] = np.diff(g.indptr)
        idx.append(g.indices if n0 == 0 else np.add(g.indices, n0,
                                                       dtype=itype))
    idx = np.concatenate(idx) if idx[1:] else idx[0] if idx else lens[:0]
    G = sp.csr_matrix((np.ones(idx.size, bool), idx, np.concatenate(
        ([0], np.cumsum(lens, dtype=itype)))), shape=(N, N))
    if keys:  # the other pieces' node pairs, sorted and unique
        key = np.sort(np.concatenate(keys))  # np.unique is far slower
        r, c = np.divmod(key[np.r_[True, key[1:] != key[:-1]]], N)
        G = G + sp.csr_matrix((np.ones(r.size, bool), c.astype(itype),
                               np.searchsorted(r, np.arange(N + 1))),
                              shape=(N, N))
    return G


def _blocksize(p):
    """The rows of one block of a sparse piece: BSR's, 1 for CSR."""
    return p.blocksize[0] if p.format == "bsr" else 1


def _row_blocks(p):
    """``(rows, ptr, entries)`` of each row block of piece ``p`` (block
    rows and stored blocks of BSR), started at the row of every
    ``_BLOCK // R**2``-th stored R x R block (< ``_BLOCK`` entries + a
    row; all rows in one if that is all); ``ptr`` from 0."""
    ptr = p.indptr
    step = max(1, _BLOCK // _blocksize(p) ** 2)
    if ptr[-1] <= step:
        yield slice(0, ptr.size - 1), ptr - ptr[0], slice(ptr[0], ptr[-1])
        return
    cuts = np.searchsorted(ptr, np.arange(0, ptr[-1], step), "right") - 1
    rows = np.unique(np.r_[0, cuts, ptr.size - 1])
    for r0, r1 in zip(rows[:-1], rows[1:]):
        yield slice(r0, r1), ptr[r0:r1 + 1] - ptr[r0], slice(ptr[r0], ptr[r1])
