"""Global system: DOF layout over several models, sparse assembly of the
bulk + Nitsche terms, Dirichlet elimination, direct solve and reactions.

DOF layout is block-wise per model in construction order, node-major and
component-minor inside each block. Each model's matrix comes from its
stiffness form over its `parts` (`_model_matrix`); each coupling's
segment blocks, Kn + Kn^T + alpha Kst folded per segment (`_nitsche`),
and H for the alpha estimate are summed in one sparse pass (`_add_runs`,
also the flush rule of the models' cut rows). The solve stores the
assembled matrix's upper triangle, with no symmetrize pass, as the lower
band of banded Cholesky, in the smaller-band order of reverse Cuthill-
McKee and a sort along the longest axis of the DOFs' global control
points (`Model.to_global`). While it factors, K is the one global matrix
alive, and beyond K and the band it holds O(`_BLOCK`) entries and O(n)
vectors. `_factor_spd` also gives the stabilization estimate its solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import mesh
from .coupling import estimate_alpha
from .elasticity import stiffness_separable
from .errors import ConfigError, DefinitenessError, RankError


@dataclass
class Solution:
    """Solve outcome: solution vector plus bookkeeping for diagnostics."""

    a: np.ndarray
    alphas: list
    K: sp.csr_matrix           # assembled matrix before constraint elimination
    f: np.ndarray
    free: np.ndarray           # boolean mask of unconstrained DOFs
    residual: float
    reactions: np.ndarray
    stats: dict                # solve sizes, `_factor_spd`


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
        """K~: each model's `_model_matrix` on the diagonal, no coupling."""
        return _block_diag([_model_matrix(m) for m in self.models])

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
                self._parts = (self.bulk_matrix(),
                               list(self._coupling_blocks(True)))
            Kbulk, blocks = self._parts
            free = np.isnan(self._fixed)
            solid = free & np.repeat([m.mesh.model in ("solid2d", "solid3d")
                                      for m in self.models],
                                     np.diff(self.offsets))
            try:
                solve_solid, _ = _factor_spd(Kbulk, solid, self._dof_points())
            except (DefinitenessError, RankError) as exc:
                raise RankError("solid stiffness is singular: clamp each "
                                "solid, or give alpha as a number") from exc
            struct_free = np.flatnonzero(free & ~solid)
            order = np.concatenate([np.flatnonzero(solid), struct_free])
            H = _add_runs(sp.csr_matrix(Kbulk.shape), (
                (d, h) for d, _, _, h in blocks))[order][:, order]
            a = estimate_alpha(
                solve_solid, Kbulk[struct_free][:, struct_free].toarray(), H)
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
        K, blocks = self._parts or (self.bulk_matrix(),
                                    self._coupling_blocks(False))
        self._parts = None
        C = _add_runs(sp.csr_matrix(K.shape), _nitsche(blocks, alphas))
        del blocks  # freed before the one sum with the bulk matrix
        K = K + C if C.nnz else K  # the one global matrix left to factor
        free = np.isnan(self._fixed)
        f, a = self._f.copy(), np.where(free, 0.0, self._fixed)
        b = (f - K @ a)[free]
        solve, stats = _factor_spd(K, free, self._dof_points())
        a[free] = solve(b)
        r = K @ a - f
        residual = (float(np.linalg.norm(r[free]))
                    / max(float(np.linalg.norm(b)), 1e-300))
        r[free] = 0.0
        return Solution(a=a, alphas=alphas, K=K, f=f, free=free,
                        residual=residual, reactions=r, stats=stats)


def _model_matrix(m) -> sp.csr_matrix:
    """One model's stiffness matrix in its own DOF numbering. The
    standard-rule part (the first of `Model.parts`) goes box by box
    (`Mesh.element_boxes`) on `stiffness_separable`, so only explicit-rule
    (cut) rows take element matrices, over `Model.batches` (`_add_runs`)."""
    K = stiffness_separable(m.mesh, m.stiffness_form(),
                            m.mesh.element_boxes(m.parts[0][0]))
    return _add_runs(K, ((m.element_dofs(elems), m.element_stiffness(
        elems, rule)) for elems, rule in m.batches(m.mesh.nen * m.ncomp_node)))


def _nitsche(blocks, alphas):
    """Each coupling's ``(dofs, Kn + Kn^T + alpha Kst)``, in Kst's place."""
    for (dofs, Kn, Kst, _), alpha in zip(blocks, alphas):
        Kst *= alpha
        Kst += Kn
        yield dofs, np.add(Kst, Kn.transpose(0, 2, 1), out=Kst)


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
_BLOCK = 2**16  # stored entries per row block of K's passes


def _factor_spd(K: sp.csr_matrix, free, points):
    """``(solve, stats)`` of ``K[free][:, free]``, K (or its canonical copy)
    symmetric positive definite to round-off: in `_band_order`'s order of
    ``points`` (one per DOF), its upper triangle is read a row block at a
    time (`_row_blocks`: O(n + ``_BLOCK``) memory beyond K and the band)
    into the lower band of banded Cholesky; ``solve(b)`` solves for each
    column of b. ``stats``: ndof, nnz, band, band_mb, ordering, each
    candidate's band; empty with no free DOF. A breakdown (alpha too small)
    is a DefinitenessError, a round-off pivot (a free rigid mode) RankError."""
    n = int(np.count_nonzero(free))
    if n == 0:
        return lambda b: np.zeros(np.shape(b)), {}
    K = K if K.has_canonical_format else K.copy()
    K.sum_duplicates()  # in place on the copy, a no-op on canonical K
    name, pos, bands = _band_order(K, free, points)
    u, nnz = bands[name], 0
    ab = np.zeros((u + 1, n), order="F")  # ab[c - r, r] = K_rc, row-contiguous
    for rows, ptr, ents in _row_blocks(K):
        pr = np.repeat(pos[rows], np.diff(ptr))  # -1 off the free block
        pc = np.take(pos, K.indices[ents])
        nnz += int(np.count_nonzero((pr >= 0) & (pc >= 0)))
        up = np.flatnonzero((pr >= 0) & (pc >= pr))  # so pc >= 0 too
        ab.T.ravel()[pc[up] + np.int64(u) * pr[up]] = K.data[ents][up]
    stats = dict(ndof=n, nnz=nnz, band=u, band_mb=ab.nbytes / 1e6,
                 ordering=name, **{f"{k}_band": v for k, v in bands.items()})
    diag = ab[0].copy()
    try:
        cb = sla.cholesky_banded(ab, overwrite_ab=True, lower=True)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(
            "stiffness matrix is not positive definite; if this system is "
            "Nitsche-coupled the stabilization alpha is likely too small"
        ) from exc
    if np.any(cb[0] ** 2 <= _PIVOT_TOL * diag):
        raise RankError("stiffness matrix is singular: a rigid mode is "
                        "free; constrain every model")
    q = pos[free]
    inv = np.argsort(q)  # b[inv] is b in the band order
    return (lambda b: sla.cho_solve_banded((cb, True), b[inv],
                                           overwrite_b=True)[q]), stats


def _band_order(K: sp.csr_matrix, free, points):
    """``(name, pos, bands)``: the order of the ``free`` DOFs with the
    smaller upper band, each DOF's place in it (-1 if not free) and each
    candidate's band, measured a row block at a time (`_row_blocks`): RCM
    on K, the other DOFs dropped, or a stable sort of ``points`` (one per
    DOF) along the free ones' longest axis; RCM wins ties."""
    idx = np.flatnonzero(free)
    rcm = reverse_cuthill_mckee(K, symmetric_mode=True)
    p = points[idx]
    orders = {"rcm": rcm[free[rcm]],
              "geometric": idx[np.argsort(p[:, np.argmax(np.ptp(p, 0))],
                                          kind="stable")]}
    places, bands = {}, {}
    for name, perm in orders.items():
        pos = places[name] = np.full(K.shape[0], -1, dtype=K.indices.dtype)
        pos[perm] = np.arange(perm.size)
        top = []  # each nonempty free row's furthest column place - its own
        for rows, ptr, ents in _row_blocks(K):
            nz = np.flatnonzero(np.diff(ptr))
            last = np.maximum.reduceat(np.take(pos, K.indices[ents]), ptr[nz])
            top.append((last - pos[rows][nz])[free[rows][nz]])
        bands[name] = int(np.concatenate(top).max(initial=0))
    name = min(bands, key=bands.get)
    return name, places[name], bands


def _row_blocks(K: sp.csr_matrix):
    """``(rows, ptr, entries)`` of each row block, started at the row of every
    ``_BLOCK``-th entry (< ``_BLOCK`` entries + a row); ``ptr`` from 0."""
    ptr = K.indptr
    cuts = np.searchsorted(ptr, np.arange(0, ptr[-1], _BLOCK), "right") - 1
    rows = np.unique(np.r_[0, cuts, K.shape[0]])
    for r0, r1 in zip(rows[:-1], rows[1:]):
        yield slice(r0, r1), ptr[r0:r1 + 1] - ptr[r0], slice(ptr[r0], ptr[r1])
