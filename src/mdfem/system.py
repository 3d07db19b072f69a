"""Global system: DOF layout over several models, sparse assembly of the
bulk + Nitsche terms, Dirichlet elimination, direct solve and reactions.

DOF layout is block-wise per model in construction order, node-major and
component-minor inside each block. Every model gives its stiffness form
(`stiffness_form`); on the net `build_mesh` makes, the whole model matrix
comes from 1D matrices (`elasticity.stiffness_separable`), else batches
of element matrices (`elasticity.stiffness_quadrature`) are summed by a
sparse product (`mesh.sum_blocks`), as each coupling sums its segment
blocks. The solve is dense Cholesky up to ``_DENSE_CUTOFF`` unknowns,
reverse Cuthill-McKee reordering plus banded Cholesky above.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import mesh
from .coupling import estimate_alpha
from .elasticity import stiffness_separable
from .errors import ConfigError, DefinitenessError

_DENSE_CUTOFF = 400


@dataclass
class Solution:
    """Solve outcome: solution vector plus bookkeeping for diagnostics."""

    a: np.ndarray
    alphas: list
    K: sp.csr_matrix           # assembled matrix before constraint elimination
    f: np.ndarray
    free: np.ndarray           # boolean mask of unconstrained DOFs
    residual: float
    reactions: np.ndarray = field(default=None)


class System:
    """Coupled models sharing one global DOF space."""

    def __init__(self, models, couplings=()):
        models = list(models)
        for i, m in enumerate(models):
            if any(m is other for other in models[:i]):
                raise ConfigError("each model may appear only once")
        self.models = models
        self.couplings = list(couplings)
        self.offsets = np.concatenate(
            [[0], np.cumsum([m.ndof for m in models])]
        ).astype(int)
        # Prescribed value of each DOF; NaN where the DOF is free.
        self._fixed = np.full(self.ndof, np.nan)
        self._f = np.zeros(self.ndof)
        self._parts = None

    @property
    def ndof(self):
        return int(self.offsets[-1])

    def model_index(self, model):
        for i, m in enumerate(self.models):
            if m is model:
                return i
        raise ConfigError("model is not part of this system")

    def global_dofs(self, idx, local_dofs):
        local = np.asarray(local_dofs, dtype=int)
        n = self.models[idx].ndof
        bad = local[(local < 0) | (local >= n)]
        if bad.size:
            raise ConfigError(f"model {idx}: local DOF {bad[0]} outside "
                              f"[0, {n})")
        return self.offsets[idx] + local

    def model_part(self, a, idx):
        return a[self.offsets[idx]:self.offsets[idx + 1]]

    def add_coupling(self, op):
        self.couplings.append(op)
        self._parts = None

    def fix(self, idx, local_dofs, values=0.0):
        """Constrain model DOFs to prescribed values. A DOF keeps the value
        it was first given, by an earlier call or earlier in this one;
        another value for it is a conflict."""
        dofs = self.global_dofs(idx, local_dofs).ravel()
        values = np.broadcast_to(np.asarray(values, dtype=float),
                                 dofs.shape).ravel()
        if not np.all(np.isfinite(values)):
            raise ConfigError("Dirichlet values must be finite")
        ref = self._fixed[dofs]
        _, first, inv = np.unique(dofs, return_index=True, return_inverse=True)
        unset = np.isnan(ref)
        ref[unset] = values[first[inv]][unset]
        bad = np.flatnonzero(ref != values)
        if bad.size:
            raise ConfigError(f"conflicting constraint on DOF {dofs[bad[0]]}")
        self._fixed[dofs] = values

    def load(self, idx, f_local):
        f_local = np.asarray(f_local, dtype=float)
        self._f[self.offsets[idx]:self.offsets[idx + 1]] += f_local

    # Assembly ----------------------------------------------------------

    def bulk_matrix(self) -> sp.csr_matrix:
        """K~ = sum of each model's own stiffness, no coupling terms: one
        canonical CSR matrix per model, placed on the diagonal once.

        A model without its own ``stiffness_batches`` (non-conforming
        models list theirs) is tried on `stiffness_separable` first; else
        its ``(elements, Ke)`` batches are summed by `mesh.add_blocks`
        every ``_TRIPLET_BUDGET`` entries."""
        return _block_diag([_model_matrix(m) for m in self.models])

    def _coupling_matrices(self, with_h=True):
        """Each coupling's (K^n, K^st, H or None) in global numbering."""
        return [op.matrices((self.offsets[self.model_index(op.solid)],
                             self.offsets[self.model_index(op.struct)]),
                            self.ndof, with_h) for op in self.couplings]

    def _collect_inactive(self):
        for idx, m in enumerate(self.models):
            dofs = getattr(m, "inactive_dofs", ())
            if len(dofs):
                self.fix(idx, np.asarray(dofs, dtype=int), 0.0)

    def _assembled(self, with_h=False):
        """``(Kbulk, coupling matrices)``, built once until `solve` uses
        them, H only ``with_h``; pins inactive non-conforming DOFs first."""
        if self._parts is None:
            self._collect_inactive()
            self._parts = (self.bulk_matrix(),
                           self._coupling_matrices(with_h))
        return self._parts

    def _free(self):
        """Constrained DOFs, their values and the mask of free DOFs."""
        free = np.isnan(self._fixed)
        cons = np.flatnonzero(~free)
        return cons, self._fixed[cons], free

    def resolve_alpha(self, alpha="auto", seed=0):
        """One stabilization alpha per coupling, as `solve` uses them.

        ``alpha`` is a number, one number per coupling, or ``"auto"``:
        the spectral estimate `coupling.estimate_alpha` on the free DOFs,
        computed from the assembled bulk and coupling matrices without
        solving the system.
        """
        if np.isscalar(alpha) and not isinstance(alpha, str):
            return [float(alpha)] * len(self.couplings)
        if isinstance(alpha, (list, tuple)):
            if len(alpha) != len(self.couplings):
                raise ConfigError("need one alpha per coupling")
            return [float(a) for a in alpha]
        if alpha != "auto":
            raise ConfigError(f"alpha must be 'auto' or numeric, got {alpha!r}")
        if not self.couplings:
            return []

        Kbulk, coupling_mats = self._assembled(with_h=True)
        free = self._free()[2]
        solid = np.repeat([m.mesh.model in ("solid2d", "solid3d")
                           for m in self.models], np.diff(self.offsets))
        solid_free = np.flatnonzero(free & solid)
        struct_free = np.flatnonzero(free & ~solid)
        order = np.concatenate([solid_free, struct_free])
        H = sum(h for _, _, h in coupling_mats)[order][:, order]
        a = estimate_alpha(Kbulk[solid_free][:, solid_free],
                           Kbulk[struct_free][:, struct_free].toarray(), H,
                           seed=seed)
        return [a] * len(self.couplings)

    # Solve ---------------------------------------------------------------

    def solve(self, alpha="auto", seed=0) -> Solution:
        alphas = self.resolve_alpha(alpha, seed)
        Kbulk, coupling_mats = self._assembled()
        self._parts = None
        cons, vals, free = self._free()
        if self.couplings and min(alphas, default=1.0) <= 0:
            raise ConfigError(
                "stabilization alpha must be positive (degenerate interface?)"
            )

        K = Kbulk
        for (Kn, Kst, _), a_c in zip(coupling_mats, alphas):
            K = K + Kn + Kn.T + a_c * Kst
        K = ((K + K.T) * 0.5).tocsr()

        f = self._f.copy()
        a = np.zeros(self.ndof)
        a[cons] = vals
        b = f[free] - K[free][:, cons] @ vals
        Kff = K[free][:, free].tocsr()
        x = _solve_spd(Kff, b)
        a[free] = x

        resid_ref = max(float(np.linalg.norm(b)), 1e-300)
        residual = float(np.linalg.norm(Kff @ x - b)) / resid_ref
        sol = Solution(a=a, alphas=alphas, K=K, f=f, free=free,
                       residual=residual)
        r = K @ a - f
        r[free] = 0.0
        sol.reactions = r
        return sol


def _model_matrix(m) -> sp.csr_matrix:
    """One model's stiffness matrix in its own DOF numbering."""
    own = getattr(m, "stiffness_batches", None)
    K = None if own else stiffness_separable(m.mesh, m.stiffness_form())
    if K is not None:
        return K
    K = sp.csr_matrix((m.ndof, m.ndof))
    dofs, mats, budget = [], [], 0
    for elems, Ke in (own() if own else mesh.stiffness_batches(
            m, np.arange(m.mesh.nelem))):
        dofs.append(m.element_dofs(elems))
        mats.append(Ke)
        budget += Ke.size
        if budget >= mesh._TRIPLET_BUDGET:
            K = mesh.add_blocks(K, dofs, mats)
            dofs, mats, budget = [], [], 0
    return mesh.add_blocks(K, dofs, mats)


def _block_diag(parts) -> sp.csr_matrix:
    """Square CSR matrices along the diagonal of one, canonical where
    each part is."""
    if len(parts) < 2:
        return parts[0] if parts else sp.csr_matrix((0, 0))
    n = np.cumsum([0] + [p.shape[0] for p in parts])
    nnz = np.cumsum([0] + [p.nnz for p in parts])
    return sp.csr_matrix(
        (np.concatenate([p.data for p in parts]),
         np.concatenate([p.indices + o for p, o in zip(parts, n)]),
         np.concatenate([[0]] + [p.indptr[1:] + z
                                 for p, z in zip(parts, nnz)])),
        shape=(n[-1], n[-1]))


def _solve_spd(K: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Direct symmetric positive definite solve.

    Raises DefinitenessError when the factorization breaks down, which is
    the observable symptom of an under-stabilized interface.
    """
    n = K.shape[0]
    if n == 0:
        return np.zeros(0)
    try:
        if n <= _DENSE_CUTOFF:
            c = sla.cho_factor(K.toarray(), lower=False)
            return sla.cho_solve(c, b)
        perm = reverse_cuthill_mckee(K, symmetric_mode=True)
        Kp = K[perm][:, perm]
        upper = sp.triu(Kp).tocoo()
        u = int((upper.col - upper.row).max()) if upper.nnz else 0
        ab = np.zeros((u + 1, n))
        ab[u + upper.row - upper.col, upper.col] = upper.data
        cb = sla.cholesky_banded(ab, lower=False)
        xp = sla.cho_solve_banded((cb, False), b[perm])
        x = np.empty_like(xp)
        x[perm] = xp
        return x
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(
            "stiffness matrix is not positive definite; if this system is "
            "Nitsche-coupled the stabilization alpha is likely too small"
        ) from exc
