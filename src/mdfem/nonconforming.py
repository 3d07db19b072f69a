"""Overlapping-domain machinery for embedded solid regions.

When a solid mesh overlaps part of a structural model, the covered part of
the structure must not contribute stiffness. Elements are labelled by
exact interval arithmetic: those inside the region are dropped (VOID),
those it overlaps in part (CUT) are integrated with a Gauss rule whose
covered points weigh zero, and a CUT element no point of that rule
survives on is dropped too. Basis functions with (almost) no support left
are pinned to zero. `NonconformingModel` states that as its `parts`, the
element lists each stiffness and load of the wrapped model integrates, so
assembly, loads and coupling treat it as any model. The region is a box,
so the cut rule factors per direction, and CUT elements too are
integrated from 1D tables: the full rule minus its covered points.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, OverDeactivationError
from .quadrature import tensor_rules

STANDARD, CUT, VOID = 0, 1, 2


class OverlapRegion:
    """Axis-aligned box occupied by the solid, in structural local coordinates.

    `bounds` holds one (lo, hi) pair per structural direction (mid-line
    coordinate for beams, mid-surface coordinates for plates); infinite
    extents are allowed. Points strictly inside the box count as covered,
    the boundary itself does not.
    """

    def __init__(self, bounds):
        try:
            arr = np.atleast_2d(np.asarray(bounds, dtype=float))
        except (TypeError, ValueError):
            arr = None
        if (arr is None or arr.ndim != 2 or arr.shape[1] != 2
                or np.isnan(arr).any()):
            raise ConfigError(f"region bounds must be (lo, hi) pairs of "
                              f"numbers, got {bounds!r}")
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in arr)
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ConfigError(f"empty region interval ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.bounds)


def classify(mesh, region: OverlapRegion) -> np.ndarray:
    """Label every element STANDARD, CUT, or VOID against the region.

    By exact interval arithmetic per direction: element interval [a, b]
    is covered when the closed region holds it (lo <= a, b <= hi) and
    overlapped when the two share positive length (min(b, hi) > max(a,
    lo)). A box holds (overlaps) an element iff it does so in each
    direction, so the labels follow by outer product: VOID if covered,
    CUT if overlapped, STANDARD otherwise.
    """
    if region.dim != mesh.dim:
        raise ConfigError(
            f"region has {region.dim} directions, mesh has {mesh.dim}")
    every = np.ones(1, dtype=bool)
    some = np.ones(1, dtype=bool)
    for d, (lo, hi) in zip(mesh.dirs, region.bounds):
        a, b = d.intervals().T
        # New direction slowest, as in the element numbering.
        every = np.logical_and.outer((lo <= a) & (b <= hi), every).ravel()
        some = np.logical_and.outer(
            np.minimum(b, hi) > np.maximum(a, lo), some).ravel()
    return np.where(every, VOID, np.where(some, CUT, STANDARD))


def integrate_cut(mesh, elems, region: OverlapRegion, ncut: int):
    """Fixed-shape cut rules of an element array, in local coordinates.

    Returns ``(local, wts)`` of shapes ``(E, ncut**dim, dim)`` and
    ``(E, ncut**dim)``: each element's ncut-point tensor Gauss rule, with
    weight 0 on every point the region covers. Weights stay
    pre-jacobian (`mesh.quadrature_data`); an all-zero row is an element
    whose surviving sliver no point resolves. As in `classify`, covering
    flags per direction combine by outer product. Assembly integrates
    the same rule from 1D tables (`elasticity.part_form`).
    ``ncut`` is an integer >= 1 (a bool is not), else a ConfigError.
    """
    if (isinstance(ncut, bool) or not isinstance(ncut, Integral)
            or ncut < 1):
        raise ConfigError(f"ncut must be an integer >= 1, got {ncut!r}")
    local, wts, rules = tensor_rules(
        [d.intervals() for d in mesh.dirs],
        mesh.element_grid_index(np.asarray(elems, dtype=int)),
        (int(ncut),) * mesh.dim)
    covered = True
    for (lo, hi), (x, at) in zip(region.bounds, rules):
        covered = covered & ((lo < x) & (x < hi))[at]
    return local, np.where(covered, 0.0, wts)


def _deactivate(mesh, labels, wts, threshold):
    """Pinned nodes of a cut, sorted: those whose support fraction
    surviving the cut rule weights ``wts`` (one `integrate_cut` row per
    CUT element, in element order) is below ``threshold``."""
    full = np.ones(1)
    for d in mesh.dirs:
        a, b = d.intervals().T
        full = np.multiply.outer(b - a, full).ravel()
    outside = np.where(labels == STANDARD, full, 0.0)
    cut = np.nonzero(labels == CUT)[0]
    outside[cut] = wts.sum(axis=1)
    ien = mesh.ien()
    support = np.zeros(mesh.nnodes)
    alive = np.zeros(mesh.nnodes)
    np.add.at(support, ien, full[:, None])
    np.add.at(alive, ien, outside[:, None])
    pinned = alive < threshold * support
    dead = cut[pinned[ien[cut]].all(axis=1)]
    if dead.size:
        raise OverDeactivationError(
            f"every basis function of cut element {dead[0]} was deactivated; "
            "the region almost certainly covers more than intended")
    return np.nonzero(pinned)[0]


class NonconformingModel:
    """Structural model with the part covered by a solid region removed.

    Its `parts` are the STANDARD elements on the standard rule, then the
    CUT elements on the `integrate_cut` rule, ``(ncut, region.bounds)``;
    VOID elements are in none. A CUT element whose `integrate_cut` row is
    all zero (a sliver below the rule resolution) is relabelled VOID once
    the pinned nodes are known. Basis functions with (almost) no support
    left are listed in `inactive_dofs`, which the assembler pins. The
    inner model's methods and properties run with the wrapper as
    ``self``, so its stiffness and loads integrate the wrapper's `parts`,
    each from 1D tables over at most ``dim`` grid boxes
    (`Mesh.element_boxes`).
    """

    def __init__(self, model, region: OverlapRegion, *,
                 threshold: float = 0.01, ncut: int = 10):
        if (isinstance(threshold, bool) or not isinstance(threshold, Real)
                or not 0.0 < threshold <= 1.0):
            raise ConfigError(
                f"threshold must be in (0, 1], got {threshold!r}")
        self._model = model
        mesh = model.mesh
        self.region = region
        self.threshold = float(threshold)
        self.labels = classify(mesh, region)
        cut = np.nonzero(self.labels == CUT)[0]
        _, wts = integrate_cut(mesh, cut, region, ncut)
        self.ncut = int(ncut)
        self.inactive_nodes = _deactivate(mesh, self.labels, wts,
                                          self.threshold)
        nc = model.ncomp_node
        self.inactive_dofs = (self.inactive_nodes[:, None] * nc
                              + np.arange(nc)).ravel()
        keep = wts.any(axis=1)
        self.labels[cut[~keep]] = VOID
        self.parts = [(np.nonzero(self.labels == STANDARD)[0], None),
                      (cut[keep], (self.ncut, region.bounds))]

    def __getattr__(self, name):
        # Private names are refused: a helper that the inner class's
        # methods call on ``self`` must be public or a module function.
        if name.startswith("_"):
            raise AttributeError(name)
        attr = getattr(type(self._model), name, None)
        if hasattr(attr, "__get__") and name not in vars(self._model):
            return attr.__get__(self)
        return getattr(self._model, name)

    def pressure_load(self, p: float) -> np.ndarray:
        """The inner model's pressure load over the live parts."""
        inner = type(self._model)
        if not hasattr(inner, "pressure_load"):
            raise ConfigError(f"a {inner.__name__} takes no pressure load")
        return inner.pressure_load(self, p)
