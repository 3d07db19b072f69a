"""Overlapping-domain machinery for embedded solid regions.

When a solid mesh overlaps part of a structural model, the covered part of
the structure must not contribute stiffness. Elements fully covered are
dropped, elements crossed by the region boundary are integrated with a
Gauss rule whose covered points weigh zero, and basis functions with
(almost) no support left are pinned to zero. `NonconformingModel`
packages all of that behind the same interface the plain models expose,
so assembly and coupling code does not care which kind it is given.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigError,
    DegenerateCutError,
    OverDeactivationError,
)
from .mesh import element_batches, stiffness_batches
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
        arr = np.atleast_2d(np.asarray(bounds, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigError("region bounds must be (lo, hi) pairs")
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in arr)
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ConfigError(f"empty region interval ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.bounds)


def classify(mesh, region: OverlapRegion) -> np.ndarray:
    """Label every element STANDARD, CUT, or VOID against the region.

    Each element is sampled at its corners plus a (p+2)-per-direction
    interior grid: VOID if every sample is covered, CUT if some is. A box
    covers a point iff it covers each coordinate, so the labels follow
    from covering flags per direction and element interval, combined by
    outer product.
    """
    if region.dim != mesh.dim:
        raise ConfigError(
            f"region has {region.dim} directions, mesh has {mesh.dim}")
    every = np.ones(1, dtype=bool)
    some = np.ones(1, dtype=bool)
    for d, (lo, hi) in zip(mesh.dirs, region.bounds):
        a, b = d.param_to_local(d.intervals()).T
        x = np.linspace(a, b, d.degree + 4, axis=-1)
        covered = (lo < x) & (x < hi)
        # New direction slowest, as in the element numbering.
        every = np.logical_and.outer(covered.all(axis=1), every).ravel()
        some = np.logical_and.outer(covered.any(axis=1), some).ravel()
    return np.where(every, VOID, np.where(some, CUT, STANDARD))


def integrate_cut(mesh, elems, region: OverlapRegion, ncut: int = 10):
    """Fixed-shape cut rules of an element array, in parameter coordinates.

    Returns ``(param, wts)`` of shapes ``(E, ncut**dim, dim)`` and
    ``(E, ncut**dim)``: each element's ncut-point tensor Gauss rule, with
    weight 0 on every point the region covers. Weights stay
    pre-jacobian, so a row plugs directly into any
    ``element_stiffness(e, quadrature=...)`` kernel; an all-zero row is
    an element whose surviving sliver no point resolves. As in
    `classify`, covering flags per direction combine by outer product.
    """
    param, wts, rules = tensor_rules(
        [d.intervals() for d in mesh.dirs],
        mesh.element_grid_index(np.asarray(elems, dtype=int)),
        (int(ncut),) * mesh.dim)
    covered = True
    for d, (lo, hi), (x, at) in zip(mesh.dirs, region.bounds, rules):
        loc = d.param_to_local(x)
        covered = covered & ((lo < loc) & (loc < hi))[at]
    return param, np.where(covered, 0.0, wts)


def _deactivate(mesh, labels, wts, threshold):
    """Pinned nodes and starved elements of a cut, ``(inactive, starved)``.

    A node is pinned (``inactive``, sorted) when its support fraction
    surviving the cut rule weights ``wts`` (one `integrate_cut` row per
    CUT element, in element order) is below ``threshold``. A cut element
    whose row is all zero is starved: its sliver is below the rule
    resolution, and it behaves as void, which is safe only when every
    active node on it keeps support on some other live element.
    """
    full = np.ones(1)
    for d in mesh.dirs:
        a, b = d.param_to_local(d.intervals()).T
        full = np.multiply.outer(b - a, full).ravel()
    outside = np.where(labels == STANDARD, full, 0.0)
    cut = np.nonzero(labels == CUT)[0]
    a, b = mesh._bounds(cut)
    outside[cut] = wts.sum(axis=1) * (full[cut] / np.prod(b - a, axis=1))
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
    starved = cut[~wts.any(axis=1)]
    live = labels != VOID
    live[starved] = False
    held = pinned.copy()
    held[ien[live]] = True
    orphans = starved[~held[ien[starved]].all(axis=1)]
    if orphans.size:
        raise DegenerateCutError(
            f"cut element {orphans[0]} has no surviving quadrature points "
            "but still carries active basis functions supported nowhere "
            "else; increase the cut rule or the deactivation threshold")
    return np.nonzero(pinned)[0], starved


class NonconformingModel:
    """Structural model with the part covered by a solid region removed.

    Wraps a beam or plate model: void elements contribute nothing, cut
    elements integrate over the surviving part only, and basis functions
    with (almost) no support left are reported through `inactive_dofs` so
    the assembler pins them. Everything else delegates to the inner model.
    """

    def __init__(self, model, region: OverlapRegion, *,
                 threshold: float = 0.01, ncut: int = 10):
        self._model = model
        mesh = model.mesh
        self.region = region
        self.ncut = int(ncut)
        self.threshold = float(threshold)
        self.labels = classify(mesh, region)
        cut = np.nonzero(self.labels == CUT)[0]
        param, wts = integrate_cut(mesh, cut, region, ncut=self.ncut)
        self.inactive_nodes, starved = _deactivate(mesh, self.labels, wts,
                                                   self.threshold)
        nc = model.ncomp_node
        self.inactive_dofs = (self.inactive_nodes[:, None] * nc
                              + np.arange(nc)).ravel()
        self._demoted = frozenset(starved.tolist())
        self._live = self.labels != VOID
        self._live[starved] = False
        # The rules of the live cut elements, one row each.
        keep = wts.any(axis=1)
        self._cut, self._cut_rule = cut[keep], (param[keep], wts[keep])

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._model, name)

    def element_stiffness(self, e):
        if not self._live[e]:
            return None
        if self.labels[e] == CUT:
            i = np.searchsorted(self._cut, e)
            return self._model.element_stiffness(
                e, quadrature=(self._cut_rule[0][i], self._cut_rule[1][i]))
        return self._model.element_stiffness(e)

    def stiffness_batches(self):
        """``(elements, Ke)`` for assembly: STANDARD elements in batches,
        then the live CUT elements in batches on their cut rules; VOID and
        demoted elements contribute nothing."""
        yield from stiffness_batches(
            self._model, np.nonzero(self.labels == STANDARD)[0])
        yield from stiffness_batches(self._model, self._cut, self._cut_rule)

    def pressure_load(self, p: float) -> np.ndarray:
        """Pressure load of the live elements, STANDARD ones and CUT ones
        (on their cut rules) each in batches, summed in element order."""
        model, mesh = self._model, self._model.mesh
        live = np.nonzero(self._live)[0]
        fe = np.empty((live.size, mesh.nen * model.ncomp_node))
        for kind, rule in ((STANDARD, None), (CUT, self._cut_rule)):
            at = np.nonzero(self.labels[live] == kind)[0]
            nq = mesh.nen if rule is None else rule[1].shape[1]
            for rows in element_batches(np.arange(at.size),
                                        mesh.nen * nq * mesh.dim):
                fe[at[rows]] = model.pressure_element(
                    live[at[rows]], p,
                    None if rule is None else tuple(r[rows] for r in rule))
        out = np.zeros(model.ndof)
        np.add.at(out, model.element_dofs(live), fe)
        return out
