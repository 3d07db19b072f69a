"""Overlapping-domain machinery for embedded solid regions.

When a solid mesh overlaps part of a structural model, the covered part of
the structure must not contribute stiffness. Elements fully covered are
dropped, elements crossed by the region boundary are integrated with a
filtered Gauss rule, and basis functions with (almost) no support left are
pinned to zero. `NonconformingModel` packages all of that behind the same
interface the plain models expose, so assembly and coupling code does not
care which kind it is given.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigError,
    DegenerateCutError,
    OverDeactivationError,
)
from .mesh import element_batches, stiffness_batches
from .quadrature import tensor_rule

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

    def signed_distance(self, pts):
        """Coordinate-wise box distance, negative inside the solid."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = np.full(pts.shape[0], -np.inf)
        for k, (lo, hi) in enumerate(self.bounds):
            d = np.maximum(d, np.maximum(lo - pts[:, k], pts[:, k] - hi))
        return d

    def inside(self, pts):
        return self.signed_distance(pts) < 0.0


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
        x = np.array([np.linspace(*d.local_interval(i), d.degree + 4)
                      for i in range(d.nelem)])
        covered = (lo < x) & (x < hi)
        # New direction slowest, as in the element numbering.
        every = np.logical_and.outer(covered.all(axis=1), every).ravel()
        some = np.logical_and.outer(covered.any(axis=1), some).ravel()
    return np.where(every, VOID, np.where(some, CUT, STANDARD))


def _drop_covered(mesh, region, e, quadrature, source):
    """Keep the points of a parameter-space rule the region leaves free."""
    param, wts = quadrature
    locs = np.stack([d.param_to_local(param[:, k])
                     for k, d in enumerate(mesh.dirs)], axis=-1)
    keep = ~region.inside(locs)
    if not keep.any():
        raise DegenerateCutError(
            f"no point of the {source} of cut element {e} lies outside "
            "the region; the surviving sliver is below its resolution")
    return param[keep], wts[keep]


def integrate_cut(mesh, e, region: OverlapRegion, ncut: int = 10):
    """Filtered Gauss rule for a cut element, in parameter coordinates.

    Builds an ncut-point tensor rule and drops every point covered by the
    region. Weights stay pre-jacobian, so the result plugs directly into
    any ``element_stiffness(e, quadrature=...)`` kernel.
    """
    gi = mesh.element_grid_index(e)
    rule = tensor_rule([d.element_interval(i) for d, i in zip(mesh.dirs, gi)],
                       (int(ncut),) * mesh.dim)
    return _drop_covered(mesh, region, e, rule, f"{ncut}-point cut rule")


def _cut_rules(mesh, labels, region, ncut):
    """Cut element -> its filtered rule, or None where no point survives."""
    rules = {}
    for e in np.nonzero(labels == CUT)[0]:
        try:
            rules[int(e)] = integrate_cut(mesh, e, region, ncut=ncut)
        except DegenerateCutError:
            rules[int(e)] = None
    return rules


def _deactivate(mesh, labels, rules, threshold):
    """Sorted nodes whose support fraction surviving the cut rules of
    ``_cut_rules`` is below ``threshold`` (a sliver no rule sees is lost)."""
    full = np.ones(1)
    for d in mesh.dirs:
        h = [hi - lo for lo, hi in map(d.local_interval, range(d.nelem))]
        full = np.multiply.outer(h, full).ravel()
    outside = np.where(labels == STANDARD, full, 0.0)
    for e, rule in rules.items():
        if rule is None:
            continue
        a, b = zip(*(d.element_interval(i) for d, i
                     in zip(mesh.dirs, mesh.element_grid_index(e))))
        outside[e] = rule[1].sum() * (full[e] / np.prod(np.subtract(b, a)))
    ien = mesh.ien()
    support = np.zeros(mesh.nnodes)
    alive = np.zeros(mesh.nnodes)
    np.add.at(support, ien, full[:, None])
    np.add.at(alive, ien, outside[:, None])
    inactive = np.nonzero(alive < threshold * support)[0]

    mask = np.zeros(mesh.nnodes, dtype=bool)
    mask[inactive] = True
    cut = np.nonzero(labels == CUT)[0]
    dead = cut[mask[ien[cut]].all(axis=1)]
    if dead.size:
        raise OverDeactivationError(
            f"every basis function of cut element {dead[0]} was deactivated; "
            "the region almost certainly covers more than intended")
    return inactive


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
        if region.dim != model.mesh.dim:
            raise ConfigError(
                f"region has {region.dim} directions, structural mesh "
                f"has {model.mesh.dim}")
        self.region = region
        self.ncut = int(ncut)
        self.threshold = float(threshold)
        self.labels = classify(model.mesh, region)
        self._rules = _cut_rules(model.mesh, self.labels, region, self.ncut)
        self.inactive_nodes = _deactivate(
            model.mesh, self.labels, self._rules, self.threshold)
        nc = model.ncomp_node
        self.inactive_dofs = (
            self.inactive_nodes[:, None] * nc + np.arange(nc)
        ).ravel()
        self._demoted = self._demote_unresolvable_cuts()
        self._live = self.labels != VOID
        self._live[list(self._demoted)] = False

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._model, name)

    def _demote_unresolvable_cuts(self):
        """Cut elements whose surviving sliver is below the rule resolution.

        They behave as void, which is safe only when every still-active
        basis function on them keeps support on some other live element.
        """
        starved = [e for e, rule in self._rules.items() if rule is None]
        if not starved:
            return frozenset()
        mesh = self._model.mesh
        ien = mesh.ien()
        live = self.labels != VOID
        live[starved] = False
        held = np.zeros(mesh.nnodes, dtype=bool)
        held[self.inactive_nodes] = True
        held[ien[live].ravel()] = True
        for e in starved:
            if not held[ien[e]].all():
                raise DegenerateCutError(
                    f"cut element {e} has no surviving quadrature points "
                    "but still carries active basis functions supported "
                    "nowhere else; increase the cut rule or the "
                    "deactivation threshold")
        return frozenset(starved)

    def element_stiffness(self, e, quadrature=None):
        if not self._live[e]:
            return None
        if self.labels[e] == CUT:
            quadrature = (self._rules[e] if quadrature is None else
                          _drop_covered(self._model.mesh, self.region, e,
                                        quadrature, "supplied quadrature"))
        return self._model.element_stiffness(e, quadrature=quadrature)

    def stiffness_batches(self):
        """``(elements, Ke)`` for assembly: STANDARD elements in batches,
        then each live CUT element with its cached rule; VOID and demoted
        elements contribute nothing."""
        model = self._model
        yield from stiffness_batches(model,
                                     np.nonzero(self.labels == STANDARD)[0])
        for e in np.nonzero(self._live & (self.labels == CUT))[0]:
            yield e[None], model.element_stiffness(
                e, quadrature=self._rules[e])[None]

    def pressure_load(self, p: float) -> np.ndarray:
        """Pressure load of the live elements, STANDARD ones batched and
        CUT ones on their cached rule, summed in element order."""
        model, mesh = self._model, self._model.mesh
        live = np.nonzero(self._live)[0]
        fe = np.empty((live.size, mesh.nen * model.ncomp_node))
        std = np.nonzero(self.labels[live] == STANDARD)[0]
        for b in element_batches(std, mesh.nen ** 2 * mesh.dim):
            fe[b] = model.pressure_element(live[b], p)
        for i in np.nonzero(self.labels[live] == CUT)[0]:
            fe[i] = model.pressure_element(live[i], p, self._rules[live[i]])
        out = np.zeros(model.ndof)
        np.add.at(out, model.element_dofs(live), fe)
        return out
