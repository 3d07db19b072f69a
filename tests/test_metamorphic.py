"""Metamorphic relations of overlapped models over the public API.

An overlap that covers nothing must change nothing; wrapping a model must
not change the model it wraps; and a cover that leaves only a sliver of an
element, where the cut element's matrix is a small difference of two
Kronecker products, must solve cleanly or raise a typed error.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdfem.elasticity import Material, SolidModel
from mdfem.errors import MdfemError
from mdfem.mesh import build_mesh
from mdfem.nonconforming import CUT, NonconformingModel, OverlapRegion
from mdfem.structural import BeamModel, PlateModel
from mdfem.system import System, _model_pieces

INF = float("inf")
MAT = Material(E=2.1e5, nu=0.3, thickness=0.4, width=0.5)


@st.composite
def models(draw):
    """A model of every kind on a spline mesh of degree 1-4 (2-4 where C1
    is needed; 1-3 for solids in 3D) on a box with one corner at 0."""
    kind = draw(st.sampled_from(["timoshenko", "euler_bernoulli", "kirchhoff",
                                 "mindlin", "solid2d", "solid3d"]))
    mesh_model, dim = {"timoshenko": ("beam", 1),
                       "euler_bernoulli": ("beam", 1),
                       "kirchhoff": ("plate", 2), "mindlin": ("plate", 2),
                       "solid2d": ("solid2d", 2),
                       "solid3d": ("solid3d", 3)}[kind]
    c1 = kind in ("euler_bernoulli", "kirchhoff")
    degree = draw(st.integers(2 if c1 else 1, 3 if dim == 3 else 4))
    nelems = draw(st.lists(st.integers(1, 2 if dim == 3 else 4),
                           min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 4.0), min_size=dim, max_size=dim))
    mesh = build_mesh(mesh_model, "spline", degree, nelems,
                      [(0.0, h) for h in lengths])
    if mesh_model == "beam":
        return BeamModel(mesh, MAT, kind)
    if mesh_model == "plate":
        return PlateModel(mesh, MAT, kind)
    return SolidModel(mesh, MAT)


@st.composite
def regions(draw, mesh, empty):
    """A region over ``mesh``'s box. With ``empty`` it covers no element:
    it lies beside the box, or touches it from outside, in at least one
    direction. Otherwise each direction is drawn from the whole line, a
    half line, an interval inside the box, or a beside interval."""
    dirs = mesh.dirs
    away = draw(st.integers(0, len(dirs) - 1)) if empty else None
    bounds = []
    for k, d in enumerate(dirs):
        x = sorted(draw(st.floats(d.lo, d.hi)) for _ in range(2))
        x[1] = max(x[1], x[0] + 1e-3 * (d.hi - d.lo))
        kinds = (["before", "after"] if k == away else
                 ["all", "below", "above", "inside", "after"])
        bounds.append({
            "before": (-INF, d.lo),
            "after": (d.hi, d.hi + draw(st.floats(0.1, 2.0))),
            "all": (-INF, INF),
            "below": (-INF, x[1]),
            "above": (x[0], INF),
            "inside": tuple(x),
        }[draw(st.sampled_from(kinds))])
    return OverlapRegion(bounds)


def same_pieces(a, b):
    """Two lists of sparse pieces with the same format, shape, indices
    and values, bit for bit."""
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert (p.format, p.shape) == (q.format, q.shape)
        for name in ("indptr", "indices", "data"):
            assert getattr(p, name).tobytes() == getattr(q, name).tobytes()


def constant_load(model, data):
    values = np.array(data.draw(st.lists(
        st.floats(-2.0, 2.0), min_size=model.ncomp_node,
        max_size=model.ncomp_node)))
    return values, model.element_sum(values)


@settings(max_examples=40, deadline=None)
@given(models(), st.data())
def test_overlap_covering_nothing_gives_the_plain_pieces(model, data):
    """An overlap region that covers no element leaves the stiffness
    pieces and constant loads of the plain model, bit for bit."""
    nc = NonconformingModel(model, data.draw(regions(model.mesh, True)))
    assert nc.inactive_dofs.size == 0
    same_pieces(_model_pieces(nc), _model_pieces(model))
    values, f = constant_load(model, data)
    assert nc.element_sum(values).tobytes() == f.tobytes()


@settings(max_examples=40, deadline=None)
@given(models(), st.data())
def test_overlapping_leaves_the_wrapped_model_unchanged(model, data):
    """Building, assembling and loading an overlapped model leaves the
    pieces and constant loads of the model it wraps as they were, bit for
    bit."""
    before = _model_pieces(model)
    values, f = constant_load(model, data)
    try:
        nc = NonconformingModel(model, data.draw(regions(model.mesh, False)))
    except MdfemError:
        pass
    else:
        System([nc]).bulk_matrix()
        nc.element_sum(values)
    same_pieces(_model_pieces(model), before)
    assert model.element_sum(values).tobytes() == f.tobytes()


def near_full_cover(kind, sliver):
    """A structure on [0, 6] whose region covers x < 3 up to an uncovered
    ``sliver`` of the element [2, 3]; for "plate-corner" it also stops a
    sliver short of y = 2, the top of the element [1, 2]."""
    if kind == "beam":
        model = BeamModel(build_mesh("beam", "spline", 3, 6, ((0.0, 6.0),)),
                          MAT, "timoshenko")
        bounds = ((-INF, 3.0 - sliver),)
    else:
        model = PlateModel(build_mesh("plate", "spline", 2, (6, 3),
                                      ((0.0, 6.0), (0.0, 3.0))),
                           MAT, "mindlin")
        bounds = ((-INF, 3.0 - sliver), (-INF, 2.0 - sliver if
                                         kind == "plate-corner" else INF))
    return model, OverlapRegion(bounds)


@pytest.mark.parametrize("kind", ["beam", "plate", "plate-corner"])
@pytest.mark.parametrize("sliver", [1e-3, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("ncut, threshold", [(10, 0.01), (80, 0.01),
                                             (80, 1e-12)])
def test_near_full_cover_solves_or_raises(kind, sliver, ncut, threshold):
    """A cover that leaves 1e-3 to 1e-9 of an element uncovered either
    solves to a relative residual of at most 1e-8 or raises a typed
    error. 80 cut points per direction see the 1e-3 sliver, so its
    element is CUT and its matrix the difference of two products; the
    thinner slivers no point sees, so their elements are VOID. A
    threshold of 1e-12 pins almost no node of the sliver's element."""
    model, region = near_full_cover(kind, sliver)
    try:
        nc = NonconformingModel(model, region, ncut=ncut, threshold=threshold)
        assert (nc.labels == CUT).any() == (sliver == 1e-3 and ncut == 80)
        sysm = System([nc])
        nodes = np.flatnonzero(model.mesh.nodes[:, 0] == 6.0)
        sysm.fix(0, (nodes[:, None] * nc.ncomp_node
                     + np.arange(nc.ncomp_node)).ravel())
        load = (nc.point_load(5.5, (0.0, -1.0, 0.0)) if kind == "beam"
                else nc.pressure_load(-1.0))
        sysm.load(0, load)
        sol = sysm.solve()
    except MdfemError:
        return
    assert np.isfinite(sol.a).all()
    assert sol.residual <= 1e-8
