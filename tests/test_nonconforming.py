"""Region classification, DOF deactivation, and cut-element integration."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdfem import nonconforming
from mdfem.coupling import build_interface
from mdfem.elasticity import (Material, SolidModel, load_separable,
                              part_form, stiffness_quadrature,
                              stiffness_separable)
from mdfem.errors import ConfigError, OverDeactivationError, RankError
from mdfem.mesh import build_mesh, quadrature_data
from mdfem.nonconforming import (
    CUT,
    STANDARD,
    VOID,
    NonconformingModel,
    OverlapRegion,
    classify,
    integrate_cut,
)
from mdfem.structural import BeamModel, PlateModel
from mdfem.system import System
from oracles import element_interval, inside, signed_distance, tensor_rule
from test_metamorphic import models

INF = float("inf")


def deactivate_dofs(mesh, labels, region):
    """Nodes a `NonconformingModel` with the default threshold (0.01) and
    cut rule (10 points) pins for ``region``."""
    cut = np.nonzero(labels == CUT)[0]
    return nonconforming._deactivate(
        mesh, labels, integrate_cut(mesh, cut, region, 10)[1], 0.01)


def beam_mesh(nelems=8, degree=3, basis="spline", length=24.0):
    return build_mesh("beam", basis, degree, nelems, ((0.0, length),),
                      origin=(24.0, 0.0))


class TestOverlapRegion:
    def test_sign_convention(self):
        r = OverlapRegion(((0.0, 1.0), (0.0, 2.0)))
        d = signed_distance(r, [[0.5, 1.0], [2.0, 1.0], [1.0, 1.0]])
        assert d[0] < 0 and d[1] > 0 and d[2] == 0.0
        np.testing.assert_array_equal(
            inside(r, [[0.5, 1.0], [2.0, 1.0], [1.0, 1.0]]),
            [True, False, False])

    def test_infinite_extent(self):
        r = OverlapRegion(((-INF, 5.97),))
        assert inside(r, [[0.0]])[0]
        assert not inside(r, [[6.0]])[0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            OverlapRegion(((1.0, 1.0),))
        with pytest.raises(ConfigError):
            OverlapRegion(((2.0, 1.0),))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bounds", [
        "abc", (("a", 1.0),), ((0.0, None),), ((0.0, 1.0), (0.0,)),
        ((0.0, 1.0, 2.0),)])
    def test_non_numeric_bounds_rejected(self, bounds):
        # numpy cannot read "abc" or ("a", 1.0) as floats, and reads None
        # as NaN, which no interval test catches by name.
        with pytest.raises(ConfigError, match="^region bounds must be"):
            OverlapRegion(bounds)


class TestClassify:
    def test_region_covering_nothing(self):
        labels = classify(beam_mesh(), OverlapRegion(((100.0, 200.0),)))
        assert np.all(labels == STANDARD)

    def test_region_covering_everything(self):
        labels = classify(beam_mesh(), OverlapRegion(((-INF, INF),)))
        assert np.all(labels == VOID)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            classify(beam_mesh(), OverlapRegion(((0.0, 1.0), (0.0, 1.0))))

    def test_sliver_beam_layout(self):
        labels = classify(beam_mesh(), OverlapRegion(((-INF, 5.97),)))
        assert labels[0] == VOID
        assert labels[1] == CUT
        assert np.all(labels[2:] == STANDARD)

    def test_embedded_square_ring(self):
        mesh = build_mesh("plate", "spline", (3, 3), (18, 18),
                          ((0.0, 400.0), (0.0, 400.0)), z_mid=0.0)
        labels = classify(mesh, OverlapRegion(((150.0, 250.0),
                                               (150.0, 250.0))))
        # oracle straight from interval arithmetic on the structured grid
        h = 400.0 / 18.0
        oracle = np.empty(18 * 18, dtype=int)
        for e in range(18 * 18):
            i, j = e % 18, e // 18
            lab = STANDARD
            boxes = [(i * h, (i + 1) * h), (j * h, (j + 1) * h)]
            if all(150.0 <= lo and hi <= 250.0 for lo, hi in boxes):
                lab = VOID
            elif all(hi > 150.0 and lo < 250.0 for lo, hi in boxes):
                lab = CUT
            oracle[e] = lab
        np.testing.assert_array_equal(labels, oracle)
        assert (labels == VOID).sum() == 16
        assert (labels == CUT).sum() == 20


def _classify_exact(mesh, region):
    """Labels from each element's box and the region's, one element at a
    time: VOID where the closed region holds the box, CUT where their
    intersection has positive measure (every side of positive length; a
    product of the lengths can underflow), STANDARD otherwise."""
    labels = np.empty(mesh.nelem, dtype=int)
    for e in range(mesh.nelem):
        box = [element_interval(d, i)
               for d, i in zip(mesh.dirs, mesh.element_grid_index(e))]
        pairs = list(zip(box, region.bounds))
        sides = [min(b, hi) - max(a, lo) for (a, b), (lo, hi) in pairs]
        labels[e] = (VOID if all(lo <= a and b <= hi
                                 for (a, b), (lo, hi) in pairs)
                     else CUT if min(sides) > 0 else STANDARD)
    return labels


@st.composite
def meshes_and_regions(draw):
    dim = draw(st.integers(1, 3))
    model = draw(st.sampled_from(
        {1: ("beam",), 2: ("solid2d", "plate"), 3: ("solid3d",)}[dim]))
    basis = draw(st.sampled_from(("lagrange", "spline")))
    degree = 1 if basis == "lagrange" else draw(st.integers(1, 3))
    nelems = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 4.0), min_size=dim,
                            max_size=dim))
    mesh = build_mesh(model, basis, degree, nelems,
                      [(0.0, length) for length in lengths])
    bounds = []
    for d, length in zip(mesh.dirs, lengths):
        breaks = [element_interval(d, i)[0] for i in range(d.nelem)] + [
            element_interval(d, d.nelem - 1)[1]]
        a, b = element_interval(d, draw(st.integers(0, d.nelem - 1)))
        if draw(st.integers(0, 3)) == 0:
            # Inside one element, between its first two points of the
            # (p + 4)-point grid a sampled classification would see.
            w = (b - a) / (d.degree + 3)
            lo, hi = sorted(a + w * draw(st.floats(0.01, 0.99))
                            for _ in range(2))
        else:
            # Bounds on element breaks, just off them (slivers),
            # anywhere, and infinite.
            ends = st.one_of(
                st.sampled_from(breaks),
                st.sampled_from([x + s * 1e-7 * (b - a) for x in breaks
                                 for s in (-1, 1)]),
                st.floats(-1.0, length + 1.0))
            lo = draw(st.one_of(st.just(-INF), ends))
            hi = draw(st.one_of(st.just(INF), ends))
        assume(lo < hi)
        bounds.append((lo, hi))
    return mesh, OverlapRegion(bounds)


class TestSeparableClassify:
    @settings(max_examples=150, deadline=None)
    @given(meshes_and_regions())
    def test_matches_exact_box_intersection(self, case):
        mesh, region = case
        np.testing.assert_array_equal(classify(mesh, region),
                                      _classify_exact(mesh, region))

    def test_region_inside_one_element_cuts_it(self):
        """A region between the points a (p + 4)-point sample grid sees
        still cuts the element: it loses the covered stiffness."""
        mesh = build_mesh("plate", "spline", 3, 1,
                          ((0.0, 100.0), (0.0, 100.0)), z_mid=0.0)
        plate = PlateModel(mesh, Material(E=30.0, nu=0.3, thickness=0.2),
                           "kirchhoff")
        nc = NonconformingModel(plate, OverlapRegion(((1.0, 15.0),) * 2))
        assert list(nc.labels) == [CUT] and nc.inactive_dofs.size == 0
        K = System([plate]).bulk_matrix().toarray()
        K_nc = System([nc]).bulk_matrix().toarray()
        assert np.abs(K - K_nc).max() > 1e-3 * np.abs(K).max()

    @pytest.mark.parametrize("hi", [1.0, 1.5])
    def test_region_to_the_mesh_end_voids_everything(self, hi):
        """A region holding the whole one-element beam, whether its bound
        sits on the mesh end or beyond it, leaves every DOF pinned."""
        beam = BeamModel(beam_mesh(nelems=1, degree=1, basis="lagrange",
                                   length=1.0),
                         Material(E=3.0e7, nu=0.3, thickness=6.0))
        nc = NonconformingModel(beam, OverlapRegion(((-INF, hi),)))
        assert list(nc.labels) == [VOID]
        np.testing.assert_array_equal(nc.inactive_dofs, np.arange(beam.ndof))
        assert [len(el) for el, _ in nc.parts] == [0, 0]


class TestDeactivate:
    def test_sliver_bench_control_points(self):
        mesh = beam_mesh()
        region = OverlapRegion(((-INF, 5.97),))
        labels = classify(mesh, region)
        assert list(labels[:3]) == [VOID, CUT, STANDARD]
        inactive = deactivate_dofs(mesh, labels, region)
        np.testing.assert_array_equal(inactive, [0, 1])
        # The model pins the same nodes, and its starved cut element 1
        # (no point of the 10-point rule survives) reads VOID.
        nc = sliver_beam_model()
        np.testing.assert_array_equal(nc.inactive_nodes, inactive)
        assert list(nc.labels[:3]) == [VOID, VOID, STANDARD]

    def test_farthest_node_of_sliver_element_goes_inactive(self):
        mesh = beam_mesh(nelems=2, degree=1, basis="lagrange", length=2.0)
        region = OverlapRegion(((-INF, 0.995),))
        inactive = deactivate_dofs(mesh, classify(mesh, region), region)
        np.testing.assert_array_equal(inactive, [0])

    def test_wide_sliver_keeps_everything(self):
        mesh = beam_mesh(nelems=2, degree=1, basis="lagrange", length=2.0)
        region = OverlapRegion(((-INF, 0.7),))
        inactive = deactivate_dofs(mesh, classify(mesh, region), region)
        assert inactive.size == 0
        # Points of the cut rule survive on element 0: it stays CUT, on
        # its own rule row.
        nc = NonconformingModel(
            BeamModel(mesh, Material(E=3.0e7, nu=0.3, thickness=6.0)), region)
        assert list(nc.labels) == [CUT, STANDARD]
        assert nc.inactive_dofs.size == 0
        np.testing.assert_array_equal(nc.part_index([0, 1]), [1, 0])

    def test_over_deactivation_detected(self):
        mesh = beam_mesh(nelems=1, degree=1, basis="lagrange", length=1.0)
        region = OverlapRegion(((-INF, 0.9999),))
        with pytest.raises(OverDeactivationError):
            deactivate_dofs(mesh, classify(mesh, region), region)


class TestIntegrateCut:
    def test_empty_region_matches_standard_rule(self):
        mesh = build_mesh("plate", "spline", (2, 2), (1, 1),
                          ((0.0, 1.0), (0.0, 1.0)), z_mid=0.0)
        plate = PlateModel(mesh, Material(E=30.0, nu=0.3, thickness=0.2))
        param, wts = integrate_cut(mesh, [0],
                                   OverlapRegion(((5.0, 6.0), (5.0, 6.0))), 10)
        K_cut = plate.element_stiffness(0, quadrature=(param[0], wts[0]))
        K_std = plate.element_stiffness(0)
        np.testing.assert_allclose(K_cut, K_std,
                                   atol=1e-14 * np.abs(K_std).max())

    def test_half_covered_element_close_to_exact(self):
        mesh = build_mesh("plate", "spline", (2, 2), (1, 1),
                          ((0.0, 1.0), (0.0, 1.0)), z_mid=0.0)
        plate = PlateModel(mesh, Material(E=30.0, nu=0.3, thickness=0.2))
        region = OverlapRegion(((-INF, 0.5), (-INF, INF)))
        param, wts = integrate_cut(mesh, [0], region, 10)
        K_cut = plate.element_stiffness(0, quadrature=(param[0], wts[0]))
        # exact reference: high-order rule placed on the surviving half
        from mdfem.quadrature import gauss_1d
        g, w = gauss_1d(12)
        x1 = 0.75 + 0.25 * g
        x2 = 0.5 + 0.5 * g
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        param = np.stack([X1.T.ravel(), X2.T.ravel()], axis=-1)
        W1, W2 = np.meshgrid(0.25 * w, 0.5 * w, indexing="ij")
        wts = (W1 * W2).T.ravel()
        K_ref = plate.element_stiffness(0, quadrature=(param, wts))
        err = np.abs(K_cut - K_ref).max()
        assert err <= 0.01 * np.abs(K_ref).max()

    @settings(max_examples=60, deadline=None)
    @given(meshes_and_regions(), st.integers(1, 6))
    def test_rows_are_tensor_rules_with_covered_points_zeroed(self, case,
                                                              ncut):
        mesh, region = case
        elems = np.arange(mesh.nelem)[::-1]
        local, wts = integrate_cut(mesh, elems, region, ncut)
        for row, e in enumerate(elems):
            pts, w = tensor_rule(
                [element_interval(d, i)
                 for d, i in zip(mesh.dirs, mesh.element_grid_index(e))],
                (ncut,) * mesh.dim)
            np.testing.assert_array_equal(local[row], pts)
            np.testing.assert_array_equal(
                wts[row], np.where(inside(region, pts), 0.0, w))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ncut", [2.7, True, 0, -1, "3"])
    def test_bad_ncut_rejected(self, ncut):
        # int() would run 2.7 as a 2-point rule and True as a 1-point one,
        # and 0 would fail deep in the Gauss rule.
        mesh = beam_mesh(nelems=2)
        with pytest.raises(ConfigError) as exc:
            integrate_cut(mesh, [0, 1], OverlapRegion(((-INF, 5.0),)), ncut)
        assert str(exc.value) == f"ncut must be an integer >= 1, got {ncut!r}"

    def test_unresolvable_sliver_raises(self):
        mesh = beam_mesh(nelems=1, degree=1, basis="lagrange", length=1.0)
        region = OverlapRegion(((-INF, 1.0 - 1e-6),))
        _, wts = integrate_cut(mesh, [0], region, 10)
        assert wts.shape == (1, 10) and not wts.any()
        # The starved element is the only one: every basis function on it
        # loses its support, so the model refuses the region.
        beam = BeamModel(mesh, Material(E=3.0e7, nu=0.3, thickness=6.0))
        with pytest.raises(OverDeactivationError):
            NonconformingModel(beam, region)


class TestMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(st.tuples(st.floats(0.0, 24.0), st.floats(0.0, 24.0)))
    def test_growing_region_never_revives_elements(self, cuts):
        a, b = sorted(cuts)
        mesh = beam_mesh()
        small = classify(mesh, OverlapRegion(((-INF, a),))) if a > 0 \
            else np.full(mesh.nelem, STANDARD)
        large = classify(mesh, OverlapRegion(((-INF, b),))) if b > 0 \
            else np.full(mesh.nelem, STANDARD)
        assert np.all(large >= small)


def sliver_beam_model(degree=3, basis="spline", nelems=8):
    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
    beam = BeamModel(beam_mesh(nelems=nelems, degree=degree, basis=basis),
                     mat)
    return NonconformingModel(beam, OverlapRegion(((-INF, 5.97),)))


def _cut_plate_model():
    mesh = build_mesh("plate", "spline", (3, 2), (6, 5),
                      ((0.0, 6.0), (0.0, 5.0)), z_mid=0.0)
    plate = PlateModel(mesh, Material(E=30.0, nu=0.3, thickness=0.2))
    return plate, OverlapRegion(((1.5, 3.7), (-INF, 2.4)))


def _sliver_beam():
    mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
    return BeamModel(beam_mesh(), mat), OverlapRegion(((-INF, 5.97),))


class TestCutRuleReuse:
    @pytest.mark.parametrize("build", [_cut_plate_model, _sliver_beam])
    def test_one_cut_rule_per_cut_element(self, build, monkeypatch):
        """One `integrate_cut` call builds one rule row per cut element,
        and no kernel takes a rule row: assembly and loads integrate the
        cut rule from 1D tables, to round-off of the per-element sums on
        those rows."""
        inner, region = build()
        mesh = inner.mesh
        rule_calls, kernel_calls = [], []
        direct = nonconforming.integrate_cut

        def counted(mesh, elems, region, ncut):
            rule_calls.append(np.array(elems))
            return direct(mesh, elems, region, ncut)

        def spy(name, pos):
            """Record the calls with a rule; ``pos`` is the position of
            the kernel's ``quadrature`` argument after the elements."""
            kernel = getattr(inner, name)

            def call(e, *args, **kw):
                rule = args[pos] if len(args) > pos else kw.get("quadrature")
                if rule is not None:
                    kernel_calls.append((name, np.array(e)))
                return kernel(e, *args, **kw)
            monkeypatch.setattr(inner, name, call)

        monkeypatch.setattr(nonconforming, "integrate_cut", counted)
        nc = NonconformingModel(inner, region)
        cut = np.flatnonzero(classify(mesh, region) == CUT)
        assert cut.size and len(rule_calls) == 1
        np.testing.assert_array_equal(rule_calls[0], cut)

        spy("element_stiffness", 0)
        plate = isinstance(inner, PlateModel)
        if plate:
            spy("pressure_element", 1)
        K = System([nc]).bulk_matrix().toarray()
        f = nc.pressure_load(-2.0) if plate else None
        assert kernel_calls == []
        monkeypatch.undo()
        param, wts = direct(mesh, cut, region, 10)
        keep = wts.any(axis=1)
        live_cut = cut[keep]
        # The model's CUT labels are the live rows; a starved one reads
        # VOID, as the sliver beam's one cut element does.
        np.testing.assert_array_equal(np.flatnonzero(nc.labels == CUT),
                                      live_cut)
        assert (nc.labels[cut[~keep]] == VOID).all()
        assert keep.all() if build is _cut_plate_model else not keep.any()

        # STANDARD elements on the standard rule, then the live cut
        # elements on the `integrate_cut` rule; VOID elements are in no
        # part.
        (std, none), (el, rule) = nc.parts
        assert none is None and rule == (10, region.bounds)
        np.testing.assert_array_equal(std,
                                      np.flatnonzero(nc.labels == STANDARD))
        np.testing.assert_array_equal(el, live_cut)
        dead = set(np.flatnonzero(nc.labels == VOID))
        K_ref = np.zeros_like(K)
        f_ref = np.zeros(inner.ndof)
        for e in range(mesh.nelem):
            if e in dead:
                assert nc.part_index(e) < 0
                continue
            quad = None
            if nc.labels[e] == CUT:
                i = np.searchsorted(cut, e)
                quad = (param[i], wts[i])
            d = inner.element_dofs(e)
            K_ref[np.ix_(d, d)] += inner.element_stiffness(e, quadrature=quad)
            if plate:
                f_ref[d] += inner.pressure_element(e, -2.0, quad)
        # Summed from 1D integrals over grid boxes, not element by
        # element: equal to round-off.
        np.testing.assert_allclose(K, K_ref, rtol=0,
                                   atol=1e-13 * np.abs(K_ref).max())
        if plate:
            np.testing.assert_allclose(f, f_ref, rtol=0,
                                       atol=1e-13 * np.abs(f_ref).max())


class TestNonconformingModel:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kwargs, message", [
        ({"ncut": 0}, "ncut must be an integer >= 1, got 0"),
        ({"ncut": 2.7}, "ncut must be an integer >= 1, got 2.7"),
        ({"ncut": True}, "ncut must be an integer >= 1, got True"),
        ({"ncut": "10"}, "ncut must be an integer >= 1, got '10'"),
        ({"threshold": np.nan}, "threshold must be in (0, 1], got nan"),
        ({"threshold": 0.0}, "threshold must be in (0, 1], got 0.0"),
        ({"threshold": 1.5}, "threshold must be in (0, 1], got 1.5"),
        ({"threshold": "0.01"}, "threshold must be in (0, 1], got '0.01'"),
    ])
    def test_bad_cut_settings_rejected(self, kwargs, message):
        # int() would run ncut=2.7 as 2, ncut=0 would fail deep in the
        # Gauss rule, and threshold=nan would pin no node, leaving the
        # nodes of a starved element free with no stiffness.
        beam, region = _sliver_beam()
        with pytest.raises(ConfigError) as exc:
            NonconformingModel(beam, region, **kwargs)
        assert str(exc.value) == message

    def test_cut_settings_at_their_limits_run(self):
        beam, _ = _sliver_beam()
        nc = NonconformingModel(beam, OverlapRegion(((-INF, -1.0),)),
                                ncut=np.int64(1), threshold=1.0)
        assert (nc.ncut, nc.threshold) == (1, 1.0)

    def test_sliver_bench_wiring(self):
        nc = sliver_beam_model()
        np.testing.assert_array_equal(nc.inactive_nodes, [0, 1])
        np.testing.assert_array_equal(nc.inactive_dofs, [0, 1, 2, 3, 4, 5])
        # Element 0 is covered and element 1 a starved cut (an uncovered
        # sliver no rule point sees): both VOID, in no part.
        assert list(nc.labels[:2]) == [VOID, VOID]
        assert classify(nc.mesh, nc.region)[1] == CUT
        np.testing.assert_array_equal(nc.part_index(np.arange(8)),
                                      [-1, -1, 0, 0, 0, 0, 0, 0])
        ref = np.zeros((nc.ndof, nc.ndof))
        for e in range(2, 8):
            d = nc.element_dofs(e)
            ref[np.ix_(d, d)] += nc._model.element_stiffness(e)
        np.testing.assert_allclose(System([nc]).bulk_matrix().toarray(), ref,
                                   rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_pressure_load_on_a_beam_is_a_config_error(self):
        nc = sliver_beam_model()
        with pytest.raises(ConfigError, match="a BeamModel takes no "
                           "pressure load"):
            nc.pressure_load(-2.0)

    def test_delegation(self):
        nc = sliver_beam_model()
        inner = nc._model
        assert nc.mesh is inner.mesh
        assert nc.ndof == inner.ndof
        # A property of the inner class runs with the wrapper as self.
        assert nc.solid_stress_rows is None
        plate = NonconformingModel(*_cut_plate_model())
        assert plate.solid_stress_rows == (0, 1, 3, 4, 5)
        np.testing.assert_array_equal(nc.element_dofs(3),
                                      inner.element_dofs(3))

    def test_resolvable_cut_is_integrated(self):
        mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
        beam = BeamModel(beam_mesh(), mat)
        nc = NonconformingModel(beam, OverlapRegion(((-INF, 4.5),)))
        # The cut element 1 is resolvable: it stays CUT, on its own rule.
        (_, _), (cut, rule) = nc.parts
        np.testing.assert_array_equal(cut, np.nonzero(nc.labels == CUT)[0])
        np.testing.assert_array_equal(cut, [1])
        K = nc.element_stiffness(cut, integrate_cut(
            beam.mesh, cut, OverlapRegion(rule[1]), rule[0]))[0]
        np.testing.assert_allclose(K, K.T, atol=1e-12 * np.abs(K).max())
        full = beam.element_stiffness(1)
        assert 0 < np.abs(K).max() < np.abs(full).max()

    def test_empty_region_is_identity(self):
        mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
        beam = BeamModel(beam_mesh(), mat)
        nc = NonconformingModel(beam, OverlapRegion(((100.0, 200.0),)))
        assert nc.inactive_dofs.size == 0
        for e in range(beam.mesh.nelem):
            np.testing.assert_array_equal(nc.element_stiffness(e),
                                          beam.element_stiffness(e))

    def test_pressure_load_filtered_exactly_at_midpoint_cut(self):
        mesh = build_mesh("plate", "spline", (3, 3), (4, 2),
                          ((0.0, 2.0), (0.0, 1.0)), z_mid=0.0)
        plate = PlateModel(mesh, Material(E=30.0, nu=0.3, thickness=0.05))
        nc = NonconformingModel(
            plate, OverlapRegion(((-INF, 0.75), (-INF, INF))))
        f = nc.pressure_load(-3.0)
        # cut plane sits at element midpoints: symmetric rule keeps exactly
        # half of each cut element's weight
        assert f.sum() == pytest.approx(-3.0 * 1.25 * 1.0, rel=1e-12)
        assert np.all(f[1::3] == 0.0) and np.all(f[2::3] == 0.0)

    def test_aligned_cut_matches_conforming_run(self):
        """Region boundary on a beam element boundary: same hat functions
        survive, so the coupled solutions agree DOF for DOF."""
        mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
        solid = SolidModel(
            build_mesh("solid2d", "lagrange", (1, 1), (10, 4),
                       ((0.0, 30.0), (-3.0, 3.0))),
            mat,
        )
        clamp = np.nonzero(np.abs(solid.mesh.nodes[:, 0]) < 1e-12)[0]
        fixed = np.concatenate([2 * clamp, 2 * clamp + 1])
        alpha = 5.0e7

        beam_nc = NonconformingModel(
            BeamModel(build_mesh("beam", "lagrange", 1, 8, ((0.0, 24.0),),
                                 origin=(24.0, 0.0)), mat),
            OverlapRegion(((-INF, 6.0),)))
        sys_nc = System([solid, beam_nc])
        sys_nc.add_coupling(build_interface(solid, beam_nc, axis=0, side=1))
        sys_nc.fix(0, fixed)
        sys_nc.load(1, beam_nc.point_load(24.0, (0.0, -10.0, 0.0)))
        a_nc = sys_nc.solve(alpha=alpha).a

        beam_c = BeamModel(
            build_mesh("beam", "lagrange", 1, 6, ((0.0, 18.0),),
                       origin=(30.0, 0.0)), mat)
        sys_c = System([solid, beam_c])
        sys_c.add_coupling(build_interface(solid, beam_c, axis=0, side=1))
        sys_c.fix(0, fixed)
        sys_c.load(1, beam_c.point_load(18.0, (0.0, -10.0, 0.0)))
        a_c = sys_c.solve(alpha=alpha).a

        ref = np.abs(a_c).max()
        np.testing.assert_allclose(a_nc[:solid.ndof], a_c[:solid.ndof],
                                   atol=1e-9 * ref)
        # nonconforming beam nodes 2.. sit at the conforming node locations
        np.testing.assert_allclose(a_nc[solid.ndof + 6:],
                                   a_c[solid.ndof:], atol=1e-9 * ref)
        # the covered beam nodes were pinned
        np.testing.assert_array_equal(a_nc[solid.ndof:solid.ndof + 6], 0.0)

    def test_sliver_bench_solves_cleanly(self):
        mat = Material(E=3.0e7, nu=0.3, thickness=6.0)
        solid = SolidModel(
            build_mesh("solid2d", "lagrange", (1, 1), (20, 6),
                       ((0.0, 29.97), (-3.0, 3.0))),
            mat,
        )
        beam = NonconformingModel(
            BeamModel(build_mesh("beam", "lagrange", 1, 8, ((0.0, 24.0),),
                                 origin=(24.0, 0.0)), mat),
            OverlapRegion(((-INF, 5.97),)))
        sys = System([solid, beam])
        sys.add_coupling(build_interface(solid, beam, axis=0, side=1))
        clamp = np.nonzero(np.abs(solid.mesh.nodes[:, 0]) < 1e-12)[0]
        sys.fix(0, np.concatenate([2 * clamp, 2 * clamp + 1]))
        sys.load(1, beam.point_load(24.0, (0.0, -1000.0, 0.0)))
        # auto stabilization is undefined here: the interface lies inside
        # the starved element (VOID), so a kink mode carries interface stress
        # with no stiffness behind it and the estimator must refuse
        with pytest.raises(RankError):
            sys.solve(alpha="auto")
        sol = sys.solve(alpha=1.0e10)
        assert sol.residual <= 1e-9
        tip = sol.a[sys.ndof - 2]
        # static Timoshenko cantilever value, loose sanity band
        assert tip == pytest.approx(-0.0690987, rel=0.02)


# Batched cut rules against the per-element path -------------------------

MAT = Material(E=2.1e5, nu=0.3, thickness=0.4, width=0.5)

# kind -> (mesh model, allowed bases, degree range, model factory)
KINDS = {
    "timoshenko-linear": ("beam", ("lagrange", "spline"), (1, 1),
                          lambda m: BeamModel(m, MAT)),
    "timoshenko-cubic": ("beam", ("spline",), (3, 3),
                         lambda m: BeamModel(m, MAT)),
    "euler-bernoulli": ("beam", ("spline",), (2, 3),
                        lambda m: BeamModel(m, MAT, "euler_bernoulli")),
    "mindlin": ("plate", ("lagrange", "spline"), (1, 3),
                lambda m: PlateModel(m, MAT, "mindlin")),
    "kirchhoff": ("plate", ("spline",), (2, 3),
                  lambda m: PlateModel(m, MAT, "kirchhoff")),
    "solid2d": ("solid2d", ("lagrange", "spline"), (1, 3),
                lambda m: SolidModel(m, MAT)),
    "solid3d": ("solid3d", ("lagrange", "spline"), (1, 2),
                lambda m: SolidModel(m, MAT)),
}


@st.composite
def cut_models(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    model, bases, (plo, phi), make = KINDS[kind]
    dim = 3 if model == "solid3d" else 2 if model != "beam" else 1
    basis = draw(st.sampled_from(bases))
    degree = 1 if basis == "lagrange" else draw(st.integers(plo, phi))
    nelems = draw(st.lists(st.integers(1, 3 if dim == 3 else 4),
                           min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 4.0), min_size=dim,
                            max_size=dim))
    mesh = build_mesh(model, basis, degree, nelems,
                      [(0.0, h) for h in lengths])
    bounds = []
    for n, h in zip(nelems, lengths):
        # Ends just off an element boundary leave slivers no rule sees.
        slivers = (np.linspace(0.0, h, n + 1)[:, None]
                   + np.array([-1e-4, 1e-4]) * h / n).ravel().tolist()
        ends = st.one_of(st.floats(-0.5, h + 0.5), st.sampled_from(slivers))
        lo = draw(st.one_of(st.just(-INF), ends, ends))
        hi = draw(st.one_of(st.just(INF), ends, ends))
        assume(lo < hi)
        bounds.append((lo, hi))
    ncut = draw(st.sampled_from((2, 3, 4) if dim == 3 else (2, 3, 5, 10)))
    threshold = draw(st.sampled_from((0.01, 0.05, 0.2)))
    return make(mesh), OverlapRegion(bounds), ncut, threshold


def oracle_cut_rule(mesh, e, region, ncut):
    """The ncut-point tensor rule of one element with its covered points
    dropped, or None where none survives."""
    local, wts = tensor_rule(
        [element_interval(d, i)
         for d, i in zip(mesh.dirs, mesh.element_grid_index(e))],
        (ncut,) * mesh.dim)
    keep = ~inside(region, local)
    return (local[keep], wts[keep]) if keep.any() else None


BODY = np.array([1.0, -2.0, 0.5])


def oracle_nonconforming(inner, region, ncut, threshold):
    """Labels, pinned DOFs, dense bulk matrix and the pressure load
    (plates) or body force `BODY` (solids), one element at a time on
    filtered rules; raises what the model must raise. A cut element no
    rule point survives on is VOID once the pinned nodes are known."""
    mesh = inner.mesh
    labels = _classify_exact(mesh, region)
    rules = {e: oracle_cut_rule(mesh, e, region, ncut)
             for e in np.nonzero(labels == CUT)[0].tolist()}
    ien = mesh.ien()
    support = np.zeros(mesh.nnodes)
    alive = np.zeros(mesh.nnodes)
    for e in range(mesh.nelem):
        gi = mesh.element_grid_index(e)
        full = np.prod([hi - lo for d, i in zip(mesh.dirs, gi)
                        for lo, hi in [element_interval(d, i)]])
        out = full if labels[e] == STANDARD else 0.0
        if rules.get(e) is not None:
            out = rules[e][1].sum()
        support[ien[e]] += full
        alive[ien[e]] += out
    inactive = np.nonzero(alive < threshold * support)[0]
    for e in rules:
        if set(ien[e]) <= set(inactive.tolist()):
            raise OverDeactivationError(e)
    labels[[e for e, rule in rules.items() if rule is None]] = VOID
    live = [e for e in range(mesh.nelem) if labels[e] != VOID]
    K = np.zeros((inner.ndof, inner.ndof))
    f = np.zeros(inner.ndof)
    for e in live:
        d = inner.element_dofs(e)
        K[np.ix_(d, d)] += inner.element_stiffness(e, quadrature=rules.get(e))
        if isinstance(inner, PlateModel):
            f[d] += inner.pressure_element(e, -2.0, rules.get(e))
        if isinstance(inner, SolidModel):
            w, J = quadrature_data(mesh, e, rules.get(e))
            f[d] += np.einsum("q,qn,c->nc", w, J[0], BODY[:mesh.dim]).ravel()
    nc = inner.ncomp_node
    dofs = (inactive[:, None] * nc + np.arange(nc)).ravel()
    return labels, dofs, K, f


class TestBatchedCutOracle:
    @settings(max_examples=80, deadline=None)
    @given(cut_models())
    def test_matches_per_element_filtered_rules(self, case):
        inner, region, ncut, threshold = case
        try:
            labels, dofs, K, f = oracle_nonconforming(
                inner, region, ncut, threshold)
        except OverDeactivationError as exc:
            with pytest.raises(type(exc)):
                NonconformingModel(inner, region, threshold=threshold,
                                   ncut=ncut)
            return
        nc = NonconformingModel(inner, region, threshold=threshold,
                                ncut=ncut)
        np.testing.assert_array_equal(nc.labels, labels)
        np.testing.assert_array_equal(nc.inactive_dofs, dofs)
        np.testing.assert_array_equal(
            nc.part_index(np.arange(inner.mesh.nelem)) < 0, labels == VOID)
        scale = max(np.abs(K).max(), 1e-300)
        np.testing.assert_allclose(System([nc]).bulk_matrix().toarray(), K,
                                   rtol=0, atol=1e-13 * scale)
        if isinstance(inner, PlateModel):
            np.testing.assert_allclose(nc.pressure_load(-2.0), f, rtol=0,
                                       atol=1e-13 * np.abs(f).max())
        if isinstance(inner, SolidModel):
            np.testing.assert_allclose(nc.body_force(BODY[:inner.mesh.dim]),
                                       f, rtol=0, atol=1e-13 * np.abs(f).max())


class TestLoadsOverParts:
    """Every load of a wrapped model integrates its live parts only."""

    @staticmethod
    def half_covered_solid(lo=2.0):
        """4x2 Q4 solid on [0, 4] x [0, 2], covered for x > ``lo``."""
        solid = SolidModel(build_mesh("solid2d", "lagrange", 1, (4, 2),
                                      ((0.0, 4.0), (0.0, 2.0))), MAT)
        return solid, NonconformingModel(
            solid, OverlapRegion(((lo, INF), (-INF, INF))))

    def test_body_force_over_live_parts(self):
        solid, nc = self.half_covered_solid()
        f = nc.body_force((0.0, -1.0))
        # The live area x < 2, not the whole mesh (-8).
        assert f.sum() == pytest.approx(-4.0, rel=1e-12)
        ref = np.zeros(solid.ndof)
        for e in range(solid.mesh.nelem):
            if solid.mesh.element_grid_index(e)[0] < 2:
                w, J = quadrature_data(solid.mesh, e)
                ref[solid.element_dofs(e)] += np.einsum(
                    "q,qn,c->nc", w, J[0], (0.0, -1.0)).ravel()
        np.testing.assert_array_equal(f, ref)
        # The middle node on x = 2 (node 7) carries two live elements.
        assert f[2 * 7 + 1] == pytest.approx(-0.5, rel=1e-12)
        assert not f.reshape(-1, 2)[solid.mesh.nodes[:, 0] > 2.0].any()

    def test_face_load_on_void_or_cut_facet_raises(self):
        solid, nc = self.half_covered_solid(lo=2.5)
        assert list(nc.labels[:4]) == [STANDARD, STANDARD, CUT, VOID]
        t = (0.3, 1.0)
        for strip in (None, ((0.0, 3.0),), ((3.2, 4.0),)):
            with pytest.raises(ConfigError, match="void or cut"):
                nc.traction_force(1, -1, t, strip=strip)
        with pytest.raises(ConfigError, match="void or cut"):
            nc.traction_force(0, 1, t)
        # On STANDARD facets only, the load is the plain model's.
        for axis, side, strip in ((1, -1, ((0.0, 2.0),)), (0, -1, None)):
            np.testing.assert_array_equal(
                nc.traction_force(axis, side, t, strip=strip),
                solid.traction_force(axis, side, t, strip=strip))

    def test_edge_load_on_cut_facet_raises(self):
        plate, region = _cut_plate_model()
        nc = NonconformingModel(plate, region)
        with pytest.raises(ConfigError, match="void or cut"):
            nc.edge_load(1, -1, 2.0)
        np.testing.assert_array_equal(nc.edge_load(1, 1, 2.0),
                                      plate.edge_load(1, 1, 2.0))

    def test_point_load_on_dead_element_raises(self):
        nc = sliver_beam_model()
        # Elements 0 (x in [0, 3], covered) and 1 (starved) are VOID.
        for x in (1.0, 4.5):
            with pytest.raises(ConfigError, match="void$"):
                nc.point_load(x, (0.0, -1.0, 0.0))
        for x in (6.0, 24.0):
            np.testing.assert_array_equal(
                nc.point_load(x, (0.0, -1.0, 0.0)),
                nc._model.point_load(x, (0.0, -1.0, 0.0)))


# The Kronecker cut assembly against per-element quadrature ---------------

@st.composite
def kronecker_cut_cases(draw):
    """A model of every kind (`test_metamorphic.models`: degree 1-4), the
    overlap region drawn per direction, and ncut 1-10. Per direction the
    region lies beside the mesh (it then covers nothing), holds the whole
    line, is a half line or an interval inside the mesh, has both bounds
    on element breaks, or leaves a sliver of 1e-3 to 1e-9 of an element
    uncovered."""
    model = draw(models())
    bounds = []
    for d in model.mesh.dirs:
        h, n = d.hi, d.nelem
        breaks = np.linspace(0.0, h, n + 1).tolist()
        x = sorted(draw(st.floats(0.0, h)) for _ in range(2))
        at = draw(st.integers(0, n - 1))
        sliver = 10.0 ** -draw(st.integers(3, 9)) * h / n
        how = draw(st.sampled_from(["beside", "all", "below", "above",
                                    "inside", "breaks", "sliver"]))
        bounds.append({
            "beside": (h + 0.5, h + 1.0),
            "all": (-INF, INF),
            "below": (-INF, max(x[1], 1e-3 * h)),
            "above": (min(x[0], h - 1e-3 * h), INF),
            "inside": (x[0], max(x[1], x[0] + 1e-3 * h)),
            "breaks": (breaks[at], breaks[at + 1]),
            "sliver": (-INF, breaks[at + 1] - sliver),
        }[how])
    return model, OverlapRegion(bounds), draw(st.integers(1, 10))


def kronecker_oracle(inner, region, ncut, values):
    """Dense bulk matrix and load of constant ``values`` of the overlapped
    ``inner``: the STANDARD elements over their grid boxes as the plain
    model assembles them (`stiffness_separable`, `load_separable`), plus
    every CUT element's `stiffness_quadrature` matrix and element load on
    its `integrate_cut` row."""
    mesh = inner.mesh
    labels = classify(mesh, region)
    boxes = mesh.element_boxes(np.flatnonzero(labels == STANDARD))
    form = inner.stiffness_form()
    U = sum((p.toarray() for p in stiffness_separable(
        mesh, part_form(form, None), boxes)), np.zeros((inner.ndof,) * 2))
    K = U + U.T - np.diag(np.diag(U))
    f = np.multiply.outer(load_separable(mesh, [(1.0, None, None)], boxes),
                          values).ravel()
    cut = np.flatnonzero(labels == CUT)
    if cut.size:
        rows = integrate_cut(mesh, cut, region, ncut)
        dofs = inner.element_dofs(cut)
        for d, Ke, fe in zip(dofs, stiffness_quadrature(mesh, cut, form, rows),
                             inner.element_load(cut, values, rows)):
            K[np.ix_(d, d)] += Ke
            f[d] += fe
    return K, f


class TestKroneckerCutOracle:
    @settings(max_examples=150, deadline=None)
    @given(kronecker_cut_cases(), st.data())
    def test_matches_per_element_quadrature(self, case, data):
        """The CUT elements' two Kronecker products (the full rule minus
        its covered points) give the bulk matrix and constant loads of
        per-element quadrature on the `integrate_cut` rows, to 1e-13 of
        the largest entry."""
        inner, region, ncut = case
        try:
            nc = NonconformingModel(inner, region, ncut=ncut)
        except OverDeactivationError:
            assume(False)
        values = np.array(data.draw(st.lists(
            st.floats(-2.0, 2.0), min_size=inner.ncomp_node,
            max_size=inner.ncomp_node)))
        K, f = kronecker_oracle(inner, region, ncut, values)
        np.testing.assert_allclose(
            System([nc]).bulk_matrix().toarray(), K, rtol=0,
            atol=1e-13 * max(np.abs(K).max(), 1e-300))
        np.testing.assert_allclose(nc.element_sum(values), f, rtol=0,
                                   atol=1e-13 * max(np.abs(f).max(), 1e-300))
