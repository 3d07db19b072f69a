"""Basis-layer tests.

The fast span-local evaluator is checked against a naive Cox-de Boor
recursion written independently here (0/0 == 0 convention), against
closed-form Bernstein values, and against finite differences.
"""
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from mdfem.bspline import (
    SplineDir,
    _check_knots,
    _rationalize,
    least_squares_project,
    make_open_knots,
)
from mdfem.errors import ConfigError, DomainError
from oracles import (basis_ders, eval_basis, find_span, span_index,
                     span_interval, tensor_rule)


def evaluate_spline(kv, coeffs, xs, nders=0):
    """Evaluate a spline expansion (and derivatives) at the given
    parameters, one `eval_basis` call per point."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros((xs.size, nders + 1) + coeffs.shape[1:])
    for i, x in enumerate(xs):
        ders, idx = eval_basis(kv, x, nders)
        for k in range(nders + 1):
            out[i, k] = np.tensordot(ders[k], coeffs[idx], axes=(0, 0))
    return out


def naive_bspline(knots, p, i, x):
    """Textbook Cox-de Boor recursion with the 0/0 == 0 convention."""
    if p == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    out = 0.0
    den = knots[i + p] - knots[i]
    if den > 1e-14:
        out += (x - knots[i]) / den * naive_bspline(knots, p - 1, i, x)
    den = knots[i + p + 1] - knots[i + 1]
    if den > 1e-14:
        out += (knots[i + p + 1] - x) / den * naive_bspline(knots, p - 1, i + 1, x)
    return out


def random_kv(seed, degree=3, nbreaks=5, rational=False):
    rng = np.random.default_rng(seed)
    breaks = np.sort(rng.uniform(0.0, 10.0, nbreaks))
    breaks[0], breaks[-1] = 0.0, 10.0
    knots = make_open_knots(degree, breaks)
    weights = None
    if rational:
        weights = rng.uniform(0.5, 2.0, knots.size - degree - 1)
    return SplineDir(knots, degree, weights)


def oracle_project(kv, target):
    """`least_squares_project` one span at a time: a tensor rule, a basis
    call and a target call per span, then a Gram and right-hand-side
    update per Gauss point."""
    gram, rhs = np.zeros((kv.n, kv.n)), None
    for e in range(kv.nelem):
        span = span_index(kv, e)
        xs, ws = tensor_rule([span_interval(kv, span)], [kv.degree + 1])
        xs = xs[:, 0]
        vals = np.asarray(target(xs), dtype=float)
        if rhs is None:
            rhs = np.zeros((kv.n,) + vals.shape[1:])
        idx = np.arange(span - kv.degree, span + 1)
        ders = kv.eval(e, xs, 0)
        for q, w in enumerate(ws):
            Nq = ders[q, 0]
            gram[np.ix_(idx, idx)] += w * np.outer(Nq, Nq)
            rhs[idx] += w * np.multiply.outer(Nq, vals[q])
    c = sla.cho_factor(gram)
    return sla.cho_solve(c, rhs.reshape(kv.n, -1)).reshape(rhs.shape)


class TestFindSpan:
    kv = SplineDir(np.array([0, 0, 0, 1, 2, 3, 4, 4, 5, 5, 5], dtype=float), 2)

    def test_interior(self):
        span = find_span(self.kv, 2.5)
        assert span_interval(self.kv, span) == (2.0, 3.0)

    def test_right_endpoint_maps_to_last_nonempty_span(self):
        kv = SplineDir(np.array([0.0, 0.0, 1.0, 1.0]), 1)
        span = find_span(kv, 1.0)
        assert span_interval(kv, span) == (0.0, 1.0)

    def test_left_endpoint(self):
        kv = SplineDir(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), 2)
        assert find_span(kv, 0.0) == 2

    def test_repeated_interior_knot(self):
        span = find_span(self.kv, 4.0)
        assert span_interval(self.kv, span) == (4.0, 5.0)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            find_span(self.kv, 5.0 + 1e-9)
        with pytest.raises(DomainError):
            find_span(self.kv, -0.1)


class TestEvalBasis:
    def test_bernstein_midpoint(self):
        kv = SplineDir(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), 2)
        ders, idx = eval_basis(kv, 0.5)
        assert_allclose(ders[0], [0.25, 0.5, 0.25])
        assert list(idx) == [0, 1, 2]

    def test_matches_naive_recursion(self):
        kv = random_kv(42)
        for x in np.linspace(0.01, 9.99, 23):
            ders, idx = eval_basis(kv, x)
            expected = [naive_bspline(kv.knots, kv.degree, i, x) for i in idx]
            assert_allclose(ders[0], expected, atol=1e-12)

    def test_partition_of_unity_and_derivative_sums(self):
        for seed in range(5):
            kv = random_kv(seed, degree=2 + seed % 3, rational=seed % 2 == 1)
            for x in np.linspace(0.0, 10.0, 17):
                ders, _ = eval_basis(kv, x, nders=2)
                assert_allclose(ders[0].sum(), 1.0, atol=1e-12)
                assert_allclose(ders[1].sum(), 0.0, atol=1e-9)
                assert_allclose(ders[2].sum(), 0.0, atol=1e-8)

    def test_nonnegative_with_local_support(self):
        kv = random_kv(7)
        ders, idx = eval_basis(kv, 3.33)
        assert ders[0].min() >= -1e-14
        assert idx.size == kv.degree + 1

    def test_interpolatory_at_multiplicity_p_knot(self):
        kv = SplineDir(np.array([0, 0, 0, 1, 2, 3, 4, 4, 5, 5, 5], dtype=float), 2)
        ders, idx = eval_basis(kv, 4.0)
        assert_allclose(np.sort(ders[0]), [0.0, 0.0, 1.0], atol=1e-14)

    def test_finite_difference_derivatives(self):
        kv = random_kv(3, degree=3)
        h = 1e-6
        for x in [0.5, 2.7, 6.1, 9.2]:
            d0m, im = eval_basis(kv, x - h)
            d0p, ip = eval_basis(kv, x + h)
            ders, idx = eval_basis(kv, x, nders=2)
            assert list(im) == list(ip) == list(idx)
            fd1 = (d0p[0] - d0m[0]) / (2 * h)
            fd2 = (d0p[0] - 2 * ders[0] + d0m[0]) / h**2
            assert_allclose(ders[1], fd1, rtol=1e-5, atol=1e-5)
            assert_allclose(ders[2], fd2, rtol=1e-3, atol=1e-3)

    def test_rational_finite_difference(self):
        kv = random_kv(11, degree=2, rational=True)
        h = 1e-6
        x = 4.2
        d0m, _ = eval_basis(kv, x - h)
        d0p, _ = eval_basis(kv, x + h)
        ders, _ = eval_basis(kv, x, nders=2)
        assert_allclose(ders[1], (d0p[0] - d0m[0]) / (2 * h), rtol=1e-5, atol=1e-6)
        assert_allclose(
            ders[2], (d0p[0] - 2 * ders[0] + d0m[0]) / h**2, rtol=1e-3, atol=1e-3
        )

    def test_derivative_order_cap(self):
        kv = random_kv(0)
        with pytest.raises(DomainError):
            eval_basis(kv, 1.0, nders=3)

    def test_degree_zero_derivatives_are_zero(self):
        kv = SplineDir(np.array([0.0, 1.0, 2.0]), 0)
        ders, _ = eval_basis(kv, 0.5, nders=2)
        assert_allclose(ders[0], [1.0])
        assert_allclose(ders[1:], 0.0)

    def test_quarter_circle_nurbs(self):
        # Quadratic rational arc: exact circle x^2 + y^2 = 1.
        kv = SplineDir(
            np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), 2,
            weights=np.array([1.0, np.sqrt(0.5), 1.0]),
        )
        ctrl = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        xy = evaluate_spline(kv, ctrl, np.linspace(0, 1, 31))[:, 0]
        assert_allclose(np.hypot(xy[:, 0], xy[:, 1]), 1.0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(1, 4),
    t=st.floats(0.001, 0.999),
    seed=st.integers(0, 1000),
)
def test_partition_of_unity_property(degree, t, seed):
    kv = random_kv(seed, degree=degree, nbreaks=4 + seed % 4)
    lo, hi = kv.lo, kv.hi
    x = lo + t * (hi - lo)
    ders, _ = eval_basis(kv, x, nders=min(degree, 2))
    assert abs(ders[0].sum() - 1.0) < 1e-12
    assert ders[0].min() >= -1e-14


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(1, 4),
    nbreaks=st.integers(2, 6),
    rational=st.booleans(),
    nders=st.integers(0, 2),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_batched_basis_equals_stacked_single_points(degree, nbreaks, rational,
                                                    nders, seed, data):
    """One call over a batch of points equals one call per point, bit for
    bit, including points just outside the span (Newton iterates)."""
    kv = random_kv(seed, degree=degree, nbreaks=nbreaks, rational=rational)
    e = data.draw(st.integers(0, kv.nelem - 1))
    span = span_index(kv, e)
    a, b = span_interval(kv, span)
    u = data.draw(st.lists(st.floats(-0.05, 1.05), min_size=1, max_size=12))
    xs = a + (b - a) * np.array(u)

    batch = basis_ders(kv.knots, degree, xs, span, nders)
    assert batch.shape == (xs.size, nders + 1, degree + 1)
    assert batch.flags.c_contiguous
    single = np.stack([basis_ders(kv.knots, degree, x, span, nders)[0]
                       for x in xs])
    assert np.array_equal(batch, single)

    vals = kv.eval(e, xs, nders)
    assert vals.flags.c_contiguous
    assert np.array_equal(
        vals, np.stack([kv.eval(e, [x], nders)[0] for x in xs]))


@settings(max_examples=150, deadline=None)
@given(
    degree=st.integers(0, 4),
    nbreaks=st.integers(2, 7),
    repeat=st.booleans(),
    rational=st.booleans(),
    nders=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_eval_matches_the_knot_insertion_triangle(degree, nbreaks, repeat,
                                                 rational, nders, seed, data):
    """`SplineDir.eval` (Horner steps on per-span Taylor tables) against
    the knot-insertion triangle of `oracles.basis_ders`, with the same
    quotient rule for NURBS weights: each derivative order within 1e-13
    of its largest entry, on every span at once and at points up to 5 %
    of the span outside it (the polynomial extension). At the span ends
    the entries the triangle gives as exact zeros are exact zeros: the
    coupling keeps only columns with a nonzero entry."""
    rng = np.random.default_rng(seed)
    breaks = np.cumsum(rng.uniform(0.05, 3.0, nbreaks)) - 4.0
    if repeat and nbreaks > 2 and degree > 1:
        # An interior knot of multiplicity up to the degree.
        k = rng.integers(1, nbreaks - 1)
        breaks = np.sort(np.concatenate(
            [breaks, np.full(rng.integers(1, degree), breaks[k])]))
    weights = None
    if rational:
        weights = rng.uniform(0.5, 2.0, breaks.size + degree - 1)
    kv = SplineDir(make_open_knots(degree, breaks), degree, weights)
    npts = data.draw(st.integers(1, 12))
    e = rng.integers(0, kv.nelem, npts)
    a, b = kv.intervals()[e].T
    xs = a + (b - a) * rng.uniform(-0.05, 1.05, npts)
    e, xs = np.tile(e, 3), np.concatenate([xs, a, b])
    npts *= 3
    got = kv.eval(e, xs, nders)
    assert got.shape == (npts, nders + 1, degree + 1)
    assert got.flags.c_contiguous
    span = kv.indices(e)[:, -1]
    want = basis_ders(kv.knots, degree, xs, span, nders)
    if rational:
        want = _rationalize(want, kv.weights[kv.indices(e)], nders)
    for k in range(nders + 1):
        scale = np.abs(want[:, k]).max()
        np.testing.assert_allclose(got[:, k], want[:, k], rtol=0,
                                   atol=1e-13 * scale)
    ends = np.arange(npts) >= npts // 3
    assert not got[ends][want[ends] == 0].any()
    # One element for all points gives the same values.
    one = kv.eval(int(e[0]), xs, nders)
    np.testing.assert_array_equal(
        one, kv.eval(np.full(npts, e[0]), xs, nders))


class TestGreville:
    def test_affine_reproduction(self):
        # Greville-weighted basis sums reproduce the identity map.
        kv = random_kv(5, degree=3)
        g = kv.greville()
        for x in np.linspace(0, 10, 21):
            ders, idx = eval_basis(kv, x)
            assert_allclose(ders[0] @ g[idx], x, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(degree=st.integers(1, 10), nbreaks=st.integers(2, 12),
           repeat=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_moving_average_loop(self, degree, nbreaks, repeat,
                                            seed):
        """Bit for bit the mean of each window of ``degree`` knots, summed
        one window at a time."""
        rng = np.random.default_rng(seed)
        breaks = np.cumsum(rng.uniform(0.05, 3.0, nbreaks)) - 7.0
        # Interior knots repeated up to the degree (C0 at most).
        mult = rng.integers(1, min(repeat, degree) + 1, nbreaks - 2)
        knots = np.concatenate([np.full(degree + 1, breaks[0]),
                                np.repeat(breaks[1:-1], mult),
                                np.full(degree + 1, breaks[-1])])
        kv = SplineDir(knots, degree)
        loop = np.array([knots[i + 1:i + degree + 1].sum() / degree
                         for i in range(kv.n)])
        np.testing.assert_array_equal(kv.greville(), loop)

    def test_count_and_endpoints(self):
        kv = SplineDir(make_open_knots(3, np.arange(5.0)), 3)
        g = kv.greville()
        assert g.shape == (kv.n,)
        assert g[0] == 0.0 and g[-1] == 4.0
        assert np.all(np.diff(g) > 0)


class TestKnotVectorValidation:
    """`SplineDir` rejects knot vectors and weights it cannot carry."""

    def test_not_clamped(self):
        with pytest.raises(ConfigError):
            SplineDir(np.array([0.0, 1.0, 2.0, 3.0]), 1)

    def test_decreasing(self):
        with pytest.raises(ConfigError):
            SplineDir(np.array([0.0, 0.0, 2.0, 1.0, 3.0, 3.0]), 1)

    def test_excess_multiplicity(self):
        with pytest.raises(ConfigError):
            SplineDir(np.array([0, 0, 1, 1, 2, 2], dtype=float), 1)

    def test_bad_weights(self):
        knots = make_open_knots(2, [0.0, 1.0])
        with pytest.raises(ConfigError):
            SplineDir(knots, 2, weights=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ConfigError):
            SplineDir(knots, 2, weights=np.array([1.0, 1.0]))

    def test_count_rule(self):
        # functions = spans + degree for simple interior knots
        kv = SplineDir(make_open_knots(3, np.linspace(0, 4, 5)), 3)
        assert kv.n == 4 + 3
        assert kv.nelem == 4


def _reference_knot_error(knots, p):
    """`_check_knots` on non-decreasing knots by whole-array numpy
    calls (`np.allclose` on each clamped end, `np.unique` counts of the
    interior knots): the first one violated, or None."""
    if not (np.allclose(knots[:p + 1], knots[0])
            and np.allclose(knots[-p - 1:], knots[-1])):
        return "open"
    if knots[p] == knots[-p - 1]:
        return "empty domain"
    interior = knots[p + 1:-p - 1]
    if interior.size and np.unique(interior, return_counts=True)[1].max() > (
            max(p, 1)):
        return "multiplicity"
    return None


@st.composite
def _near_clamped_knots(draw):
    """Non-decreasing knots of degree p whose end runs lie inside, on or
    just past `np.allclose`'s tolerance of their end knot, with repeated
    interior knots."""
    p = draw(st.integers(0, 4))
    scale = draw(st.sampled_from([1e-12, 1e-3, 1.0, 1e5, 1e300]))
    lo = draw(st.floats(-1.0, 1.0)) * scale
    hi = lo + draw(st.sampled_from([0.0, 1e-9, 1.0]) | st.floats(0.0, 2.0)) * (
        scale)
    steps = st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0]) | (
        st.floats(0.0, 3.0))

    def near(end, sign):
        return end + sign * draw(steps) * (1e-8 + 1e-5 * abs(end))

    inner = draw(st.lists(st.floats(min(lo, hi), max(lo, hi)), max_size=6))
    inner += draw(st.lists(st.sampled_from(inner), max_size=4)) if inner else []
    knots = np.sort([lo, hi, *inner, *[near(lo, 1.0) for _ in range(p)],
                     *[near(hi, -1.0) for _ in range(p)]])
    return knots, p


@settings(max_examples=400, deadline=None)
@given(drawn=_near_clamped_knots())
@example(drawn=(np.array([0.0, 1e-8, 1.0, 1.0]), 1))  # on the tolerance
@example(drawn=(np.array([-1.0, -1.0, -1e-8, 0.0]), 1))
@example(drawn=(np.array([0.0, 1.0000001e-8, 1.0, 1.0]), 1))  # past it
def test_knot_checks_match_the_whole_array_form(drawn):
    """The clamped-end check compares only the innermost end knots, and
    the multiplicity check compares sorted knots m places apart; on
    non-decreasing knots both accept and reject what `np.allclose` and
    `np.unique` do."""
    knots, p = drawn
    try:
        _check_knots(knots, p)
        got = None
    except ConfigError as exc:
        got = next(w for w in ("open", "empty domain", "multiplicity")
                   if w in str(exc))
    assert got == _reference_knot_error(knots, p)


@pytest.mark.parametrize("knots, p", [
    ([0.0, 0.0, np.nan, 1.0, 1.0], 1),
    ([np.nan, 0.0, 1.0, 1.0], 1),
    ([0.0, 0.0, 1.0, np.inf, np.inf], 1),
    ([-np.inf, -np.inf, 0.0, 1.0, 1.0], 1),
    ([0.0, 1.0, np.inf], 0),
    ([-np.inf, 0.0, 1.0], 0),
])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_knots_are_rejected(knots, p):
    with pytest.raises(ConfigError):
        SplineDir(np.array(knots), p)


class TestLeastSquaresProject:
    def edge_kv(self):
        return SplineDir(make_open_knots(3, np.linspace(-3, 3, 5)), 3)

    def test_constant(self):
        kv = self.edge_kv()
        c = least_squares_project(kv, lambda y: np.full_like(y, 2.5))
        assert_allclose(c, 2.5, atol=1e-10)

    def test_idempotent_on_spline_space(self):
        kv = self.edge_kv()
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(kv.n)
        c = least_squares_project(
            kv, lambda y: evaluate_spline(kv, ref, y)[:, 0]
        )
        assert_allclose(c, ref, atol=1e-10)

    def test_cantilever_edge_profile(self):
        # Cubic end-profile of the shear-loaded cantilever: representable
        # exactly, so the expansion must match dense samples.
        P, E, nu, D, L = 1000.0, 3.0e7, 0.3, 6.0, 48.0
        I = D**3 / 12.0

        def ux(y):
            return P * y / (6 * E * I) * (2 + nu) * (y**2 - D**2 / 4)

        kv = self.edge_kv()
        c = least_squares_project(kv, ux)
        ys = np.linspace(-3, 3, 50)
        vals = evaluate_spline(kv, c, ys)[:, 0]
        ref = ux(ys)
        assert np.max(np.abs(vals - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_vector_target(self):
        kv = self.edge_kv()
        c = least_squares_project(
            kv, lambda y: np.stack([y, np.full_like(y, 1.0)], axis=-1)
        )
        ys = np.linspace(-3, 3, 9)
        vals = evaluate_spline(kv, c, ys)[:, 0]
        assert_allclose(vals[:, 0], ys, atol=1e-10)
        assert_allclose(vals[:, 1], 1.0, atol=1e-10)


class TestBatchedProjection:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 8), st.booleans(),
           st.integers(0, 2**32 - 1), st.integers(0, 2))
    def test_equals_per_span_loop(self, degree, nbreaks, rational, seed,
                                  ncomp):
        kv = random_kv(seed, degree, nbreaks, rational)
        c = np.random.default_rng(seed).standard_normal((4, max(ncomp, 1)))

        def target(y):
            # Arithmetic only, so values do not depend on the batch.
            y = y[:, None]
            v = c[0] + y * (c[1] + y * (c[2] + y * c[3]))
            return v[:, 0] if ncomp == 0 else v

        np.testing.assert_array_equal(least_squares_project(kv, target),
                                      oracle_project(kv, target))

    def test_one_basis_call_per_projection(self, monkeypatch):
        calls = []
        direct = SplineDir.eval

        def counted(*args):
            calls.append(args)
            return direct(*args)

        monkeypatch.setattr(SplineDir, "eval", counted)
        kv = random_kv(3, degree=3, nbreaks=7, rational=True)
        least_squares_project(kv, lambda y: y * y)
        assert len(calls) == 1 and len(calls[0][2]) == 4 * kv.nelem
