"""Tensor-product Gauss rules: the reference rule of one box
(`oracles.tensor_rule`) and the batched builder
`quadrature.tensor_rules`, which must reproduce it bit for bit."""
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdfem.quadrature import tensor_rules
from oracles import tensor_rule


boxes = st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 5.0),
              st.integers(1, 5)),
    max_size=3)


@settings(max_examples=60, deadline=None)
@given(boxes)
def test_integrates_tensor_monomials_exactly(dirs):
    intervals = [(a, a + h) for a, h, _ in dirs]
    counts = [n for *_, n in dirs]
    pts, wts = tensor_rule(intervals, counts)
    assert pts.shape == (math.prod(counts), len(dirs))
    for degs in itertools.product(*[range(2 * n) for n in counts]):
        mono = np.ones(len(wts))
        for k, p in enumerate(degs):
            mono = mono * pts[:, k] ** p
        exact = math.prod((b ** (p + 1) - a ** (p + 1)) / (p + 1)
                          for (a, b), p in zip(intervals, degs))
        scale = wts @ np.abs(mono)
        assert abs(wts @ mono - exact) <= 1e-11 * max(scale, 1.0)


@settings(max_examples=30, deadline=None)
@given(boxes)
def test_points_are_ordered_first_direction_fastest(dirs):
    intervals = [(a, a + h) for a, h, _ in dirs]
    counts = [n for *_, n in dirs]
    pts, _ = tensor_rule(intervals, counts)
    grid = pts.reshape(*counts[::-1], len(counts))
    for k, (box, n) in enumerate(zip(intervals, counts)):
        x1, _ = tensor_rule([box], [n])
        shape = [1] * len(counts)
        shape[len(counts) - 1 - k] = n
        np.testing.assert_array_equal(
            grid[..., k], np.broadcast_to(x1[:, 0].reshape(shape),
                                          grid.shape[:-1]))


def test_zero_directions_give_one_unit_point():
    pts, wts = tensor_rule([], [])
    assert pts.shape == (1, 0)
    np.testing.assert_array_equal(wts, [1.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_batched_rules_equal_the_rule_of_each_box(dim, data):
    counts = data.draw(st.lists(st.integers(1, 5), min_size=dim,
                                max_size=dim))
    lo = st.floats(-10.0, 10.0)
    bounds = [np.array([(a, a + h) for a, h in data.draw(st.lists(
        st.tuples(lo, st.floats(0.1, 5.0)), min_size=1, max_size=4))])
        for _ in range(dim)]
    nbox = data.draw(st.integers(0, 6))
    index = [np.array(data.draw(st.lists(st.integers(0, len(b) - 1),
                                         min_size=nbox, max_size=nbox)),
                      dtype=int) for b in bounds]
    pts, wts, rules = tensor_rules(bounds, index, counts)
    assert pts.shape == (nbox, math.prod(counts), dim)
    for k, (x, at) in enumerate(rules):
        assert x.shape == (len(bounds[k]), counts[k])
        np.testing.assert_array_equal(x[at], pts[..., k])
    for row in range(nbox):
        p1, w1 = tensor_rule([tuple(b[i[row]]) for b, i in zip(bounds, index)],
                             counts)
        np.testing.assert_array_equal(pts[row], p1)
        np.testing.assert_array_equal(wts[row], w1)
