"""Properties of the branch-free leaky ReLU: its forward and its derivative
mask equal the `np.where` forms bit for bit, over arrays that hypothesis
draws with signed zeros, subnormals and values near the float64 limits."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from mudal.nn import LEAKY_SLOPE, _activate, _activation_grad  # noqa: E402

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 2.2250738585072014e-308,
           -2.2250738585072014e-308, 1e308, -1e308, np.inf, -np.inf)
values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_subnormal=True, width=64))
blocks = arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=values)
# the same examples on every run, and none replayed from a database
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


@PROPERTY
@given(blocks)
def test_leaky_forward_equals_the_where_form(z):
    np.testing.assert_array_equal(bits(_activate(z.copy(), "leaky_relu")),
                                  bits(np.where(z > 0.0, z, LEAKY_SLOPE * z)))


@PROPERTY
@given(blocks, blocks)
def test_leaky_gradient_equals_the_where_form(z, delta):
    a = _activate(z.copy(), "leaky_relu")
    grad = _activation_grad(a, "leaky_relu", np.empty_like(a))
    where = np.where(a > 0.0, 1.0, LEAKY_SLOPE)
    np.testing.assert_array_equal(bits(grad), bits(where))
    # backward's product, taken on a delta of the same shape
    delta = np.resize(delta, a.shape)
    np.testing.assert_array_equal(bits(grad * delta), bits(delta * where))


def test_the_special_values_at_once():
    z = np.array([SPECIAL])
    a = _activate(z.copy(), "leaky_relu")
    np.testing.assert_array_equal(bits(a), bits(np.where(z > 0.0, z, LEAKY_SLOPE * z)))
    np.testing.assert_array_equal(_activation_grad(a, "leaky_relu", np.empty_like(a)),
                                  np.where(z > 0.0, 1.0, LEAKY_SLOPE))
