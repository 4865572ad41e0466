"""Properties of the row-wise simplex projection and the batched alpha step,
over inputs that hypothesis draws."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from mudal.objective import alpha_step  # noqa: E402
from mudal.simplex import project_simplex  # noqa: E402

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
rows = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite))
square = st.integers(1, 6).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, n), elements=finite), arrays(np.float64, (n, n), elements=finite)))
PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(rows)
def test_projected_rows_are_on_the_simplex(v):
    w = project_simplex(v)
    assert w.shape == v.shape
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)


@PROPERTY
@given(rows)
def test_projection_is_idempotent(v):
    w = project_simplex(v)
    np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)


@PROPERTY
@given(square, st.sampled_from([1e-3, 0.5, 1e3]))
def test_no_row_value_rises_after_alpha_step(pair, lr):
    alpha, coeffs = pair
    out = alpha_step(alpha, coeffs, lr)
    for i in range(alpha.shape[0]):
        assert float(out[i] @ coeffs[i]) <= float(alpha[i] @ coeffs[i]) + 1e-12
