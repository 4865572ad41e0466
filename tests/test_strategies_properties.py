"""k-means++ seeding over certified approximate distances picks exactly what
the direct loop picks, over inputs that hypothesis draws."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from test_strategies import direct_kmeanspp  # noqa: E402

from mudal.strategies import RankOneRows, kmeanspp_select  # noqa: E402

# small integers give exact duplicates, zero rows and exact ties
entries = st.one_of(st.integers(-3, 3).map(float),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
shapes = st.tuples(st.integers(1, 40), st.integers(1, 6))
# 1e-162 puts squared distances in the subnormal range; 1e140 stays below overflow
scales = st.sampled_from([1e-162, 1e-160, 1e-12, 1.0, 1e140])
seeds = st.integers(0, 2**32 - 1)
# the same examples on every run, and none replayed from a database
PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def assert_parity(vectors, fraction, seed):
    k = int(round(fraction * vectors.shape[0]))
    np.testing.assert_array_equal(kmeanspp_select(vectors, k, seed),
                                  direct_kmeanspp(vectors, k, seed))


@PROPERTY
@given(shapes.flatmap(lambda s: arrays(np.float64, s, elements=entries)), scales,
       st.floats(0.0, 1.0), seeds)
def test_pruned_picks_match_the_direct_loop(vectors, scale, fraction, seed):
    assert_parity(vectors * scale, fraction, seed)


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
           arrays(np.float64, (n, 3), elements=entries),
           arrays(np.float64, (n, 1), elements=st.floats(-12.0, 0.0)),
           arrays(np.float64, (n, 4), elements=entries))),
       scales, st.floats(0.0, 1.0), seeds)
def test_rank_one_rows_match_the_direct_loop(parts, scale, fraction, seed):
    # BADGE-shaped rows delta (x) h, with |delta| down to 1e-12
    delta, exponent, h = parts
    vectors = np.einsum("bc,bz->bcz", delta * 10.0 ** exponent, h).reshape(delta.shape[0], -1)
    assert_parity(vectors * scale, fraction, seed)


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
           arrays(np.float64, (n, 3), elements=entries),
           arrays(np.float64, (n, 1), elements=st.floats(-12.0, 0.0)),
           arrays(np.float64, (n, 4), elements=entries),
           st.none() | arrays(np.float64, (n,), elements=st.floats(0.0, 1.0)))),
       scales, st.booleans(), st.floats(0.0, 1.0), seeds)
def test_factored_rows_match_the_direct_loop(parts, scale, on_left, fraction, seed):
    # the same rows held as factors, with or without a GRADS-like score in [0, 1]
    delta, exponent, h, score = parts
    delta = delta * 10.0 ** exponent
    rows = (RankOneRows(delta * scale, h, score) if on_left
            else RankOneRows(delta, h * scale, score))
    k = int(round(fraction * len(rows)))
    np.testing.assert_array_equal(kmeanspp_select(rows, k, seed),
                                  direct_kmeanspp(rows.rows(slice(None)), k, seed))
