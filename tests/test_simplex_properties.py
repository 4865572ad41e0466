"""Properties of the row-wise simplex projection, the batched alpha step and
the budget rounding and assignment, over inputs that hypothesis draws."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from mudal.objective import alpha_step  # noqa: E402
from mudal.simplex import (BudgetLedger, assign_budget,  # noqa: E402
                           largest_remainder_round, project_simplex)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
rows = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite))
square = st.integers(1, 6).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, n), elements=finite), arrays(np.float64, (n, n), elements=finite)))
PROPERTY = settings(max_examples=150, deadline=None)


def shares(n):
    """n nonnegative weights scaled to sum to 1 (uniform when all are 0)."""
    return arrays(np.float64, n, elements=st.floats(0.0, 1.0)).map(
        lambda w: w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n))


@st.composite
def budget_rounds(draw):
    """A ledger after some query rounds, the next round's index, unlabeled
    capacities that hold at least m, and the current and previous alpha columns."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 60))
    initial = np.array(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)))
    ledger = BudgetLedger(int(initial.sum()), m, initial)
    for _ in range(draw(st.integers(0, 3))):
        owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        ledger.record(np.bincount(owners, minlength=n))
    capacities = np.array(draw(st.lists(st.integers(0, 80), min_size=n, max_size=n)))
    capacities[draw(st.integers(0, n - 1))] += max(0, m - int(capacities.sum()))
    return ledger, len(ledger.increments) + 1, capacities, draw(shares(n)), draw(shares(n))


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


@PROPERTY
@given(st.integers(1, 8).flatmap(shares), st.integers(0, 500))
def test_largest_remainder_round_keeps_each_share_within_one(share, m):
    raw = share * m
    out = largest_remainder_round(raw, m)
    assert out.dtype.kind == "i"
    assert np.all(out >= 0)
    assert out.sum() == m
    assert np.all(np.abs(out - raw) <= 1.0)


@PROPERTY
@given(budget_rounds(), st.sampled_from(["cal_optimal", "paper_literal"]))
def test_assigned_increments_sum_to_m_within_capacity(case, mode):
    ledger, r, capacities, cols, prev_cols = case
    incr = assign_budget(cols, ledger, r, capacities, mode, prev_alpha_cols=prev_cols)
    assert incr.dtype.kind == "i"
    assert incr.sum() == ledger.m
    assert np.all((incr >= 0) & (incr <= capacities))
