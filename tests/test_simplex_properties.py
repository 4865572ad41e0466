"""Properties of the row-wise simplex projection, the batched alpha step, the
budget rounding and assignment and the greedy allocator, over inputs that
hypothesis draws."""
import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from mudal.objective import alpha_step  # noqa: E402
from mudal.simplex import (BudgetLedger, assign_budget, greedy_increments,  # noqa: E402
                           largest_remainder_round, project_simplex)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
rows = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite))
square = st.integers(1, 6).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, n), elements=finite), arrays(np.float64, (n, n), elements=finite)))
# the same examples on every run, and none replayed from a database
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


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


def per_label_greedy(weights, counts, m, capacities):
    """Hand out m units one at a time, each to the domain whose term
    w^2 / count falls most (ties to the lower index): the reference for
    `greedy_increments`' one sort."""
    w2 = np.asarray(weights, dtype=np.float64) ** 2
    c = np.asarray(counts, dtype=np.float64).copy()
    x = np.zeros(w2.size, dtype=np.int64)
    for _ in range(m):
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(w2 > 0, w2 / (c * (c + 1.0)), 0.0)
        gain[x >= capacities] = -np.inf
        j = int(np.argmax(gain))
        x[j] += 1
        c[j] += 1.0
    return x


@st.composite
def allocations(draw, min_count=0):
    """Weights (some tied, some zero), counts, m and capacities that hold m."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 80))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5])
                                     | st.floats(0.0, 1.0), min_size=n, max_size=n)))
    counts = np.array(draw(st.lists(st.integers(min_count, 40), min_size=n, max_size=n)))
    capacities = np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    capacities[draw(st.integers(0, n - 1))] += max(0, m - int(capacities.sum()))
    return weights, counts, m, capacities


@PROPERTY
@given(allocations())
def test_greedy_increments_equal_the_per_label_loop(case):
    weights, counts, m, capacities = case
    np.testing.assert_array_equal(greedy_increments(weights, counts, m, capacities),
                                  per_label_greedy(weights, counts, m, capacities))


@PROPERTY
@given(allocations(min_count=1))
def test_cal_optimal_admits_no_better_unit_move(case):
    # a separable convex objective is at its integer minimum under the sum and
    # box constraints iff no one-unit move between two domains lowers it, so
    # this certifies cal_optimal's increments against every feasible split
    cols, counts, m, capacities = case
    ledger = BudgetLedger(int(counts.sum()), m, counts)
    incr = assign_budget(cols, ledger, 1, capacities, "cal_optimal")
    assert incr.sum() == m and np.all((incr >= 0) & (incr <= capacities))
    w2 = cols ** 2
    after = counts + incr
    for j, k in itertools.permutations(range(cols.size), 2):
        if incr[j] > 0 and incr[k] < capacities[k]:
            saved = w2[k] / after[k] - w2[k] / (after[k] + 1)
            lost = w2[j] / (after[j] - 1) - w2[j] / after[j]
            assert saved <= lost + 1e-12 * np.sum(w2 / after), (j, k)
    if np.all(m // cols.size <= capacities):
        even = counts + m // cols.size
        assert np.sum(w2 / after) <= np.sum(w2 / even) * (1 + 1e-12)

