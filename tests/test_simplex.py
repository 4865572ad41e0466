import itertools

import numpy as np
import pytest

from mudal import simplex
from mudal.bounds import complexity_ratio
from mudal.simplex import (BudgetLedger, SimilarityMatrix, assign_budget,
                           column_importance, greedy_increments, largest_remainder_round,
                           project_simplex)


def grid_simplex_points(n, step):
    total = int(round(1.0 / step))
    pts = []
    for combo in itertools.product(range(total + 1), repeat=n - 1):
        if sum(combo) <= total:
            pts.append([c * step for c in combo] + [(total - sum(combo)) * step])
    return np.array(pts)


def project_one_row(v):
    """The one-row sort-based projection the row-wise kernel replaced, as the
    bitwise oracle."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / ind > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


class TestProjectSimplex:
    def test_rows_match_the_one_row_projection_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 6, 9):
            rows = rng.standard_normal((200, n)) * rng.choice([0.01, 1.0, 100.0], size=(200, 1))
            want = np.stack([project_one_row(r) for r in rows])
            assert np.array_equal(project_simplex(rows).view(np.int64), want.view(np.int64))
            for r, w in zip(rows[:20], want):
                assert np.array_equal(project_simplex(r).view(np.int64), w.view(np.int64))

    def test_rejects_magnitudes_beyond_float64_precision(self):
        # u - (u - 1) reads 0 once u passes 2**53, so no entry tests positive
        with pytest.raises(ValueError, match="too large"):
            project_simplex(np.array([[0.2, 0.8], [1e17, 0.0]]))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3), (2, 2, 2)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="nonempty"):
            project_simplex(np.ones(shape))

    def test_identity_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-13)

    def test_symmetric_point(self):
        np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5, 0.5])),
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-13)

    def test_matches_grid_search_oracle(self):
        v = np.array([1.2, -0.3, 0.1])
        grid = grid_simplex_points(3, 0.001)
        dists = np.sum((grid - v) ** 2, axis=1)
        oracle = grid[np.argmin(dists)]
        np.testing.assert_allclose(project_simplex(v), oracle, atol=1e-3)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = project_simplex(rng.standard_normal(6) * 3)
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = project_simplex(rng.standard_normal(5))
            np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            project_simplex(np.array([1.0, np.inf]))


class TestSimilarityMatrix:
    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SimilarityMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SimilarityMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SimilarityMatrix(np.full((2, 2), bad))

    def test_nan_csv_rejected(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("L0,L1\nnan,nan\n0.5,0.5\n")
        with pytest.raises(ValueError, match="finite"):
            SimilarityMatrix.from_csv(path)

    def test_non_square_csv_rejected(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("L0,L1,L2\n0.5,0.25,0.25\n0.2,0.3,0.5\n")
        with pytest.raises(ValueError, match="square"):
            SimilarityMatrix.from_csv(path)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = np.stack([project_simplex(rng.random(5)) for _ in range(5)])
        m = SimilarityMatrix(rows)
        path = tmp_path / "alpha.csv"
        m.to_csv(path)
        back = SimilarityMatrix.from_csv(path)
        np.testing.assert_allclose(back.alpha, m.alpha, atol=1e-8)
        np.testing.assert_allclose(back.alpha.sum(axis=1), 1.0, atol=1e-6)


class TestColumnImportance:
    def test_identity_matrix(self):
        np.testing.assert_allclose(column_importance(np.eye(4)), 0.25)

    def test_equal_rows(self):
        w = np.array([0.1, 0.2, 0.7])
        alpha = np.tile(w, (3, 1))
        np.testing.assert_allclose(column_importance(alpha), w, atol=1e-15)

    def test_matches_hand_sum(self):
        rng = np.random.default_rng(3)
        alpha = np.stack([project_simplex(rng.random(4)) for _ in range(4)])
        hand = np.array([sum(alpha[i][j] for i in range(4)) / 4 for j in range(4)])
        np.testing.assert_allclose(column_importance(alpha), hand, atol=1e-15)
        np.testing.assert_allclose(column_importance(alpha).sum(), 1.0, atol=1e-9)


def enumeration_oracle(fractions, m):
    """All nonnegative integer vectors summing to m, ranked by L1 adjustment."""
    n = len(fractions)
    best, best_cost = [], None
    for combo in itertools.product(range(m + 1), repeat=n):
        if sum(combo) != m:
            continue
        cost = sum(abs(c - f) for c, f in zip(combo, fractions))
        if best_cost is None or cost < best_cost - 1e-12:
            best, best_cost = [combo], cost
        elif abs(cost - best_cost) <= 1e-12:
            best.append(combo)
    return best


class TestLargestRemainder:
    def test_tie_broken_by_lower_index(self):
        np.testing.assert_array_equal(largest_remainder_round(np.array([2.5, 2.5]), 5), [3, 2])

    def test_integers_unchanged(self):
        np.testing.assert_array_equal(largest_remainder_round(np.array([1.0, 2.0, 2.0]), 5),
                                      [1, 2, 2])

    def test_matches_enumeration_oracle(self):
        fractions = np.array([1.7, 2.6, 0.7])
        result = largest_remainder_round(fractions, 5)
        assert result.sum() == 5
        # the rule floors to (1,2,0) and hands out 2 units by fractional part
        # .7, .7, .6 with ties toward the lower index
        np.testing.assert_array_equal(result, [2, 2, 1])
        assert tuple(result) in enumeration_oracle(fractions.tolist(), 5)

    def test_random_cases_are_minimal_adjustment(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = 6
            frac = rng.random(3)
            frac = frac / frac.sum() * m
            out = largest_remainder_round(frac, m)
            assert out.sum() == m
            assert tuple(out) in enumeration_oracle(frac.tolist(), m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            largest_remainder_round(np.array([-0.5, 5.5]), 5)

    @pytest.mark.parametrize("fractions, m", [([5.0, 5.0], 3), ([0.2, 0.3], 4),
                                              ([1.0, 1.0], 3), ([np.nan, 1.0], 1)])
    def test_rejects_fractions_not_within_one_of_m(self, fractions, m):
        # ([5, 5], 3) used to give [4, 4] and ([0.2, 0.3], 4) [1, 1]
        with pytest.raises(ValueError, match="not within 1"):
            largest_remainder_round(np.array(fractions), m)

    def test_sum_just_within_one_of_m(self):
        np.testing.assert_array_equal(largest_remainder_round(np.array([1.5, 1.49]), 2), [1, 1])
        np.testing.assert_array_equal(largest_remainder_round(np.array([0.6, 0.5]), 2), [1, 1])


def round_capped_loop(raw, m, capacities):
    """Oracle: the clamp, scale and round of `_round_capped`, then its
    capacity repair repeated until nothing overshoots."""
    x = np.minimum(np.maximum(raw, 0.0), capacities.astype(np.float64))
    if x.sum() <= 0:
        x = capacities.astype(np.float64).copy()
    incr = largest_remainder_round(x * (m / x.sum()), m)
    while True:
        over = incr - capacities
        excess = int(over[over > 0].sum())
        if excess == 0:
            return incr
        incr = np.minimum(incr, capacities)
        spare = capacities - incr
        for j in np.argsort(-spare, kind="stable"):
            if excess == 0:
                break
            give = int(min(spare[j], excess))
            incr[j] += give
            excess -= give


def test_one_capacity_repair_pass_matches_the_repeated_loop():
    rng = np.random.default_rng(11)
    repaired = 0
    for _ in range(3000):
        n = int(rng.integers(1, 7))
        capacities = rng.integers(0, 12, n)
        if capacities.sum() == 0:
            continue
        m = int(rng.integers(1, capacities.sum() + 1))
        raw = rng.normal(0.0, 1.0, n) * rng.choice([0.1, 1.0, 10.0]) * m
        got = simplex._round_capped(raw, m, capacities)
        want = round_capped_loop(raw, m, capacities)
        assert np.array_equal(got, want), (raw, m, capacities)
        assert got.sum() == m and np.all(got <= capacities) and np.all(got >= 0)
        x = np.minimum(np.maximum(raw, 0.0), capacities)
        repaired += x.sum() > 0 and np.any(largest_remainder_round(x * (m / x.sum()), m)
                                           > capacities)
    assert repaired > 100  # the repair pass ran


@pytest.mark.parametrize("tiny", [2.2250738585e-311, 5e-324, 1e-300])
def test_subnormal_desires_scale_without_overflow(tiny):
    # m / sum overflows for a subnormal sum: the property test
    # test_assigned_increments_sum_to_m_within_capacity drew 2.2e-311
    with np.errstate(over="raise"):
        got = simplex._round_capped(np.array([0.0, 0.0, 0.0, tiny, 0.0]), 1,
                                    np.array([0, 0, 0, 1, 0]))
    np.testing.assert_array_equal(got, [0, 0, 0, 1, 0])


class TestBudgetLedger:
    def test_beta_identity(self):
        ledger = BudgetLedger(m0=12, m=6, initial_counts=np.array([4, 4, 4]))
        ledger.record(np.array([3, 2, 1]))
        ledger.record(np.array([0, 3, 3]))
        counts = np.array([4 + 3 + 0, 4 + 2 + 3, 4 + 1 + 3])
        np.testing.assert_allclose(ledger.beta(2), counts / (12 + 2 * 6))
        np.testing.assert_allclose(ledger.beta(2).sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(ledger.beta(1), np.array([7, 6, 5]) / 18)

    def test_bad_increment_sum_rejected(self):
        ledger = BudgetLedger(m0=6, m=4, initial_counts=np.array([3, 3]))
        with pytest.raises(ValueError, match="sum to m"):
            ledger.record(np.array([2, 1]))

    def test_negative_increment_rejected(self):
        ledger = BudgetLedger(m0=6, m=4, initial_counts=np.array([3, 3]))
        with pytest.raises(ValueError, match="nonnegative"):
            ledger.record(np.array([5, -1]))

    def test_initial_counts_must_sum_to_m0(self):
        with pytest.raises(ValueError, match="sum to m0"):
            BudgetLedger(m0=5, m=2, initial_counts=np.array([3, 3]))


class TestAssignBudget:
    def test_uniform_importance_recovers_even_split(self):
        n, m0, m = 4, 8, 8
        ledger = BudgetLedger(m0=m0, m=m, initial_counts=np.full(n, 2))
        cols = np.full(n, 0.25)
        incr = assign_budget(cols, ledger, 1, capacities=np.full(n, 100), mode="cal_optimal")
        np.testing.assert_array_equal(incr, [2, 2, 2, 2])

    def test_hand_traced_pipeline(self):
        # N=2, m0=m=10, labeled (5,5), alpha columns (0.8,0.2): domain 0's gains
        # 0.64 / (c (c+1)) for c = 5..14 run 0.0213 down to 0.0030, all above
        # domain 1's first, 0.04 / 30 = 0.0013, so all 10 go to domain 0
        ledger = BudgetLedger(m0=10, m=10, initial_counts=np.array([5, 5]))
        incr = assign_budget(np.array([0.8, 0.2]), ledger, 1, capacities=np.array([50, 50]),
                             mode="cal_optimal")
        np.testing.assert_array_equal(incr, [10, 0])

    def test_sum_and_nonnegativity_forced(self):
        rng = np.random.default_rng(5)
        n, m = 5, 17
        ledger = BudgetLedger(m0=10, m=m, initial_counts=np.array([2, 2, 2, 2, 2]))
        for _ in range(20):
            cols = project_simplex(rng.random(n))
            incr = assign_budget(cols, ledger, 1, capacities=np.full(n, 40), mode="cal_optimal")
            assert incr.sum() == m
            assert np.all(incr >= 0)

    def test_capacity_respected(self):
        ledger = BudgetLedger(m0=4, m=6, initial_counts=np.array([2, 2]))
        incr = assign_budget(np.array([1.0, 0.0]), ledger, 1, capacities=np.array([3, 10]),
                             mode="cal_optimal")
        assert incr.sum() == 6
        assert incr[0] <= 3

    def test_infeasible_rejected(self):
        ledger = BudgetLedger(m0=4, m=6, initial_counts=np.array([2, 2]))
        with pytest.raises(ValueError, match="infeasible"):
            assign_budget(np.array([0.5, 0.5]), ledger, 1, capacities=np.array([2, 3]),
                          mode="cal_optimal")

    def test_paper_literal_mode(self):
        # raw = (alpha - prev) * m = (0.2, -0.2) * 10 -> clamp (2, 0) -> scale to 10
        ledger = BudgetLedger(m0=10, m=10, initial_counts=np.array([5, 5]))
        incr = assign_budget(np.array([0.7, 0.3]), ledger, 1,
                             capacities=np.array([50, 50]), mode="paper_literal",
                             prev_alpha_cols=np.array([0.5, 0.5]))
        np.testing.assert_array_equal(incr, [10, 0])

    def test_paper_literal_needs_previous(self):
        ledger = BudgetLedger(m0=10, m=10, initial_counts=np.array([5, 5]))
        with pytest.raises(ValueError, match="previous"):
            assign_budget(np.array([0.7, 0.3]), ledger, 1,
                          capacities=np.array([50, 50]), mode="paper_literal")

    def test_unknown_mode_rejected(self):
        ledger = BudgetLedger(m0=10, m=10, initial_counts=np.array([5, 5]))
        with pytest.raises(ValueError, match="unknown budget mode"):
            assign_budget(np.array([0.5, 0.5]), ledger, 1, capacities=np.array([9, 9]),
                          mode="target_tracking")

    def test_round_zero_rejected(self):
        ledger = BudgetLedger(m0=10, m=10, initial_counts=np.array([5, 5]))
        with pytest.raises(ValueError, match="round"):
            assign_budget(np.array([0.5, 0.5]), ledger, 0, capacities=np.array([9, 9]),
                          mode="cal_optimal")


class TestGreedyIncrements:
    def test_ties_go_to_the_lower_index(self):
        np.testing.assert_array_equal(greedy_increments([0.5, 0.5], [3, 3], 3, [9, 9]), [2, 1])

    def test_zero_count_under_a_positive_weight_is_served_first(self):
        np.testing.assert_array_equal(greedy_increments([0.1, 0.9], [0, 50], 1, [5, 5]), [1, 0])

    def test_zero_weights_fill_from_the_lowest_index(self):
        np.testing.assert_array_equal(greedy_increments([0.0, 0.0, 0.0], [0, 4, 1], 5,
                                                        [2, 9, 9]), [2, 3, 0])

    def test_capacity_binds(self):
        np.testing.assert_array_equal(greedy_increments([0.9, 0.1], [1, 1], 6, [2, 9]), [2, 4])

    def test_no_units(self):
        out = greedy_increments([0.5, 0.5], [1, 1], 0, [3, 3])
        np.testing.assert_array_equal(out, [0, 0])
        assert out.dtype.kind == "i"


class TestCalOptimalMinimizesTheComplexityTerm:
    def test_no_feasible_split_does_better(self):
        # every increment vector within capacity, so every pooled (joint) split,
        # and `separate`'s even split, against cal_optimal at the same alpha and pool
        rng = np.random.default_rng(16)
        for _ in range(400):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 10))
            initial = rng.integers(1, 8, size=n)
            ledger = BudgetLedger(int(initial.sum()), m, initial)
            capacities = rng.integers(0, m + 1, size=n)
            capacities[rng.integers(n)] += max(0, m - int(capacities.sum()))
            cols = rng.dirichlet(np.ones(n))
            cols[rng.random(n) < 0.15] = 0.0
            incr = assign_budget(cols, ledger, 1, capacities, "cal_optimal")
            assert incr.sum() == m and np.all((incr >= 0) & (incr <= capacities))
            best = complexity_ratio(cols, initial + incr)
            candidates = [x for x in itertools.product(*(range(c + 1) for c in capacities))
                          if sum(x) == m]
            if np.all(m // n <= capacities):
                candidates.append(np.full(n, m // n))
            for x in candidates:
                assert best <= complexity_ratio(cols, initial + np.array(x)) * (1 + 1e-12), (
                    cols, initial, capacities, incr, x)

