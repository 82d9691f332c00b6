import numpy as np
import pytest

from persal import transport
from persal.transport import solve_transport
from ssp_oracle import ssp_transport


def random_instance(rng, max_side=10, sparsify=False):
    S = int(rng.integers(1, max_side + 1))
    T = int(rng.integers(1, max_side + 1))
    cost = rng.random((S, T)) * 10.0
    supply = rng.random(S)
    demand = rng.random(T)
    if sparsify:
        supply[rng.random(S) < 0.4] = 0.0
        demand[rng.random(T) < 0.4] = 0.0
    if supply.sum() == 0 or demand.sum() == 0:
        supply[0] = demand[0] = 1.0
    demand *= supply.sum() / demand.sum()
    return supply, demand, cost


def assert_exact(F, supply, demand, cost):
    """F is an optimal plan: the oracle's cost, the marginals, no negative flow."""
    got = float((F * cost).sum())
    ref = float((ssp_transport(supply, demand, cost) * cost).sum())
    assert abs(got - ref) <= 1e-7 * max(1.0, abs(ref))
    assert np.all(F >= -1e-12)
    np.testing.assert_allclose(F.sum(axis=1), supply, atol=1e-9)
    np.testing.assert_allclose(F.sum(axis=0), demand, atol=1e-9)


class TestSolveTransport:
    def test_matches_ssp_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            supply, demand, cost = random_instance(rng, sparsify=trial % 3 == 0)
            F = solve_transport(supply, demand, cost)
            assert F.shape == cost.shape
            assert_exact(F, supply, demand, cost)
            assert np.count_nonzero(F) <= sum(cost.shape) - 1  # a vertex plan

    def test_small_residual_mass_is_exact(self):
        # Near-identical maps leave little residual mass spread over many
        # cells. HiGHS's feasibility tolerances are absolute (1e-7), so
        # without mass scaling these come back off by ~1e-7 or "infeasible".
        rows, cols = np.divmod(np.arange(144), 12)
        dist = np.hypot(rows[:, None] - rows[None, :], cols[:, None] - cols[None, :])
        for seed in range(4):
            rng = np.random.default_rng(seed)
            cells = rng.permutation(144)
            cost = dist[np.ix_(cells[:70], cells[70:140])]
            supply = rng.random(70) ** 4
            demand = rng.random(70) ** 4
            supply *= 1e-3 / supply.sum()
            demand *= 1e-3 / demand.sum()
            assert_exact(solve_transport(supply, demand, cost), supply, demand, cost)

    def test_trivial_single_pair(self):
        F = solve_transport(np.array([2.0]), np.array([2.0]), np.array([[3.0]]))
        assert F.shape == (1, 1)
        assert abs(F[0, 0] - 2.0) <= 1e-12

    def test_degenerate_zero_cost_ties(self):
        # many optimal plans; any of them must still satisfy the marginals
        supply = np.full(5, 0.2)
        demand = np.full(5, 0.2)
        cost = np.zeros((5, 5))
        F = solve_transport(supply, demand, cost)
        np.testing.assert_allclose(F.sum(axis=1), supply, atol=1e-12)
        np.testing.assert_allclose(F.sum(axis=0), demand, atol=1e-12)

    def test_zero_mass_gives_empty_plan(self):
        F = solve_transport(np.zeros(2), np.zeros(3), np.ones((2, 3)))
        assert F.shape == (2, 3)
        assert not F.any()

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([1.0]), np.array([2.0]), np.array([[1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([1.0, 1.0]), np.array([2.0]), np.array([[1.0]]))

    def test_default_export_is_active_backend(self):
        assert transport.BACKEND == "highs"
