import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import persal
from persal import SaliencyGrid, transport, write_grid
from persal.cli import main
from persal.transport import solve_transport
from ssp_oracle import ssp_transport

SRC = str(Path(persal.__file__).resolve().parents[1])


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
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    assert np.all(F >= 0)
    mass = float(supply.sum())
    np.testing.assert_allclose(F.sum(axis=1), supply, rtol=0, atol=1e-12 * mass)
    np.testing.assert_allclose(F.sum(axis=0), demand, rtol=0, atol=1e-12 * mass)


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
        # cells; an absolute feasibility tolerance would be of the order of
        # the masses themselves. The network simplex has none.
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

    def test_degenerate_integer_masses_and_costs(self):
        # sources and sinks run out together all the time: degenerate pivots
        rng = np.random.default_rng(7)
        for _ in range(40):
            S, T = (int(x) for x in rng.integers(1, 9, 2))
            cost = rng.integers(0, 4, (S, T)).astype(float)
            supply = rng.integers(1, 4, S).astype(float)
            demand = rng.multinomial(int(supply.sum()), np.full(T, 1.0 / T)).astype(float)
            assert_exact(solve_transport(supply, demand, cost), supply, demand, cost)

    def test_zero_mass_nodes_get_no_flow(self):
        supply = np.array([0.0, 1.0, 0.0, 2.0])
        demand = np.array([1.5, 0.0, 1.5])
        cost = np.arange(12.0).reshape(4, 3) % 5
        F = solve_transport(supply, demand, cost)
        assert not F[[0, 2]].any() and not F[:, 1].any()
        assert_exact(F, supply, demand, cost)

    def test_invalid_masses_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([-1.0, 2.0]), np.array([1.0]), np.ones((2, 1)))
        with pytest.raises(ValueError):
            solve_transport(np.array([1.0]), np.array([1.0]), np.array([[np.nan]]))

    def test_default_export_is_active_backend(self):
        assert transport.BACKEND == "network-simplex"
        source = Path(persal.__file__).with_name("transport.c").read_bytes()
        assert transport.kernel_sha256() == hashlib.sha256(source).hexdigest()


SOLVE = ("import numpy as np; from persal.transport import solve_transport; "
         "print(solve_transport(np.ones(2), np.ones(2), np.eye(2)).tolist())")
SWAP = "[[0.0, 1.0], [1.0, 0.0]]"  # the plan of SOLVE


def python(code, cache, *args, **env):
    """Run ``code`` in a fresh interpreter whose kernel cache is ``cache``."""
    return subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache), **env))


class TestKernelBuild:
    def test_cold_cache_compiles_and_solves(self, tmp_path):
        out, err = python(SOLVE, tmp_path).communicate(timeout=120)
        assert out.strip() == SWAP, err
        assert [p.name for p in (tmp_path / "persal").iterdir()] == [
            f"transport-{os.uname().machine}-{transport.kernel_sha256()}.so"]

    def test_processes_racing_on_a_cold_cache_both_solve(self, tmp_path):
        procs = [python(SOLVE, tmp_path) for _ in range(2)]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0 and out.strip() == SWAP, err
        assert len(list((tmp_path / "persal").iterdir())) == 1  # no temporary file is left

    def test_missing_compiler_fails_each_image_not_the_batch(self, tmp_path):
        rng = np.random.default_rng(3)
        for d in ("pred", "gt"):
            (tmp_path / d).mkdir()
            for name in ("a", "b"):
                write_grid(SaliencyGrid(rng.random((4, 4))), tmp_path / d / f"{name}.fgrd")
        (tmp_path / "bin").mkdir()  # a PATH without cc
        proc = python("import sys; from persal.cli import main; sys.exit(main(sys.argv[1:]))",
                      tmp_path / "cache", "eval", "--pred", str(tmp_path / "pred"),
                      "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "report"),
                      "--jobs", "1", "--normalize", PATH=str(tmp_path / "bin"))
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert json.loads((tmp_path / "report" / "aggregate.json").read_text())[
            "counts"]["failures"] == 2
        rows = (tmp_path / "report" / "per_image.csv").read_text().splitlines()[1:]
        for row in rows:
            assert "RuntimeError: cannot compile the transport kernel: cc -O2 -fPIC" in row

    def test_kernel_error_names_code_and_size(self, monkeypatch):
        monkeypatch.setattr(transport, "pivot_limit", lambda S, T: 0)
        with pytest.raises(RuntimeError, match=r"^transport kernel error 1 \(pivot limit "
                                               r"reached\) on a 2x2 problem$"):
            solve_transport(np.ones(2), np.ones(2), np.eye(2))

    def test_kernel_error_is_a_failure_row(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        for d in ("pred", "gt"):
            (tmp_path / d).mkdir()
            for name in ("a", "b"):
                write_grid(SaliencyGrid(rng.random((4, 4))), tmp_path / d / f"{name}.fgrd")
        monkeypatch.setattr(transport, "pivot_limit", lambda S, T: 0)
        assert main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--out", str(tmp_path / "report"), "--jobs", "1", "--normalize"]) == 0
        rows = (tmp_path / "report" / "per_image.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert row.split(",")[6].startswith(
                "RuntimeError: transport kernel error 1 (pivot limit reached) on a ")
