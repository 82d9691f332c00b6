import numpy as np
import pytest

from persal import SaliencyGrid, cc, emd, kld_judd, kld_plain, sim, summarize, transport, write_grid
from persal.errors import (
    DimMismatchError,
    NotNormalizedError,
    UndefinedRatioError,
    ZeroVarianceError,
)
from persal.cli import _eval_one
from persal.metrics import (
    KLD_JUDD_EPS,
    _axis_matrix,
    _mass_preserving_downsample,
    cc_rows,
    evaluate_pair,
    sim_rows,
)
from lp_oracle import emd_oracle
from ssp_oracle import ssp_transport
from synth import normalized_grid, tiny_cell_triple

EPS = KLD_JUDD_EPS


def dist(rows):
    v = np.asarray(rows, dtype=np.float64)
    return SaliencyGrid(v)


def grid(rows):
    return SaliencyGrid(np.asarray(rows, dtype=np.float64))


class TestCc:
    def test_self_correlation(self):
        g = grid([[0.1, 0.9], [0.4, 0.2]])
        assert abs(cc(g, g) - 1.0) <= 1e-12

    def test_perfect_anticorrelation(self):
        assert cc(grid([[1.0, 0.0]]), grid([[0.0, 1.0]])) == -1.0

    def test_affine_invariance(self):
        p = grid([[1.0, 2.0, 3.0, 4.0]])
        q = grid([[2.0, 4.0, 6.0, 8.0]])
        assert abs(cc(p, q) - 1.0) <= 1e-12
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.random((6, 6))
            w = rng.random((6, 6))
            a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 2.0))
            assert abs(cc(SaliencyGrid(v), SaliencyGrid(w))
                       - cc(SaliencyGrid(a * v + b), SaliencyGrid(w))) <= 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        p, q = SaliencyGrid(rng.random((5, 5))), SaliencyGrid(rng.random((5, 5)))
        assert cc(p, q) == cc(q, p)

    def test_constant_grid_undefined(self):
        with pytest.raises(ZeroVarianceError):
            cc(grid([[1.0, 1.0]]), grid([[0.3, 0.7]]))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            cc(grid([[1.0, 0.0]]), grid([[1.0], [0.0]]))


class TestSim:
    def test_identity(self):
        p = dist([[0.25, 0.25], [0.25, 0.25]])
        assert sim(p, p) == 1.0

    def test_disjoint_supports(self):
        assert sim(dist([[1.0, 0.0]]), dist([[0.0, 1.0]])) == 0.0

    def test_hand_value(self):
        p = dist([[0.5, 0.5, 0.0, 0.0]])
        q = dist([[0.25, 0.25, 0.25, 0.25]])
        assert sim(p, q) == 0.5

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p, q = normalized_grid(rng, 4, 4), normalized_grid(rng, 4, 4)
            s = sim(p, q)
            assert s == sim(q, p)
            assert 0.0 <= s <= 1.0
            assert s < 1.0  # distinct random grids

    def test_requires_normalization(self):
        with pytest.raises(NotNormalizedError):
            sim(grid([[0.5, 0.2]]), dist([[0.5, 0.5]]))


class TestRowKernels:
    def test_each_row_is_its_own_cc_and_sim_bit_for_bit(self):
        # the tune sweep scores all candidates of an image in one call; each
        # row must be what cc and sim give that candidate alone
        rng = np.random.default_rng(15)
        for h, w in [(38, 38), (16, 16), (5, 7), (1, 3)]:
            a = rng.dirichlet(np.ones(h * w), 14)
            a[3] = 0.25  # a constant row: its CC is undefined
            b = rng.dirichlet(np.ones(h * w))
            c, s = cc_rows(a, b), sim_rows(a, b)
            q = SaliencyGrid(b.reshape(h, w))
            for k, row in enumerate(a):
                p = SaliencyGrid(row.reshape(h, w))
                if k == 3:
                    assert np.isnan(c[k])
                    with pytest.raises(ZeroVarianceError):
                        cc(p, q)
                    continue
                assert c[k] == cc(p, q)
                assert s[k] == sim(p, q)


class TestDownsample:
    def test_overlap_matrices_built_once_per_shape_and_read_only(self):
        _axis_matrix.cache_clear()
        v = np.random.default_rng(17).random((38, 38))
        first = _mass_preserving_downsample(v, 12, 12)
        for _ in range(3):
            assert np.array_equal(_mass_preserving_downsample(v, 12, 12), first)
        _mass_preserving_downsample(v[:, :20], 12, 12)
        info = _axis_matrix.cache_info()
        assert (info.misses, info.hits) == (2, 8)  # (38, 12), then (20, 12)
        m = _axis_matrix(38, 12)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


class TestKldJudd:
    def test_identity_tiny(self):
        p = dist([[0.25, 0.25], [0.25, 0.25]])
        assert abs(kld_judd(p, p)) <= 1e-12

    def test_false_positive_mild(self):
        # q concentrated, p uniform: log(eps + 1/0.25) ~ log 4
        p = dist([[0.25, 0.25, 0.25, 0.25]])
        q = dist([[1.0, 0.0, 0.0, 0.0]])
        assert abs(kld_judd(p, q) - np.log(4.0)) <= 1e-9
        assert abs(np.log(4.0) - 1.3862943611) <= 1e-9

    def test_false_negative_huge(self):
        # p concentrated, q uniform: dominated by q/eps terms, ~25.5
        p = dist([[1.0, 0.0, 0.0, 0.0]])
        q = dist([[0.25, 0.25, 0.25, 0.25]])
        expected = 0.25 * (np.log(EPS + 0.25 / (EPS + 1.0)) + 3 * np.log(EPS + 0.25 / EPS))
        got = kld_judd(p, q)
        assert abs(got - expected) <= 1e-9
        assert 25.0 < got < 26.0

    def test_asymmetric(self):
        p = dist([[0.25, 0.25, 0.25, 0.25]])
        q = dist([[1.0, 0.0, 0.0, 0.0]])
        assert kld_judd(p, q) != kld_judd(q, p)

    def test_identity_is_the_minimum_over_candidates(self):
        rng = np.random.default_rng(3)
        q = normalized_grid(rng, 4, 4)
        at_identity = kld_judd(q, q)
        for _ in range(10):
            assert kld_judd(normalized_grid(rng, 4, 4), q) >= at_identity


class TestKldPlain:
    def test_identity_zero(self):
        p = dist([[0.5, 0.5]])
        assert kld_plain(p, p) == 0.0

    def test_hand_values(self):
        got = kld_plain(dist([[0.5, 0.5]]), dist([[0.25, 0.75]]))
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.1438) <= 5e-5

    def test_zero_times_log_zero(self):
        got = kld_plain(dist([[1.0, 0.0]]), dist([[0.5, 0.5]]))
        assert abs(got - np.log(2.0)) <= 1e-12

    def test_undefined_ratio(self):
        with pytest.raises(UndefinedRatioError):
            kld_plain(dist([[0.5, 0.5]]), dist([[1.0, 0.0]]))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert kld_plain(normalized_grid(rng, 4, 4), normalized_grid(rng, 4, 4)) >= 0.0


class TestEmd:
    def test_identity_zero(self):
        p = dist([[0.5, 0.25], [0.125, 0.125]])
        cost, plan = emd(p, p)
        assert cost == 0.0
        for i, j, _ in plan.flows:
            assert i == j  # mass stays in place

    def test_corner_to_corner(self):
        p = grid([[1.0, 0.0], [0.0, 0.0]])
        q = grid([[0.0, 0.0], [0.0, 1.0]])
        cost, plan = emd(p, q)
        assert abs(cost - np.sqrt(2.0)) <= 1e-12
        assert plan.flows == ((0, 3, 1.0),)

    def test_manhattan_distance_option(self):
        p = grid([[1.0, 0.0], [0.0, 0.0]])
        q = grid([[0.0, 0.0], [0.0, 1.0]])
        cost, _ = emd(p, q, distance="manhattan")
        assert abs(cost - 2.0) <= 1e-12

    def test_empty_versus_mass_is_pure_penalty(self):
        p = dist([[0.5, 0.5], [0.0, 0.0]])
        q = grid([[0.0, 0.0], [0.0, 0.0]])
        cost, plan = emd(p, q)
        assert abs(cost - np.sqrt(2.0)) <= 1e-12  # 1 * max distance
        assert plan.flows == ()

    def test_both_empty_zero_by_convention(self):
        z = grid([[0.0, 0.0]])
        cost, plan = emd(z, z)
        assert cost == 0.0 and plan.flows == ()

    def test_matches_lp_oracle_with_unequal_masses(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            p = rng.random((3, 3))
            q = rng.random((3, 3)) * float(rng.uniform(0.3, 2.0))
            if trial % 3 == 0:
                p[rng.random((3, 3)) < 0.5] = 0.0
            ref = emd_oracle(p, q)
            got, _ = emd(SaliencyGrid(p), SaliencyGrid(q))
            assert abs(got - ref) <= 1e-6

    def test_flow_plan_constraints(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = rng.random((4, 4))
            q = rng.random((4, 4)) * 0.7
            _, plan = emd(SaliencyGrid(p), SaliencyGrid(q))
            n = 16
            F = np.zeros((n, n))
            for i, j, m in plan.flows:
                assert m >= 0
                F[i, j] += m
            assert np.all(F.sum(axis=1) <= p.ravel() + 1e-12)
            assert np.all(F.sum(axis=0) <= q.ravel() + 1e-12)
            assert abs(F.sum() - min(p.sum(), q.sum())) <= 1e-12

    def test_shift_property(self):
        for k in (1, 2, 3, 4):
            p = np.zeros((3, 6))
            q = np.zeros((3, 6))
            p[1, 0] = 1.0
            q[1, k] = 1.0
            cost, _ = emd(SaliencyGrid(p), SaliencyGrid(q))
            assert abs(cost - k) <= 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b, c = (normalized_grid(rng, 3, 3) for _ in range(3))
            dab, _ = emd(a, b)
            dba, _ = emd(b, a)
            dbc, _ = emd(b, c)
            dac, _ = emd(a, c)
            assert abs(dab - dba) <= 1e-12
            assert dac <= dab + dbc + 1e-12

    def test_sub_tolerance_source_beside_rounding_dummy(self):
        # an LP solver's presolve once declared this residual problem
        # infeasible: a 5e-10 source and a 1.1e-16 dummy sink left by the
        # balancing step
        p = np.zeros((3, 5))
        q = np.zeros((3, 5))
        p[1, 4] = p[2, 0] = 0.49999999975
        p[2, 1] = 4.9999999975e-10
        q[2, 2] = q[2, 3] = 0.43473574241697555
        q[2, 4] = 0.1305285151660488
        got, _ = emd(SaliencyGrid(p), SaliencyGrid(q))
        ref = emd_oracle(p, q)
        assert abs(got - ref) <= 1e-7 * ref

    def test_tiny_cell_beside_rounding_dummy_matches_ssp_oracle(self, monkeypatch):
        # HiGHS-IPM gave up on this residual problem ("Solve error"): a
        # 1.83e-9 source, and a dummy sink holding 1.1e-16 of rounding
        _, q, r = tiny_cell_triple()
        got, _ = emd(q, r)
        monkeypatch.setattr(transport, "solve_transport", ssp_transport)
        ref, _ = emd(q, r)
        assert abs(got - ref) <= 1e-12 * ref

    def test_every_cell_moves_its_own_distance(self):
        # 2e-9 of the mass travels 2 cells and the rest 1: an absolute
        # tolerance of 1e-7 gave 0.999999998 one way and 1.0 the other
        p = SaliencyGrid(np.array([[0.0, 1.0 - 2e-9, 2e-9]]))
        q = SaliencyGrid(np.array([[1.0, 0.0, 0.0]]))
        for a, b in ((p, q), (q, p)):
            assert abs(emd(a, b)[0] - 1.000000002) <= 1e-12

    def test_downsampling_large_inputs(self):
        rng = np.random.default_rng(8)
        p = SaliencyGrid(rng.random((38, 38)))
        cost, plan = emd(p, p, resolution=8)
        assert plan.grid_shape == (8, 8)
        assert cost == 0.0  # identical inputs downsample identically

    def test_achieved_cost_matches_flows(self):
        rng = np.random.default_rng(9)
        p, q = normalized_grid(rng, 3, 3), normalized_grid(rng, 3, 3)
        cost, plan = emd(p, q)
        rows, cols = np.divmod(np.arange(9), 3)
        total = sum(
            m * np.hypot(rows[i] - rows[j], cols[i] - cols[j]) for i, j, m in plan.flows
        )
        assert abs(total - cost) <= 1e-12
        assert abs(plan.total_cost - cost) <= 1e-15


def score(pairs):
    """Per-pair records plus their summary, without the file round trip."""
    return summarize([evaluate_pair(p, q, str(i)) for i, (p, q) in enumerate(pairs)], {})


class TestEvaluate:
    def test_identical_pair_means(self):
        rng = np.random.default_rng(10)
        p = normalized_grid(rng, 8, 8)
        report = score([(p, p)])
        assert abs(report.means["cc"] - 1.0) <= 1e-12
        assert abs(report.means["sim"] - 1.0) <= 1e-9
        assert abs(report.means["kld_judd"]) <= 1e-12
        assert report.means["kld_plain"] == 0.0
        assert report.means["emd"] == 0.0
        assert report.failures == 0

    def test_mean_is_arithmetic_average(self):
        rng = np.random.default_rng(11)
        pairs = [(normalized_grid(rng, 4, 4), normalized_grid(rng, 4, 4)) for _ in range(2)]
        report = score(pairs)
        per = [r.sim for r in report.records]
        assert abs(report.means["sim"] - np.mean(per)) <= 1e-15

    def test_cc_exclusion_counted(self):
        n = 4
        uniform = SaliencyGrid(np.full((n, n), 1 / n**2))
        rng = np.random.default_rng(12)
        other = normalized_grid(rng, n, n)
        report = score([(uniform, other), (other, other)])
        assert report.cc_excluded == 1
        assert report.records[0].cc is None
        assert report.records[0].sim is not None
        assert abs(report.means["cc"] - 1.0) <= 1e-12  # only the defined pair

    def test_per_image_failures_do_not_abort(self, tmp_path):
        # the per-image error boundary is the CLI's file-level evaluator
        rng = np.random.default_rng(13)
        good = normalized_grid(rng, 4, 4)
        bad = SaliencyGrid(rng.random((4, 4)))  # unnormalized -> sim fails
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        tasks = []
        for name, p in (("bad", bad), ("good", good)):
            write_grid(p, tmp_path / "pred" / f"{name}.fgrd")
            write_grid(good, tmp_path / "gt" / f"{name}.fgrd")
            tasks.append((str(tmp_path / "pred" / f"{name}.fgrd"),
                          str(tmp_path / "gt" / f"{name}.fgrd"), False, 32, "euclidean"))
        report = summarize([_eval_one(t) for t in tasks], {})
        assert report.failures == 1
        assert report.records[0].error is not None
        assert report.records[1].error is None

    def test_evaluate_pair_fields(self):
        rng = np.random.default_rng(14)
        p, q = normalized_grid(rng, 4, 4), normalized_grid(rng, 4, 4)
        r = evaluate_pair(p, q, "img")
        assert r.image_id == "img"
        assert all(v is not None for v in (r.cc, r.sim, r.kld_judd, r.kld_plain, r.emd))
