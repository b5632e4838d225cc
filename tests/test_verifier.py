import numpy as np
import pytest

from conftest import capacity_network, identity_network, make_network, random_network
from safecomp.network import Layer, classify_batch, evaluate
from safecomp.regions import METRICS, Region, dist_many, region_membership
from safecomp.verifier import (
    Box,
    VerificationTask,
    enclosing_box,
    find_counterexample,
    propagate_bounds,
    score_gap_bound,
    verify_full,
    verify_targeted,
)


def box_region(center, radius, metric="Linf", expected=0, rid="r0"):
    return Region(rid, np.asarray(center, dtype=np.float64), radius, metric,
                  expected, 1, (0,))


def grid_labels_in_region(net, region, step=1e-3):
    """Dense-grid oracle: classifications of every grid point inside the region."""
    lo, hi = net.normalized_domain()
    lo = np.maximum(region.centroid - region.radius, lo)
    hi = np.minimum(region.centroid + region.radius, hi)
    axes = [np.arange(l, h + step / 2, step) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    inside = dist_many(region.metric, points, region.centroid) <= region.radius
    points = points[inside]
    if len(points) == 0:
        return points, np.array([], dtype=np.int64)
    return points, classify_batch(net, points)


class TestEnclosingBox:
    def test_linf_box_exact(self):
        region = box_region([0.0, 0.0], 0.5)
        box = enclosing_box(region)
        np.testing.assert_allclose(box.lo, [-0.5, -0.5])
        np.testing.assert_allclose(box.hi, [0.5, 0.5])

    def test_l1_box_circumscribes_ball(self):
        region = box_region([0.0, 0.0], 1.0, metric="L1")
        box = enclosing_box(region)
        np.testing.assert_allclose(box.lo, [-1.0, -1.0])
        np.testing.assert_allclose(box.hi, [1.0, 1.0])
        # the corner is inside the box but outside the L1 ball
        assert not region_membership(region, [1.0, 1.0])

    def test_five_dim_l1_region_clipped_to_domain(self):
        centroid = np.array([0.19, 0.31, 0.28, 0.33, 0.33])
        region = box_region(centroid, 0.28, metric="L1")
        box = enclosing_box(region, (np.zeros(5), np.ones(5)))
        np.testing.assert_allclose(box.lo, np.maximum(centroid - 0.28, 0.0))
        np.testing.assert_allclose(box.hi, np.minimum(centroid + 0.28, 1.0))
        assert box.lo[0] == 0.0  # 0.19 - 0.28 clips at the domain floor


class TestPropagateBounds:
    def test_identity_network_bounds_are_identity(self):
        net = identity_network()
        box = Box(np.array([0.1, 0.2]), np.array([0.6, 0.9]))
        bounds = propagate_bounds(net, box)
        np.testing.assert_allclose(bounds.lower_a, np.eye(2))
        np.testing.assert_allclose(bounds.upper_a, np.eye(2))
        np.testing.assert_allclose(bounds.lower_b, np.zeros(2))
        np.testing.assert_allclose(bounds.concrete_lo, box.lo)
        np.testing.assert_allclose(bounds.concrete_hi, box.hi)

    def test_single_relu_concrete_interval(self):
        # one relu neuron with pre-activation range [-1, 2]
        hidden = Layer(np.array([[1.0]]), np.zeros(1), "relu")
        out = Layer(np.array([[1.0], [0.0]]), np.zeros(2), "identity")
        net = make_network([hidden, out], input_min=[-1], input_max=[2])
        bounds = propagate_bounds(net, Box(np.array([-1.0]), np.array([2.0])))
        assert bounds.concrete_lo[0] == pytest.approx(0.0)
        assert bounds.concrete_hi[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampling_oracle(self, seed):
        net = random_network(seed, dims=(2, 8, 8, 3))
        rng = np.random.default_rng(seed + 1000)
        box = Box(np.array([-0.5, -0.2]), np.array([0.4, 0.9]))
        bounds = propagate_bounds(net, box)
        xs = box.lo + rng.random((1000, 2)) * (box.hi - box.lo)
        for x in xs:
            scores = evaluate(net, x)
            lower = bounds.lower_a @ x + bounds.lower_b
            upper = bounds.upper_a @ x + bounds.upper_b
            assert np.all(lower <= scores + 1e-9)
            assert np.all(scores <= upper + 1e-9)
            assert np.all(bounds.concrete_lo <= scores + 1e-9)
            assert np.all(scores <= bounds.concrete_hi + 1e-9)


class TestScoreGapBound:
    def test_identity_exact_at_corners(self):
        net = identity_network(score_order="max_best")
        box = Box(np.array([0.6, 0.1]), np.array([0.8, 0.3]))
        bounds = propagate_bounds(net, box)
        # margin = s_true - s_target; minimum at x1 low, x2 high
        assert score_gap_bound(bounds, box, 0, 1, "max_best") == pytest.approx(0.3)

    def test_overlapping_boxes_nonpositive(self):
        net = identity_network(score_order="max_best")
        box = Box(np.array([0.6, 0.1]), np.array([0.8, 0.7]))
        bounds = propagate_bounds(net, box)
        assert score_gap_bound(bounds, box, 0, 1, "max_best") <= 0.0

    def test_min_best_margin_direction(self):
        net = identity_network(score_order="min_best")
        # true label 0 has the LOW score; margin = s_target - s_true
        box = Box(np.array([0.1, 0.6]), np.array([0.3, 0.8]))
        bounds = propagate_bounds(net, box)
        assert score_gap_bound(bounds, box, 0, 1, "min_best") == pytest.approx(0.3)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_never_exceeds_sampled_minimum(self, seed):
        net = random_network(seed, dims=(2, 6, 6, 3))
        rng = np.random.default_rng(seed)
        box = Box(np.array([-0.3, -0.3]), np.array([0.5, 0.5]))
        bounds = propagate_bounds(net, box)
        xs = box.lo + rng.random((10_000, 2)) * (box.hi - box.lo)
        scores = np.stack([evaluate(net, x) for x in xs])
        margins = scores[:, 0] - scores[:, 1]  # max_best, true=0, target=1
        certified = score_gap_bound(bounds, box, 0, 1, "max_best")
        assert certified <= margins.min() + 1e-9

    def test_distinct_labels_required(self):
        net = identity_network()
        box = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            score_gap_bound(propagate_bounds(net, box), box, 1, 1, "max_best")


class TestFindCounterexample:
    def test_none_inside_single_decision_cell(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.8, 0.2], 0.05)
        box = enclosing_box(region, net.normalized_domain())
        for effort in (1, 10, 50):
            assert find_counterexample(net, region, box, 1, effort, seed=0) is None

    def test_straddling_region_yields_validated_point(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        box = enclosing_box(region, net.normalized_domain())
        point = find_counterexample(net, region, box, 1, effort=16, seed=0)
        assert point is not None
        assert region_membership(region, point)
        scores = evaluate(net, point)
        assert scores[1] >= scores[0]

    def test_effort_zero_returns_none(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        box = enclosing_box(region, net.normalized_domain())
        assert find_counterexample(net, region, box, 1, effort=0, seed=0) is None


class TestVerifyTargeted:
    def test_dominant_coordinate_safe(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.7, 0.2], 0.1)
        verdict = verify_targeted(VerificationTask(net, region, 1))
        assert verdict.status == "Safe"
        assert verdict.counterexample is None

    def test_straddling_region_unsafe_with_grid_confirmation(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        verdict = verify_targeted(VerificationTask(net, region, 1))
        assert verdict.status == "Unsafe"
        ce = verdict.counterexample
        assert region_membership(region, ce.point)
        scores = evaluate(net, ce.point)
        assert np.argmax(scores) == 1
        # grid oracle agrees a violation exists
        _, labels = grid_labels_in_region(net, region, step=5e-3)
        assert np.any(labels == 1)

    def test_node_budget_one_forces_unknown(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        verdict = verify_targeted(VerificationTask(net, region, 1, max_nodes=1))
        assert verdict.status == "Unknown"
        assert verdict.reason == "budget"

    def test_min_best_convention(self):
        net = identity_network(score_order="min_best")
        region = box_region([0.2, 0.7], 0.05)  # low first coordinate wins
        verdict = verify_targeted(VerificationTask(net, region, 1))
        assert verdict.status == "Safe"

    def test_l1_region_straddling_unsafe_point_inside_ball(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.15, metric="L1")
        verdict = verify_targeted(VerificationTask(net, region, 1))
        assert verdict.status == "Unsafe"
        assert region_membership(region, verdict.counterexample.point)

    def test_l1_corner_cell_safe_even_though_box_straddles(self):
        # the L1 ball around (0.55, 0.35) with r=0.15 stays below the diagonal,
        # but its circumscribed box pokes above it: pruning plus splits must
        # still prove Safe
        net = identity_network(score_order="max_best")
        region = box_region([0.55, 0.35], 0.15, metric="L1")
        assert region_membership(region, [0.5, 0.45]) is False
        verdict = verify_targeted(VerificationTask(net, region, 1))
        assert verdict.status == "Safe"
        _, labels = grid_labels_in_region(net, region, step=2e-3)
        assert not np.any(labels == 1)

    def test_determinism_including_stats(self):
        net = random_network(21, dims=(2, 6, 6, 3))
        region = box_region([0.4, 0.5], 0.2, expected=0)
        v1 = verify_targeted(VerificationTask(net, region, 1, seed=5))
        v2 = verify_targeted(VerificationTask(net, region, 1, seed=5))
        assert v1.status == v2.status
        assert v1.stats.nodes == v2.stats.nodes
        assert v1.stats.deepest_split == v2.stats.deepest_split
        if v1.counterexample is not None:
            np.testing.assert_array_equal(v1.counterexample.point, v2.counterexample.point)

    def test_invalid_task_rejected(self):
        net = identity_network()
        region = box_region([0.5, 0.5], 0.1, expected=0)
        with pytest.raises(ValueError):
            VerificationTask(net, region, 0)
        with pytest.raises(ValueError):
            VerificationTask(net, region, 1, max_nodes=0)

    def test_negative_epsilon_would_certify_an_unsafe_region(self):
        # "b" wins at (0.5, 0.55): with epsilon -0.5 every box would discharge
        net = identity_network()
        region = box_region([0.5, 0.45], 0.1, expected=0)
        assert verify_targeted(VerificationTask(net, region, 1)).status == "Unsafe"
        with pytest.raises(ValueError, match="epsilon"):
            VerificationTask(net, region, 1, epsilon=-0.5)
        with pytest.raises(ValueError, match="epsilon"):
            verify_full(net, region, epsilon=-0.5)

    @pytest.mark.parametrize("epsilon", [-1e-12, float("inf"), float("-inf"), float("nan")])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            VerificationTask(identity_network(), box_region([0.5, 0.5], 0.1), 1,
                             epsilon=epsilon)

    @pytest.mark.parametrize("time_budget", [float("nan"), 0.0, -1.0])
    def test_time_budget_must_be_positive(self, time_budget):
        with pytest.raises(ValueError, match="time budget"):
            VerificationTask(identity_network(), box_region([0.5, 0.5], 0.1), 1,
                             time_budget=time_budget)

    def test_boundary_settings_accepted(self):
        region = box_region([0.8, 0.2], 0.1, expected=0)
        task = VerificationTask(identity_network(), region, 1, epsilon=0.0,
                                time_budget=float("inf"))
        assert verify_targeted(task).status == "Safe"

    def test_monotonicity_shrunk_safe_region_never_unsafe(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            net = random_network(seed + 50, dims=(2, 5, 3))
            center = rng.uniform(0.2, 0.8, size=2)
            base = Region("r0", center, 0.2, "Linf", 0, 1, (0,))
            verdict = verify_targeted(VerificationTask(net, base, 1, seed=seed))
            if verdict.status != "Safe":
                continue
            for shrink in (0.15, 0.08, 0.03):
                smaller = Region("r0", center, shrink, "Linf", 0, 1, (0,))
                sub = verify_targeted(VerificationTask(net, smaller, 1, seed=seed))
                assert sub.status != "Unsafe"


class TestVerifyFull:
    def test_all_targets_safe_is_fully_safe(self):
        net = identity_network(3, score_order="max_best", labels=("a", "b", "c"))
        region = box_region([0.8, 0.2, 0.2], 0.05)
        result = verify_full(net, region)
        assert result.summary.kind == "FullySafe"
        assert set(result.verdicts) == {1, 2}
        # grid oracle: no point in the region classifies as any other label
        _, labels = grid_labels_in_region(net, region, step=5e-3)
        assert np.all(labels == 0)

    def test_safe_plus_unknown_is_inconclusive_with_safe_set(self):
        net = identity_network(3, score_order="max_best", labels=("a", "b", "c"))
        # target 1 discharges at the root; target 2 cannot resolve in one node
        region = box_region([0.7, 0.2, 0.62], 0.05)
        result = verify_full(net, region, max_nodes=1)
        assert result.verdicts[1].status == "Safe"
        assert result.verdicts[2].status == "Unknown"
        assert result.summary.kind == "Inconclusive"
        assert result.summary.safe_targets == (1,)

    def test_safe_plus_unsafe_is_targeted_safe(self):
        net = identity_network(3, score_order="max_best", labels=("a", "b", "c"))
        region = box_region([0.6, 0.55, 0.1], 0.1)
        result = verify_full(net, region)
        assert result.verdicts[1].status == "Unsafe"
        assert result.verdicts[2].status == "Safe"
        assert result.summary.kind == "TargetedSafe"
        assert result.summary.safe_targets == (2,)

    def test_unsafe_only_is_not_safe(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        result = verify_full(net, region)
        assert result.summary.kind == "NotSafe"
        assert result.summary.safe_targets == ()


class TestBoundSoundnessDuringVerification:
    def test_bounds_sampled_on_live_nodes(self, monkeypatch):
        """Every propagate_bounds call made by the engine stays sound on a
        random sample of the boxes it was asked about."""
        import safecomp.verifier as verifier_module

        probed = []
        real = verifier_module.propagate_bounds

        def probe(net, box):
            bounds = real(net, box)
            probed.append((net, box, bounds))
            return bounds

        monkeypatch.setattr(verifier_module, "propagate_bounds", probe)
        net = random_network(31, dims=(2, 7, 5, 3))
        region = box_region([0.45, 0.5], 0.25)
        verify_targeted(VerificationTask(net, region, 1, max_nodes=300, seed=3))
        assert probed
        rng = np.random.default_rng(0)
        sample = probed if len(probed) < 100 else \
            [probed[i] for i in rng.choice(len(probed), size=max(1, len(probed) // 100),
                                           replace=False)]
        for pnet, box, bounds in sample:
            xs = box.lo + rng.random((200, 2)) * (box.hi - box.lo)
            for x in xs:
                scores = evaluate(pnet, x)
                assert np.all(bounds.lower_a @ x + bounds.lower_b <= scores + 1e-9)
                assert np.all(scores <= bounds.upper_a @ x + bounds.upper_b + 1e-9)


def lone_verdicts(net, region, max_nodes=50_000, epsilon=1e-6, seed=0):
    """One verify_targeted call per target, as verify_full seeds them. A lone
    call never reuses a box's margins, so it is the uncached oracle."""
    return {t: verify_targeted(VerificationTask(net, region, t, max_nodes=max_nodes,
                                                epsilon=epsilon, seed=seed * 131 + t))
            for t in range(net.n_labels) if t != region.expected_label}


def assert_same_verdicts(shared, lone):
    assert shared.keys() == lone.keys()
    for t, expect in lone.items():
        got = shared[t]
        assert (got.status, got.reason) == (expect.status, expect.reason), t
        assert (got.stats.nodes, got.stats.deepest_split) == \
            (expect.stats.nodes, expect.stats.deepest_split), t
        if expect.counterexample is None:
            assert got.counterexample is None
        else:
            assert got.counterexample.point.tobytes() == expect.counterexample.point.tobytes()
            assert got.counterexample.scores.tobytes() == expect.counterexample.scores.tobytes()


def sweep_cases(seed, metric):
    """Small random nets and regions, from decided at the root to budget-bound."""
    rng = np.random.default_rng([seed, METRICS.index(metric)])
    dim, labels = int(rng.integers(2, 4)), int(rng.integers(3, 5))
    net = random_network(seed + 400, dims=(dim, int(rng.integers(3, 8)), labels),
                         score_order="min_best" if seed % 2 else "max_best")
    for max_nodes in (1, 2, 7, 64):
        for radius in (0.02, 0.15):
            region = Region("r0", rng.uniform(0.1, 0.9, size=dim), radius, metric,
                            int(rng.integers(labels)), 1, (0,))
            yield net, region, max_nodes


class TestSharedMarginCache:
    """verify_full's targets share one cache of box margins per region; every
    verdict must equal the one a lone, uncached verify_targeted call gives."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("seed", range(4))
    def test_shared_equals_lone(self, seed, metric):
        for net, region, max_nodes in sweep_cases(seed, metric):
            shared = verify_full(net, region, max_nodes=max_nodes, seed=seed)
            assert_same_verdicts(shared.verdicts,
                                 lone_verdicts(net, region, max_nodes, seed=seed))

    @pytest.mark.parametrize("metric", METRICS)
    def test_capacity_net_shared_equals_lone(self, metric):
        # budget-bound trees several levels deep, so targets do share boxes
        net = capacity_network()
        region = box_region([0.3, 0.6, 0.4, 0.5, 0.7], 0.03, metric=metric, expected=2)
        for max_nodes in (7, 64):
            assert_same_verdicts(verify_full(net, region, max_nodes=max_nodes, seed=1).verdicts,
                                 lone_verdicts(net, region, max_nodes, seed=1))

    def test_sweep_reaches_safe_unsafe_and_budget(self):
        outcomes = {(v.status, v.reason)
                    for seed in range(4) for metric in METRICS
                    for net, region, max_nodes in sweep_cases(seed, metric)
                    for v in lone_verdicts(net, region, max_nodes, seed=seed).values()}
        assert {("Safe", None), ("Unsafe", None), ("Unknown", "budget")} <= outcomes

    def test_min_box(self):
        # "b" never wins, but it comes within epsilon of "a" on a box too
        # narrow to split; "c" is discharged at the root
        net = identity_network(3)
        region = box_region([0.5, 0.4999, 0.2], 4e-5)
        lone = lone_verdicts(net, region, epsilon=1e-3)
        assert (lone[1].status, lone[1].reason) == ("Unknown", "min_box")
        assert lone[2].status == "Safe"
        assert_same_verdicts(verify_full(net, region, epsilon=1e-3).verdicts, lone)

    @pytest.mark.parametrize("center", [[1.5, 1.5], [0.97, 0.5]])
    def test_region_leaving_the_domain(self, center):
        net = random_network(33, dims=(2, 6, 3))
        region = box_region(center, 0.1)
        lone = lone_verdicts(net, region, max_nodes=64)
        assert_same_verdicts(verify_full(net, region, max_nodes=64).verdicts, lone)

    def test_no_margins_carried_between_calls(self):
        # the same boxes under two networks: a cache that outlived a call
        # would hand the second network the first one's margins
        region = box_region([0.8, 0.2], 0.1)
        for net, status in ((identity_network(), "Safe"),
                            (identity_network(score_order="min_best"), "Unsafe")):
            assert verify_full(net, region).verdicts[1].status == status
            assert_same_verdicts(verify_full(net, region, max_nodes=64).verdicts,
                                 lone_verdicts(net, region, max_nodes=64))

    def _count_bounds(self, monkeypatch):
        import safecomp.verifier as verifier_module

        keys = []
        real = verifier_module.propagate_bounds

        def counting(net, box):
            keys.append((box.lo.tobytes(), box.hi.tobytes()))
            return real(net, box)

        monkeypatch.setattr(verifier_module, "propagate_bounds", counting)
        return keys

    def test_geometry_pruned_nodes(self, monkeypatch):
        keys = self._count_bounds(monkeypatch)
        net = random_network(35, dims=(2, 7, 4))
        region = box_region([0.5, 0.5], 0.3, metric="L1")
        lone = lone_verdicts(net, region, max_nodes=200)
        assert sum(v.stats.nodes for v in lone.values()) > len(keys)  # some were pruned
        del keys[:]
        assert_same_verdicts(verify_full(net, region, max_nodes=200).verdicts, lone)

    def test_one_bound_propagation_per_distinct_box(self, monkeypatch):
        keys = self._count_bounds(monkeypatch)
        net = capacity_network()
        region = box_region([0.5] * 5, 0.03, metric="L1", expected=2)
        lone = lone_verdicts(net, region, max_nodes=24, seed=3)
        assert all(v.reason == "budget" for v in lone.values())
        lone_keys = list(keys)  # one per non-pruned node of each target
        del keys[:]
        shared = verify_full(net, region, max_nodes=24, seed=3)
        assert_same_verdicts(shared.verdicts, lone)
        assert len(keys) == len(set(keys))
        assert set(keys) == set(lone_keys)
        assert len(keys) < len(lone_keys)


class TestSoundnessSample:
    """Small-scale version of the acceptance soundness study."""

    @pytest.mark.parametrize("seed", range(10))
    def test_safe_verdicts_confirmed_by_grid(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(seed + 200,
                             dims=(2, int(rng.integers(2, 9)), 3),
                             score_order="min_best" if seed % 2 else "max_best")
        center = rng.uniform(0.15, 0.85, size=2)
        radius = float(rng.uniform(0.05, 0.2))
        metric = "L1" if seed % 2 else "Linf"
        points = np.array([center])
        region = Region("r0", center, radius, metric, 0, 1, (0,))
        target = int(rng.integers(1, 3))
        verdict = verify_targeted(VerificationTask(net, region, target, seed=seed))
        if verdict.status == "Safe":
            _, labels = grid_labels_in_region(net, region, step=2e-3)
            assert not np.any(labels == target)
        elif verdict.status == "Unsafe":
            point = verdict.counterexample.point
            assert region_membership(region, point)
            scores = evaluate(net, point)
            best = np.argmin(scores) if net.score_order == "min_best" else np.argmax(scores)
            assert int(best) == target
