import dataclasses
import hashlib
import importlib.util
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import safecomp.verifier as verifier_module
from conftest import capacity_network, identity_network, make_network, random_network
from safecomp.app import build_semaphore_classifier, run_parallel_verification
from safecomp.network import Layer, classify, classify_batch, evaluate, evaluate_batch
from safecomp.regions import METRICS, Region, dist_many, region_membership
from safecomp.verifier import (
    CE_EFFORT,
    Box,
    Counterexample,
    FullResult,
    LinearBounds,
    Verdict,
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


def one_box(lo, hi):
    """A stack of one box."""
    return Box(np.array([lo], dtype=np.float64), np.array([hi], dtype=np.float64))


def one_gap(net, bounds, box, true_label, target):
    """score_gap_bound of one label pair on a stack of one box, as a float."""
    gaps = score_gap_bound(net, bounds, box, np.array([true_label]), np.array([target]))
    assert gaps.shape == (1, 1)
    return float(gaps[0, 0])


def hidden_layers(net, xs):
    """Per hidden layer, its pre-activations and activations at each row of
    xs, layer by layer: the sampling oracle of propagate_bounds."""
    a = np.asarray(xs, dtype=np.float64)
    out = []
    for layer in net.layers[:-1]:
        z = a @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        out.append((z, a))
    return out


def layer_bounds(net, box):
    """Per hidden layer, the pre-activation bounds (l, u) that
    propagate_bounds derives for it on each box of the stack: the lo/hi of
    the net cut after that layer with its activation made identity, since a
    layer's bounds depend only on the layers below it."""
    out = []
    for j, layer in enumerate(net.layers[:-1]):
        n = len(layer.bias)
        cut = dataclasses.replace(net, layers=net.layers[:j] + (
            Layer(layer.weights, layer.bias, "identity"),
            Layer(np.zeros((net.n_labels, n)), np.zeros(net.n_labels), "identity")))
        bounds = propagate_bounds(cut, box)
        out.append((bounds.lo, bounds.hi))
    return out


def assert_bounds_hold(net, box, bounds, xs):
    """The bounds of a stack of one box hold, to 1e-9, at the points xs, all
    in box ∩ ball: every hidden layer's pre-activation interval, every
    neuron's relaxation lines at its pre-activation, and lo/hi on the final
    layer's inputs."""
    layers = hidden_layers(net, xs)
    for (l, u), (z, _) in zip(layer_bounds(net, box), layers):
        assert np.all(l[0] <= z + 1e-9) and np.all(z <= u[0] + 1e-9)
    if layers:
        z, h = (np.hstack(part) for part in zip(*layers))
        assert np.all(bounds.lower_slope[0] * z <= h + 1e-9)
        assert np.all(h <= bounds.upper_slope[0] * z + bounds.upper_shift[0] + 1e-9)
    h = layers[-1][1] if layers else xs  # what the final layer reads
    assert np.all(bounds.lo[0] <= h + 1e-9) and np.all(h <= bounds.hi[0] + 1e-9)


def sampled_margins(net, scores, true_label, target):
    """Per row of an (n, labels) score array, the margin by which target
    loses to true_label under the network's score order."""
    margin = scores[:, true_label] - scores[:, target]
    return -margin if net.score_order == "min_best" else margin


def label_pairs(net):
    """Every ordered pair of distinct labels, as (true, target) arrays."""
    labels = range(net.n_labels)
    return np.array([(a, b) for a in labels for b in labels if a != b]).T


class TestBox:
    @pytest.mark.parametrize("lo, hi", [
        (np.zeros(2), np.ones(2)),  # one box is a stack of one, not a (d,) pair
        (np.zeros((1, 2)), np.ones((1, 3))),
        (np.zeros((1, 1, 2)), np.ones((1, 1, 2))),
    ])
    def test_only_k_by_d_stacks(self, lo, hi):
        with pytest.raises(ValueError, match="box bounds"):
            Box(lo, hi)

    def test_empty_per_box(self):
        box = Box(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 0.5]]))
        assert box.empty.tolist() == [False, True]


class TestEnclosingBox:
    def test_linf_box_exact(self):
        region = box_region([0.0, 0.0], 0.5)
        box = enclosing_box(region)
        assert box.lo.shape == box.hi.shape == (1, 2)
        np.testing.assert_allclose(box.lo[0], [-0.5, -0.5])
        np.testing.assert_allclose(box.hi[0], [0.5, 0.5])

    def test_l1_box_circumscribes_ball(self):
        region = box_region([0.0, 0.0], 1.0, metric="L1")
        box = enclosing_box(region)
        np.testing.assert_allclose(box.lo[0], [-1.0, -1.0])
        np.testing.assert_allclose(box.hi[0], [1.0, 1.0])
        # the corner is inside the box but outside the L1 ball
        assert not region_membership(region, [1.0, 1.0])

    def test_five_dim_l1_region_clipped_to_domain(self):
        centroid = np.array([0.19, 0.31, 0.28, 0.33, 0.33])
        region = box_region(centroid, 0.28, metric="L1")
        box = enclosing_box(region, (np.zeros(5), np.ones(5)))
        np.testing.assert_allclose(box.lo[0], np.maximum(centroid - 0.28, 0.0))
        np.testing.assert_allclose(box.hi[0], np.minimum(centroid + 0.28, 1.0))
        assert box.lo[0, 0] == 0.0  # 0.19 - 0.28 clips at the domain floor


class TestPropagateBounds:
    def test_identity_network_bounds_are_identity(self):
        # one layer: the final layer reads the input, so the bounds are the
        # box and there is no hidden neuron to relax
        net = identity_network()
        box = one_box([0.1, 0.2], [0.6, 0.9])
        bounds = propagate_bounds(net, box)
        np.testing.assert_allclose(bounds.lo[0], box.lo[0])
        np.testing.assert_allclose(bounds.hi[0], box.hi[0])
        for f in (bounds.lower_slope, bounds.upper_slope, bounds.upper_shift):
            assert f.shape == (1, 0)
        # a hidden identity layer is its own relaxation, exact on the box
        net = make_network([Layer(np.eye(2), np.zeros(2), "identity"),
                            Layer(np.eye(2), np.zeros(2), "identity")])
        bounds = propagate_bounds(net, box)
        np.testing.assert_allclose(bounds.lower_slope[0], np.ones(2))
        np.testing.assert_allclose(bounds.upper_slope[0], np.ones(2))
        np.testing.assert_allclose(bounds.upper_shift[0], np.zeros(2))
        np.testing.assert_allclose(bounds.lo[0], box.lo[0])
        np.testing.assert_allclose(bounds.hi[0], box.hi[0])

    def test_single_relu_concrete_interval(self):
        # one relu neuron with pre-activation range [-1, 2]
        hidden = Layer(np.array([[1.0]]), np.zeros(1), "relu")
        out = Layer(np.array([[1.0], [0.0]]), np.zeros(2), "identity")
        net = make_network([hidden, out], input_min=[-1], input_max=[2])
        bounds = propagate_bounds(net, one_box([-1.0], [2.0]))
        assert bounds.lo[0, 0] == pytest.approx(0.0)
        assert bounds.hi[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampling_oracle(self, seed):
        net = random_network(seed, dims=(2, 8, 8, 3))
        rng = np.random.default_rng(seed + 1000)
        box = one_box([-0.5, -0.2], [0.4, 0.9])
        bounds = propagate_bounds(net, box)
        xs = box.lo[0] + rng.random((1000, 2)) * (box.hi[0] - box.lo[0])
        assert_bounds_hold(net, box, bounds, xs)
        scores = np.stack([evaluate(net, x) for x in xs])
        for a, b in label_pairs(net).T:
            margins = sampled_margins(net, scores, a, b)
            assert one_gap(net, bounds, box, a, b) <= margins.min() + 1e-9


# nets of the margin sampling test: two small random nets, the 6x50 capacity
# net and the seed-42 semaphore classifier
SAMPLED_NETS = {
    "3": lambda: random_network(3, dims=(2, 6, 6, 3)),
    "4": lambda: random_network(4, dims=(2, 6, 6, 3)),
    "capacity": capacity_network,
    "semaphore": lambda: build_semaphore_classifier(42)[0],
}


class TestScoreGapBound:
    def test_identity_exact_at_corners(self):
        net = identity_network(score_order="max_best")
        box = one_box([0.6, 0.1], [0.8, 0.3])
        bounds = propagate_bounds(net, box)
        # margin = s_true - s_target; minimum at x1 low, x2 high
        assert one_gap(net, bounds, box, 0, 1) == pytest.approx(0.3)

    def test_overlapping_boxes_nonpositive(self):
        net = identity_network(score_order="max_best")
        box = one_box([0.6, 0.1], [0.8, 0.7])
        bounds = propagate_bounds(net, box)
        assert one_gap(net, bounds, box, 0, 1) <= 0.0

    def test_min_best_margin_direction(self):
        net = identity_network(score_order="min_best")
        # true label 0 has the LOW score; margin = s_target - s_true
        box = one_box([0.1, 0.6], [0.3, 0.8])
        bounds = propagate_bounds(net, box)
        assert one_gap(net, bounds, box, 0, 1) == pytest.approx(0.3)

    @pytest.mark.parametrize("name", sorted(SAMPLED_NETS))
    def test_never_exceeds_sampled_minimum(self, name):
        """For every ordered label pair, the certified margin is at most the
        smallest one sampled inside the box and at its corners, on the box
        of [-0.3, 0.5] on every axis and on random in-domain boxes of radius
        0.002-0.3."""
        net = SAMPLED_NETS[name]()
        rng = np.random.default_rng(list(name.encode()))
        d = net.input_dim
        dom_lo, dom_hi = net.normalized_domain()
        center = dom_lo + rng.random((16, d)) * (dom_hi - dom_lo)
        radius = np.exp(rng.uniform(np.log(0.002), np.log(0.3), size=(16, 1)))
        lo = np.vstack([np.full(d, -0.3), np.maximum(center - radius, dom_lo)])
        hi = np.vstack([np.full(d, 0.5), np.minimum(center + radius, dom_hi)])
        box = Box(lo, hi)
        true_label, target = label_pairs(net)
        gaps = score_gap_bound(net, propagate_bounds(net, box), box, true_label, target)
        corners = np.array(list(itertools.product((False, True), repeat=d)))
        for k in range(len(lo)):
            inside = lo[k] + rng.random((10_000, d)) * (hi[k] - lo[k])
            scores = evaluate_batch(net, np.vstack([inside, np.where(corners, hi[k], lo[k])]))
            for gap, a, b in zip(gaps[k], true_label, target):
                assert gap <= sampled_margins(net, scores, a, b).min() + 1e-9, (k, a, b)

    def test_distinct_labels_required(self):
        net = identity_network()
        box = one_box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            one_gap(net, propagate_bounds(net, box), box, 1, 1)


class TestFindCounterexample:
    def test_none_inside_single_decision_cell(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.8, 0.2], 0.05)
        box = enclosing_box(region, net.normalized_domain())
        for effort in (1, 10, 50):
            assert find_counterexample(net, region, box, [1], effort, [0]) == [None]

    def test_straddling_region_yields_validated_point(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        box = enclosing_box(region, net.normalized_domain())
        [point] = find_counterexample(net, region, box, [1], effort=16, seeds=[0])
        assert point is not None
        assert region_membership(region, point)
        scores = evaluate(net, point)
        assert scores[1] >= scores[0]

    def test_effort_zero_returns_none(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        box = enclosing_box(region, net.normalized_domain())
        assert find_counterexample(net, region, box, [1], effort=0, seeds=[0]) == [None]


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
        assert result.kind == "FullySafe"
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
        assert result.kind == "Inconclusive"
        assert result.safe_targets == (1,)

    def test_safe_plus_unsafe_is_targeted_safe(self):
        net = identity_network(3, score_order="max_best", labels=("a", "b", "c"))
        region = box_region([0.6, 0.55, 0.1], 0.1)
        result = verify_full(net, region)
        assert result.verdicts[1].status == "Unsafe"
        assert result.verdicts[2].status == "Safe"
        assert result.kind == "TargetedSafe"
        assert result.safe_targets == (2,)

    def test_unsafe_only_is_not_safe(self):
        net = identity_network(score_order="max_best")
        region = box_region([0.5, 0.5], 0.2)
        result = verify_full(net, region)
        assert result.kind == "NotSafe"
        assert result.safe_targets == ()


class TestFullResult:
    """A region's kind and safe targets are read off its verdicts alone."""

    CE = Counterexample(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("statuses, kind, safe", [
        ({}, "Inconclusive", ()),
        ({1: "Safe"}, "FullySafe", (1,)),
        ({3: "Safe", 1: "Safe"}, "FullySafe", (1, 3)),
        ({1: "Unknown"}, "Inconclusive", ()),
        ({2: "Unknown", 1: "Safe"}, "Inconclusive", (1,)),
        ({1: "Unsafe"}, "NotSafe", ()),
        ({1: "Unsafe", 2: "Unknown"}, "NotSafe", ()),
        ({1: "Safe", 2: "Unsafe"}, "TargetedSafe", (1,)),
        ({1: "Unsafe", 2: "Safe", 3: "Unknown"}, "TargetedSafe", (2,)),
    ], ids=["empty", "safe", "safe-unordered", "unknown", "safe-unknown", "unsafe",
            "unsafe-unknown", "safe-unsafe", "all-three"])
    def test_kind_and_safe_targets_follow_the_verdicts(self, statuses, kind, safe):
        result = FullResult({t: Verdict(s, self.CE if s == "Unsafe" else None)
                             for t, s in statuses.items()})
        assert (result.kind, result.safe_targets) == (kind, safe)

    @pytest.mark.parametrize("status", ["Bogus", "safe", ""])
    def test_verdict_status_must_be_known(self, status):
        with pytest.raises(ValueError, match="verdict status must be Safe, Unsafe or Unknown"):
            Verdict(status)


class TestBoundSoundnessDuringVerification:
    def test_bounds_sampled_on_live_nodes(self, monkeypatch):
        """Every propagate_bounds call made by the engine stays sound on a
        random sample of the boxes it was asked about (each box of a stacked
        call counts alone). The task is target 0 of the golden "deep"
        centroid at Linf radius 0.2, budget-bound, so the engine splits well
        past the root."""
        probed = []
        real = verifier_module.propagate_bounds

        def probe(net, box):
            bounds = real(net, box)
            probed.extend((net, one, bounds_k) for one, bounds_k in unstack(box, bounds))
            return bounds

        monkeypatch.setattr(verifier_module, "propagate_bounds", probe)
        net = capacity_network()
        c = np.array(GOLDEN_REGIONS[3][1])
        region = Region("r0", c, 0.2, "Linf", classify(net, c), 1, (0,))
        verdict = verify_targeted(VerificationTask(net, region, 0, max_nodes=300, seed=3))
        assert (verdict.status, verdict.reason, verdict.stats.nodes) == ("Unknown", "budget", 300)
        rng = np.random.default_rng(0)
        sample = [probed[i] for i in rng.choice(len(probed), size=min(len(probed), 20),
                                                 replace=False)]
        assert len({box.lo.tobytes() + box.hi.tobytes() for _, box, _ in sample}) > 1
        true_label, target = label_pairs(net)
        for pnet, box, bounds in sample:
            xs = box.lo[0] + rng.random((200, net.input_dim)) * (box.hi[0] - box.lo[0])
            assert_bounds_hold(pnet, box, bounds, xs)
            scores = np.stack([evaluate(pnet, x) for x in xs])
            gaps = score_gap_bound(pnet, bounds, box, true_label, target)[0]
            for gap, a, b in zip(gaps, true_label, target):
                assert gap <= sampled_margins(pnet, scores, a, b).min() + 1e-9


def unstack(box, bounds):
    """(box, bounds) of each box of a stacked propagate_bounds call, each as
    a stack of one with the stack's ball."""
    names = [f.name for f in dataclasses.fields(LinearBounds)]
    return [(Box(box.lo[k:k + 1], box.hi[k:k + 1], box.ball),
             LinearBounds(**{name: getattr(bounds, name)[k:k + 1] for name in names}))
            for k in range(len(box.lo))]


def lone_verdicts(net, region, max_nodes=50_000, epsilon=1e-6, seed=0):
    """One verify_targeted call per target, as verify_full seeds them. A lone
    call searches its one target alone, so no other target's boxes reach it."""
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
    """verify_full's targets share one lockstep search per region, so a box
    gets its margins once for all of them; every verdict must equal the one
    a lone verify_targeted call gives."""

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
        keys = []
        real = verifier_module.propagate_bounds

        def counting(net, box):
            # one key per box of a stacked call
            keys.extend((lo.tobytes(), hi.tobytes()) for lo, hi in zip(box.lo, box.hi))
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
        region = box_region([0.51, 0.49, 0.67, 0.55, 0.51], 0.3, metric="L1", expected=2)
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


def sub_boxes(root, n, rng):
    """n random boxes inside root (a stack of one), as one (n, d) stack."""
    a = root.lo + rng.random((n, root.lo.shape[1])) * (root.hi - root.lo)
    b = root.lo + rng.random((n, root.lo.shape[1])) * (root.hi - root.lo)
    return np.minimum(a, b), np.maximum(a, b)


STACK_NETS = {
    "capacity": capacity_network,
    "random-min-best": lambda: random_network(7, dims=(3, 6, 4, 4), score_order="min_best"),
    "one-layer": lambda: identity_network(3),
}


class TestStackedCalls:
    """A stacked call gives each item bit for bit what a stack of it alone
    gives, so batching the search cannot change a verdict."""

    def test_evaluate_batch_blocks(self):
        net = capacity_network()
        xs = np.random.default_rng(0).uniform(0.0, 1.0, size=(7, 9, 5))
        stacked = evaluate_batch(net, xs)
        assert stacked.shape == (7, 9, 5)
        for block, scores in zip(xs, stacked):
            assert scores.tobytes() == evaluate_batch(net, block).tobytes()
        for bad in (xs[..., :4], xs[None], xs[0, 0]):
            with pytest.raises(ValueError, match="expected"):
                evaluate_batch(net, bad)

    @pytest.mark.parametrize("name", sorted(STACK_NETS))
    def test_propagate_bounds_stack(self, name):
        net = STACK_NETS[name]()
        root = one_box(np.zeros(net.input_dim), np.ones(net.input_dim))
        lo, hi = sub_boxes(root, 16, np.random.default_rng(1))
        stacked = propagate_bounds(net, Box(lo, hi))
        for k, (box, bounds) in enumerate(unstack(Box(lo, hi), stacked)):
            alone = propagate_bounds(net, box)
            for f in dataclasses.fields(LinearBounds):
                got, want = getattr(bounds, f.name), getattr(alone, f.name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, f.name)

    def test_work_buffer_kept_per_thread(self):
        """Backward substitution works in one buffer per thread, kept from
        call to call so that no call maps fresh pages; a reused buffer, or
        another thread's, changes no bit."""
        net = capacity_network()
        root = one_box(np.zeros(net.input_dim), np.ones(net.input_dim))
        lo, hi = sub_boxes(root, 8, np.random.default_rng(2))
        first = propagate_bounds(net, Box(lo, hi))
        buffer = verifier_module._scratch.buffer
        again = propagate_bounds(net, Box(lo[:3], hi[:3]))
        assert verifier_module._scratch.buffer is buffer
        with ThreadPoolExecutor(1) as pool:
            other = pool.submit(propagate_bounds, net, Box(lo, hi)).result()
        for f in dataclasses.fields(LinearBounds):
            want = getattr(first, f.name)
            assert getattr(again, f.name).tobytes() == want[:3].tobytes(), f.name
            assert getattr(other, f.name).tobytes() == want.tobytes(), f.name

    @pytest.mark.parametrize("name", sorted(STACK_NETS))
    def test_score_gap_bound_label_arrays(self, name):
        net = STACK_NETS[name]()
        root = one_box(np.zeros(net.input_dim), np.ones(net.input_dim))
        lo, hi = sub_boxes(root, 8, np.random.default_rng(2))
        bounds = propagate_bounds(net, Box(lo, hi))
        pairs = [(a, b) for a in range(net.n_labels) for b in range(net.n_labels) if a != b]
        true, target = np.array(pairs).T
        gaps = score_gap_bound(net, bounds, Box(lo, hi), true, target)
        assert gaps.shape == (8, len(pairs))
        for k, (box, alone) in enumerate(unstack(Box(lo, hi), bounds)):
            row = score_gap_bound(net, alone, box, true, target)
            assert row.shape == (1, len(pairs)) and row.tobytes() == gaps[k].tobytes()
            for q, (a, b) in enumerate(pairs):
                gap = score_gap_bound(net, alone, box, np.array([a]), np.array([b]))
                assert gap.shape == (1, 1) and gap.tobytes() == gaps[k, q].tobytes()
        column = score_gap_bound(net, bounds, Box(lo, hi), np.array([0]), np.array([1]))
        assert column[:, 0].tobytes() == gaps[:, pairs.index((0, 1))].tobytes()
        with pytest.raises(ValueError, match="distinct"):
            score_gap_bound(net, bounds, Box(lo, hi), np.array([0, 1]), np.array([1, 1]))
        for true_label, target_label in ((0, 1), (np.array([0, 1]), np.array([1]))):
            with pytest.raises(ValueError, match="arrays"):
                score_gap_bound(net, bounds, Box(lo, hi), true_label, target_label)

    @pytest.mark.parametrize("net, region", [
        (identity_network(3), box_region([0.5, 0.45, 0.1], 0.1)),
        (random_network(9, dims=(2, 6, 3)), box_region([0.5, 0.5], 0.3, metric="L1")),
        (random_network(10, dims=(3, 5, 3), score_order="min_best"),
         box_region([0.4, 0.5, 0.6], 0.3, metric="L2")),
        (capacity_network(), box_region([0.8789, 0.5736, 0.7127, 0.4258, 0.2569], 0.035,
                                        expected=2)),
    ])
    def test_find_counterexample_stack(self, net, region):
        rng = np.random.default_rng(3)
        lo, hi = sub_boxes(enclosing_box(region, net.normalized_domain()), 24, rng)
        lo[5], hi[5] = hi[5].copy(), lo[5].copy()  # an empty box finds nothing
        targets = rng.choice([t for t in range(net.n_labels) if t != region.expected_label], 24)
        seeds = [int(s) for s in rng.integers(0, 2**40, size=24)]
        found = find_counterexample(net, region, Box(lo, hi), targets, CE_EFFORT, seeds)
        assert len(found) == 24 and found[5] is None
        for k in range(24):
            [alone] = find_counterexample(net, region, Box(lo[k:k + 1], hi[k:k + 1]),
                                          targets[k:k + 1], CE_EFFORT, seeds[k:k + 1])
            if alone is None:
                assert found[k] is None, k
            else:
                assert found[k].tobytes() == alone.tobytes(), k
        assert find_counterexample(net, region, Box(lo, hi), targets, 0, seeds) == [None] * 24


def straddling_boxes(net, region, n, rng):
    """n random sub-boxes of the region's enclosing box, each around a point
    of its sphere, so that each holds points inside and outside the ball."""
    root = enclosing_box(region, net.normalized_domain())
    u = rng.normal(size=(n, net.input_dim))
    u /= np.linalg.norm(u, ord=1 if region.metric == "L1" else 2, axis=1)[:, None]
    on_sphere = region.centroid + region.radius * u
    below, above = region.radius * rng.uniform(0.05, 0.6, size=(2, n, net.input_dim))
    return (np.maximum(on_sphere - below, root.lo), np.minimum(on_sphere + above, root.hi))


def ball_box_sample(region, lo, hi, n, rng):
    """n points of ball ∩ box for one box: uniform draws in the box that lie
    in the ball, and the others pulled radially onto the sphere if that
    keeps them in the box."""
    xs = lo + rng.random((4 * n, len(lo))) * (hi - lo)
    d = dist_many(region.metric, xs, region.centroid)
    inside = d <= region.radius
    assert 0 < inside.sum() < len(xs)  # the box straddles the sphere
    pulled = region.centroid + (xs[~inside] - region.centroid) * (
        region.radius / d[~inside] * (1.0 - 1e-12))[:, None]
    pulled = pulled[np.all((lo <= pulled) & (pulled <= hi), axis=1)]
    points = np.vstack([xs[inside], pulled])
    assert np.all(dist_many(region.metric, points, region.centroid) <= region.radius)
    return points[rng.permutation(len(points))[:n]]


def bounds_digest(net, box):
    """sha256 of every LinearBounds field and every label pair's
    score_gap_bound on a stack of boxes."""
    h = hashlib.sha256()
    bounds = propagate_bounds(net, box)
    for f in dataclasses.fields(LinearBounds):
        h.update(np.ascontiguousarray(getattr(bounds, f.name)).tobytes())
    true_label, target = label_pairs(net)
    h.update(score_gap_bound(net, bounds, box, true_label, target).tobytes())
    return h.hexdigest()


BALL_NETS = {
    "random-5": lambda: random_network(5, dims=(3, 8, 8, 3)),
    "random-6-min-best": lambda: random_network(6, dims=(2, 6, 6, 4), score_order="min_best"),
    "capacity": capacity_network,
}

# bounds_digest of 16 sub-boxes of [0, 1]^d per STACK_NETS net (sub_boxes,
# seed 4), recorded from the backward-substitution bounds over the box alone
BOX_ONLY_DIGESTS = {
    "capacity": "7bcd5ae59ee19ab391bc8694c1954f747e6efc6c88a87d0558c07dc563c6a76c",
    "one-layer": "deac968533aa3e045a99693272ce4226bc371ad350e7d0848c606a7c76f87c83",
    "random-min-best": "cb04c6f7e13b96481cbbf5543d7a107d8918be77341f78dcb1a93231a5454e29",
}


class TestBallBounds:
    """Bounds given a Box with an L1 or L2 ball hold on box ∩ ball, which is
    all the search must cover; with no ball or an Linf one they are the
    box-only bounds, bit for bit."""

    @pytest.mark.parametrize("metric", ["L1", "L2"])
    @pytest.mark.parametrize("name", sorted(BALL_NETS))
    def test_sampled_ball_box_points_within_bounds(self, name, metric):
        net = BALL_NETS[name]()
        rng = np.random.default_rng(list(name.encode()) + [METRICS.index(metric)])
        true_label, target = label_pairs(net)
        tighter = 0
        for _ in range(2):
            c = rng.uniform(0.3, 0.7, size=net.input_dim)
            region = Region("r0", c, float(rng.uniform(0.05, 0.25)), metric,
                            classify(net, c), 1, (0,))
            lo, hi = straddling_boxes(net, region, 6, rng)
            box = Box(lo, hi, region)
            bounds = propagate_bounds(net, box)
            gaps = score_gap_bound(net, bounds, box, true_label, target)
            box_only = Box(lo, hi)
            tighter += np.sum(gaps > score_gap_bound(net, propagate_bounds(net, box_only),
                                                     box_only, true_label, target))
            for k, (one, bounds_k) in enumerate(unstack(box, bounds)):
                xs = ball_box_sample(region, lo[k], hi[k], 4000, rng)
                assert_bounds_hold(net, one, bounds_k, xs)
                scores = evaluate_batch(net, xs)
                for gap, a, b in zip(gaps[k], true_label, target):
                    assert gap <= sampled_margins(net, scores, a, b).min() + 1e-9, (k, a, b)
        assert tighter > 0  # the ball term decides some margin

    @pytest.mark.parametrize("metric", ["L1", "L2"])
    def test_stack_with_a_ball_equals_each_box_alone(self, metric):
        net = capacity_network()
        region = box_region(np.full(5, 0.5), 0.2, metric=metric)
        lo, hi = sub_boxes(enclosing_box(region), 16, np.random.default_rng(5))
        true_label, target = label_pairs(net)
        stacked = propagate_bounds(net, Box(lo, hi, region))
        gaps = score_gap_bound(net, stacked, Box(lo, hi, region), true_label, target)
        for k in range(len(lo)):
            box = Box(lo[k:k + 1], hi[k:k + 1], region)
            alone = propagate_bounds(net, box)
            for f in dataclasses.fields(LinearBounds):
                assert getattr(stacked, f.name)[k:k + 1].tobytes() == \
                    getattr(alone, f.name).tobytes(), (k, f.name)
            assert score_gap_bound(net, alone, box, true_label, target).tobytes() == \
                gaps[k:k + 1].tobytes(), k

    @pytest.mark.parametrize("name", sorted(STACK_NETS))
    def test_no_ball_or_linf_ball_is_box_only(self, name):
        net = STACK_NETS[name]()
        root = one_box(np.zeros(net.input_dim), np.ones(net.input_dim))
        lo, hi = sub_boxes(root, 16, np.random.default_rng(4))
        linf = box_region(np.full(net.input_dim, 0.5), 0.5)
        assert bounds_digest(net, Box(lo, hi)) == BOX_ONLY_DIGESTS[name]
        assert bounds_digest(net, Box(lo, hi, linf)) == BOX_ONLY_DIGESTS[name]


def hidden_identity_network():
    """A random ReLU net whose second hidden layer is identity."""
    net = random_network(11, dims=(3, 8, 8, 8, 3))
    relu = net.layers[1]
    return dataclasses.replace(net, layers=(
        net.layers[0], Layer(relu.weights, relu.bias, "identity"), *net.layers[2:]))


BACKWARD_NETS = dict(BALL_NETS, **{"hidden-identity": hidden_identity_network})


class TestBackwardBounds:
    """Sample soundness of the backward-substitution bounds: at points of
    box ∩ ball, every hidden layer's pre-activation interval, every
    relaxation line, lo/hi and every label pair's score_gap_bound hold to
    1e-9. L1 and L2 boxes straddle the sphere; Linf boxes and boxes with no
    ball are sampled inside and at their corners. The bounds are also never
    looser than plain interval arithmetic."""

    @pytest.mark.parametrize("metric", [None, "Linf", "L1", "L2"])
    @pytest.mark.parametrize("name", sorted(BACKWARD_NETS))
    def test_sampled_points_within_every_layer_bound(self, name, metric):
        net = BACKWARD_NETS[name]()
        d = net.input_dim
        rng = np.random.default_rng(list(name.encode()) + [len(str(metric)), d])
        c = rng.uniform(0.3, 0.7, size=d)
        region = Region("r0", c, float(rng.uniform(0.05, 0.25)), metric or "Linf",
                        classify(net, c), 1, (0,))
        if metric in ("L1", "L2"):
            lo, hi = straddling_boxes(net, region, 6, rng)
        else:
            lo, hi = sub_boxes(enclosing_box(region, net.normalized_domain()), 6, rng)
        box = Box(lo, hi, region if metric else None)
        bounds = propagate_bounds(net, box)
        true_label, target = label_pairs(net)
        gaps = score_gap_bound(net, bounds, box, true_label, target)
        corners = np.array(list(itertools.product((False, True), repeat=d)))
        for k, (one, bounds_k) in enumerate(unstack(box, bounds)):
            if metric in ("L1", "L2"):
                xs = ball_box_sample(region, lo[k], hi[k], 4000, rng)
            else:
                xs = np.vstack([lo[k] + rng.random((4000, d)) * (hi[k] - lo[k]),
                                np.where(corners, hi[k], lo[k])])
            assert_bounds_hold(net, one, bounds_k, xs)
            scores = evaluate_batch(net, xs)
            for gap, a, b in zip(gaps[k], true_label, target):
                assert gap <= sampled_margins(net, scores, a, b).min() + 1e-9, (k, a, b)

    def test_no_looser_than_interval_arithmetic(self):
        """Every hidden layer's (l, u) and every label pair's score_gap_bound
        is at least as tight as plain interval arithmetic, layer by layer and
        then the margin row over the last hidden interval. On this net and
        these wide boxes interval arithmetic beats backward substitution on
        some rows, so the bounds must keep the tighter of the two."""
        net = random_network(7, dims=(3, 6, 4, 4), score_order="min_best")
        root = one_box(np.zeros(net.input_dim), np.ones(net.input_dim))
        box = Box(*sub_boxes(root, 64, np.random.default_rng(4)))
        lo, hi, intervals = box.lo, box.hi, []
        for layer in net.layers[:-1]:  # the oracle: one interval product per ReLU layer
            assert layer.activation == "relu"
            w_pos, w_neg = np.maximum(layer.weights, 0.0), np.minimum(layer.weights, 0.0)
            l = lo @ w_pos.T + hi @ w_neg.T + layer.bias
            u = hi @ w_pos.T + lo @ w_neg.T + layer.bias
            intervals.append((l, u))
            lo, hi = np.maximum(l, 0.0), np.maximum(u, 0.0)
        final, sign = net.layers[-1], -1.0 if net.score_order == "min_best" else 1.0
        true_label, target = label_pairs(net)
        rows = sign * (final.weights[true_label] - final.weights[target])
        oracle = (lo @ np.maximum(rows, 0.0).T + hi @ np.minimum(rows, 0.0).T
                  + sign * (final.bias[true_label] - final.bias[target]))
        gaps = score_gap_bound(net, propagate_bounds(net, box), box, true_label, target)
        assert np.all(gaps >= oracle - 1e-12)
        for (l, u), (ol, ou) in zip(layer_bounds(net, box), intervals):
            assert np.all(l >= ol - 1e-12) and np.all(u <= ou + 1e-12)


GOLDEN_REGIONS = (  # (kind, centroid, radius) on capacity_network()
    ("boundary", (0.5246, 0.4834, 0.2602, 0.1517, 0.4784), 0.01),
    ("interior", (0.3, 0.6, 0.4, 0.5, 0.7), 0.003),
    ("budget", (0.8, 0.1, 0.76, 0.74, 0.47), 0.04),
    ("deep", (0.8789, 0.5736, 0.7127, 0.4258, 0.2569), 0.035),
    ("wide", (0.5, 0.5, 0.5, 0.5, 0.5), 0.2),
)


def golden_cases():
    """(name, net, region, max_nodes, seed, epsilon) of each recorded case."""
    net = capacity_network()
    for kind, centroid, radius in GOLDEN_REGIONS:
        c = np.array(centroid)
        for metric in METRICS:
            region = Region("r0", c, radius, metric, classify(net, c), 1, (0,))
            for max_nodes in (16, 64):
                yield f"capacity-{kind}-{metric}-{max_nodes}", net, region, max_nodes, 1, 1e-6
    for seed, metric in ((3, "L1"), (2, "L2")):
        for k, (net, region, max_nodes) in enumerate(sweep_cases(seed, metric)):
            yield f"sweep-{seed}-{metric}-{k}", net, region, max_nodes, seed, 1e-6
    yield ("min-box", identity_network(3), box_region([0.5, 0.4999, 0.2], 4e-5), 50_000, 0,
           1e-3)


def fingerprint(verdicts):
    """Per target: target, status, reason, nodes and deepest split, then the
    hex bytes of the counterexample's point and scores if there is one."""
    return tuple((t, v.status, v.reason, v.stats.nodes, v.stats.deepest_split)
                 + (() if v.counterexample is None else
                    (v.counterexample.point.tobytes().hex(),
                     v.counterexample.scores.tobytes().hex()))
                 for t, v in sorted(verdicts.items()))


def test_verdicts_match_parent_golden():
    """Verdicts recorded from the per-target search that preceded the
    lockstep one (GOLDEN_VERDICTS below): Safe, Unsafe at the root and
    fourteen nodes deep, budget and min_box, on L1, L2 and Linf. The L1 and
    L2 entries were recorded again when bounds came to hold over box ∩ ball,
    and the entries that backward substitution decides or decides sooner
    when it replaced forward propagation; the "wide" region, budget-bound
    several levels deep, was recorded then too.
    test_decided_golden_verdicts_keep_their_status guards those steps."""
    got = {name: fingerprint(verify_full(net, region, max_nodes=max_nodes, seed=seed,
                                         epsilon=epsilon).verdicts)
           for name, net, region, max_nodes, seed, epsilon in golden_cases()}
    assert got.keys() == GOLDEN_VERDICTS.keys()
    for name, expect in GOLDEN_VERDICTS.items():
        assert got[name] == expect, name


@pytest.mark.parametrize("batch", [1, 3])
def test_verdicts_independent_of_frontier_batch(monkeypatch, batch):
    """The golden verdicts again, popping 1 or 3 boxes per step instead of
    the default FRONTIER_BATCH (test_verdicts_match_parent_golden)."""
    monkeypatch.setattr(verifier_module, "FRONTIER_BATCH", batch)
    for name, net, region, max_nodes, seed, epsilon in golden_cases():
        verdicts = verify_full(net, region, max_nodes=max_nodes, seed=seed,
                               epsilon=epsilon).verdicts
        assert fingerprint(verdicts) == GOLDEN_VERDICTS[name], name


def test_decided_golden_verdicts_keep_their_status():
    """Every Safe and Unsafe of the golden table before bounds held over box
    ∩ ball (PARENT_DECIDED, frozen) keeps its status, in the table and in a
    fresh run: tighter bounds may decide more targets, never fewer."""
    for name, decided in PARENT_DECIDED.items():
        assert {t: status for t, status, *_ in GOLDEN_VERDICTS[name] if t in decided} == \
            decided, name
    for name, net, region, max_nodes, seed, epsilon in golden_cases():
        verdicts = verify_full(net, region, max_nodes=max_nodes, seed=seed,
                               epsilon=epsilon).verdicts
        for t, status in PARENT_DECIDED.get(name, {}).items():
            assert verdicts[t].status == status, (name, t)


def bench_fixtures():
    """bench/fixtures.py, the inputs of the benchmark workloads."""
    path = Path(__file__).resolve().parents[1] / "bench" / "fixtures.py"
    spec = importlib.util.spec_from_file_location("bench_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (seed, region id, target) of every Unsafe verdict on the verify-capacity
# regions of seeds 1-3 at budget 16 under forward symbolic bounds; frozen
CAPACITY_UNSAFE = {
    (1, "b000-00", 4), (1, "b000-04", 1), (1, "b000-12", 4),
    (2, "b000-00", 4), (2, "b000-04", 2), (2, "b000-06", 4), (2, "b000-12", 4),
    (2, "b000-20", 2),
    (3, "b000-00", 4), (3, "b000-02", 4), (3, "b000-05", 2), (3, "b000-12", 2),
    (3, "b000-16", 4), (3, "b000-18", 4),
}


def test_capacity_regions_decided_at_the_bench_budget():
    """The verify-capacity workload's regions (capacity_batch over
    CAPACITY_MIX twice) for seeds 1-3, verified as the workload does at its
    16-node budget: at least nine in ten targets are decided (73 of 288
    under forward symbolic bounds), and every Unsafe found then stays."""
    fx = bench_fixtures()
    net = fx.capacity_net()
    verdicts = {}
    for seed in (1, 2, 3):
        regions = fx.capacity_batch(np.random.default_rng(seed), net, 0, fx.CAPACITY_MIX * 2)
        for region, full in run_parallel_verification(net, regions, workers=1, seed=seed,
                                                      max_nodes=16):
            verdicts.update({(seed, region.id, t): v for t, v in full.verdicts.items()})
    assert len(verdicts) == 288
    decided = [key for key, v in verdicts.items() if v.status != "Unknown"]
    assert len(decided) >= 0.9 * len(verdicts)
    assert CAPACITY_UNSAFE <= {key for key, v in verdicts.items() if v.status == "Unsafe"}


@pytest.mark.parametrize("max_nodes", [16, 64])
def test_lone_search_bounds_no_box_past_its_budget(monkeypatch, max_nodes):
    """A step takes no more boxes than the largest remaining node budget, so
    a budget-bound lone target propagates bounds for exactly the boxes it
    counts as nodes, not for a whole batch past its budget stop."""
    bounded = []

    def counting(net, box):
        bounded.append(len(box.lo))
        return propagate_bounds(net, box)

    monkeypatch.setattr(verifier_module, "propagate_bounds", counting)
    net = capacity_network()
    _, centroid, _ = GOLDEN_REGIONS[3]  # "deep", at a radius that keeps target 0 budget-bound
    region = box_region(centroid, 0.2, expected=classify(net, np.array(centroid)))
    verdict = verify_targeted(VerificationTask(net, region, 0, max_nodes=max_nodes, seed=1))
    assert (verdict.status, verdict.reason, verdict.stats.nodes) == ("Unknown", "budget", max_nodes)
    assert sum(bounded) == max_nodes


def test_time_budget_is_one_clock_per_region():
    """The targets of a region run together, so the time budget bounds the
    region's wall time: every undecided target is Unknown ("budget") at the
    same step, with elapsed measured from the region's start. One clock per
    target would take at least the budget once per undecided target."""
    net = capacity_network()
    c = np.full(5, 0.5)
    region = Region("r0", c, 0.3, "L1", classify(net, c), 1, (0,))
    budget = 0.5
    start = time.perf_counter()
    result = verify_full(net, region, time_budget=budget)
    wall = time.perf_counter() - start
    out = [v for v in result.verdicts.values() if v.status == "Unknown"]
    assert len(out) >= 2 and all(v.reason == "budget" for v in out)
    elapsed = [v.stats.elapsed for v in out]
    assert budget < min(elapsed) and max(elapsed) - min(elapsed) < 0.01
    assert max(elapsed) <= wall < budget * len(out)


def test_tiny_time_budget_leaves_every_target_unknown():
    net = capacity_network()
    c = np.array([0.8, 0.1, 0.76, 0.74, 0.47])
    region = Region("r0", c, 0.04, "Linf", classify(net, c), 1, (0,))
    result = verify_full(net, region, time_budget=1e-9)
    assert {(v.status, v.reason, v.stats.nodes) for v in result.verdicts.values()} == \
        {("Unknown", "budget", 0)}


GOLDEN_VERDICTS = {
    "capacity-boundary-L1-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Unsafe", None, 1, 0,
         "118b294881cae03f81395ae109c7de3f75836f233955d03ffce4db1e95aec33ff1d11e4f43a3de3f",
         "9204727a2db423c0581be8afa6c737c07dc22b84c41141c0ee524919110913c06f4397fbd90741c0"),
        (3, "Safe", None, 1, 0),
    ),
    "capacity-boundary-L1-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Unsafe", None, 1, 0,
         "118b294881cae03f81395ae109c7de3f75836f233955d03ffce4db1e95aec33ff1d11e4f43a3de3f",
         "9204727a2db423c0581be8afa6c737c07dc22b84c41141c0ee524919110913c06f4397fbd90741c0"),
        (3, "Safe", None, 1, 0),
    ),
    "capacity-boundary-L2-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Unsafe", None, 1, 0,
         "364fae102bcbe03f712286065aabde3f3d526655e71dd03f2ad9e4704cdcc33fbc547429bfa6de3f",
         "ad15eab6c8ac23c0bd79416f85e337c0d73e3100091c41c04622e083036413c00756de0dca0941c0"),
        (3, "Safe", None, 1, 0),
    ),
    "capacity-boundary-L2-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Unsafe", None, 1, 0,
         "364fae102bcbe03f712286065aabde3f3d526655e71dd03f2ad9e4704cdcc33fbc547429bfa6de3f",
         "ad15eab6c8ac23c0bd79416f85e337c0d73e3100091c41c04622e083036413c00756de0dca0941c0"),
        (3, "Safe", None, 1, 0),
    ),
    "capacity-boundary-Linf-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Unsafe", None, 1, 0,
         "17ac92c372cbe03f3d6e51daa89fde3f219f33dc8a06d03f4b68d1b49aefc33fbbcaaec937a8de3f",
         "54d69d4e68a523c02700d32e0cf037c07b3fc3e81f2141c0a0f618830c8e13c0211f8cf73e0a41c0"),
        (3, "Safe", None, 1, 0),
    ),
    "capacity-boundary-Linf-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Unsafe", None, 1, 0,
         "17ac92c372cbe03f3d6e51daa89fde3f219f33dc8a06d03f4b68d1b49aefc33fbbcaaec937a8de3f",
         "54d69d4e68a523c02700d32e0cf037c07b3fc3e81f2141c0a0f618830c8e13c0211f8cf73e0a41c0"),
        (3, "Safe", None, 1, 0),
    ),
    "capacity-interior-L1-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-interior-L1-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-interior-L2-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-interior-L2-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-interior-Linf-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-interior-Linf-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-budget-L1-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-budget-L1-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-budget-L2-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-budget-L2-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-budget-Linf-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Unsafe", None, 3, 1,
         "08a9edfecb31ea3f79056e72be96ba3f73d8a3703d0ae73fdde432f5703fe83feaf4016ccad6db3f",
         "d9a869080f2734c0462a7bd8cd1943c05bd9db8891a64bc082ee16c1f3a91140b2d7aa10bdac4bc0"),
    ),
    "capacity-budget-Linf-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Unsafe", None, 3, 1,
         "08a9edfecb31ea3f79056e72be96ba3f73d8a3703d0ae73fdde432f5703fe83feaf4016ccad6db3f",
         "d9a869080f2734c0462a7bd8cd1943c05bd9db8891a64bc082ee16c1f3a91140b2d7aa10bdac4bc0"),
    ),
    "capacity-deep-L1-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-deep-L1-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 1, 0),
    ),
    "capacity-deep-L2-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Unknown", "budget", 16, 4),
    ),
    "capacity-deep-L2-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Safe", None, 19, 5),
    ),
    "capacity-deep-Linf-16": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Unsafe", None, 14, 3,
         "d854d6942219ed3fdb278a7fe5f7e23fb8997e6ca6bbe53fa8276ecc5313dd3fece0082e4279cf3f",
         "a3634e5588ff34c0be20daa2bf1545c001f9e4e8b50b4bc0d9fc76c527c014407d51f2f7b9184bc0"),
    ),
    "capacity-deep-Linf-64": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Safe", None, 1, 0),
        (4, "Unsafe", None, 14, 3,
         "d854d6942219ed3fdb278a7fe5f7e23fb8997e6ca6bbe53fa8276ecc5313dd3fece0082e4279cf3f",
         "a3634e5588ff34c0be20daa2bf1545c001f9e4e8b50b4bc0d9fc76c527c014407d51f2f7b9184bc0"),
    ),
    "capacity-wide-L1-16": (
        (0, "Unknown", "budget", 16, 4),
        (1, "Unknown", "budget", 16, 4),
        (3, "Unknown", "budget", 16, 4),
        (4, "Unsafe", None, 1, 0,
         "ccf3a2a0f6e8e23fef9ea1b66e2ae13fa75c7f2c7285df3f21ab7834a4efde3ff55ec480e7e4dc3f",
         "c6df89139f5305c004121c39ef6737c0421c4020c4394ac05076443c9298e0bf6d647e645f584ac0"),
    ),
    "capacity-wide-L1-64": (
        (0, "Unknown", "budget", 67, 6),
        (1, "Unknown", "budget", 64, 6),
        (3, "Safe", None, 19, 5),
        (4, "Unsafe", None, 1, 0,
         "ccf3a2a0f6e8e23fef9ea1b66e2ae13fa75c7f2c7285df3f21ab7834a4efde3ff55ec480e7e4dc3f",
         "c6df89139f5305c004121c39ef6737c0421c4020c4394ac05076443c9298e0bf6d647e645f584ac0"),
    ),
    "capacity-wide-L2-16": (
        (0, "Unknown", "budget", 16, 4),
        (1, "Unknown", "budget", 16, 4),
        (3, "Unknown", "budget", 16, 4),
        (4, "Unsafe", None, 1, 0,
         "dad1746a174ae23fb1ff0788b06fe33fd8a7c35abf96de3f9f6c1c212bdddc3fc89df0c44bd8d63f",
         "baa3b3e6b9501740ed997c056c4831c0b0f205ba72b249c0764858858c69c9bf944829b986ce49c0"),
    ),
    "capacity-wide-L2-64": (
        (0, "Unknown", "budget", 64, 6),
        (1, "Unknown", "budget", 64, 6),
        (3, "Unknown", "budget", 64, 6),
        (4, "Unsafe", None, 1, 0,
         "dad1746a174ae23fb1ff0788b06fe33fd8a7c35abf96de3f9f6c1c212bdddc3fc89df0c44bd8d63f",
         "baa3b3e6b9501740ed997c056c4831c0b0f205ba72b249c0764858858c69c9bf944829b986ce49c0"),
    ),
    "capacity-wide-Linf-16": (
        (0, "Unknown", "budget", 16, 4),
        (1, "Unknown", "budget", 16, 4),
        (3, "Unknown", "budget", 16, 4),
        (4, "Unsafe", None, 1, 0,
         "e8a5ef7968a8e23f6cadc8e040fde33f96013eed9c5cde3f88908615f95bdc3f676c18cb225fd53f",
         "ede2619c6a66194059dc5fdeb14231c036a9b761eb5149c0f775cef13bcdd6bfa35ed9a1ecc349c0"),
    ),
    "capacity-wide-Linf-64": (
        (0, "Unknown", "budget", 64, 6),
        (1, "Unsafe", None, 24, 4,
         "666666666666e63f7f5105b72483d33ffaf98889a213d73f2aacba9a31a2da3fecee67a2c055d73f",
         "4ff4d5393e103bc08d6a034611f745c0a5f43652311044c0a36339f0d9fdf03f3bcfb5edde5245c0"),
        (3, "Unknown", "budget", 64, 6),
        (4, "Unsafe", None, 1, 0,
         "e8a5ef7968a8e23f6cadc8e040fde33f96013eed9c5cde3f88908615f95bdc3f676c18cb225fd53f",
         "ede2619c6a66194059dc5fdeb14231c036a9b761eb5149c0f775cef13bcdd6bfa35ed9a1ecc349c0"),
    ),
    "sweep-3-L1-0": (
        (1, "Unknown", "budget", 1, 0),
        (2, "Safe", None, 1, 0),
    ),
    "sweep-3-L1-1": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
    ),
    "sweep-3-L1-2": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
    ),
    "sweep-3-L1-3": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
    ),
    "sweep-3-L1-4": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
    ),
    "sweep-3-L1-5": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
    ),
    "sweep-3-L1-6": (
        (1, "Safe", None, 1, 0),
        (2, "Unsafe", None, 1, 0,
         "ca876d98e079d63fad4db41f1e07ea3f6f902ab41f2ee23f",
         "3e4855f84d84f83f00d2d4c60f86893fdc13dbaf5ad1bebf"),
    ),
    "sweep-3-L1-7": (
        (1, "Unsafe", None, 1, 0,
         "04870c36f387de3fd545ebbdf2fee63f184b184ec08dc13f",
         "be14b5675aa6fa3f60b65038c097c53f18938fc638c9ce3f"),
        (2, "Unsafe", None, 1, 0,
         "6bd6d1aac25ed73ff769aa31595fe73f5b8fbeb68547c33f",
         "1ab6af293a34f83fe8a75f0497e6c53fd835b82eecd0bc3f"),
    ),
    "sweep-2-L2-0": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Safe", None, 1, 0),
    ),
    "sweep-2-L2-1": (
        (0, "Safe", None, 1, 0),
        (2, "Safe", None, 1, 0),
        (3, "Unknown", "budget", 1, 0),
    ),
    "sweep-2-L2-2": (
        (1, "Safe", None, 1, 0),
        (2, "Safe", None, 1, 0),
        (3, "Unsafe", None, 1, 0,
         "66087e69355de53fcd5f1e01aab5c73f",
         "f3f45be3558af53fb6fa03e09a72e23fa88ebfb25de5f7bf5e9e3b1178c60440"),
    ),
    "sweep-2-L2-3": (
        (1, "Safe", None, 1, 0),
        (2, "Safe", None, 1, 0),
        (3, "Unsafe", None, 1, 0,
         "766eaaf38018c23fe0eccf2ea9d7ea3f",
         "7981f45d50c2fc3f5fd45fd76da0f53ff04cbd1bb116d5bf1c2dc10e6eb50840"),
    ),
    "sweep-2-L2-4": (
        (0, "Safe", None, 1, 0),
        (2, "Safe", None, 1, 0),
        (3, "Unsafe", None, 1, 0,
         "a0b2edc5ef32cc3f9f596ea43c14e63f",
         "1f98841d5905fb3f824168d7e7a3f23fa492485b5383e3bf2bbe42f9f7c20740"),
    ),
    "sweep-2-L2-5": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (2, "Safe", None, 1, 0),
    ),
    "sweep-2-L2-6": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Unsafe", None, 1, 0,
         "49b545a06680ec3f28199c17c6c0e53f",
         "02545d783e8ff73f967450cbde62e93f9b3da67ec4aff2bfffa8abba21e00540"),
    ),
    "sweep-2-L2-7": (
        (0, "Safe", None, 1, 0),
        (1, "Safe", None, 1, 0),
        (3, "Unsafe", None, 1, 0,
         "468e710e39e3df3fdd3b9c549011ce3f",
         "f3f45be3558af53fb6fa03e09a72e23fa88ebfb25de5f7bf5e9e3b1178c60440"),
    ),
    "min-box": (
        (1, "Unknown", "min_box", 1, 0),
        (2, "Safe", None, 1, 0),
    ),
}


# case: {target: status} of every Safe and Unsafe in GOLDEN_VERDICTS as it
# stood before bounds held over box ∩ ball; frozen, so that no later change
# can loosen it along with the table
PARENT_DECIDED = {
    "capacity-boundary-L1-16": {2: "Unsafe"},
    "capacity-boundary-L1-64": {0: "Safe", 2: "Unsafe", 3: "Safe"},
    "capacity-boundary-L2-16": {2: "Unsafe"},
    "capacity-boundary-L2-64": {2: "Unsafe", 3: "Safe"},
    "capacity-boundary-Linf-16": {2: "Unsafe"},
    "capacity-boundary-Linf-64": {2: "Unsafe"},
    "capacity-interior-L1-16": {0: "Safe", 1: "Safe", 3: "Safe"},
    "capacity-interior-L1-64": {0: "Safe", 1: "Safe", 3: "Safe", 4: "Safe"},
    "capacity-interior-L2-16": {0: "Safe", 1: "Safe", 3: "Safe"},
    "capacity-interior-L2-64": {0: "Safe", 1: "Safe", 3: "Safe", 4: "Safe"},
    "capacity-interior-Linf-16": {0: "Safe", 1: "Safe", 3: "Safe"},
    "capacity-interior-Linf-64": {0: "Safe", 1: "Safe", 3: "Safe", 4: "Safe"},
    "capacity-budget-Linf-16": {4: "Unsafe"},
    "capacity-budget-Linf-64": {4: "Unsafe"},
    "capacity-deep-Linf-16": {4: "Unsafe"},
    "capacity-deep-Linf-64": {4: "Unsafe"},
    "sweep-3-L1-0": {2: "Safe"},
    "sweep-3-L1-1": {0: "Safe"},
    "sweep-3-L1-2": {0: "Safe", 1: "Safe"},
    "sweep-3-L1-3": {0: "Safe"},
    "sweep-3-L1-4": {0: "Safe", 1: "Safe"},
    "sweep-3-L1-5": {0: "Safe", 1: "Safe"},
    "sweep-3-L1-6": {1: "Safe", 2: "Unsafe"},
    "sweep-3-L1-7": {1: "Unsafe", 2: "Unsafe"},
    "sweep-2-L2-0": {0: "Safe", 1: "Safe", 2: "Safe"},
    "sweep-2-L2-1": {0: "Safe", 2: "Safe"},
    "sweep-2-L2-2": {1: "Safe", 2: "Safe", 3: "Unsafe"},
    "sweep-2-L2-3": {1: "Safe", 2: "Safe", 3: "Unsafe"},
    "sweep-2-L2-4": {0: "Safe", 2: "Safe", 3: "Unsafe"},
    "sweep-2-L2-5": {0: "Safe", 1: "Safe", 2: "Safe"},
    "sweep-2-L2-6": {0: "Safe", 1: "Safe", 3: "Unsafe"},
    "sweep-2-L2-7": {0: "Safe", 1: "Safe", 3: "Unsafe"},
    "min-box": {2: "Safe"},
}
