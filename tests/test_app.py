import itertools
import json

import numpy as np
import pytest

from conftest import identity_network
from safecomp.app import (
    build_ebs_demo,
    build_semaphore_classifier,
    build_verification_report,
    iter_grid,
    mask_timing,
    run_ebs_demo,
    run_parallel_verification,
    task_seed,
    verdict_from_json,
    verdict_to_json,
)
from safecomp.compose import check_property
from safecomp.network import classify, evaluate
from safecomp.regions import DiscoveryConfig, Region, discover_regions
from safecomp.verifier import Counterexample, Verdict, VerdictStats, verify_full


class TestGrid:
    def test_two_by_one(self):
        assert list(iter_grid([[1.0, 2.0], [3.0]])) == [(1.0, 3.0), (2.0, 3.0)]

    def test_count_law_random(self, rng):
        for _ in range(20):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
            cutpoints = [list(np.linspace(0, 1, s)) for s in sizes]
            assert sum(1 for _ in iter_grid(cutpoints)) == int(np.prod(sizes))

    def test_multimillion_row_count_is_lazy(self):
        # 2,662,704 rows = 16 * 9 * 11 * 41 * 41: representable without materializing
        cutpoints = [range(16), range(9), range(11), range(41), range(41)]
        head = list(itertools.islice(iter_grid(cutpoints), 3))
        assert head == [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, 2)]

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            iter_grid([[1.0], []])


class TestParallel:
    def _fixture(self, n=20):
        net = identity_network(score_order="max_best")
        rng = np.random.default_rng(4)
        regions = []
        for i in range(n):
            c = rng.uniform(0.1, 0.9, size=2)
            regions.append(Region(f"r{i:03d}", c, float(rng.uniform(0.02, 0.15)),
                                  "Linf" if i % 2 else "L1", 0, 1, (0,)))
        return net, regions

    def test_worker_counts_produce_identical_reports(self):
        net, regions = self._fixture()
        reports = []
        for workers in (1, 2, 4, 8):
            results = run_parallel_verification(net, regions, workers=workers, seed=9)
            report = build_verification_report(net, results, config={"workers": workers})
            report["config"] = {}  # config echoes the worker count by design
            reports.append(json.dumps(mask_timing(report), sort_keys=True))
        assert len(set(reports)) == 1

    def test_zero_regions(self):
        net, _ = self._fixture()
        assert run_parallel_verification(net, [], workers=4) == []

    def test_single_region_matches_direct_call(self):
        net, regions = self._fixture(1)
        [(region, result)] = run_parallel_verification(net, regions, workers=3, seed=5)
        direct = verify_full(net, region, seed=task_seed(5, region.id))
        assert (result.kind, result.safe_targets) == (direct.kind, direct.safe_targets)
        for t in result.verdicts:
            assert result.verdicts[t].status == direct.verdicts[t].status

    def test_task_seed_is_stable(self):
        assert task_seed(5, "r000") == task_seed(5, "r000")
        assert task_seed(5, "r000") != task_seed(5, "r001")
        assert task_seed(5, "r000") != task_seed(6, "r000")

    def test_workers_must_be_positive(self):
        net, regions = self._fixture(1)
        with pytest.raises(ValueError):
            run_parallel_verification(net, regions, workers=0)


class TestSemaphoreClassifier:
    def test_prototypes_classify_to_their_own_label(self):
        net, _ = build_semaphore_classifier(42)
        prototypes = net.layers[1].weights[:, :8] / 2.0
        for c in range(3):
            assert classify(net, prototypes[c]) == c

    def test_dataset_labels_are_nearest_prototype(self):
        net, data = build_semaphore_classifier(42)
        prototypes = net.layers[1].weights[:, :8] / 2.0
        d2 = np.stack([np.sum((data.points - p) ** 2, axis=1) for p in prototypes], axis=1)
        np.testing.assert_array_equal(np.argmin(d2, axis=1), data.labels)

    def test_network_scores_equal_affine_form(self, rng):
        net, _ = build_semaphore_classifier(42)
        prototypes = net.layers[1].weights[:, :8] / 2.0
        norms = np.sum(prototypes * prototypes, axis=1)
        for _ in range(50):
            x = rng.uniform(0, 1, size=8)
            expected = 2.0 * prototypes @ x - norms
            np.testing.assert_allclose(evaluate(net, x), expected, rtol=1e-9, atol=1e-12)

    def test_pipeline_regression_fixture_seed_42(self):
        # recorded pipeline shape, not ground truth: three fully-safe regions
        net, data = build_semaphore_classifier(42)
        disc = discover_regions(data, "Linf", DiscoveryConfig(seed=42))
        results = run_parallel_verification(net, disc.regions, seed=42)
        kinds = sorted(r.kind for _, r in results)
        assert kinds.count("FullySafe") >= 3


class TestEbsDemo:
    def test_braking_two_passes_and_concludes(self):
        report = run_ebs_demo(braking_ticks=2, seed=42)
        premises = report["assume_guarantee"]["premises"]
        assert [p["holds"] for p in premises] == [True, True, True]
        assert report["conclusion"] == "M1 || M2 |= P"
        assert report["assume_guarantee"]["property"] == "G (x=red => F<=4 (velocity=0))"

    def test_braking_four_fails_premise_one_with_trace(self):
        report = run_ebs_demo(braking_ticks=4, seed=42)
        premises = {p["name"]: p for p in report["assume_guarantee"]["premises"]}
        assert not premises["M1 |= C1"]["holds"]
        assert premises["M1 |= C1"]["counterexample"]
        assert report["conclusion"] == "not established"

    def test_stopped_vehicle_satisfies_property_vacuously_fast(self):
        demo = build_ebs_demo(braking_ticks=2, velocity_domain=("0",))
        result = check_property(demo.full_system, demo.p)
        assert result.holds

    def test_rerun_reproduces_report_byte_identically(self):
        a = json.dumps(mask_timing(run_ebs_demo(braking_ticks=2, seed=42)), sort_keys=True)
        b = json.dumps(mask_timing(run_ebs_demo(braking_ticks=2, seed=42)), sort_keys=True)
        assert a == b

    def test_token_bindings_cite_real_regions(self):
        report = run_ebs_demo(braking_ticks=2, seed=42)
        bindings = report["pipeline"]["token_bindings"]
        assert set(bindings) == {"red", "green", "yellow"}
        assert all(v is not None for v in bindings.values())


class TestReport:
    def test_region_ids_sorted_and_unique(self):
        net = identity_network(score_order="max_best")
        rng = np.random.default_rng(1)
        regions = [Region(f"r{i:03d}", rng.uniform(0.2, 0.8, size=2), 0.05, "Linf", 0, 1, (0,))
                   for i in (3, 1, 2)]
        results = run_parallel_verification(net, regions, seed=0)
        report = build_verification_report(net, results, config={})
        ids = [e["id"] for e in report["regions"]]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        summary = report["summary"]
        assert summary["total"] == 3
        assert sum(summary[k] for k in
                   ("fully_safe", "targeted_safe", "not_safe", "inconclusive")) == 3

    def test_mask_timing_zeroes_nested_elapsed(self):
        obj = {"timing": {"elapsed": 3.2},
               "regions": [{"verdicts": {"b": {"stats": {"elapsed": 0.4, "nodes": 7}}}}]}
        masked = mask_timing(obj)
        assert masked["timing"]["elapsed"] == 0.0
        assert masked["regions"][0]["verdicts"]["b"]["stats"]["elapsed"] == 0.0
        assert masked["regions"][0]["verdicts"]["b"]["stats"]["nodes"] == 7

    @pytest.mark.parametrize("verdict", [
        Verdict("Safe", None, VerdictStats(12, 3, 0.25)),
        Verdict("Unsafe", Counterexample(np.array([0.1, -0.7]), np.array([1.5, 2.25])),
                VerdictStats(4, 1, 0.5)),
        Verdict("Unknown", None, VerdictStats(50, 9, 1.0), reason="budget"),
    ])
    def test_verdict_json_round_trip(self, verdict):
        obj = json.loads(json.dumps(verdict_to_json(verdict)))
        back = verdict_from_json(obj)
        assert (back.status, back.stats, back.reason) == \
            (verdict.status, verdict.stats, verdict.reason)
        if verdict.counterexample is None:
            assert back.counterexample is None
        else:
            np.testing.assert_array_equal(back.counterexample.point, verdict.counterexample.point)
            np.testing.assert_array_equal(back.counterexample.scores,
                                          verdict.counterexample.scores)
        assert verdict_to_json(back) == obj
