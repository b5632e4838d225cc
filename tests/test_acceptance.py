"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from ag_fixtures import random_ag_instance
from conftest import capacity_network, contracts_equal, make_network, parse_dnn_contract
from safecomp.app import (
    build_ebs_demo,
    build_semaphore_classifier,
    build_verification_report,
    mask_timing,
    run_ebs_demo,
    run_parallel_verification,
)
from safecomp.compose import check_assume_guarantee, check_property, replay_violation
from safecomp.contracts import (
    DnnContract,
    LabelIs,
    RegionContract,
    dnn_contract_to_json,
    emit_dnn_contract,
    parse_property,
    render_property,
)
from safecomp.guard import build_guard, guard_eval
from safecomp.network import Layer, classify, classify_batch, parse_network, render_network
from safecomp.regions import (
    DiscoveryConfig,
    LabeledDataset,
    Region,
    discover_regions,
    dist,
    dist_many,
    region_membership,
)
from safecomp.verifier import VerificationTask, verify_targeted


def report_line(num, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed{tail}"


def random_corpus_network(seed):
    rng = np.random.default_rng(seed)
    dims = [2]
    for _ in range(int(rng.integers(1, 3))):  # one or two hidden layers
        dims.append(int(rng.integers(2, 9)))  # up to 8 relu neurons each
    dims.append(3)
    layers = []
    for i in range(len(dims) - 1):
        activation = "identity" if i == len(dims) - 2 else "relu"
        layers.append(Layer(rng.normal(0, 1.2, size=(dims[i + 1], dims[i])),
                            rng.normal(0, 0.5, size=dims[i + 1]), activation))
    order = "min_best" if seed % 2 else "max_best"
    return make_network(layers, labels=("l0", "l1", "l2"), score_order=order,
                        name=f"corpus{seed}")


def grid_labels_in_region(net, region, step=1e-3):
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


@pytest.fixture(scope="module")
def verification_corpus():
    """100 seeded networks x 3 regions with default-budget verdicts."""
    t0 = time.perf_counter()
    entries = []
    for i in range(100):
        net = random_corpus_network(i)
        rng = np.random.default_rng(10_000 + i)
        for j in range(3):
            centroid = rng.uniform(0.15, 0.85, size=2)
            radius = float(rng.uniform(0.05, 0.25))
            metric = "L1" if (i + j) % 2 else "Linf"
            expected = classify(net, centroid)
            region = Region(f"c{i}_{j}", centroid, radius, metric, expected, 1, (0,))
            target = int(rng.choice([t for t in range(3) if t != expected]))
            task = VerificationTask(net, region, target, seed=1_000 * i + j)
            entries.append((net, region, target, task, verify_targeted(task)))
    return entries, time.perf_counter() - t0


class TestCriterion1:
    def test_soundness_vs_grid_oracle(self, verification_corpus):
        entries, corpus_elapsed = verification_corpus
        t0 = time.perf_counter()
        safe_checked = unsafe_checked = 0
        for net, region, target, task, verdict in entries:
            if verdict.status == "Safe":
                _, labels = grid_labels_in_region(net, region, step=1e-3)
                assert not np.any(labels == target), (net.name, region.id)
                safe_checked += 1
            elif verdict.status == "Unsafe":
                point = verdict.counterexample.point
                assert region_membership(region, point)
                assert classify(net, point) == target
                unsafe_checked += 1
        elapsed = corpus_elapsed + (time.perf_counter() - t0)
        report_line(1, elapsed < 300,
                    f"{safe_checked} Safe grid-confirmed, {unsafe_checked} Unsafe "
                    f"validated, {len(entries)} tasks in {elapsed:.1f}s (< 300s)")


class TestCriterion2:
    def test_completeness_at_desk_scale(self, verification_corpus):
        entries, _ = verification_corpus
        unknowns = [(task, v) for _, _, _, task, v in entries if v.status == "Unknown"]
        rate = len(unknowns) / len(entries)
        assert rate <= 0.10, f"unknown rate {rate:.1%} exceeds 10%"
        still_unknown = 0
        for task, _ in unknowns:
            boosted = VerificationTask(task.network, task.region, task.target_label,
                                       max_nodes=task.max_nodes * 10,
                                       epsilon=task.epsilon, seed=task.seed)
            if verify_targeted(boosted).status == "Unknown":
                still_unknown += 1
        rerun_rate = still_unknown / len(entries)
        assert rerun_rate <= rate, "unknown rate rose at 10x budget"
        report_line(2, True,
                    f"unknown rate {rate:.1%} at default budget, "
                    f"{rerun_rate:.1%} after 10x re-run (never rises)")


class TestCriterion3:
    def test_discovery_properties(self):
        t0 = time.perf_counter()
        total_regions = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 5))
            n_labels = int(rng.integers(2, 5))
            centers = rng.uniform(0, 4, size=(n_labels, dim))
            points, labels = [], []
            for label, center in enumerate(centers):
                per = int(rng.integers(8, 30))
                points.append(center + rng.normal(0, 0.45, size=(per, dim)))
                labels.extend([label] * per)
            data = LabeledDataset(tuple(f"x{k}" for k in range(dim)),
                                  np.vstack(points), np.array(labels))
            for strategy in ("tight", "separating"):
                cfg = DiscoveryConfig(seed=seed, radius_strategy=strategy)
                metric = ("L1", "L2", "Linf")[seed % 3]
                result = discover_regions(data, metric, cfg)
                total_regions += len(result.regions)
                for region in result.regions:
                    member_labels = data.labels[list(region.member_indices)]
                    assert set(member_labels) == {region.expected_label}
                    for idx in region.member_indices:
                        assert region_membership(region, data.points[idx])
                    if strategy == "separating":
                        for idx in range(len(data)):
                            if data.labels[idx] != region.expected_label:
                                assert not region_membership(region, data.points[idx])
        elapsed = time.perf_counter() - t0
        report_line(3, elapsed < 30,
                    f"{total_regions} regions over 20 datasets x 2 strategies: pure, "
                    f"contained, separating excludes foreign points ({elapsed:.1f}s < 30s)")


class TestCriterion4:
    def test_coc_contract_round_trip(self):
        centroid = np.array([0.19, 0.31, 0.28, 0.33, 0.33])
        contract = DnnContract("advisory", (RegionContract(
            id="r000", centroid=centroid, radius=0.28, metric="L1",
            guarantee=LabelIs("COC"),
            provenance={"summary": "FullySafe", "expected_label": "COC"}),))
        back = parse_dnn_contract(json.dumps(dnn_contract_to_json(contract)))
        assert contracts_equal(contract, back)
        back.check_width(len(centroid), "the centroid")
        k = back.first_containing(centroid[None, :])[0]
        assert k < len(back.ordered) and back.ordered[k].guarantee == LabelIs("COC")
        report_line(4, True, "L1 r=0.28 label_is(COC) contract round-trips; "
                             "centroid determined as COC")


class TestCriterion5:
    def test_demo_passes_and_fails_by_braking_ticks(self):
        t0 = time.perf_counter()
        passing = run_ebs_demo(braking_ticks=2, seed=42)
        t_pass = time.perf_counter() - t0
        premises = passing["assume_guarantee"]["premises"]
        assert [p["holds"] for p in premises] == [True, True, True]
        assert passing["conclusion"] == "M1 || M2 |= P"
        assert passing["assume_guarantee"]["property"] == "G (x=red => F<=4 (velocity=0))"

        t1 = time.perf_counter()
        failing = run_ebs_demo(braking_ticks=4, seed=42)
        t_fail = time.perf_counter() - t1
        failed = [p for p in failing["assume_guarantee"]["premises"] if not p["holds"]]
        assert failed and failed[0]["counterexample"]

        # the reported trace replays through the subsystem deterministically
        demo = build_ebs_demo(braking_ticks=4)
        ag = check_assume_guarantee(
            demo.m1, demo.c1, demo.dnn_contract, demo.p,
            class_domain=("red", "green", "yellow"),
            token_map={l: LabelIs(l) for l in ("red", "green", "yellow")})
        premise1 = ag.premise("M1 |= C1")
        assert not premise1.holds
        assert replay_violation(demo.m1, demo.c1.guarantee, premise1.counterexample)
        ok = t_pass < 10 and t_fail < 10
        report_line(5, ok, f"braking=2 concludes in {t_pass:.1f}s; braking=4 fails "
                           f"premise 1 with replayable trace in {t_fail:.1f}s (< 10s each)")


class TestCriterion6:
    def test_rule_soundness_sampling(self):
        t0 = time.perf_counter()
        systems = 0
        all_pass_checks = 0
        discrepancies = 0
        seed = 0
        while systems < 50:
            instance = random_ag_instance(seed)
            seed += 1
            if instance is None:
                continue
            systems += 1
            m1_system, c1, m2_system, c2, full, p_candidates = instance
            rng = np.random.default_rng(seed)
            picks = rng.permutation(len(p_candidates))[:12]
            for idx in picks:
                p = p_candidates[int(idx)]
                ag = check_assume_guarantee(m1_system, c1, c2, p, m2_model=m2_system)
                if not ag.conclusion:
                    continue
                all_pass_checks += 1
                if not check_property(full, p).holds:
                    discrepancies += 1
        elapsed = time.perf_counter() - t0
        ok = discrepancies == 0 and all_pass_checks > 0 and elapsed < 120
        report_line(6, ok, f"{systems} systems, {all_pass_checks} all-premises-pass "
                           f"checks, {discrepancies} discrepancies ({elapsed:.1f}s < 120s)")


class TestCriterion7:
    def test_parallel_determinism(self):
        net, data = build_semaphore_classifier(7)
        rng = np.random.default_rng(7)
        regions = []
        for i in range(20):
            center = np.clip(data.points[int(rng.integers(0, len(data)))]
                             + rng.normal(0, 0.02, size=8), 0, 1)
            expected = classify(net, center)
            regions.append(Region(f"f{i:03d}", center, float(rng.uniform(0.05, 0.3)),
                                  "Linf" if i % 2 else "L1", expected, 1, (0,)))
        reports = {}
        for workers in (1, 2, 4, 8):
            results = run_parallel_verification(net, regions, workers=workers, seed=7)
            report = build_verification_report(net, results, config={"seed": 7})
            reports[workers] = json.dumps(mask_timing(report), sort_keys=True)
        ok = len(set(reports.values())) == 1
        report_line(7, ok, "verify reports over 20 fixture regions byte-identical "
                           "for workers in {1, 2, 4, 8} (timing masked)")


class TestCriterion8:
    def test_capacity_on_deep_network(self):
        net = capacity_network()
        reparsed = parse_network(render_network(net))
        assert sum(l.out_dim for l in reparsed.layers[:-1]) == 300

        centroid = np.full(5, 0.5)
        region = Region("cap", centroid, 0.1, "L1", classify(reparsed, centroid), 1, (0,))
        target = (region.expected_label + 1) % 5
        t0 = time.perf_counter()
        verdict = verify_targeted(VerificationTask(reparsed, region, target,
                                                   max_nodes=2000, time_budget=60.0))
        elapsed = time.perf_counter() - t0
        ok = verdict.status in ("Safe", "Unsafe", "Unknown") and elapsed < 60
        report_line(8, ok, f"5-input 6x50-relu net parsed; verify_targeted returned "
                           f"{verdict.status} in {elapsed:.1f}s (< 60s); full-scale "
                           f"reproduction is out of scope")


class TestCriterion9:
    def test_streaming_guard_agreement(self):
        net, data = build_semaphore_classifier(9)
        disc = discover_regions(data, "Linf", DiscoveryConfig(seed=9))
        results = run_parallel_verification(net, disc.regions, seed=9)
        contract = emit_dnn_contract(net.name, net.labels, results)
        assert contract.regions, "fixture must yield at least one proved region"
        guard = build_guard(contract, uncertainty_threshold=1.0)
        rng = np.random.default_rng(99)
        points = rng.uniform(0, 1, size=(10_000, 8))
        mismatches = uncertain = 0
        for x in points:
            decision = guard_eval(guard, net, x)
            inside_any = any(
                dist(rc.metric, x, rc.centroid) <= rc.radius for rc in contract.regions
            )
            if (decision.kind == "Covered") != inside_any:
                mismatches += 1
            if decision.kind == "FailSafe":
                if decision.reason == "uncertain":
                    uncertain += 1
                else:
                    assert not inside_any
        ok = mismatches == 0 and uncertain == 0
        report_line(9, ok, f"10k points: guard matches brute-force membership "
                           f"({mismatches} mismatches); threshold 1.0 never uncertain")
