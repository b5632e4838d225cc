import io
import json

import numpy as np
import pytest

from conftest import identity_network, random_network
from safecomp.contracts import DnnContract, LabelIs, LabelNotIn, RegionContract
from safecomp.guard import (
    BLOCK_ROWS,
    build_guard,
    decision_to_json,
    guard_eval,
    stream_guard,
    uncertainty,
)
from safecomp.regions import dist


def make_contract(*specs, network="test", uncertainty_max=None):
    regions = tuple(
        RegionContract(rid, np.asarray(c, dtype=float), r, metric, guarantee,
                       provenance={"summary": "FullySafe"}, uncertainty_max=uncertainty_max)
        for rid, c, r, metric, guarantee in specs
    )
    return DnnContract(network, regions)


COC_CENTROID = [0.19, 0.31, 0.28, 0.33, 0.33]
COC_CONTRACT = make_contract(("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")))
FIVE = identity_network(5, labels=("COC", "b", "c", "d", "e"))


class TestBuildGuard:
    def test_empty_contract_always_fail_safes(self):
        guard = build_guard(make_contract())
        net = identity_network()
        decision = guard_eval(guard, net, [0.5, 0.5])
        assert decision.kind == "FailSafe"
        assert decision.reason == "outside_regions"

    def test_duplicate_region_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            make_contract(
                ("dup", [0.0, 0.0], 1.0, "L1", LabelIs("a")),
                ("dup", [1.0, 1.0], 1.0, "L1", LabelIs("b")),
            )

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            build_guard(COC_CONTRACT, uncertainty_threshold=0.0)
        with pytest.raises(ValueError):
            build_guard(COC_CONTRACT, uncertainty_threshold=1.5)


class TestUncertainty:
    def test_flat_scores_give_one_minus_inverse_k(self):
        net = identity_network(3, labels=("a", "b", "c"))
        assert uncertainty(net, [0.4, 0.4, 0.4]) == pytest.approx(1 - 1 / 3)

    def test_dominating_score_is_near_certain(self):
        net = identity_network(score_order="max_best")
        assert uncertainty(net, [15.0, 0.0]) < 0.01

    def test_min_best_orientation(self):
        net = identity_network(score_order="min_best")
        # a decisively LOW score should be confident under min_best
        assert uncertainty(net, [-15.0, 0.0]) < 0.01

    def test_bounded_sweep(self, rng):
        net = random_network(3, dims=(2, 6, 6, 3))
        k = 3
        for _ in range(10_000):
            x = rng.uniform(-1, 1, size=2)
            u = uncertainty(net, x)
            assert 0.0 <= u <= 1 - 1 / k + 1e-12


class TestGuardEval:
    def test_centroid_covered_with_coc_guarantee(self):
        net = identity_network(5, labels=("COC", "b", "c", "d", "e"))
        guard = build_guard(COC_CONTRACT)
        decision = guard_eval(guard, net, [0.19, 0.31, 0.28, 0.33, 0.33])
        assert decision.kind == "Covered"
        assert decision.region_id == "r000"
        assert decision.guarantee == LabelIs("COC")
        assert decision.uncertainty >= 0.0

    def test_outside_all_regions_fail_safe(self):
        net = identity_network(5, labels=("COC", "b", "c", "d", "e"))
        guard = build_guard(COC_CONTRACT, fail_safe_action="brake")
        decision = guard_eval(guard, net, np.ones(5) * 5)
        assert decision.kind == "FailSafe"
        assert decision.reason == "outside_regions"
        assert decision.action == "brake"

    def test_tiny_threshold_forces_uncertain(self):
        net = identity_network(5, labels=("COC", "b", "c", "d", "e"))
        guard = build_guard(COC_CONTRACT, uncertainty_threshold=1e-6)
        # flat-ish scores at the centroid: uncertainty far above the threshold
        decision = guard_eval(guard, net, [0.19, 0.31, 0.28, 0.33, 0.33])
        assert decision.kind == "FailSafe"
        assert decision.reason == "uncertain"

    def test_threshold_one_never_uncertain(self, rng):
        net = identity_network(5, labels=("COC", "b", "c", "d", "e"))
        guard = build_guard(COC_CONTRACT, uncertainty_threshold=1.0)
        for _ in range(500):
            x = rng.uniform(-0.5, 1.0, size=5)
            decision = guard_eval(guard, net, x)
            assert decision.reason != "uncertain"

    def test_lowest_id_region_wins_overlap(self):
        contract = make_contract(
            ("b", [0.0, 0.0], 1.0, "L2", LabelIs("a")),
            ("a", [0.1, 0.0], 1.0, "L2", LabelIs("b")),
        )
        net = identity_network()
        decision = guard_eval(build_guard(contract), net, [0.05, 0.0])
        assert decision.region_id == "a"

    def test_agreement_with_brute_force_membership(self, rng):
        specs = []
        for i in range(5):
            specs.append((f"r{i}", rng.uniform(0, 1, size=2), float(rng.uniform(0.1, 0.4)),
                          ("L1", "L2", "Linf")[i % 3], LabelIs("a")))
        contract = make_contract(*specs)
        guard = build_guard(contract)
        net = identity_network()
        for _ in range(10_000):
            x = rng.uniform(-0.2, 1.2, size=2)
            decision = guard_eval(guard, net, x)
            inside_any = any(dist(m, x, np.asarray(c)) <= r for _, c, r, m, _ in specs)
            in_domain = bool(np.all((x >= 0.0) & (x <= 1.0)))  # the net's domain is [0, 1]^2
            assert (decision.kind == "Covered") == (inside_any and in_domain)

    def test_deterministic(self):
        net = identity_network(5, labels=("COC", "b", "c", "d", "e"))
        guard = build_guard(COC_CONTRACT)
        x = [0.2, 0.3, 0.3, 0.3, 0.3]
        d1 = guard_eval(guard, net, x)
        d2 = guard_eval(guard, net, x)
        assert d1 == d2


class TestConditionalSafety:
    def test_covered_fully_safe_regions_classify_as_guaranteed(self, rng):
        # pipeline-proved regions: every covered point must classify to the
        # guaranteed label (the verifier's Safe verdicts back the guarantee)
        from safecomp.app import build_semaphore_classifier, run_parallel_verification
        from safecomp.contracts import emit_dnn_contract
        from safecomp.network import classify
        from safecomp.regions import DiscoveryConfig, discover_regions

        net, data = build_semaphore_classifier(5)
        disc = discover_regions(data, "Linf", DiscoveryConfig(seed=5))
        results = run_parallel_verification(net, disc.regions, seed=5)
        contract = emit_dnn_contract(net.name, net.labels, results)
        fully_safe = [rc for rc in contract.regions if isinstance(rc.guarantee, LabelIs)]
        assert fully_safe
        guard = build_guard(contract)
        checked = 0
        for rc in fully_safe:
            for _ in range(300):
                x = np.clip(rc.centroid + rng.uniform(-rc.radius, rc.radius, size=8), 0, 1)
                decision = guard_eval(guard, net, x)
                if decision.kind != "Covered" or decision.region_id != rc.id:
                    continue  # another region may claim the point first
                assert net.labels[classify(net, x)] == rc.guarantee.label
                checked += 1
        assert checked > 100


class TestStreaming:
    def test_jsonl_output_shape(self):
        net = identity_network(5, labels=("COC", "b", "c", "d", "e"))
        guard = build_guard(COC_CONTRACT)
        rows = [[0.19, 0.31, 0.28, 0.33, 0.33], [5.0, 5.0, 5.0, 5.0, 5.0]]
        out = io.StringIO()
        n = stream_guard(guard, net, rows, out)
        assert n == 2
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert lines[0]["kind"] == "Covered"
        assert lines[0]["region"] == "r000"
        assert lines[0]["guarantee"] == {"label_is": "COC"}
        assert lines[1]["kind"] == "FailSafe"
        assert lines[1]["reason"] == "outside_regions"
        assert all("label" in l and "uncertainty" in l for l in lines)



class TestFailSafe:
    @pytest.mark.parametrize("row", [
        [0.19, np.nan, 0.28, 0.33, 0.33],
        [0.19, 0.31, np.inf, 0.33, 0.33],
        [0.19, 0.31, 0.28, 0.33],              # width - 1
        [0.19, 0.31, 0.28, 0.33, 0.33, 0.5],   # width + 1
        [0.19, "x", 0.28, 0.33, 0.33],         # not a number
        [],
        None,
    ])
    def test_invalid_input(self, row):
        decision = guard_eval(build_guard(COC_CONTRACT, fail_safe_action="brake"), FIVE, row)
        assert (decision.kind, decision.reason, decision.action) == ("FailSafe", "invalid_input",
                                                                     "brake")
        assert decision.region_id is decision.label is decision.uncertainty is None
        line = decision_to_json(decision)
        assert {k: line[k] for k in ("kind", "region", "label", "uncertainty")} == {
            "kind": "FailSafe", "region": None, "label": None, "uncertainty": None}

    def test_contained_but_outside_domain(self):
        # the region's ball reaches below 0 in the first coordinate; the
        # network's domain is [0, 1]^5, so the verifier proved nothing there
        x = [-0.05, 0.31, 0.28, 0.33, 0.33]
        decision = guard_eval(build_guard(COC_CONTRACT), FIVE, x)
        assert (decision.kind, decision.reason, decision.region_id) == (
            "FailSafe", "outside_domain", None)
        assert decision.label == "d"  # the network's own label is still reported
        assert decision.uncertainty is not None

    def test_domain_boundary_is_covered(self):
        x = [0.0, 0.31, 0.28, 0.33, 0.33]
        assert guard_eval(build_guard(COC_CONTRACT), FIVE, x).kind == "Covered"

    def test_outside_regions_wins_over_outside_domain(self):
        decision = guard_eval(build_guard(COC_CONTRACT), FIVE, [-5.0] * 5)
        assert decision.reason == "outside_regions"

    def test_region_uncertainty_cap_without_threshold(self):
        capped = make_contract(("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")),
                               uncertainty_max=0.1)
        guard = build_guard(capped)
        assert guard.uncertainty_threshold is None
        decision = guard_eval(guard, FIVE, COC_CENTROID)
        assert decision.uncertainty > 0.1
        assert (decision.kind, decision.reason, decision.region_id) == (
            "FailSafe", "uncertain", "r000")
        assert guard_eval(build_guard(COC_CONTRACT), FIVE, COC_CENTROID).kind == "Covered"

    def test_lower_of_cap_and_threshold_applies(self):
        u = uncertainty(FIVE, COC_CENTROID)
        capped = make_contract(("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")),
                               uncertainty_max=u + 0.01)
        assert guard_eval(build_guard(capped, uncertainty_threshold=1.0), FIVE,
                          COC_CENTROID).kind == "Covered"
        assert guard_eval(build_guard(capped, uncertainty_threshold=u - 0.01), FIVE,
                          COC_CENTROID).reason == "uncertain"

    def test_width_mismatch_rejected_before_any_row(self):
        guard = build_guard(COC_CONTRACT)
        net = identity_network(4)
        with pytest.raises(ValueError, match="5 inputs.*has 4"):
            guard_eval(guard, net, [0.1] * 4)
        out = io.StringIO()

        def rows():
            raise AssertionError("no row may be read")
            yield

        with pytest.raises(ValueError, match="5 inputs.*has 4"):
            stream_guard(guard, net, rows(), out)
        assert out.getvalue() == ""

    def test_network_name_mismatch_rejected_before_any_row(self):
        guard = build_guard(make_contract(("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")),
                                          network="other"))
        with pytest.raises(ValueError, match="'other'.*'test'"):
            guard_eval(guard, FIVE, COC_CENTROID)
        out = io.StringIO()

        def rows():
            raise AssertionError("no row may be read")
            yield

        with pytest.raises(ValueError, match="'other'.*'test'"):
            stream_guard(guard, FIVE, rows(), out)
        assert out.getvalue() == ""

    def test_mixed_centroid_widths_rejected(self):
        contract = make_contract(("r0", [0.5] * 5, 0.1, "L1", LabelIs("COC")),
                                 ("r1", [0.5] * 4, 0.1, "L1", LabelIs("COC")))
        with pytest.raises(ValueError, match="4/5 inputs.*has 5"):
            guard_eval(build_guard(contract), FIVE, [0.5] * 5)


def mixed_rows(rng, n):
    """Rows of every kind: inside, boundary, outside, off-domain and malformed."""
    rows = []
    for k in range(n):
        kind = k % 9
        if kind < 3:
            x = np.asarray(COC_CENTROID) + rng.uniform(-0.06, 0.06, size=5)
        elif kind == 3:
            x = rng.uniform(0, 1, size=5)
        elif kind == 4:
            x = np.asarray(COC_CENTROID) + rng.uniform(-0.3, 0.3, size=5)
        elif kind == 5:
            x = np.asarray(COC_CENTROID)
            x[int(rng.integers(5))] = -0.01
        else:
            x = rng.uniform(0, 1, size=5)
        row = [float(v) for v in x]
        if kind == 6:
            row[int(rng.integers(5))] = float("nan")
        elif kind == 7:
            row = row[:4] if k % 2 else row + [0.5]
        elif kind == 8:
            row = [str(v) for v in row]
        rows.append(row)
    return rows


class TestStreamingIdentity:
    def contracts(self, network="test"):
        return make_contract(
            ("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")),
            ("r001", [0.6, 0.6, 0.6, 0.6, 0.6], 0.2, "Linf", LabelNotIn(("b",))),
            ("a002", [0.3, 0.3, 0.3, 0.3, 0.3], 0.15, "L2", LabelIs("e")),
            network=network,
        )

    def test_same_bytes_for_any_chunking(self, rng):
        net = random_network(7, dims=(5, 12, 5), score_order="min_best")
        guard = build_guard(self.contracts(net.name), uncertainty_threshold=0.4)
        rows = mixed_rows(rng, 2 * BLOCK_ROWS + 300)

        def streamed(chunk):
            out = io.StringIO()
            count = sum(stream_guard(guard, net, rows[k:k + chunk], out)
                        for k in range(0, len(rows), chunk))
            assert count == len(rows)
            return out.getvalue()

        whole = io.StringIO()
        assert stream_guard(guard, net, iter(rows), whole) == len(rows)
        one_by_one = "".join(json.dumps(decision_to_json(guard_eval(guard, net, row)),
                                        sort_keys=True) + "\n" for row in rows)
        assert whole.getvalue() == one_by_one
        for chunk in (1, 7, 1000):
            assert streamed(chunk) == one_by_one
        reasons = {json.loads(line).get("reason") for line in one_by_one.splitlines()}
        assert reasons == {None, "invalid_input", "outside_regions", "outside_domain", "uncertain"}

    def test_blocks_are_written_as_decided(self):
        net = identity_network(5, labels=("COC", "b", "c", "d", "e"))
        out = io.StringIO()

        def rows():
            for _ in range(BLOCK_ROWS):
                yield COC_CENTROID
            # the first block is out before the stream reads past it
            assert out.getvalue().count("\n") == BLOCK_ROWS
            yield [np.nan] * 5

        assert stream_guard(build_guard(COC_CONTRACT), net, rows(), out) == BLOCK_ROWS + 1
        assert json.loads(out.getvalue().splitlines()[-1])["reason"] == "invalid_input"
