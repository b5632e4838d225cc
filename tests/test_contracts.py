import json

import numpy as np
import pytest

from conftest import contracts_equal, parse_dnn_contract
from safecomp.contracts import (
    Always,
    Atom,
    ComponentContract,
    DnnContract,
    Eventually,
    LabelIs,
    LabelNotIn,
    PropertySyntaxError,
    RegionContract,
    check_point_against_contract,
    component_contract_from_json,
    component_contract_to_json,
    dnn_contract_from_json,
    dnn_contract_to_json,
    emit_dnn_contract,
    parse_property,
    render_contract,
    render_property,
)
from safecomp.regions import Region
from safecomp.verifier import Counterexample, FullResult, FullSummary, Verdict, VerdictStats

ADVISORY_LABELS = ("COC", "WeakLeft", "WeakRight", "StrongLeft", "StrongRight")
COC_CENTROID = np.array([0.19, 0.31, 0.28, 0.33, 0.33])


def full_result(kind, safe=(), verdicts=None):
    return FullResult(verdicts or {}, FullSummary(kind, tuple(safe)))


def region(rid="r000", expected=0, centroid=COC_CENTROID, radius=0.28, metric="L1"):
    return Region(rid, np.asarray(centroid, dtype=float), radius, metric, expected,
                  member_count=5, member_indices=(0, 1, 2, 3, 4))


class TestPropertyLanguage:
    def test_bounded_response_ast(self):
        p = parse_property("G (x=red => F<=3 (velocity=0))")
        assert p.antecedent == Atom((("x", "red"),))
        assert isinstance(p.consequent, Eventually)
        assert p.consequent.bound == 3
        assert p.consequent.atom == Atom((("velocity", "0"),))

    def test_subsystem_contract_ast(self):
        p = parse_property("G (Class=red => F<=3 (velocity=0))")
        assert p.antecedent == Atom((("Class", "red"),))

    def test_pure_safety_round_trip(self):
        p = parse_property("G (a=1 => b=2)")
        assert isinstance(p.consequent, Atom)
        assert parse_property(render_property(p)) == p

    def test_whitespace_insensitive(self):
        assert parse_property("G(a=1&b=2=>F<=2(c=3))") == \
            parse_property("G ( a=1 & b=2 => F<=2 ( c=3 ) )")

    def test_true_atoms(self):
        p = parse_property("G (true => true)")
        assert p.antecedent == Atom(())
        assert p.consequent == Atom(())

    def test_syntax_error_carries_position(self):
        with pytest.raises(PropertySyntaxError) as err:
            parse_property("G (a=1 => F<=3 velocity=0)")
        assert "position" in str(err.value)

    def test_zero_bound_rejected(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("G (a=1 => F<=0 (b=1))")

    @pytest.mark.parametrize("seed", range(200))
    def test_random_ast_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        ports = [f"p{i}" for i in range(rng.integers(1, 4))]

        def atoms():
            n = int(rng.integers(0, 3))
            if n == 0:
                return Atom(())
            return Atom(tuple((ports[int(rng.integers(0, len(ports)))],
                               str(int(rng.integers(0, 3)))) for _ in range(n)))

        if rng.random() < 0.5:
            consequent = Eventually(int(rng.integers(1, 6)), atoms())
        else:
            consequent = atoms()
        p = Always(atoms(), consequent)
        assert parse_property(render_property(p)) == p


class TestEmit:
    def test_fully_safe_region_gets_label_is(self):
        contract = emit_dnn_contract("advisory", ADVISORY_LABELS,
                                     [(region(), full_result("FullySafe"))])
        assert len(contract.regions) == 1
        rc = contract.regions[0]
        assert rc.guarantee == LabelIs("COC")
        assert rc.radius == pytest.approx(0.28)
        assert rc.provenance["summary"] == "FullySafe"

    def test_targeted_safe_maps_to_label_not_in(self):
        result = full_result("TargetedSafe", safe=(4,))
        contract = emit_dnn_contract("advisory", ADVISORY_LABELS, [(region(), result)])
        assert contract.regions[0].guarantee == LabelNotIn(("StrongRight",))

    def test_not_safe_regions_go_to_annex_with_counterexamples(self):
        ce_point = np.array([0.2, 0.3, 0.3, 0.3, 0.3])
        verdicts = {4: Verdict("Unsafe",
                               counterexample=Counterexample(ce_point, np.zeros(5)),
                               stats=VerdictStats(3, 1, 0.0))}
        result = FullResult(verdicts, FullSummary("NotSafe"))
        contract = emit_dnn_contract("advisory", ADVISORY_LABELS, [(region(), result)])
        assert contract.regions == ()
        assert len(contract.annex) == 1
        assert contract.annex[0]["id"] == "r000"
        assert contract.annex[0]["counterexamples"]["StrongRight"] == list(ce_point)

    def test_empty_results_give_empty_contract(self):
        contract = emit_dnn_contract("advisory", ADVISORY_LABELS, [])
        assert contract.regions == ()
        obj = dnn_contract_to_json(contract)
        assert obj == {"network": "advisory", "regions": [], "annex": []}

    def test_duplicate_region_ids_rejected(self):
        results = [(region("dup"), full_result("FullySafe")),
                   (region("dup", expected=1), full_result("FullySafe"))]
        with pytest.raises(ValueError, match="duplicate"):
            emit_dnn_contract("advisory", ADVISORY_LABELS, results)

    def test_audit_every_contract_region_traces_to_proof(self):
        results = [
            (region("r000"), full_result("FullySafe")),
            (region("r001", expected=1), full_result("TargetedSafe", safe=(0,))),
            (region("r002", expected=2), full_result("Inconclusive", safe=(0,))),
        ]
        contract = emit_dnn_contract("advisory", ADVISORY_LABELS, results)
        assert {rc.id for rc in contract.regions} == {"r000", "r001"}
        for rc in contract.regions:
            assert rc.provenance["summary"] in ("FullySafe", "TargetedSafe")


class TestRegionContractInvariants:
    def test_excluded_set_must_not_contain_expected(self):
        with pytest.raises(ValueError):
            RegionContract("r0", COC_CENTROID, 0.28, "L1",
                           LabelNotIn(("COC", "WeakLeft")),
                           provenance={"expected_label": "COC"})

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -0.28])
    def test_non_finite_or_non_positive_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="region 'r0' radius must be finite and positive"):
            RegionContract("r0", COC_CENTROID, bad, "L1", LabelIs("COC"))
        rc = RegionContract("r0", COC_CENTROID, 0.28, "L1", LabelIs("COC"),
                            provenance={"summary": "FullySafe", "expected_label": "COC"})
        obj = json.loads(render_contract(DnnContract("advisory", (rc,))))
        obj["regions"][0]["radius"] = bad
        with pytest.raises(ValueError, match="region 'r0' radius must be finite and positive"):
            dnn_contract_from_json(obj)

    @pytest.mark.parametrize("key, bad, message", [
        ("radius", True, "region 'r0' radius must be a number, got True"),
        ("radius", "0.5", "region 'r0' radius must be a number, got '0.5'"),
        ("radius", None, "region 'r0' radius must be a number, got None"),
        ("radius", 10**400, "region 'r0' radius 1000.* lies beyond float range"),
        ("centroid", [0.1, True, 0.2, 0.3, 0.3], "region 'r0' centroid entry must be a number"),
        ("centroid", [0.1, "0.3", 0.2, 0.3, 0.3], "region 'r0' centroid entry must be a number"),
        ("centroid", "0.1,0.3", "region 'r0' centroid must be a list of numbers"),
    ], ids=["bool", "string", "null", "huge-int", "bool-entry", "string-entry", "not-a-list"])
    def test_non_number_geometry_rejected_from_json(self, key, bad, message):
        rc = RegionContract("r0", COC_CENTROID, 0.28, "L1", LabelIs("COC"),
                            provenance={"summary": "FullySafe", "expected_label": "COC"})
        obj = json.loads(render_contract(DnnContract("advisory", (rc,))))
        obj["regions"][0][key] = bad
        with pytest.raises(ValueError, match=message):
            dnn_contract_from_json(obj)

    def test_uncertainty_threshold_range(self):
        with pytest.raises(ValueError):
            RegionContract("r0", COC_CENTROID, 0.28, "L1", LabelIs("COC"),
                           uncertainty_max=1.5)

    @pytest.mark.parametrize("bad", ["0.5", True, [0.5], float("nan")])
    def test_uncertainty_max_must_be_a_number(self, bad):
        match = "region 'r0' uncertainty_max must be a number in \\(0, 1\\]"
        with pytest.raises(ValueError, match=match):
            RegionContract("r0", COC_CENTROID, 0.28, "L1", LabelIs("COC"), uncertainty_max=bad)
        rc = RegionContract("r0", COC_CENTROID, 0.28, "L1", LabelIs("COC"),
                            provenance={"summary": "FullySafe", "expected_label": "COC"})
        obj = json.loads(render_contract(DnnContract("advisory", (rc,))))
        obj["regions"][0]["uncertainty_max"] = bad
        with pytest.raises(ValueError, match=match):
            dnn_contract_from_json(obj)


class TestSerialization:
    def make_coc_contract(self):
        rc = RegionContract("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC"),
                            provenance={"summary": "FullySafe", "expected_label": "COC",
                                        "member_count": 5, "network": "advisory"})
        return DnnContract("advisory", (rc,))

    def test_coc_contract_renders_and_reparses(self):
        contract = self.make_coc_contract()
        text = render_contract(contract)
        obj = json.loads(text)
        assert obj["regions"][0]["radius"] == 0.28
        assert obj["regions"][0]["metric"] == "L1"
        assert obj["regions"][0]["guarantee"] == {"label_is": "COC"}
        back = parse_dnn_contract(text)
        assert contracts_equal(contract, back)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_contract_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        labels = list(ADVISORY_LABELS[: rng.integers(2, 6)])
        regions = []
        for i in range(rng.integers(0, 4)):
            expected = labels[int(rng.integers(0, len(labels)))]
            others = [l for l in labels if l != expected]
            if rng.random() < 0.5:
                guarantee = LabelIs(expected)
            else:
                k = int(rng.integers(1, len(others) + 1))
                guarantee = LabelNotIn(tuple(others[:k]))
            regions.append(RegionContract(
                id=f"r{i:03d}",
                centroid=rng.uniform(0, 1, size=int(rng.integers(1, 6))),
                radius=float(rng.uniform(0.01, 1.0)),
                metric=("L1", "L2", "Linf")[int(rng.integers(0, 3))],
                guarantee=guarantee,
                provenance={"summary": "FullySafe", "expected_label": expected},
                uncertainty_max=float(rng.uniform(0.1, 1.0)) if rng.random() < 0.3 else None,
            ))
        contract = DnnContract("net", tuple(regions))
        assert contracts_equal(contract, parse_dnn_contract(render_contract(contract)))

    def test_component_contract_round_trip(self):
        c = ComponentContract(
            name="C1",
            assumption=None,
            guarantee=parse_property("G (Class=red => F<=3 (velocity=0))"),
            inputs={"Class": ("red", "green", "yellow")},
            outputs={"velocity": ("0", "1", "2")},
        )
        back = component_contract_from_json(component_contract_to_json(c))
        assert back == c
        assert json.loads(render_contract(c))["assume"] == "true"

    def test_property_render_via_render_contract(self):
        p = parse_property("G (x=red => F<=3 (velocity=0))")
        assert render_contract(p) == "G (x=red => F<=3 (velocity=0))"


class TestCheckPoint:
    def make_contract(self, *specs):
        regions = tuple(
            RegionContract(rid, np.asarray(c, dtype=float), r, metric, guarantee,
                           provenance={"summary": "FullySafe"})
            for rid, c, r, metric, guarantee in specs
        )
        return DnnContract("n", regions)

    def test_coc_centroid_determined(self):
        contract = self.make_contract(("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")))
        answer = check_point_against_contract(contract, COC_CENTROID)
        assert answer.determined
        assert answer.guarantee == LabelIs("COC")
        assert answer.region_id == "r000"

    def test_outside_all_regions_undetermined(self):
        contract = self.make_contract(("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")))
        answer = check_point_against_contract(contract, np.ones(5) * 9.0)
        assert not answer.determined

    def test_overlap_resolved_by_lowest_id(self):
        contract = self.make_contract(
            ("b", [0.0, 0.0], 1.0, "L2", LabelIs("WeakLeft")),
            ("a", [0.1, 0.0], 1.0, "L2", LabelIs("COC")),
        )
        answer = check_point_against_contract(contract, [0.05, 0.0])
        assert answer.region_id == "a"

    def test_agrees_with_brute_force_membership(self, rng):
        regions = []
        for i in range(6):
            regions.append((f"r{i}", rng.uniform(0, 1, size=3), float(rng.uniform(0.1, 0.5)),
                            ("L1", "L2", "Linf")[i % 3], LabelIs("COC")))
        contract = self.make_contract(*regions)
        from safecomp.regions import dist
        for _ in range(10_000):
            x = rng.uniform(-0.2, 1.2, size=3)
            answer = check_point_against_contract(contract, x)
            containing = sorted(
                rid for rid, c, r, metric, _ in regions
                if dist(metric, x, np.asarray(c)) <= r
            )
            if containing:
                assert answer.determined and answer.region_id == containing[0]
            else:
                assert not answer.determined

    @pytest.mark.parametrize("metric", ["L1", "L2", "Linf"])
    def test_boundary_is_contained(self, metric):
        contract = self.make_contract(("r000", [0.5, 0.5], 0.25, metric, LabelIs("COC")))
        assert check_point_against_contract(contract, [0.75, 0.5]).determined
        assert not check_point_against_contract(contract, [0.75 + 1e-12, 0.5]).determined

    def test_dimension_mismatch(self):
        contract = self.make_contract(("r000", COC_CENTROID, 0.28, "L1", LabelIs("COC")))
        with pytest.raises(ValueError):
            check_point_against_contract(contract, np.zeros(3))
