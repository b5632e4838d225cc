import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import safecomp
from conftest import identity_network, make_network, parse_dnn_contract
from safecomp import cli
from safecomp.app import (
    build_ebs_demo,
    build_semaphore_classifier,
    mask_timing,
    run_parallel_verification,
)
from safecomp.cli import cli_main
from safecomp.compose import system_to_json
from safecomp.contracts import (
    DnnContract,
    LabelIs,
    RegionContract,
    component_contract_to_json,
    dnn_contract_to_json,
    emit_dnn_contract,
)
from safecomp.guard import build_guard, decision_to_json, guard_eval
from safecomp.network import Layer, render_network
from safecomp.regions import DiscoveryConfig, LabeledDataset, discover_regions, render_dataset_csv

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["status", "stats"],
    "properties": {
        "status": {"enum": ["Safe", "Unsafe", "Unknown"]},
        "reason": {"enum": ["budget", "min_box"]},
        "stats": {
            "type": "object",
            "required": ["nodes", "deepest_split", "elapsed"],
        },
        "counterexample": {
            "type": "object",
            "required": ["point", "scores"],
        },
    },
}

VERIFY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["tool", "version", "network", "config", "regions", "summary",
                 "counterexamples", "timing"],
    "properties": {
        "tool": {"const": "safecomp"},
        "regions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "metric", "centroid", "radius", "expected_label",
                             "summary", "safe_targets", "verdicts"],
                "properties": {
                    "metric": {"enum": ["L1", "L2", "Linf"]},
                    "summary": {"enum": ["FullySafe", "TargetedSafe", "NotSafe",
                                         "Inconclusive"]},
                    "verdicts": {"type": "object",
                                 "additionalProperties": VERDICT_SCHEMA},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["fully_safe", "targeted_safe", "not_safe", "inconclusive",
                         "total"],
        },
    },
}

AG_SCHEMA = {
    "type": "object",
    "required": ["property", "conclusion", "premises"],
    "properties": {
        "premises": {
            "type": "array",
            "minItems": 3,
            "maxItems": 3,
            "items": {
                "type": "object",
                "required": ["name", "holds", "method", "detail"],
            },
        },
    },
}

GUARD_LINE_SCHEMA = {
    "type": "object",
    "required": ["kind", "region", "label", "uncertainty"],
    "properties": {"kind": {"enum": ["Covered", "FailSafe"]}},
}


@pytest.fixture
def semaphore_files(tmp_path):
    net, data = build_semaphore_classifier(42)
    net_path = tmp_path / "semaphore.net"
    net_path.write_text(render_network(net))
    data_path = tmp_path / "train.csv"
    data_path.write_text(render_dataset_csv(data, net.labels))
    return net, data, net_path, data_path


def run(argv):
    return cli_main([str(a) for a in argv])


def write_ebs_system(tmp_path, braking_ticks):
    """The EBS demo's M1 with its contract C1 and perception block, as the
    system JSON check-system reads."""
    demo = build_ebs_demo(braking_ticks=braking_ticks)
    sysobj = system_to_json(demo.m1)
    sysobj["contract"] = component_contract_to_json(demo.c1)
    sysobj["perception"] = {"token_port": "x", "class_port": "Class",
                            "class_domain": ["red", "green", "yellow"]}
    sys_path = tmp_path / f"ebs{braking_ticks}.json"
    sys_path.write_text(json.dumps(sysobj))
    return sys_path


class TestUsage:
    def test_no_arguments_usage_exit_2(self, capsys):
        assert run([]) == 2

    def test_unknown_flag_exit_2(self):
        assert run(["verify", "--nonsense"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["discover", "--net", tmp_path / "nope.net",
                    "--data", tmp_path / "nope.csv"]) == 2


class TestPipeline:
    def test_discover_verify_emit_guard_round_trip(self, semaphore_files, tmp_path):
        net, data, net_path, data_path = semaphore_files
        regions_path = tmp_path / "regions.json"
        assert run(["discover", "--net", net_path, "--data", data_path,
                    "--metric", "linf", "--seed", 42, "--out", regions_path]) == 0
        regions_obj = json.loads(regions_path.read_text())
        assert regions_obj["metric"] == "Linf"
        assert "attributes" not in regions_obj
        assert len(regions_obj["regions"]) >= 3

        report_path = tmp_path / "report.json"
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--seed", 42, "--workers", 2, "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)
        assert report["summary"]["fully_safe"] >= 3

        contract_path = tmp_path / "contract.json"
        assert run(["emit-contracts", "--net", net_path, "--report", report_path,
                    "--out", contract_path]) == 0
        contract = parse_dnn_contract(contract_path.read_text())
        assert len(contract.regions) >= 3

        stream_path = tmp_path / "stream.csv"
        rows = [",".join(str(v) for v in p) for p in data.points[:50]]
        stream_path.write_text("\n".join(rows) + "\n")
        decisions_path = tmp_path / "decisions.jsonl"
        assert run(["guard", "--net", net_path, "--contracts", contract_path,
                    "--data", stream_path, "--out", decisions_path]) == 0
        lines = [json.loads(l) for l in decisions_path.read_text().splitlines()]
        assert len(lines) == 50
        for line in lines:
            jsonschema.validate(line, GUARD_LINE_SCHEMA)

    def test_l1_pass_proves_every_region_and_concludes(self, semaphore_files, tmp_path):
        """An L1 pass of the seed-42 pipeline at a 64-node budget: every
        region is proved (bounds over box ∩ ball decide at the root what the
        enclosing box alone leaves budget-bound), so the contract has a red
        region and the AG proof of the EBS concludes on its token."""
        _, _, net_path, data_path = semaphore_files
        paths = {k: tmp_path / f"{k}.json" for k in ("regions", "report", "contract", "ag")}
        assert run(["discover", "--net", net_path, "--data", data_path, "--metric", "l1",
                    "--seed", 42, "--out", paths["regions"]]) == 0
        assert run(["verify", "--net", net_path, "--regions", paths["regions"], "--seed", 42,
                    "--workers", 1, "--node-budget", 64, "--out", paths["report"]]) == 0
        report = json.loads(paths["report"].read_text())
        assert report["regions"] and all(
            r["metric"] == "L1" and r["summary"] == "FullySafe" for r in report["regions"])
        assert run(["emit-contracts", "--net", net_path, "--report", paths["report"],
                    "--out", paths["contract"]]) == 0
        regions = json.loads(paths["contract"].read_text())["regions"]
        red = [r["id"] for r in regions if r["guarantee"].get("label_is") == "red"]
        assert red
        assert run(["check-system", "--system", write_ebs_system(tmp_path, 2),
                    "--contracts", paths["contract"], "--out", paths["ag"],
                    "--property", f"G (x={red[0]} => F<=4 (velocity=0))"]) == 0
        assert json.loads(paths["ag"].read_text())["conclusion"] == "M1 || M2 |= P"

    def test_verify_exit_1_on_unsafe(self, tmp_path):
        net = identity_network(score_order="max_best")
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(net))
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps({
            "attributes": ["x1", "x2"],
            "regions": [{
                "id": "r000", "metric": "Linf", "centroid": [0.5, 0.5],
                "radius": 0.2, "expected_label": "a",
                "member_count": 1, "member_indices": [0],
            }],
        }))
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--out", tmp_path / "r.json"]) == 1

    def test_regions_file_with_attributes_verifies_as_without(self, tmp_path):
        # discover wrote "attributes" once; such a file still loads, and the
        # key changes nothing in the report, counterexamples included
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network(score_order="max_best")))
        region = {"id": "r000", "metric": "Linf", "centroid": [0.5, 0.5], "radius": 0.2,
                  "expected_label": "a", "member_count": 1, "member_indices": [0]}
        reports = []
        for name, extra in (("plain", {}), ("named", {"attributes": ["rho", "theta"]})):
            (tmp_path / name).mkdir()
            regions_path = tmp_path / name / "regions.json"
            regions_path.write_text(json.dumps({"regions": [region], **extra}))
            out = tmp_path / name / "report.json"
            assert run(["verify", "--net", net_path, "--regions", regions_path,
                        "--out", out]) == 1
            reports.append(mask_timing(json.loads(out.read_text())))
        assert reports[0]["counterexamples"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("annex", [[], [{"id": "r009", "summary": "NotSafe",
                                             "counterexamples": {"green": [0.5] * 8}}], 3],
                             ids=["empty", "entries", "number"])
    def test_contract_with_annex_decides_as_without(self, semaphore_files, tmp_path, annex):
        # emit-contracts wrote "annex" once; such a file still loads, and the
        # key changes neither the guard's decisions nor the AG report
        _, data, net_path, _ = semaphore_files
        sys_path, plain = TestCheckSystem()._write_system(tmp_path, 2)
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({**json.loads(plain.read_text()), "annex": annex}))
        rows_path = tmp_path / "rows.csv"
        rows = np.vstack([data.points[::30], 0.5 + np.linspace(-0.12, 0.12, 8)[:, None] *
                          np.ones(8)])
        rows_path.write_text("".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
        outputs = []
        for contract_path in (plain, legacy):
            decisions, ag = tmp_path / "decisions.jsonl", tmp_path / "ag.json"
            assert run(["guard", "--net", net_path, "--contracts", contract_path,
                        "--data", rows_path, "--out", decisions]) == 0
            assert run(["check-system", "--system", sys_path, "--contracts", contract_path,
                        "--property", "G (x=red => F<=4 (velocity=0))", "--out", ag]) == 0
            outputs.append((decisions.read_text(), mask_timing(json.loads(ag.read_text()))))
        assert {json.loads(line)["kind"] for line in outputs[0][0].splitlines()} == \
            {"Covered", "FailSafe"}
        assert outputs[0] == outputs[1]

    def test_verify_text_format(self, semaphore_files, tmp_path):
        net, _, net_path, data_path = semaphore_files
        regions_path = tmp_path / "regions.json"
        run(["discover", "--net", net_path, "--data", data_path, "--seed", 42,
             "--out", regions_path])
        out_path = tmp_path / "report.txt"
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--format", "text", "--out", out_path]) == 0
        text = out_path.read_text()
        assert "fully_safe=" in text


class TestGuardCli:
    @pytest.fixture
    def files(self, tmp_path):
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network()))
        contract = DnnContract("test", (RegionContract("r0", np.array([0.2, 0.1]), 0.3, "Linf",
                                                       LabelIs("a")),))
        contract_path = tmp_path / "contract.json"
        contract_path.write_text(json.dumps(dnn_contract_to_json(contract)))
        return net_path, contract_path

    def guard(self, files, tmp_path, csv_text):
        data_path = tmp_path / "rows.csv"
        data_path.write_text(csv_text)
        out = tmp_path / "decisions.jsonl"
        code = run(["guard", "--net", files[0], "--contracts", files[1], "--data", data_path,
                    "--out", out])
        return code, [json.loads(l) for l in out.read_text().splitlines()] if out.exists() else None

    def test_malformed_rows_fail_safe_in_place(self, files, tmp_path):
        code, lines = self.guard(files, tmp_path,
                                 "x1,x2\n0.2,0.1\nnan,0.1\n0.2,oops\n0.2\n0.2,0.1,extra\n0.9,0.9\n")
        assert code == 0
        for line in lines:
            jsonschema.validate(line, GUARD_LINE_SCHEMA)
        assert [(l["kind"], l.get("reason")) for l in lines] == [
            ("Covered", None),
            ("FailSafe", "invalid_input"),
            ("FailSafe", "invalid_input"),
            ("FailSafe", "invalid_input"),
            ("Covered", None),  # cells past the network's width are ignored
            ("FailSafe", "outside_regions"),
        ]

    def test_header_after_blank_lines_is_skipped(self, files, tmp_path):
        # the header is the first non-blank row; a later non-number row is data
        code, lines = self.guard(files, tmp_path, "\n\nx1,x2\n0.2,0.1\nx1,x2\n")
        assert code == 0
        assert [(l["kind"], l.get("reason")) for l in lines] == [
            ("Covered", None), ("FailSafe", "invalid_input")]

    def test_off_domain_row(self, files, tmp_path):
        code, lines = self.guard(files, tmp_path, "0.2,-0.1\n")
        assert code == 0
        assert lines[0]["reason"] == "outside_domain"

    def test_width_mismatch_exits_2_without_output(self, files, tmp_path, capsys):
        net_path = tmp_path / "id3.net"
        net_path.write_text(render_network(identity_network(3)))
        code, lines = self.guard((net_path, files[1]), tmp_path, "0.2,0.1,0.0\n")
        assert code == 2
        assert lines is None
        assert "2 inputs" in capsys.readouterr().err

    def test_contract_for_another_network_exits_2_without_output(self, files, tmp_path, capsys):
        net_path = tmp_path / "other.net"
        net_path.write_text(render_network(make_network(
            [Layer(np.eye(2), np.zeros(2), "identity")], name="other")))
        code, lines = self.guard((net_path, files[1]), tmp_path, "0.2,0.1\n")
        assert code == 2
        assert lines is None
        err = capsys.readouterr().err
        assert "'test'" in err and "'other'" in err

    def test_non_number_uncertainty_max_exits_2_without_output(self, files, tmp_path, capsys):
        obj = json.loads(files[1].read_text())
        obj["regions"][0]["uncertainty_max"] = "0.5"
        files[1].write_text(json.dumps(obj))
        code, lines = self.guard(files, tmp_path, "0.2,0.1\n")
        assert code == 2
        assert lines is None
        assert "region 'r0' uncertainty_max must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [("radius", True), ("radius", "0.3"),
                                          ("centroid", [0.2, "0.1"]),
                                          ("centroid", [float("nan"), 0.1]),
                                          ("centroid", [float("inf"), 0.1])])
    def test_non_number_geometry_exits_2_without_output(self, files, tmp_path, capsys,
                                                        key, bad):
        obj = json.loads(files[1].read_text())
        obj["regions"][0][key] = bad
        files[1].write_text(json.dumps(obj))
        code, lines = self.guard(files, tmp_path, "0.2,0.1\n")
        assert code == 2
        assert lines is None
        assert "region 'r0' " in capsys.readouterr().err

    def test_out_same_as_data_exits_2_and_keeps_data(self, files, tmp_path, capsys):
        data_path = tmp_path / "rows.csv"
        data_path.write_text("0.2,0.1\n")
        code = run(["guard", "--net", files[0], "--contracts", files[1], "--data", data_path,
                    "--out", tmp_path / "." / "rows.csv"])
        assert code == 2
        assert data_path.read_text() == "0.2,0.1\n"
        assert "--out must not be the --data file" in capsys.readouterr().err


class TestGuardCliStream:
    def test_bytes_equal_one_by_one_decisions(self, semaphore_files, tmp_path, rng):
        # 10^5 rows against the seed-42 Linf contract: a header, rows near the
        # regions, uniform and off-domain rows, malformed cells, short, long
        # and blank rows, each decided by one guard_eval call for reference
        net, data, net_path, _ = semaphore_files
        regions = discover_regions(data, "Linf", DiscoveryConfig(seed=42)).regions
        contract = emit_dnn_contract(net.name, net.labels,
                                     run_parallel_verification(net, regions, seed=42))
        contract_path = tmp_path / "contract.json"
        contract_path.write_text(json.dumps(dnn_contract_to_json(contract)))
        n, d = 100_000, net.input_dim
        lo, hi = net.normalized_domain()
        picked = rng.integers(len(contract.regions), size=n)
        near = np.array([rc.centroid for rc in contract.regions])[picked]
        spread = np.array([rc.radius for rc in contract.regions])[picked, None] * 1.2
        xs = np.where(rng.random((n, 1)) < 0.6, near + rng.uniform(-1, 1, (n, d)) * spread,
                      rng.uniform(lo, hi, (n, d)))
        off = rng.random(n) < 0.1
        xs[off, 0] = np.where(rng.random(off.sum()) < 0.5, lo[0] - 0.01, hi[0] + 0.01)
        lines, rows = ["x" + ",x".join(map(str, range(d)))], []
        for k, x in enumerate(xs.tolist()):
            cells = [repr(v) for v in x]
            kind = k % 50
            if kind == 0:
                cells[k % d] = ("oops", "", "nan", "-inf")[k // 50 % 4]
            elif kind == 1:
                cells = cells[:d - 1]
            elif kind == 2:
                cells.append("0.5")  # cells past the input width are ignored
            elif kind == 3:
                lines.append("")  # a blank line is no row
            lines.append(",".join(cells))
            rows.append(cells[:d])
        data_path = tmp_path / "rows.csv"
        data_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "decisions.jsonl"
        assert run(["guard", "--net", net_path, "--contracts", contract_path,
                    "--data", data_path, "--threshold", 0.25, "--out", out]) == 0
        guard = build_guard(contract, uncertainty_threshold=0.25)
        expected = "".join(json.dumps(decision_to_json(guard_eval(guard, net, row)),
                                      sort_keys=True) + "\n" for row in rows)
        assert out.read_text() == expected
        reasons = {json.loads(line).get("reason") for line in expected.splitlines()}
        assert reasons == {None, "invalid_input", "outside_regions", "outside_domain", "uncertain"}


class TestCheckSystem:
    def _write_system(self, tmp_path, braking_ticks):
        sys_path = write_ebs_system(tmp_path, braking_ticks)
        # region ids double as perception tokens in the system property
        contract = {
            "network": "semaphore",
            "regions": [
                {"id": label, "metric": "Linf", "centroid": [0.5] * 8, "radius": 0.1,
                 "guarantee": {"label_is": label},
                 "provenance": {"summary": "FullySafe", "expected_label": label}}
                for label in ("red", "green", "yellow")
            ],
        }
        contract_path = tmp_path / "dnn.json"
        contract_path.write_text(json.dumps(contract))
        return sys_path, contract_path

    def test_fast_braking_concludes_exit_0(self, tmp_path):
        sys_path, contract_path = self._write_system(tmp_path, 2)
        out = tmp_path / "ag.json"
        code = run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--property", "G (x=red => F<=4 (velocity=0))", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report["assume_guarantee"], AG_SCHEMA)
        assert report["conclusion"] == "M1 || M2 |= P"

    def test_mutated_braking_exit_1_with_counterexample(self, tmp_path):
        sys_path, contract_path = self._write_system(tmp_path, 4)
        out = tmp_path / "ag.json"
        code = run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--property", "G (x=red => F<=3 (velocity=0))", "--out", out])
        assert code == 1
        report = json.loads(out.read_text())
        failing = [p for p in report["assume_guarantee"]["premises"] if not p["holds"]]
        assert failing and failing[0]["counterexample"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_centroid_exits_2_without_output(self, tmp_path, capsys, bad):
        # premise 2 would otherwise pass a region that no input can fall in
        sys_path, contract_path = self._write_system(tmp_path, 2)
        obj = json.loads(contract_path.read_text())
        obj["regions"][0]["centroid"][0] = bad
        contract_path.write_text(json.dumps(obj))
        out = tmp_path / "ag.json"
        code = run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--property", "G (x=red => F<=4 (velocity=0))", "--out", out])
        assert code == 2
        assert not out.exists()
        assert "region 'red' has a non-finite centroid" in capsys.readouterr().err

    def test_transition_outside_the_domain_exits_2(self, tmp_path, capsys):
        sys_path, contract_path = self._write_system(tmp_path, 2)
        sysobj = json.loads(sys_path.read_text())
        sysobj["components"][0]["transitions"].append({"from": "nowhere", "to": "nowhere"})
        sys_path.write_text(json.dumps(sysobj))
        out = tmp_path / "ag.json"
        code = run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--property", "G (x=red => F<=4 (velocity=0))", "--out", out])
        assert code == 2
        assert not out.exists()
        assert "transition from 'nowhere'" in capsys.readouterr().err

    # each C1 declares a port narrower than M1 gives it; every premise passed,
    # yet the monolithic check fails P (tests/test_compose.py has the oracle)
    @pytest.mark.parametrize("key, domains, prop, message", [
        ("outputs", {"velocity": ["0"]}, "G (true => velocity=0)",
         "contract 'C1' declares port 'velocity' without '1', '2', which M1 gives it"),
        ("inputs", {"Class": ["green"]}, "G (x=red => F<=1 (velocity=0))",
         "contract 'C1' declares port 'Class' without 'red', 'yellow', which M1 gives it"),
    ])
    def test_contract_narrower_than_m1_exits_2_without_output(self, tmp_path, capsys, key,
                                                             domains, prop, message):
        sys_path, contract_path = self._write_system(tmp_path, 2)
        sysobj = json.loads(sys_path.read_text())
        sysobj["contract"][key] = domains
        sys_path.write_text(json.dumps(sysobj))
        out = tmp_path / "ag.json"
        out.write_text("before\n")
        code = run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--property", prop, "--out", out])
        assert code == 2
        assert out.read_text() == "before\n"
        assert capsys.readouterr().err == f"error: {message}\n"

    def _report(self, sys_path, contract_path, out, *flags):
        """Exit code and timing-masked report of one check-system run."""
        code = run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--out", out, *flags])
        return code, mask_timing(json.loads(out.read_text()))

    def test_property_taken_from_system_file(self, tmp_path):
        sys_path, contract_path = self._write_system(tmp_path, 2)
        prop = "G (x=red => F<=4 (velocity=0))"
        given = self._report(sys_path, contract_path, tmp_path / "given.json", "--property", prop)
        sysobj = json.loads(sys_path.read_text())
        sysobj["properties"] = [prop, "G (x=red => F<=1 (velocity=0))"]
        sys_path.write_text(json.dumps(sysobj))
        listed = self._report(sys_path, contract_path, tmp_path / "listed.json")
        assert given[0] == 0 and listed == given  # the first listed property is checked

    def test_class_domain_inferred_from_environment_ports(self, tmp_path):
        sys_path, contract_path = self._write_system(tmp_path, 2)
        flags = ("--property", "G (x=red => F<=4 (velocity=0))")
        declared = self._report(sys_path, contract_path, tmp_path / "declared.json", *flags)
        sysobj = json.loads(sys_path.read_text())
        del sysobj["perception"]["class_domain"]
        sys_path.write_text(json.dumps(sysobj))
        inferred = self._report(sys_path, contract_path, tmp_path / "inferred.json", *flags)
        assert declared[0] == 0 and inferred == declared

    def test_class_domain_not_inferable_exits_2(self, tmp_path, capsys):
        sys_path, contract_path = self._write_system(tmp_path, 2)
        sysobj = json.loads(sys_path.read_text())
        sysobj["perception"] = {"token_port": "x", "class_port": "Light"}
        sys_path.write_text(json.dumps(sysobj))
        out = tmp_path / "ag.json"
        code = run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--property", "G (x=red => F<=4 (velocity=0))", "--out", out])
        assert code == 2
        assert not out.exists()
        assert "cannot infer the domain of 'Light'" in capsys.readouterr().err


class TestDemoCli:
    def test_demo_ebs_exit_codes(self, tmp_path):
        assert run(["demo", "ebs", "--braking-ticks", 2,
                    "--out", tmp_path / "demo2.json"]) == 0
        assert run(["demo", "ebs", "--braking-ticks", 4,
                    "--out", tmp_path / "demo4.json"]) == 1
        report = json.loads((tmp_path / "demo2.json").read_text())
        jsonschema.validate(report["assume_guarantee"], AG_SCHEMA)

    def test_demo_text_format(self, tmp_path, capsys):
        out = tmp_path / "demo.txt"
        assert run(["demo", "ebs", "--braking-ticks", 2, "--format", "text",
                    "--out", out]) == 0
        text = out.read_text()
        assert "PASS" in text and "conclusion: M1 || M2 |= P" in text


class TestDiscoverInput:
    def test_dataset_narrower_than_network_exits_2_without_output(
            self, semaphore_files, tmp_path, capsys):
        net, data, net_path, _ = semaphore_files
        narrow = LabeledDataset(data.attributes[:7], data.points[:, :7], data.labels)
        data_path = tmp_path / "narrow.csv"
        data_path.write_text(render_dataset_csv(narrow, net.labels))
        out = tmp_path / "regions.json"
        assert run(["discover", "--net", net_path, "--data", data_path, "--out", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "7 columns" in err and "8 inputs" in err

    def test_nan_cell_exits_2_naming_the_row(self, semaphore_files, tmp_path, capsys):
        _, _, net_path, data_path = semaphore_files
        lines = data_path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = "nan"
        lines[5] = ",".join(cells)
        bad_path = tmp_path / "nan.csv"
        bad_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "regions.json"
        assert run(["discover", "--net", net_path, "--data", bad_path, "--out", out]) == 2
        assert not out.exists()
        assert "row 6: non-finite number" in capsys.readouterr().err

    def test_repeated_network_label_exits_2_naming_it(self, semaphore_files, tmp_path, capsys):
        # one name for two label indices once mapped a region's expected
        # label to one index in discover and to the other in verify
        _, _, net_path, data_path = semaphore_files
        bad_net = tmp_path / "repeated.net"
        bad_net.write_text(net_path.read_text().replace("labels red,green,yellow",
                                                        "labels red,red,yellow"))
        out = tmp_path / "regions.json"
        assert run(["discover", "--net", bad_net, "--data", data_path, "--out", out]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: label 'red' is repeated\n"


class TestMadeForAnotherNetwork:
    """verify and emit-contracts refuse a regions file or a report made for
    another network than --net's, before --out is opened."""

    @pytest.mark.parametrize("kind", ["regions", "report"])
    def test_exits_2_naming_both_networks(self, pipeline_files, tmp_path, capsys, kind):
        paths, prop = pipeline_files
        other = tmp_path / "other.net"
        other.write_text(paths["net"].read_text().replace("name semaphore", "name other"))
        out = tmp_path / "out.txt"
        out.write_text("before\n")
        argv = stage_argvs(dict(paths, net=other), prop, kind, paths[kind])[0]
        assert run(argv + ["--out", out]) == 2
        assert out.read_text() == "before\n"
        assert capsys.readouterr().err == (f"error: {paths[kind]}: made for network "
                                           f"'semaphore', not for --net's 'other'\n")

    def test_regions_file_naming_no_network_is_read(self, pipeline_files, tmp_path):
        paths, _ = pipeline_files
        obj = json.loads(paths["regions"].read_text())
        del obj["network"]
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps(obj))
        assert run(["verify", "--net", paths["net"], "--regions", regions,
                    "--node-budget", 64, "--out", tmp_path / "report.json"]) == 0


class TestVerifyInput:
    def test_regions_narrower_than_network_exits_2_without_output(
            self, semaphore_files, tmp_path, capsys):
        _, _, net_path, data_path = semaphore_files
        regions_path = tmp_path / "regions.json"
        assert run(["discover", "--net", net_path, "--data", data_path, "--seed", 42,
                    "--out", regions_path]) == 0
        obj = json.loads(regions_path.read_text())
        for r in obj["regions"]:
            r["centroid"] = r["centroid"][:7]
        regions_path.write_text(json.dumps(obj))
        out = tmp_path / "report.json"
        assert run(["verify", "--net", net_path, "--regions", regions_path, "--out", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "width 7" in err and "8 inputs" in err

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_radius_exits_2_without_output(self, semaphore_files, tmp_path,
                                                      capsys, bad):
        # an infinite radius must not reach the report: json.dumps writes it
        # as Infinity, which is not JSON
        _, _, net_path, data_path = semaphore_files
        regions_path = tmp_path / "regions.json"
        assert run(["discover", "--net", net_path, "--data", data_path, "--seed", 42,
                    "--out", regions_path]) == 0
        obj = json.loads(regions_path.read_text())
        obj["regions"][0]["radius"] = bad
        regions_path.write_text(json.dumps(obj))
        out = tmp_path / "report.json"
        assert run(["verify", "--net", net_path, "--regions", regions_path, "--out", out]) == 2
        assert not out.exists()
        rid = obj["regions"][0]["id"]
        assert f"region {rid!r} radius must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [("radius", True), ("radius", "0.1"),
                                          ("centroid", [0.5, False])])
    def test_non_number_geometry_exits_2_without_output(self, tmp_path, capsys, key, bad):
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network()))
        region = {"id": "r000", "metric": "Linf", "centroid": [0.5, 0.45], "radius": 0.1,
                  "expected_label": "a", "member_count": 1, "member_indices": [0]}
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps({"regions": [dict(region, **{key: bad})]}))
        out = tmp_path / "report.json"
        assert run(["verify", "--net", net_path, "--regions", regions_path, "--out", out]) == 2
        assert not out.exists()
        assert f"region 'r000' {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--eps", "-0.5", "epsilon"),
        ("--eps", "nan", "epsilon"),
        ("--eps", "inf", "epsilon"),
        ("--time-budget", "nan", "time budget"),
        ("--time-budget", "0", "time budget"),
        ("--time-budget", "-1", "time budget"),
    ])
    def test_unsound_or_void_setting_exits_2_without_output(self, tmp_path, capsys,
                                                             flag, value, name):
        # --eps -0.5 would certify this region Safe against "b", which wins at (0.5, 0.55)
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network()))
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps({"regions": [{
            "id": "r000", "metric": "Linf", "centroid": [0.5, 0.45], "radius": 0.1,
            "expected_label": "a", "member_count": 1, "member_indices": [0],
        }]}))
        out = tmp_path / "report.json"
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    flag, value, "--out", out]) == 2
        assert not out.exists()
        assert name in capsys.readouterr().err


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_centroid_exits_2_naming_the_region(self, tmp_path, capsys, bad):
        # a NaN centroid used to run every target to the full node budget and
        # write NaN, which is not JSON, into the report
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network()))
        region = {"id": "r000", "metric": "Linf", "centroid": [0.8, 0.2], "radius": 0.1,
                  "expected_label": "a", "member_count": 1, "member_indices": [0]}
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps({"regions": [region, dict(
            region, id="r001", centroid=[bad, 0.2])]}))
        report_path = tmp_path / "report.json"
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--node-budget", 64, "--out", report_path]) == 2
        assert not report_path.exists()
        assert "region 'r001' has a non-finite centroid" in capsys.readouterr().err

        # emit-contracts reads its regions from a report
        regions_path.write_text(json.dumps({"regions": [region]}))
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        report["regions"][0]["centroid"][1] = bad
        report_path.write_text(json.dumps(report))
        contract_path = tmp_path / "contract.json"
        assert run(["emit-contracts", "--net", net_path, "--report", report_path,
                    "--out", contract_path]) == 2
        assert not contract_path.exists()
        assert "region 'r000' has a non-finite centroid" in capsys.readouterr().err


class TestGridCli:
    def test_grid_with_labels(self, tmp_path):
        net = identity_network(score_order="max_best")
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(net))
        spec_path = tmp_path / "cuts.json"
        spec_path.write_text(json.dumps(
            {"names": ["x1", "x2"], "cutpoints": [[0.1, 0.9], [0.5]]}))
        out_path = tmp_path / "grid.csv"
        assert run(["grid", "--cutpoints", spec_path, "--label-with", net_path,
                    "--out", out_path]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x1,x2,label"
        assert len(lines) == 3
        assert lines[1].endswith(",b")  # 0.1 < 0.5: second label wins
        assert lines[2].endswith(",a")

    def test_grid_width_mismatch_exits_2_without_output(self, tmp_path, capsys):
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network(3)))
        spec_path = tmp_path / "cuts.json"
        spec_path.write_text(json.dumps(
            {"names": ["x1", "x2"], "cutpoints": [[0.1, 0.9], [0.5]]}))
        out_path = tmp_path / "grid.csv"
        assert run(["grid", "--cutpoints", spec_path, "--label-with", net_path,
                    "--out", out_path]) == 2
        assert not out_path.exists()
        assert "grid has 2 dimensions, network 'test' takes 3 inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["x", float("nan"), float("inf"), True, None, 10**400])
    def test_non_finite_cut_point_exits_2_without_output(self, tmp_path, capsys, bad):
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network()))
        spec_path = tmp_path / "cuts.json"
        spec_path.write_text(json.dumps(
            {"names": ["x1", "x2"], "cutpoints": [[0.1, bad], [0.5]]}))
        out_path = tmp_path / "grid.csv"
        assert run(["grid", "--cutpoints", spec_path, "--label-with", net_path,
                    "--out", out_path]) == 2
        assert not out_path.exists()
        assert f"cut point {bad!r} is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("layout, message", [
        ({"names": ["a"], "cutpoints": [0.5]}, "cutpoints must be a list of lists, got [0.5]"),
        ({"names": ["a"], "cutpoints": "0.5"}, "cutpoints must be a list of lists, got '0.5'"),
        ({"names": "a", "cutpoints": [[0.5]]}, "names must be a list of strings, got 'a'"),
        ({"names": [1], "cutpoints": [[0.5]]}, "names must be a list of strings, got [1]"),
        ([1], "cuts.json: the top level must be a JSON object"),
    ])
    def test_layout_not_lists_exits_2_without_output(self, tmp_path, capsys, layout, message):
        spec_path = tmp_path / "cuts.json"
        spec_path.write_text(json.dumps(layout))
        out_path = tmp_path / "grid.csv"
        assert run(["grid", "--cutpoints", spec_path, "--out", out_path]) == 2
        assert not out_path.exists()
        assert message in capsys.readouterr().err

    def test_grid_unlabeled(self, tmp_path):
        spec_path = tmp_path / "cuts.json"
        spec_path.write_text(json.dumps({"names": ["a"], "cutpoints": [[1, 2, 3]]}))
        out_path = tmp_path / "grid.csv"
        assert run(["grid", "--cutpoints", spec_path, "--out", out_path]) == 0
        assert len(out_path.read_text().splitlines()) == 4


class TestVersion:
    def test_reports_carry_the_package_version(self, tmp_path):
        net_path = tmp_path / "id.net"
        net_path.write_text(render_network(identity_network()))
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps({"regions": [{
            "id": "r000", "metric": "Linf", "centroid": [0.8, 0.2], "radius": 0.1,
            "expected_label": "a", "member_count": 1, "member_indices": [0]}]}))
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--out", tmp_path / "verify.json"]) == 0
        sys_path, contract_path = TestCheckSystem()._write_system(tmp_path, 2)
        assert run(["check-system", "--system", sys_path, "--contracts", contract_path,
                    "--property", "G (x=red => F<=4 (velocity=0))",
                    "--out", tmp_path / "check-system.json"]) == 0
        assert run(["demo", "ebs", "--out", tmp_path / "demo.json"]) == 0
        for name in ("verify", "check-system", "demo"):
            report = json.loads((tmp_path / f"{name}.json").read_text())
            assert report["version"] == safecomp.__version__, name

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_pyproject_reads_the_version_from_the_package(self):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert config["project"]["dynamic"] == ["version"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "safecomp.__version__"}


# edits that give one field of a contract region the wrong type, and the
# message that names the region and the field
CONTRACT_EDITS = {
    "guarantee-a-number": ({"guarantee": 3}, "region 'r0' guarantee must be an object, got 3"),
    "label-not-in-a-number": ({"guarantee": {"label_not_in": 3}},
                              "region 'r0' guarantee label_not_in must be a list of "
                              "strings, got 3"),
    "label-is-a-number": ({"guarantee": {"label_is": 3}},
                          "region 'r0' guarantee label_is must be a string, got 3"),
    "provenance-a-number": ({"provenance": 3}, "region 'r0' provenance must be an object, got 3"),
    "provenance-a-list": ({"provenance": [3]},
                          "region 'r0' provenance must be an object, got [3]"),
}


def semaphore_contract(edit):
    """A one-region contract of the semaphore net, with the fields in edit replaced."""
    region = {"id": "r0", "metric": "Linf", "centroid": [0.5] * 8, "radius": 0.1,
              "guarantee": {"label_is": "red"},
              "provenance": {"summary": "FullySafe", "expected_label": "red"}}
    return {"network": "semaphore", "regions": [{**region, **edit}]}


class TestJsonShape:
    """A JSON input of the wrong shape is a usage error naming the file or the
    field, raised before --out is opened."""

    CASES = {
        "verify-regions-not-a-list": ("verify", {"regions": 5},
                                      "regions must be a list of objects, got 5"),
        "verify-region-not-an-object": ("verify", {"regions": [5]},
                                        "regions must be a list of objects, got [5]"),
        "verify-top-level-list": ("verify", [1], "the top level must be a JSON object"),
        "emit-contracts-top-level-list": ("emit-contracts", [1],
                                          "the top level must be a JSON object"),
        "emit-contracts-regions-not-a-list": ("emit-contracts",
                                              {"network": "semaphore", "regions": 3},
                                              "regions must be a list of objects, got 3"),
        "check-system-top-level-list": ("check-system", [1],
                                        "the top level must be a JSON object"),
        "check-system-components-not-a-list": ("check-system", {"components": 3},
                                               "components must be a list of objects, got 3"),
        "check-system-contract-a-list": ("check-system", {"components": [], "contract": []},
                                         "contract must be an object, got []"),
        "verify-member-indices-a-number": (
            "verify", {"regions": [{"id": "r000", "member_indices": 5}]},
            "region 'r000' member_indices must be a list of integers, got 5"),
        "emit-contracts-member-count-a-string": (
            "emit-contracts", {"network": "semaphore",
                               "regions": [{"id": "r000", "member_count": "x"}]},
            "region 'r000' member_count must be an integer, got 'x'"),
        "guard-top-level-list": ("guard", [1], "the top level must be a JSON object"),
        "guard-regions-not-a-list": ("guard", {"regions": 3},
                                     "regions must be a list of objects, got 3"),
        "verify-region-without-id": ("verify", {"regions": [{"centroid": [0.5] * 8}]},
                                     "a region record has no 'id'"),
        "emit-contracts-region-without-id": ("emit-contracts",
                                             {"network": "semaphore", "regions": [{}]},
                                             "a region record has no 'id'"),
        "guard-contract-region-without-id": ("guard", {"network": "semaphore", "regions": [{}]},
                                             "a region record has no 'id'"),
        **{f"{command}-contract-{name}": (command, semaphore_contract(edit), message)
           for name, (edit, message) in CONTRACT_EDITS.items()
           for command in ("guard", "check-system-contracts")},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_wrong_shape_exits_2_and_keeps_out(self, semaphore_files, tmp_path, capsys, case):
        command, obj, message = self.CASES[case]
        _, _, net_path, data_path = semaphore_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        system_path, contract_path = TestCheckSystem()._write_system(tmp_path, 2)
        argv = {
            "verify": ["verify", "--net", net_path, "--regions", bad],
            "emit-contracts": ["emit-contracts", "--net", net_path, "--report", bad],
            "check-system": ["check-system", "--system", bad, "--contracts", contract_path],
            "check-system-contracts": ["check-system", "--system", system_path,
                                       "--contracts", bad],
            "guard": ["guard", "--net", net_path, "--contracts", bad, "--data", data_path],
        }[command]
        out = tmp_path / "out.txt"
        out.write_text("before\n")
        assert run(argv + ["--out", out]) == 2
        assert out.read_text() == "before\n"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert message in err

    # edits to region r000 (expected red, FullySafe) of the seed-42 L1 report;
    # each leaves a report whose summary no longer follows from its verdicts
    TAMPERED = {
        "fully-safe-over-unknown": (
            lambda e: e["verdicts"]["green"].update(status="Unknown", reason="budget"),
            "disagree with its verdicts"),
        "missing-target": (lambda e: e["verdicts"].pop("yellow"), "not the targets"),
        "bogus-status": (lambda e: e["verdicts"]["green"].update(status="Bogus"),
                         "verdict status must be Safe, Unsafe or Unknown, got 'Bogus'"),
        "verdicts-a-list": (lambda e: e.update(verdicts=list(e["verdicts"].values())),
                            "verdicts must be an object of objects"),
        "safe-targets-a-number": (lambda e: e.update(safe_targets=3),
                                  "disagree with its verdicts"),
        "stats-a-list": (lambda e: e["verdicts"]["green"].update(stats=[3, 1, 0.0]),
                         "verdict 'green' stats must be an object, got [3, 1, 0.0]"),
        "no-status": (lambda e: e["verdicts"]["green"].pop("status"), "verdict 'green' has no 'status'"),
        "counterexample-without-scores": (
            lambda e: e["verdicts"]["green"].update(status="Unsafe",
                                                    counterexample={"point": [0.5] * 8}),
            "verdict 'green' counterexample has no 'scores'"),
    }

    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_tampered_report_exits_2_naming_the_region(self, semaphore_files, tmp_path,
                                                       capsys, case):
        _, _, net_path, data_path = semaphore_files
        regions, report = tmp_path / "regions.json", tmp_path / "report.json"
        assert run(["discover", "--net", net_path, "--data", data_path, "--metric", "l1",
                    "--seed", 42, "--out", regions]) == 0
        assert run(["verify", "--net", net_path, "--regions", regions, "--out", report]) == 0
        obj = json.loads(report.read_text())
        entry = next(e for e in obj["regions"] if e["id"] == "r000")
        assert (entry["expected_label"], entry["summary"]) == ("red", "FullySafe")
        edit, message = self.TAMPERED[case]
        edit(entry)
        report.write_text(json.dumps(obj))
        out = tmp_path / "contract.json"
        out.write_text("before\n")
        capsys.readouterr()
        assert run(["emit-contracts", "--net", net_path, "--report", report, "--out", out]) == 2
        assert out.read_text() == "before\n"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: region 'r000': ")
        assert message in err


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """A valid file of each kind the CLI reads, from the seed-42 L1 pipeline:
    the regions, the verify report, the contract, the EBS system with its C1
    and perception block, and a grid layout; with the net and dataset they
    were made from, and a --property that check-system decides over the
    contract."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    net, data = build_semaphore_classifier(42)
    paths = {"net": tmp_path / "semaphore.net", "data": tmp_path / "train.csv",
             **{k: tmp_path / f"{k}.json" for k in ("regions", "report", "contract", "layout")}}
    paths["net"].write_text(render_network(net))
    paths["data"].write_text(render_dataset_csv(data, net.labels))
    paths["layout"].write_text(json.dumps({"names": [f"x{i}" for i in range(8)],
                                           "cutpoints": [[0.25, 0.75]] * 8}))
    assert run(["discover", "--net", paths["net"], "--data", paths["data"], "--metric", "l1",
                "--seed", 42, "--out", paths["regions"]]) == 0
    assert run(["verify", "--net", paths["net"], "--regions", paths["regions"],
                "--node-budget", 64, "--out", paths["report"]]) == 0
    assert run(["emit-contracts", "--net", paths["net"], "--report", paths["report"],
                "--out", paths["contract"]]) == 0
    paths["system"] = write_ebs_system(tmp_path, 2)
    red = next(r["id"] for r in json.loads(paths["contract"].read_text())["regions"]
               if r["guarantee"].get("label_is") == "red")
    return paths, f"G (x={red} => F<=4 (velocity=0))"


def stage_argvs(paths, prop, kind, bad):
    """The argv of each stage that reads the file of kind, reading bad in its place."""
    files = dict(paths, **{kind: bad})
    check_system = ["check-system", "--system", files["system"],
                    "--contracts", files["contract"], "--property", prop]
    return {
        "regions": [["verify", "--net", files["net"], "--regions", bad, "--node-budget", 64]],
        "report": [["emit-contracts", "--net", files["net"], "--report", bad]],
        "contract": [check_system, ["guard", "--net", files["net"], "--contracts", bad,
                                    "--data", files["data"]]],
        "system": [check_system],
        "layout": [["grid", "--cutpoints", bad, "--label-with", files["net"]]],
    }[kind]


_DELETE = object()
# a value of another JSON type for a value of each type
_OTHER_TYPE = {str: 3, int: "3", float: "3", bool: "true", list: 3, dict: [1], type(None): 3}


def _edited(node, path, value):
    """A copy of node with the item at path set to value, or deleted."""
    copy = dict(node) if isinstance(node, dict) else list(node)
    head, rest = path[0], path[1:]
    if rest:
        copy[head] = _edited(node[head], rest, value)
    elif value is _DELETE:
        del copy[head]
    else:
        copy[head] = value
    return copy


def malformed_copies(obj, path=(), root=None):
    """(name, copy) of obj for every object key in it and in the first element
    of every list: a copy without the key and one with its value replaced by
    a value of another JSON type; the first element of a list is replaced too."""
    root = obj if root is None else root
    items = obj.items() if isinstance(obj, dict) else \
        [(0, obj[0])] if isinstance(obj, list) and obj else []
    for key, value in items:
        where = path + (key,)
        if isinstance(obj, dict):
            yield f"{where} deleted", _edited(root, where, _DELETE)
        yield f"{where} as {_OTHER_TYPE[type(value)]!r}", \
            _edited(root, where, _OTHER_TYPE[type(value)])
        yield from malformed_copies(value, where, root)


class TestMalformedInput:
    """Every JSON input the CLI reads goes through one field reader: a missing
    field or a field of the wrong type exits 2 before --out is opened, with one
    error line naming the file, the record and the field."""

    def test_no_malformed_copy_raises_out_of_cli_main(self, pipeline_files, tmp_path, capsys):
        paths, prop = pipeline_files
        bad, out = tmp_path / "bad.json", tmp_path / "out.txt"
        runs = 0
        for kind in ("regions", "report", "contract", "system", "layout"):
            for name, copy in malformed_copies(json.loads(paths[kind].read_text())):
                bad.write_text(json.dumps(copy))
                for argv in stage_argvs(paths, prop, kind, bad):
                    out.write_text("before\n")
                    capsys.readouterr()
                    code = run(argv + ["--out", out])
                    err = capsys.readouterr().err
                    case = f"{kind} {name}: {argv[0]} exited {code}: {err}"
                    assert code in (0, 1, 2), case
                    if code == 2:
                        assert out.read_text() == "before\n", case
                        assert err.startswith("error: ") and err.count("\n") == 1, case
                    runs += 1
        assert runs > 200  # the sweep reached every file

    # (file kind, edit of its parsed JSON, the field as the message names it)
    CASES = {
        "component-states-a-number": (
            "system", lambda o: o["components"][0].update(states=3),
            "component 'BreakingSystem' states must be a list of strings or numbers, got 3"),
        "component-inputs-a-list": (
            "system", lambda o: o["components"][0].update(inputs=[1]),
            "component 'BreakingSystem' inputs must be an object of lists, got [1]"),
        "component-domain-a-number": (
            "system", lambda o: o["components"][0].update(inputs={"brake": 3}),
            "component 'BreakingSystem' inputs must be an object of lists, got {'brake': 3}"),
        "component-outputs-map-a-list": (
            "system", lambda o: o["components"][0].update(outputs_map=[1]),
            "component 'BreakingSystem' outputs_map must be an object of objects, got [1]"),
        "transition-row-a-number": (
            "system", lambda o: o["components"][0].update(transitions=[3]),
            "component 'BreakingSystem' transitions must be a list of objects, got [3]"),
        "transition-when-a-list": (
            "system", lambda o: o["components"][0]["transitions"][0].update(when=[1]),
            "component 'BreakingSystem' transition row 1 when must be an object of strings or "
            "numbers, got [1]"),
        "wiring-a-number": ("system", lambda o: o.update(wiring=3),
                            "wiring must be a list of objects, got 3"),
        "wire-from-a-number": ("system", lambda o: o["wiring"][0].update({"from": 3}),
                               "wire 1 from must be a string, got 3"),
        "wire-from-without-a-dot": (
            "system", lambda o: o["wiring"][0].update({"from": "abc"}),
            "wire 1 must join two ports named 'component.port', got "
            "{'from': 'abc', 'to': 'BreakingSystem.velocity'}"),
        "properties-a-number": ("system", lambda o: o.update(properties=3),
                                "properties must be a list of strings, got 3"),
        "property-a-number": ("system", lambda o: o.update(properties=[3]),
                              "properties must be a list of strings, got [3]"),
        "c1-assume-a-number": ("system", lambda o: o["contract"].update(assume=3),
                               "contract 'C1' assume must be a string, got 3"),
        "c1-guarantee-a-number": ("system", lambda o: o["contract"].update(guarantee=3),
                                  "contract 'C1' guarantee must be a string, got 3"),
        "c1-inputs-a-list": ("system", lambda o: o["contract"].update(inputs=[1]),
                             "contract 'C1' inputs must be an object of lists, got [1]"),
        # a list where a port value belongs, which str() once made the value "['red']"
        "c1-domain-value-a-list": (
            "system", lambda o: o["contract"].update(inputs={"Class": [["red"], "green", "yellow"]}),
            "contract 'C1' inputs must be an object of lists of strings or numbers, got "
            "{'Class': [['red'], 'green', 'yellow']}"),
        "component-outputs-map-value-a-list": (
            "system", lambda o: o["components"][0].update(outputs_map={"s": {"brake": ["1"]}}),
            "component 'BreakingSystem' outputs_map must be an object of objects of strings or "
            "numbers, got {'s': {'brake': ['1']}}"),
        "perception-a-list": ("system", lambda o: o.update(perception=[1]),
                              "perception must be an object, got [1]"),
        "class-domain-a-number": (
            "system", lambda o: o["perception"].update(class_domain=3),
            "perception class_domain must be a list of strings or numbers, got 3"),
        "component-without-states": ("system", lambda o: o["components"][0].pop("states"),
                                     "component 'BreakingSystem' has no 'states'"),
        "component-without-name": ("system", lambda o: o["components"][0].pop("name"),
                                   "a component has no 'name'"),
        "row-without-from": (
            "system", lambda o: o["components"][0]["transitions"][0].pop("from"),
            "component 'BreakingSystem' transition row 1 has no 'from'"),
        "c1-without-guarantee": ("system", lambda o: o["contract"].pop("guarantee"),
                                 "contract 'C1' has no 'guarantee'"),
        "c1-without-name": ("system", lambda o: o["contract"].pop("name"),
                            "a contract has no 'name'"),
        **{f"contract-without-{key}": (
            "contract", lambda o, key=key: o["regions"][0].pop(key), f"region 'r000' has no {key!r}")
           for key in ("metric", "centroid", "radius", "guarantee")},
        "contract-without-network": ("contract", lambda o: o.pop("network"),
                                     "the top level has no 'network'"),
        "contract-id-a-list": ("contract", lambda o: o["regions"][0].update(id=[3]),
                               "a region record id must be a string, got [3]"),
        "contract-id-a-number": ("contract", lambda o: o["regions"][0].update(id=3),
                                 "a region record id must be a string, got 3"),
        "regions-id-a-number": ("regions", lambda o: o["regions"][0].update(id=3),
                                "a region record id must be a string, got 3"),
        **{f"regions-without-{key}": (
            "regions", lambda o, key=key: o["regions"][0].pop(key), f"region 'r000' has no {key!r}")
           for key in ("metric", "radius", "expected_label")},
        "regions-unknown-expected-label": (
            "regions", lambda o: o["regions"][0].update(expected_label="blue"),
            "region 'r000' expected_label 'blue' is not one of ['red', 'green', 'yellow']"),
        "report-without-network": ("report", lambda o: o.pop("network"),
                                   "the top level has no 'network'"),
        "report-network-a-number": ("report", lambda o: o.update(network=3),
                                    "network must be a string, got 3"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case_exits_2_naming_the_file_and_the_field(self, pipeline_files, tmp_path,
                                                        capsys, case):
        paths, prop = pipeline_files
        kind, edit, message = self.CASES[case]
        obj = json.loads(paths[kind].read_text())
        edit(obj)
        bad, out = tmp_path / "bad.json", tmp_path / "out.txt"
        bad.write_text(json.dumps(obj))
        for argv in stage_argvs(paths, prop, kind, bad):
            out.write_text("before\n")
            capsys.readouterr()
            assert run(argv + ["--out", out]) == 2
            assert out.read_text() == "before\n"
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_assumption_over_an_undeclared_port_exits_2_naming_it(self, pipeline_files,
                                                                   tmp_path, capsys):
        paths, prop = pipeline_files
        obj = json.loads(paths["system"].read_text())
        obj["contract"]["assume"] = "G (foo=1 => F<=2 (bar=2))"
        bad, out = tmp_path / "bad.json", tmp_path / "out.txt"
        bad.write_text(json.dumps(obj))
        assert run(stage_argvs(paths, prop, "system", bad)[0] + ["--out", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "contract 'C1'" in err and "port 'bar'" in err


# a quoted cell longer than the csv module's field limit, 131,072 characters
_LONG_CELL = '"' + "1" * 140_000 + '"'


def malformed_files(paths):
    """(kind, name, bytes) of a small corpus of malformed files of each kind
    the CLI reads: the network, the dataset CSV, and the regions, report,
    contract, system and grid-layout JSON."""
    valid = {kind: path.read_bytes() for kind, path in paths.items()}
    for kind, text in valid.items():
        yield kind, "empty", b""
        yield kind, "not UTF-8", b"\xff\xfe" + text
    for kind in ("regions", "report", "contract", "system", "layout"):
        yield kind, "not JSON", b"{regions"
        yield kind, "a list", b"[]"
        yield kind, "cut in half", valid[kind][:len(valid[kind]) // 2]
        yield kind, "nested too deeply", b"[" * 100_000
    yield "net", "bad header", b"RELUNET 2\n" + valid["net"].split(b"\n", 1)[1]
    yield "net", "no layers", valid["net"].split(b"layer")[0]
    for shape in ("0x8", "0x0", "8x0", "-1x8"):
        yield "net", f"layer {shape}", valid["net"].replace(b"16x8", shape.encode())
    header, first, rest = valid["data"].split(b"\n", 2)
    yield "data", "header only", header + b"\n"
    yield "data", "a row short of a cell", b"\n".join([header, first.split(b",", 1)[1], rest])
    yield "data", "a cell past the csv field limit", \
        b"\n".join([header, first, _LONG_CELL.encode() + b",red", rest])


class TestNoTraceback:
    """Every file reader of the CLI, fed malformed input, ends in an exit code:
    2 with one error line and --out as it was, or for the guard's rows an
    invalid_input decision. No exception leaves cli_main."""

    def test_malformed_files_exit_2(self, pipeline_files, tmp_path, capsys):
        paths, prop = pipeline_files
        bad, out = tmp_path / "bad", tmp_path / "out.txt"
        readers = {"net": [["discover", "--net", bad, "--data", paths["data"]]],
                   "data": [["discover", "--net", paths["net"], "--data", bad]]}
        kinds = set()
        for kind, name, text in malformed_files(paths):
            bad.write_bytes(text)
            for argv in readers.get(kind) or stage_argvs(paths, prop, kind, bad):
                out.write_text("before\n")
                capsys.readouterr()
                code = run(argv + ["--out", out])
                err = capsys.readouterr().err
                case = f"{kind} {name}: {argv[0]} exited {code}: {err}"
                assert code == 2, case
                assert out.read_text() == "before\n", case
                assert err.startswith("error: ") and err.count("\n") == 1, case
                if name.startswith("layer"):
                    assert f"line 11: layer shape '{name[6:]}'" in err, case
                kinds.add(kind)
        assert kinds == set(paths)

    @pytest.mark.parametrize("at", [0, 2])
    def test_guard_decides_a_row_past_the_csv_field_limit(self, pipeline_files, tmp_path, at):
        paths, _ = pipeline_files
        lines = paths["data"].read_text().splitlines()[1:5]
        rows = [line.rpartition(",")[0] for line in lines]
        decided = {}
        for name, text in (("valid", rows), ("bad", rows[:at] + [_LONG_CELL] + rows[at:])):
            data, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
            data.write_text("\n".join(text) + "\n")
            assert run(["guard", "--net", paths["net"], "--contracts", paths["contract"],
                        "--data", data, "--out", out]) == 0
            decided[name] = out.read_text().splitlines()
        bad = decided["bad"].pop(at)
        assert json.loads(bad)["reason"] == "invalid_input"
        assert decided["bad"] == decided["valid"]
        assert all(json.loads(line).get("reason") != "invalid_input" for line in decided["valid"])


class TestParserReuse:
    """cli_main builds its parser once and reuses it; every call still parses
    from the defaults and dispatches to the module's current cmd_* function."""

    @pytest.fixture
    def regions(self, semaphore_files, tmp_path):
        _, _, net_path, data_path = semaphore_files
        regions_path = tmp_path / "regions.json"
        assert run(["discover", "--net", net_path, "--data", data_path, "--seed", 42,
                    "--out", regions_path]) == 0
        return net_path, regions_path

    def test_replaced_command_is_called(self, regions, monkeypatch):
        net_path, regions_path = regions
        calls = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args) or 7)
        assert run(["verify", "--net", net_path, "--regions", regions_path]) == 7
        assert [(a.net, a.regions) for a in calls] == [(str(net_path), str(regions_path))]

    def test_defaults_do_not_leak_between_calls(self, regions, tmp_path):
        net_path, regions_path = regions
        out = tmp_path / "report"
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--format", "text", "--out", out]) == 0
        assert "fully_safe=" in out.read_text()
        assert run(["verify", "--net", net_path, "--regions", regions_path,
                    "--out", out]) == 0
        jsonschema.validate(json.loads(out.read_text()), VERIFY_REPORT_SCHEMA)

    def test_usage_error_between_calls_changes_nothing(self, semaphore_files, tmp_path):
        _, _, net_path, data_path = semaphore_files
        argv = ["discover", "--net", net_path, "--data", data_path]
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.json"
            assert run(argv + ["--out", out]) == 0
            outputs.append(out.read_bytes())
            # flags parsed before the bad one must not stick to the parser
            assert run(argv + ["--metric", "l1", "--seed", 9, "--radius", "tight",
                               "--nonsense"]) == 2
        assert outputs[0] == outputs[1]


class TestProcess:
    """The CLI run as its own process, as `safecomp` is installed to run."""

    @staticmethod
    def run_process(*argv):
        src = str(Path(safecomp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-m", "safecomp.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_help_exits_0(self):
        proc = self.run_process("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: safecomp")

    def test_no_arguments_prints_usage_and_exits_2(self):
        proc = self.run_process()
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: safecomp")

    def test_verify_writes_the_in_process_report(self, semaphore_files, tmp_path):
        _, _, net_path, data_path = semaphore_files
        regions_path = tmp_path / "regions.json"
        assert run(["discover", "--net", net_path, "--data", data_path, "--seed", 42,
                    "--out", regions_path]) == 0
        argv = ["verify", "--net", net_path, "--regions", regions_path, "--node-budget", 16]
        assert run(argv + ["--out", tmp_path / "in_process.json"]) == 0
        proc = self.run_process(*argv, "--out", tmp_path / "process.json")
        assert proc.returncode == 0, proc.stderr
        reports = [mask_timing(json.loads((tmp_path / f"{name}.json").read_text()))
                   for name in ("in_process", "process")]
        assert reports[0]["regions"]
        assert reports[0] == reports[1]
