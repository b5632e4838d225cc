import json
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import safecomp
from conftest import identity_network, make_network, parse_dnn_contract
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
    emit_dnn_contract,
    render_contract,
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
        contract_path.write_text(render_contract(contract))
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
        contract_path.write_text(render_contract(contract))
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
            "annex": [],
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
        ({"names": ["a"], "cutpoints": [0.5]}, "'cutpoints' must be a list of lists"),
        ({"names": ["a"], "cutpoints": "0.5"}, "'cutpoints' must be a list of lists"),
        ({"names": "a", "cutpoints": [[0.5]]}, "'names' must be a list of strings"),
        ({"names": [1], "cutpoints": [[0.5]]}, "'names' must be a list of strings"),
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
