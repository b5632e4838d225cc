"""The four benchmark workloads.

A workload's constructor is its set-up (fixtures and input files). A run is
a number of whole rounds: run_round(r) executes round r, the timed part, and
check_round(r, result, tally, digest) verifies its outputs outside the timed
region. After the rounds, probe(tally) feeds the program the fixed inputs
that show its known defects, untimed (see checks.py). Every time here is
wall time scaled to the reference speed of clock.py. The ops of a round
are fixed by the seed and every round repeats them, so the figures
describe the same mix of work at any speed of the program, each op's latency is a mean over its repeats, and a traced replay
of the first K rounds repeats the untraced work exactly.
"""

from __future__ import annotations

import io
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from safecomp import app, cli, guard
from safecomp import compose as cm
from safecomp.compose import system_to_json
from safecomp.contracts import (
    component_contract_to_json,
    dnn_contract_from_json,
    emit_dnn_contract,
    parse_property,
)
from safecomp.network import render_network
from safecomp.regions import DiscoveryConfig, discover_regions, region_from_dict, render_dataset_csv

import checks
import fixtures as fx
from clock import Clock


@dataclass
class Round:
    ops: int = 0  # ops that count for ops_per_s
    busy_s: float = 0.0  # the time those ops took, scaled
    latency: dict = field(default_factory=dict)  # op key -> scaled seconds, one sample per op
    raw: dict = field(default_factory=dict)  # outputs for check_round


def _no_op():
    pass


class Workload:
    name = ""
    tail_pct = 90.0
    has_decided = False
    op_root: str | None = None  # traced function whose call is one op, if any

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.begin_op = _no_op  # the runner hooks op boundaries for the tracer here
        self.rng = np.random.default_rng(seed)
        self.clock = Clock()

    def run_round(self, r: int) -> Round:
        raise NotImplementedError

    def check_round(self, r: int, result: Round, tally: checks.Tally, digest: checks.Digest) -> None:
        raise NotImplementedError

    def probe(self, tally: checks.Tally) -> None:
        pass


# ---------------------------------------------------------------------------


class PipelineSemaphore(Workload):
    name = "pipeline-semaphore"
    tail_pct = 75.0
    has_decided = True
    METRICS = ("l1", "l2", "linf")
    N_FIXTURES = 6

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        tiny = size == "tiny"
        self.node_budget = 16 if tiny else 64
        n_fixtures = 1 if tiny else self.N_FIXTURES
        extra = self.rng.choice(np.arange(1000, 100_000), size=n_fixtures - 1, replace=False)
        self.fixture_seeds = [42] + [int(s) for s in extra]
        self.ops = [(s, m) for s in self.fixture_seeds for m in self.METRICS]
        self.dir = workdir / "pipeline"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.nets = {}
        for s in self.fixture_seeds:
            net, data = app.build_semaphore_classifier(s)
            (self.dir / f"net{s}.net").write_text(render_network(net))
            (self.dir / f"data{s}.csv").write_text(render_dataset_csv(data, net.labels))
            self.nets[s] = net
        self.ebs = app.build_ebs_demo(braking_ticks=2)
        sysobj = system_to_json(self.ebs.m1)
        sysobj["contract"] = component_contract_to_json(self.ebs.c1)
        sysobj["perception"] = {"token_port": "x", "class_port": "Class",
                                "class_domain": list(fx.LABELS)}
        (self.dir / "ebs.json").write_text(json.dumps(sysobj))
        self.oracle = checks.AgOracle()

    @staticmethod
    def _property(token):
        return f"G (x={token} => F<={fx.FLEET_DEADLINE} (velocity=0))"

    def _paths(self, s, metric):
        return {k: str(self.dir / f"{k}-{s}-{metric}.json") for k in ("regions", "report", "contract", "ag")}

    def _pass(self, s, metric):
        """One op: the four CLI stages on fixture s; returns (exit codes, token)."""
        net_path, data_path = str(self.dir / f"net{s}.net"), str(self.dir / f"data{s}.csv")
        p = self._paths(s, metric)
        codes = [
            cli.cli_main(["discover", "--net", net_path, "--data", data_path, "--metric", metric,
                          "--seed", str(s), "--out", p["regions"]]),
            cli.cli_main(["verify", "--net", net_path, "--regions", p["regions"],
                          "--workers", "1", "--seed", str(s),
                          "--node-budget", str(self.node_budget), "--out", p["report"]]),
            cli.cli_main(["emit-contracts", "--net", net_path, "--report", p["report"],
                          "--out", p["contract"]]),
        ]
        token = "outside"
        if codes[2] == 0:
            regions = json.loads(Path(p["contract"]).read_text())["regions"]
            token = next((r["id"] for r in regions if r["guarantee"].get("label_is") == "red"),
                         "outside")
        codes.append(cli.cli_main(["check-system", "--system", str(self.dir / "ebs.json"),
                                   "--contracts", p["contract"], "--out", p["ag"],
                                   "--property", self._property(token)]))
        return codes, token

    def run_round(self, r):
        res = Round(ops=len(self.ops))
        for op in self.ops:
            self.begin_op()
            res.raw[op], dt = self.clock.timed(self._pass, *op)
            res.latency[op] = dt
            res.busy_s += dt
        return res

    def check_round(self, r, result, tally, digest):
        for k, (s, metric) in enumerate(self.ops):
            codes, token = result.raw[(s, metric)]
            if codes[0] != 0 or codes[1] not in (0, 1) or codes[2] != 0 or codes[3] not in (0, 1):
                tally.op(["pipeline.stage_error"])
                continue
            net = self.nets[s]
            rng = np.random.default_rng([self.seed, r, k])
            p = self._paths(s, metric)
            report = json.loads(Path(p["report"]).read_text())
            contract_text = Path(p["contract"]).read_text()
            ag = json.loads(Path(p["ag"]).read_text())
            causes = []
            statuses = []
            for entry in report["regions"]:
                region = region_from_dict(entry, net.labels)
                for label, v in sorted(entry["verdicts"].items()):
                    statuses.append(v["status"])
                    point = v.get("counterexample", {}).get("point")
                    causes += checks.check_verdict(net, region, net.labels.index(label),
                                                   v["status"], point, rng)
            tally.tasks += len(statuses)
            tally.decided += sum(st in ("Safe", "Unsafe") for st in statuses)
            contract = dnn_contract_from_json(json.loads(contract_text))
            token_map = {rc.id: rc.guarantee for rc in sorted(contract.regions, key=lambda r: r.id)}
            prop = parse_property(self._property(token))
            key = (tuple((t, repr(g)) for t, g in token_map.items()), token)
            premise1 = ag["assume_guarantee"]["premises"][0]
            trace = (checks.trace_from_json(premise1["counterexample"])
                     if not premise1["holds"] else None)
            with warnings.catch_warnings():  # an empty contract is a valid input here
                warnings.simplefilter("ignore", UserWarning)
                latched = self.oracle.holds(("latched",) + key, lambda: cm.wire_by_name(
                    self.ebs.m1, cm.abstract_dnn_component(contract, fx.LABELS)), prop)
            causes += checks.check_ag(
                ag["assume_guarantee"]["conclusion"], latched,
                lambda: self.oracle.holds(("same-tick",) + key, lambda: cm.wire_by_name(
                    self.ebs.m1, fx.same_tick_perception(token_map, fx.LABELS)), prop),
                trace, self.ebs.m1, self.ebs.c1.guarantee)
            tally.op(causes)
            digest.add((s, metric, [[e["id"], sorted((t, v["status"]) for t, v in e["verdicts"].items())]
                                    for e in report["regions"]], ag["conclusion"]),
                       (app.mask_timing(report), contract_text, ag))

    def probe(self, tally):
        tally.probe(checks.ag_latch_probe())


# ---------------------------------------------------------------------------


class VerifyCapacity(Workload):
    """Each region through its own app.run_parallel_verification call with
    one worker, timed here: an op's latency is the region's wall time over
    its task count. One thread, so that a co-tenant on the machine's other
    core does not set the figures. After the first round the whole batch
    goes once more through the pool (WORKERS threads), untimed, and must
    give the same verdicts."""

    name = "verify-capacity"
    tail_pct = 90.0
    has_decided = True
    op_root = "verifier.verify_targeted"
    WORKERS = 2

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        tiny = size == "tiny"
        self.node_budget = 8 if tiny else 16
        self.net = fx.capacity_net()
        mix = fx.CAPACITY_MIX[:3] if tiny else fx.CAPACITY_MIX * 2
        self.regions = fx.capacity_batch(self.rng, self.net, 0, mix)

    def run_round(self, r):
        res = Round()
        for region in self.regions:
            out, dt = self.clock.timed(app.run_parallel_verification, self.net, [region], workers=1,
                                       seed=self.seed, max_nodes=self.node_budget)
            res.raw[region.id] = out
            tasks = sum(len(full.verdicts) for _, full in out)
            res.ops += tasks
            res.busy_s += dt
            res.latency[region.id] = dt / max(tasks, 1)
        return res

    def check_round(self, r, result, tally, digest):
        rng = np.random.default_rng([self.seed, r])
        alone = {region.id: full for out in result.raw.values() for region, full in out}
        pooled = {}
        if r == 0:
            pooled = {region.id: full for region, full in app.run_parallel_verification(
                self.net, self.regions, workers=self.WORKERS, seed=self.seed,
                max_nodes=self.node_budget)}
        for region in self.regions:
            if region.id not in alone:
                tally.op(["verify.no_decision"])
                continue
            full = alone[region.id]
            report = self._report(full)
            mismatch = []
            if r == 0:
                mismatch = (checks.check_same_verdicts(self._report(pooled[region.id]), report)
                            if region.id in pooled else ["verify.no_decision"])
            for target, v in sorted(full.verdicts.items()):
                point = v.counterexample.point if v.counterexample is not None else None
                tally.op(checks.check_verdict(self.net, region, target, v.status, point, rng) + mismatch)
                tally.tasks += 1
                tally.decided += v.status in ("Safe", "Unsafe")
            digest.add((region.id, sorted((t, v.status, v.reason) for t, v in full.verdicts.items())),
                       app.mask_timing(report))

    @staticmethod
    def _report(full):
        return {str(t): app.verdict_to_json(v) for t, v in full.verdicts.items()}


# ---------------------------------------------------------------------------


class GuardStream(Workload):
    """Throughput: CHUNKS stream_guard calls of `chunk` rows per round, each
    round taking the next rows of the input. Latency: the same LATENCY_ROWS
    rows through single-row guard_eval calls every round, in blocks of
    BLOCK rows, each block bracketed by the reference loop. The malformed and
    off-domain rows of ROADMAP item 4 go through stream_guard in the probe."""

    name = "guard-stream"
    tail_pct = 99.0
    op_root = "guard.guard_eval"
    THRESHOLD = 0.25
    CHUNKS = 10
    LATENCY_ROWS = 2400
    BLOCK = 400

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        tiny = size == "tiny"
        self.chunk = 200 if tiny else 1000
        net, data = app.build_semaphore_classifier(42)
        disc = discover_regions(data, "Linf", DiscoveryConfig(seed=42))
        results = app.run_parallel_verification(net, disc.regions, seed=42)
        self.net = net
        self.contract = emit_dnn_contract(net.name, net.labels, results)
        self.guard = guard.build_guard(self.contract, uncertainty_threshold=self.THRESHOLD)
        self.rows = fx.guard_rows(self.rng, net, self.contract, 3000 if tiny else 100_000)
        n_latency = 400 if tiny else self.LATENCY_ROWS
        self.latency_rows = self._slice(len(self.rows) // 2, n_latency)
        self.defect_rows = fx.guard_rows(self.rng, net, self.contract, 60 if tiny else 300,
                                         fx.GUARD_DEFECT_MIX)

    def _slice(self, start, n):
        start %= len(self.rows)
        rows = self.rows[start:start + n]
        return rows + self.rows[:n - len(rows)]

    def _stream(self, rows):
        """stream_guard over rows, resuming after a row that raised, as a
        caller must; returns (JSON text per call, indices of rows that raised)."""
        texts, raised, pos = [], [], 0
        while pos < len(rows):
            out = io.StringIO()
            try:
                guard.stream_guard(self.guard, self.net, rows[pos:], out)
                texts.append(out.getvalue())
                break
            except Exception:  # noqa: BLE001 - any raise is a failed decision, counted in checks
                text = out.getvalue()
                texts.append(text)
                pos += text.count("\n")
                raised.append(pos)
                pos += 1
        return texts, raised

    def run_round(self, r):
        res = Round(ops=self.CHUNKS * self.chunk, raw={"chunks": [], "single": []})
        for k in range(self.CHUNKS):
            rows = self._slice((r * self.CHUNKS + k) * self.chunk, self.chunk)
            (texts, raised), dt = self.clock.timed(self._stream, rows)
            res.busy_s += dt
            res.raw["chunks"].append((rows, texts, raised))
        for start in range(0, len(self.latency_rows), self.BLOCK):
            raw = {}
            before = self.clock.ref()
            for j in range(start, min(start + self.BLOCK, len(self.latency_rows))):
                t0 = time.perf_counter()
                try:
                    d = guard.guard_eval(self.guard, self.net, self.latency_rows[j])
                except Exception:  # noqa: BLE001 - counted as a failed decision in check_round
                    d = None
                else:
                    raw[j] = time.perf_counter() - t0
                res.raw["single"].append(d)
            f = self.clock.scale(before, self.clock.ref())
            self.clock.raw_s += sum(raw.values())
            res.latency.update((j, dt * f) for j, dt in raw.items())
        return res

    def check_round(self, r, result, tally, digest):
        for rows, texts, raised in result.raw["chunks"]:
            decisions = self._decisions(rows, texts, raised)
            for causes in self._check(rows, decisions):
                tally.op(causes)
            digest.add([checks.decision_key(d) if d is not None else None for d in decisions], texts)
        for causes in self._check(self.latency_rows, result.raw["single"]):
            tally.op(causes)
        digest.add([checks.decision_key(d) if d is not None else None for d in result.raw["single"]],
                   None)

    def probe(self, tally):
        texts, raised = self._stream(self.defect_rows)
        for causes in self._check(self.defect_rows, self._decisions(self.defect_rows, texts, raised)):
            tally.probe(causes)

    @staticmethod
    def _decisions(rows, texts, raised):
        """Decision per row from _stream's output; None where the row raised."""
        lines = iter(json.loads(line) for text in texts for line in text.splitlines())
        raised = set(raised)
        return [None if k in raised else next(lines, None) for k in range(len(rows))]

    def _check(self, rows, decisions):
        """Failure causes per row."""
        expected = checks.expected_guard(self.net, self.contract, self.THRESHOLD, rows)
        return [checks.check_guard_row(exp, checks.decision_key(d) if d is not None else None,
                                       self.THRESHOLD) for exp, d in zip(expected, decisions)]


# ---------------------------------------------------------------------------


class AgFleet(Workload):
    name = "ag-fleet"
    tail_pct = 75.0
    # (fleet size, braking_ticks): ticks 2 holds per subsystem, ticks 4 does not
    PLAN = tuple((n, t) for n in (1, 2, 3, 4) for t in (2, 4))

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        plan = ((1, 2), (1, 4), (2, 2)) if size == "tiny" else self.PLAN
        self.fleets = [fx.FleetQuery(n, t) for n, t in plan]
        self.queries = [(f, mode) for f in self.fleets for mode in ("mono", "ag")]
        self.oracle = checks.AgOracle()

    def _query(self, fleet, mode):
        if mode == "mono":
            return cm.check_property(fleet.full, fleet.p)
        return cm.check_assume_guarantee(fleet.m1, fleet.c1, fleet.dnn, fleet.p,
                                         class_domain=fx.LABELS, token_map=fleet.token_map)

    def run_round(self, r):
        """Every query once, in an order drawn from the seed and the round."""
        res = Round(ops=len(self.queries))
        for q in np.random.default_rng([self.seed, r]).permutation(len(self.queries)):
            q = int(q)
            self.begin_op()
            res.raw[q], dt = self.clock.timed(self._query, *self.queries[q])
            res.latency[q] = dt
            res.busy_s += dt
        return res

    def check_round(self, r, result, tally, digest):
        mono = {}
        for q, (fleet, mode) in enumerate(self.queries):
            out = result.raw[q]
            if mode == "mono":
                mono[fleet.key] = out.holds
                tally.op(checks.check_monolithic(out, fleet.full, fleet.p))
                digest.add((fleet.key, mode, out.holds, out.states_explored), None)
        for q, (fleet, mode) in enumerate(self.queries):
            out = result.raw[q]
            if mode == "mono":
                continue
            p1 = out.premise("M1 |= C1")
            tally.op(checks.check_ag(
                out.conclusion, mono[fleet.key],
                lambda f=fleet: self.oracle.holds(("same-tick", f.key), f.same_tick_full, f.p),
                None if p1.holds else p1.counterexample, fleet.m1, fleet.c1.guarantee))
            digest.add((fleet.key, mode, out.conclusion,
                        [(pr.name, pr.holds, pr.states_explored) for pr in out.premises]),
                       app.ag_report_to_json(out))

    def probe(self, tally):
        tally.probe(checks.ag_latch_probe())


WORKLOADS = {w.name: w for w in (PipelineSemaphore, VerifyCapacity, GuardStream, AgFleet)}
