"""Output checks that decide which ops failed, run outside the timed region.

Each check returns a list of failure causes (empty when the output is
right). Causes in KNOWN_DEFECTS are defects of the program. The timed ops
avoid the inputs that show them, so that no op of a healthy run fails;
instead each run feeds a fixed probe of such inputs to the program, untimed,
and reports per cause how many probe inputs showed it. A known cause in a
timed op still counts as a failed op; any other cause, in an op or in the
probe, marks the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from safecomp import compose as cm
from safecomp.app import mask_timing
from safecomp.network import Network, classify
from safecomp.regions import Region, dist

import fixtures as fx

# cause -> what is wrong; each is reported by the defect probe until fixed
KNOWN_DEFECTS = {
    "guard.malformed_raised": "the guard raises on a NaN or wrong-width row instead of failing safe",
    "guard.covered_outside_domain": "the guard answers Covered for a row outside the network's input domain",
    "ag.latched_composition_violates":
        "the assume-guarantee rule concludes P, but the system composed with "
        "compose.abstract_dnn_component (one-tick class latch) violates P",
}

FALSIFY_SAMPLES = 256


@dataclass
class Tally:
    """Per-run accumulation of op outcomes and of the defect probe's."""

    attempted: int = 0
    causes: dict = field(default_factory=dict)
    failed: int = 0
    decided: int = 0
    tasks: int = 0
    probed: int = 0  # inputs of the defect probe
    known: dict = field(default_factory=dict)  # cause -> probe inputs that showed it

    def op(self, causes) -> None:
        self.attempted += 1
        if causes:
            self.failed += 1
            for c in set(causes):
                self.causes[c] = self.causes.get(c, 0) + 1

    def probe(self, causes) -> None:
        self.probed += 1
        for c in set(causes):
            self.known[c] = self.known.get(c, 0) + 1

    @property
    def correct(self) -> bool:
        return all(c in KNOWN_DEFECTS for c in (*self.causes, *self.known))


class Digest:
    """Hashes of the verdicts and of the timing-masked reports of a run's
    first round, which has the same inputs for a given seed at any speed.
    The runner closes it after that round; later adds are ignored."""

    def __init__(self):
        self.open = True
        self.ops = 0
        self._verdicts = hashlib.sha256()
        self._reports = hashlib.sha256()

    def add(self, verdicts, report) -> None:
        if not self.open:
            return
        self.ops += 1
        self._verdicts.update(json.dumps(verdicts, sort_keys=True, default=str).encode())
        self._reports.update(json.dumps(report, sort_keys=True, default=str).encode())

    def summary(self) -> dict:
        return {"entries": self.ops,
                "verdicts": self._verdicts.hexdigest()[:16],
                "reports": self._reports.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# Verifier verdicts


def check_verdict(net: Network, region: Region, target: int, status: str, point, rng) -> list[str]:
    """Safe: no sampled point of ball and domain is classified as the target.
    Unsafe: the counterexample lies in ball and domain and is the target."""
    if status == "Safe":
        xs = fx.sample_ball(rng, region.metric, region.centroid, region.radius, FALSIFY_SAMPLES)
        xs = xs[fx.in_domain(net, xs)]
        if len(xs):
            labels, _ = fx.net_labels(net, xs)
            if np.any(labels == target):
                return ["verify.safe_falsified"]
        return []
    if status == "Unsafe":
        x = np.asarray(point, dtype=np.float64)
        ok = (x.shape == region.centroid.shape
              and bool(fx.in_domain(net, x[None, :])[0])
              and dist(region.metric, x, region.centroid) <= region.radius
              and classify(net, x) == target)
        return [] if ok else ["verify.ce_invalid"]
    if status == "Unknown":
        return []
    return ["verify.bad_status"]


def check_same_verdicts(pooled: dict, alone: dict) -> list[str]:
    """One region's verdicts (target -> verdict JSON) from the worker pool
    and from a lone verify_full call must agree once timing is masked."""
    return [] if mask_timing(pooled) == mask_timing(alone) else ["verify.pool_changed_verdicts"]


# ---------------------------------------------------------------------------
# Assume-guarantee


def trace_from_json(steps) -> tuple:
    return tuple(cm.TraceStep(tuple(s["states"]), dict(s["inputs"]), dict(s["valuation"]))
                 for s in steps)


class AgOracle:
    """Monolithic answers for AG conclusions, cached by system key."""

    def __init__(self):
        self._cache: dict = {}

    def holds(self, key, build_system, p) -> bool:
        if key not in self._cache:
            self._cache[key] = cm.check_property(build_system(), p).holds
        return self._cache[key]


def check_ag(conclusion: bool, latched_holds: bool, same_tick_holds, premise1_trace,
             m1: cm.System, c1_guarantee) -> list[str]:
    """An AG conclusion must agree with the monolithic check; a failed
    premise 1 must come with a trace that replays. same_tick_holds is a
    thunk, evaluated only when the latched composition disagrees."""
    causes = []
    if conclusion and not latched_holds:
        causes.append("ag.latched_composition_violates" if same_tick_holds() else "ag.unsound")
    if premise1_trace is not None and not cm.replay_violation(m1, c1_guarantee, premise1_trace):
        causes.append("ag.trace_not_replayable")
    return causes


def ag_latch_probe() -> list[str]:
    """The EBS demo's own property, whose three-tick deadline leaves no tick
    for the perception latch, checked like any AG query."""
    q = fx.FleetQuery(1, 2, deadline=3)
    out = cm.check_assume_guarantee(q.m1, q.c1, q.dnn, q.p, class_domain=fx.LABELS,
                                    token_map=q.token_map)
    p1 = out.premise("M1 |= C1")
    return check_ag(out.conclusion, cm.check_property(q.full, q.p).holds,
                    lambda: cm.check_property(q.same_tick_full(), q.p).holds,
                    None if p1.holds else p1.counterexample, q.m1, q.c1.guarantee)


def check_monolithic(result: cm.CheckResult, system: cm.System, p) -> list[str]:
    if result.holds:
        return []
    return [] if cm.replay_violation(system, p, result.counterexample) else ["mono.trace_not_replayable"]


# ---------------------------------------------------------------------------
# Guard


def decision_key(d) -> tuple:
    """(kind, reason, region, label) from a GuardDecision or its JSON form."""
    if isinstance(d, dict):
        return d["kind"], d.get("reason"), d.get("region"), d["label"]
    return d.kind, d.reason, d.region_id, d.label


def expected_guard(net: Network, contract, threshold, rows):
    """Brute-force answer per row: None for malformed rows, else
    (in_domain, region or None, label, uncertainty)."""
    regions = sorted(contract.regions, key=lambda r: r.id)
    good = [i for i, r in enumerate(rows)
            if len(r) == net.input_dim and all(np.isfinite(r))]
    out: list = [None] * len(rows)
    if not good:
        return out
    xs = np.asarray([rows[i] for i in good], dtype=np.float64)
    dom = fx.in_domain(net, xs)
    member = np.stack([fx.norm_rows(rc.metric, xs - rc.centroid) <= rc.radius for rc in regions], axis=1) \
        if regions else np.zeros((len(xs), 0), dtype=bool)
    labels, scores = fx.net_labels(net, xs)
    oriented = -scores if net.score_order == "min_best" else scores
    p = np.exp(oriented - oriented.max(axis=1, keepdims=True))
    u = 1.0 - (p / p.sum(axis=1, keepdims=True)).max(axis=1)
    for j, i in enumerate(good):
        hit = np.flatnonzero(member[j])
        out[i] = (bool(dom[j]), regions[hit[0]] if len(hit) else None,
                  net.labels[int(labels[j])], float(u[j]))
    return out


def check_guard_row(expected, decision, threshold) -> list[str]:
    """decision is a decision key, or None when the guard raised or
    dropped the row's decision."""
    if expected is None:
        if decision is None:
            return ["guard.malformed_raised"]
        return [] if decision[0] == "FailSafe" else ["guard.malformed_covered"]
    if decision is None:
        return ["guard.no_decision"]
    kind, reason, region_id, label = decision
    in_dom, region, want_label, u = expected
    causes = []
    if label != want_label:
        causes.append("guard.label_mismatch")
    if not in_dom:
        if kind == "Covered":
            causes.append("guard.covered_outside_domain")
        return causes
    if region is None:
        want = ("FailSafe", "outside_regions", None)
    elif threshold is not None and abs(u - threshold) < 1e-9:
        return causes  # uncertainty within rounding of the threshold: either answer is right
    elif threshold is not None and u > threshold:
        want = ("FailSafe", "uncertain", region.id)
    else:
        want = ("Covered", None, region.id)
        if not fx.guarantee_holds(region.guarantee, label):
            causes.append("guard.guarantee_violated")
    if (kind, reason, region_id) != want:
        causes.append("guard.decision_mismatch")
    return causes


# ---------------------------------------------------------------------------
# Planted wrong answers: each checker must count a failure


def self_test() -> list[tuple[str, bool]]:
    """Feed every checker an answer known to be wrong; returns
    (checker, caught) pairs."""
    from safecomp import app
    from safecomp.contracts import emit_dnn_contract
    from safecomp.regions import DiscoveryConfig, discover_regions

    rng = np.random.default_rng(0)
    results = []
    net = fx.capacity_net()
    region = fx.capacity_batch(rng, net, 0, mix=(("boundary", "Linf", 0.01),))[0]
    xs = fx.sample_ball(rng, region.metric, region.centroid, region.radius, 4096)
    labels, _ = fx.net_labels(net, xs[fx.in_domain(net, xs)])
    rival = int(next(l for l in labels if l != region.expected_label))
    results.append(("verify: Safe verdict with a reachable rival",
                    "verify.safe_falsified" in check_verdict(net, region, rival, "Safe", None, rng)))
    results.append(("verify: Unsafe counterexample that is not the target",
                    "verify.ce_invalid" in check_verdict(net, region, rival, "Unsafe",
                                                         region.centroid, rng)))
    verdict = {"status": "Unknown", "stats": {"nodes": 3, "elapsed": 0.5}}
    results.append(("verify: pooled verdicts differ from the lone run",
                    "verify.pool_changed_verdicts" in check_same_verdicts(
                        {"1": verdict}, {"1": {**verdict, "status": "Safe"}})))

    snet, data = app.build_semaphore_classifier(42)
    disc = discover_regions(data, "Linf", DiscoveryConfig(seed=42))
    contract = emit_dnn_contract(snet.name, snet.labels,
                                 app.run_parallel_verification(snet, disc.regions, seed=42))
    rc = sorted(contract.regions, key=lambda r: r.id)[0]
    far = [float(v) for v in np.where(rc.centroid > 0.5, 0.0, 1.0)]
    inside = [float(v) for v in rc.centroid]
    exp_far, exp_in = expected_guard(snet, contract, None, [far, inside])
    results.append(("guard: Covered for a row outside every region",
                    "guard.decision_mismatch" in check_guard_row(
                        exp_far, ("Covered", None, rc.id, exp_far[2]), None)))
    wrong = next(l for l in snet.labels if l != exp_in[2])
    results.append(("guard: wrong network label",
                    "guard.label_mismatch" in check_guard_row(
                        exp_in, ("Covered", None, rc.id, wrong), None)))
    results.append(("guard: decision dropped for a well-formed row",
                    "guard.no_decision" in check_guard_row(exp_in, None, None)))
    other = next(l for l in snet.labels if not fx.guarantee_holds(rc.guarantee, l))
    results.append(("guard: Covered where the network's label breaks the guarantee",
                    "guard.guarantee_violated" in check_guard_row(
                        (True, rc, other, 0.0), ("Covered", None, rc.id, other), None)))
    results.append(("guard: Covered for a malformed row",
                    "guard.malformed_covered" in check_guard_row(
                        None, ("Covered", None, rc.id, exp_in[2]), None)))

    q = fx.FleetQuery(1, 4)
    mono = cm.check_property(q.full, q.p)
    results.append(("ag: conclusion P where P fails in every composition",
                    "ag.unsound" in check_ag(True, mono.holds,
                                             lambda: cm.check_property(q.same_tick_full(), q.p).holds,
                                             None, q.m1, q.c1.guarantee)))
    p1 = cm.check_property(q.m1, q.c1.guarantee)
    tampered = list(p1.counterexample)
    first = tampered[0]
    tampered[0] = cm.TraceStep(first.states, {**first.inputs, "Class": "green"}, first.valuation)
    results.append(("ag: premise-1 trace that does not replay",
                    "ag.trace_not_replayable" in check_ag(False, False, lambda: False,
                                                          tuple(tampered), q.m1, q.c1.guarantee)))
    fake = cm.CheckResult(False, tuple(tampered), 1)
    results.append(("mono: counterexample that does not replay",
                    "mono.trace_not_replayable" in check_monolithic(fake, q.m1, q.c1.guarantee)))
    return results
