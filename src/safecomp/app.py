"""End-to-end orchestration: parallel verification runs, report generation,
grid utilities, and the emergency-braking demo scenario."""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import compose as cm
from .codec import json_field
from .contracts import (
    ComponentContract,
    DnnContract,
    LabelIs,
    RegionContract,
    emit_dnn_contract,
    parse_property,
)
from .network import Network, Layer
from .regions import DiscoveryConfig, LabeledDataset, Region, discover_regions
from .verifier import Counterexample, FullResult, Verdict, VerdictStats, verify_full

SEMAPHORE_LABELS = ("red", "green", "yellow")


# ---------------------------------------------------------------------------
# Grid generation


def iter_grid(cutpoints):
    """Cartesian product of per-dimension cut points in lexicographic order,
    made lazily once every dimension is checked to hold finite numbers."""
    for values in cutpoints:
        if not len(values):
            raise ValueError("every dimension needs at least one cut point")
        for v in values:
            # abs, not math.isfinite, so that an int beyond float range is refused too
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or \
                    not abs(v) <= sys.float_info.max:
                raise ValueError(f"cut point {v!r} is not a finite number")
    return itertools.product(*cutpoints)


# ---------------------------------------------------------------------------
# Parallel verification


def task_seed(seed: int, region_id: str) -> int:
    """Stable per-task seed so results never depend on the worker count."""
    digest = hashlib.sha256(f"{seed}:{region_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


def run_parallel_verification(net: Network, regions, workers: int = 1, seed: int = 0,
                              max_nodes: int = 50_000, time_budget: float | None = None,
                              epsilon: float = 1e-6) -> list[tuple[Region, FullResult]]:
    """verify_full over every region on a fixed-size worker pool.

    Tasks derive their seeds from (seed, region id) and results come back
    ordered by region id, so reports are bit-identical for any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ordered = sorted(regions, key=lambda r: r.id)

    def run_one(region: Region) -> FullResult:
        return verify_full(net, region, max_nodes=max_nodes, time_budget=time_budget,
                           epsilon=epsilon, seed=task_seed(seed, region.id))

    if workers == 1:
        results = [run_one(r) for r in ordered]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, ordered))
    return list(zip(ordered, results))


# ---------------------------------------------------------------------------
# Reports


def verdict_to_json(v: Verdict) -> dict:
    obj: dict = {
        "status": v.status,
        "stats": {"nodes": v.stats.nodes, "deepest_split": v.stats.deepest_split,
                  "elapsed": v.stats.elapsed},
    }
    if v.reason is not None:
        obj["reason"] = v.reason
    if v.counterexample is not None:
        obj["counterexample"] = {
            "point": [float(c) for c in v.counterexample.point],
            "scores": [float(s) for s in v.counterexample.scores],
        }
    return obj


def verdict_from_json(obj: dict, where: str = "verdict") -> Verdict:
    """The Verdict of a verdict_to_json object; `where` names it in errors."""
    stats, stats_where = json_field(obj, "stats", dict, where, default={}), f"{where} stats"
    ce = json_field(obj, "counterexample", dict, where, default=None)
    if ce is not None:
        ce = Counterexample(*(np.array(json_field(ce, k, list, f"{where} counterexample",
                                                  items=float)) for k in ("point", "scores")))
    return Verdict(json_field(obj, "status", str, where), ce,
                   VerdictStats(json_field(stats, "nodes", int, stats_where, default=0),
                                json_field(stats, "deepest_split", int, stats_where, default=0),
                                json_field(stats, "elapsed", float, stats_where, default=0.0)),
                   json_field(obj, "reason", str, where, default=None))


def _kind_counts(results) -> dict[str, int]:
    """How many (region, FullResult) pairs have each kind, keyed as reports
    name the kinds."""
    kinds = [result.kind for _, result in results]
    return {key: kinds.count(kind) for kind, key in (
        ("FullySafe", "fully_safe"), ("TargetedSafe", "targeted_safe"),
        ("NotSafe", "not_safe"), ("Inconclusive", "inconclusive"))}


def build_verification_report(net: Network, results, config: dict,
                              elapsed: float = 0.0) -> dict:
    """Report for a verify run: per-region verdicts, contract-style summary
    counts, and counterexamples."""
    region_entries = [{
        "id": region.id,
        "metric": region.metric,
        "centroid": [float(v) for v in region.centroid],
        "radius": float(region.radius),
        "expected_label": net.labels[region.expected_label],
        "member_count": region.member_count,
        "summary": result.kind,
        "safe_targets": [net.labels[t] for t in result.safe_targets],
        "verdicts": {net.labels[t]: verdict_to_json(v)
                     for t, v in sorted(result.verdicts.items())},
    } for region, result in sorted(results, key=lambda pair: pair[0].id)]
    return {
        "tool": "safecomp",
        "version": __version__,
        "network": net.name,
        "config": config,
        "regions": region_entries,
        "summary": {**_kind_counts(results), "total": len(region_entries)},
        "counterexamples": [{"region": e["id"], "target": target,
                             "point": list(v["counterexample"]["point"])}
                            for e in region_entries for target, v in e["verdicts"].items()
                            if "counterexample" in v],
        "timing": {"elapsed": elapsed},
    }


def mask_timing(obj):
    """Zero every wall-clock field so reports compare byte-identically."""
    if isinstance(obj, dict):
        return {k: 0.0 if k == "elapsed" else mask_timing(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [mask_timing(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Semaphore classifier fixture


def build_semaphore_classifier(seed: int = 42) -> tuple[Network, LabeledDataset]:
    """Deterministic prototype classifier over 8-dim synthetic image features.

    The hidden ReLU pair [relu(x); relu(-x)] reconstructs x exactly, and the
    output layer scores 2*p.x - |p|^2 per class prototype p, so argmax equals
    nearest prototype under L2. The dataset holds 100 Gaussian draws per class
    clipped to [0,1]^8 and labeled by the nearest prototype.
    """
    rng = np.random.default_rng(seed)
    dim = 8
    # block patterns keep the prototypes far apart in every metric; the jitter
    # makes the fixture seed-dependent without risking overlap
    base = np.array([
        [0.8, 0.8, 0.8, 0.2, 0.2, 0.2, 0.2, 0.2],
        [0.2, 0.2, 0.2, 0.8, 0.8, 0.8, 0.2, 0.2],
        [0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.8, 0.8],
    ])
    prototypes = base + rng.uniform(-0.05, 0.05, size=(3, dim))

    hidden = Layer(
        weights=np.vstack([np.eye(dim), -np.eye(dim)]),
        bias=np.zeros(2 * dim),
        activation="relu",
    )
    out_w = np.hstack([2.0 * prototypes, -2.0 * prototypes])
    out_b = -np.sum(prototypes * prototypes, axis=1)
    output = Layer(weights=out_w, bias=out_b, activation="identity")
    net = Network(
        name="semaphore",
        labels=SEMAPHORE_LABELS,
        score_order="max_best",
        input_dim=dim,
        layers=(hidden, output),
        input_min=np.zeros(dim),
        input_max=np.ones(dim),
        input_mean=np.zeros(dim),
        input_range=np.ones(dim),
        metadata={"builder": "prototype"},
    )

    points = []
    for c in range(3):
        draws = np.clip(prototypes[c] + rng.normal(0.0, 0.05, size=(100, dim)), 0.0, 1.0)
        points.append(draws)
    points = np.vstack(points)
    d2 = np.stack([np.sum((points - p) ** 2, axis=1) for p in prototypes], axis=1)
    labels = np.argmin(d2, axis=1)
    data = LabeledDataset(tuple(f"f{i}" for i in range(dim)), points, labels.astype(np.int64))
    return net, data


# ---------------------------------------------------------------------------
# Emergency-braking demo


def build_breaking_system() -> cm.ComponentModel:
    """Latching brake controller: starts braking on Class=red, releases only
    once the vehicle reports velocity 0 and the light is no longer red."""
    velocity_domain = ("0", "1", "2")
    transitions = {}
    for cls in SEMAPHORE_LABELS:
        for v in velocity_domain:
            key = (cls, v)  # input values in sorted port order: Class, velocity
            transitions[("idle", key)] = "braking" if cls == "red" else "idle"
            release = v == "0" and cls != "red"
            transitions[("braking", key)] = "idle" if release else "braking"
    return cm.ComponentModel(
        name="BreakingSystem",
        inputs={"Class": SEMAPHORE_LABELS, "velocity": velocity_domain},
        outputs={"brake": ("0", "1")},
        states=("idle", "braking"),
        initial=("idle",),
        output_map={"idle": {"brake": "0"}, "braking": {"brake": "1"}},
        transitions=transitions,
    )


def build_vehicle(braking_ticks: int, velocity_domain=("0", "1", "2")) -> cm.ComponentModel:
    """Plant: velocity decrements while braked, one unit per ticks_per_dec
    braked ticks, where braking_ticks is the braked-tick count needed to stop
    from the maximum velocity 2. Velocity holds steady when unbraked."""
    if braking_ticks < 1:
        raise ValueError("braking_ticks must be >= 1")
    ticks_per_dec = max(1, math.ceil(braking_ticks / 2))
    states = []
    output_map = {}
    transitions = {}
    for v in range(3):
        for c in range(ticks_per_dec):
            name = f"v{v}c{c}"
            states.append(name)
            output_map[name] = {"velocity": str(v)}
            # brake released: counter resets, speed holds
            transitions[(name, ("0",))] = f"v{v}c0"
            if v == 0:
                transitions[(name, ("1",))] = "v0c0"
            elif c + 1 >= ticks_per_dec:
                transitions[(name, ("1",))] = f"v{v - 1}c0"
            else:
                transitions[(name, ("1",))] = f"v{v}c{c + 1}"
    initial = tuple(f"v{v}c0" for v in sorted(int(x) for x in velocity_domain))
    return cm.ComponentModel(
        name="Vehicle",
        inputs={"brake": ("0", "1")},
        outputs={"velocity": ("0", "1", "2")},
        states=tuple(states),
        initial=initial,
        output_map=output_map,
        transitions=transitions,
    )


@dataclass(frozen=True)
class EbsDemo:
    m1: cm.System
    c1: ComponentContract
    dnn_contract: DnnContract
    p: cm.Property
    full_system: cm.System


def build_ebs_demo(braking_ticks: int = 2, velocity_domain=("0", "1", "2")) -> EbsDemo:
    """The braking subsystem M1 = BreakingSystem || Vehicle, its contract C1,
    a stub perception contract (one proved region per class), the system-level
    property P, and the full system with the abstract classifier wired in."""
    bs = build_breaking_system()
    vehicle = build_vehicle(braking_ticks, velocity_domain)
    m1 = cm.System(
        (bs, vehicle),
        (
            cm.Wire("Vehicle", "velocity", "BreakingSystem", "velocity"),
            cm.Wire("BreakingSystem", "brake", "Vehicle", "brake"),
        ),
    )
    c1 = ComponentContract(
        name="C1",
        assumption=None,
        guarantee=parse_property("G (Class=red => F<=3 (velocity=0))"),
        inputs={"Class": SEMAPHORE_LABELS},
        outputs={"velocity": ("0", "1", "2")},
    )
    p = parse_property("G (x=red => F<=4 (velocity=0))")
    stub_regions = tuple(
        RegionContract(
            id=label,
            centroid=np.full(8, 0.2 + 0.3 * i),
            radius=0.05,
            metric="Linf",
            guarantee=LabelIs(label),
            provenance={"summary": "FullySafe", "expected_label": label,
                        "note": "illustrative fixture"},
        )
        for i, label in enumerate(SEMAPHORE_LABELS)
    )
    dnn_stub = DnnContract("semaphore-stub", stub_regions)
    nn = cm.abstract_dnn_component(
        dnn_stub, SEMAPHORE_LABELS, token_map={label: LabelIs(label) for label in SEMAPHORE_LABELS})
    return EbsDemo(m1=m1, c1=c1, dnn_contract=dnn_stub, p=p, full_system=cm.wire_by_name(m1, nn))


def _trace_to_json(trace) -> list[dict]:
    return [
        {"states": list(step.states), "inputs": dict(step.inputs),
         "valuation": dict(step.valuation)}
        for step in trace
    ]


def ag_report_to_json(report: cm.AGReport) -> dict:
    return {
        "property": report.property_text,
        "conclusion": report.conclusion,
        "premises": [
            {
                "name": pr.name,
                "holds": pr.holds,
                "method": pr.method,
                "detail": pr.detail,
                "states_explored": pr.states_explored,
                **({"counterexample": _trace_to_json(pr.counterexample)}
                   if pr.counterexample is not None else {}),
            }
            for pr in report.premises
        ],
    }


def run_ebs_demo(braking_ticks: int = 2, seed: int = 42, max_nodes: int = 50_000) -> dict:
    """The full pipeline behind `demo ebs`:

    semaphore classifier -> region discovery -> parallel verification ->
    contract emission -> abstract classifier tokens -> assume-guarantee proof.
    Tokens are named after their class; each binds to the largest fully-safe
    region proved for that class. Deterministic given the seed (wall-clock
    fields aside).
    """
    t0 = time.perf_counter()
    net, data = build_semaphore_classifier(seed)
    cfg = DiscoveryConfig(seed=seed)
    discovery = discover_regions(data, "Linf", cfg)
    results = run_parallel_verification(net, discovery.regions, seed=seed,
                                        max_nodes=max_nodes)
    contract = emit_dnn_contract(net.name, net.labels, results)

    # one token per class, backed by the largest fully-safe region for it
    token_map: dict[str, LabelIs | None] = {}
    token_bindings: dict[str, str | None] = {}
    for label in net.labels:
        proved = [rc for rc in contract.regions if rc.guarantee == LabelIs(label)]
        best = max(proved, key=lambda rc: rc.provenance["member_count"], default=None)
        token_map[label] = LabelIs(label) if best is not None else None
        token_bindings[label] = best.id if best is not None else None

    demo = build_ebs_demo(braking_ticks)
    ag = cm.check_assume_guarantee(demo.m1, demo.c1, contract, demo.p, class_domain=net.labels,
                                   token_map=token_map)
    elapsed = time.perf_counter() - t0
    report = {
        "tool": "safecomp",
        "version": __version__,
        "demo": "ebs",
        "config": {"braking_ticks": braking_ticks, "seed": seed,
                   "min_members": cfg.min_members, "max_nodes": max_nodes},
        "note": "component machines are illustrative fixtures",
        "pipeline": {
            "dataset_points": len(data),
            "regions_discovered": len(discovery.regions),
            "regions_contracted": len(contract.regions),
            **_kind_counts(results),
            "token_bindings": token_bindings,
        },
        "assume_guarantee": ag_report_to_json(ag),
        "conclusion": "M1 || M2 |= P" if ag.conclusion else "not established",
        "timing": {"elapsed": elapsed},
    }
    return report
