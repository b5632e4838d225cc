"""Runtime guards synthesized from a DNN contract.

Inputs inside a proved region are answered with the region's guarantee;
anything else (or anything the network is too uncertain about, when a
threshold is set) triggers the fail-safe path. The guard never actuates:
it reports a decision and leaves the reaction to the surrounding system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .contracts import DnnContract, LabelIs, LabelNotIn, _guarantee_to_json
from .network import Network, evaluate


@dataclass(frozen=True)
class Guard:
    contract: DnnContract
    fail_safe_action: str = "fail_safe"
    uncertainty_threshold: float | None = None

    def __post_init__(self):
        u = self.uncertainty_threshold
        if u is not None and not 0 < u <= 1:
            raise ValueError("uncertainty threshold must lie in (0, 1]")


@dataclass(frozen=True)
class GuardDecision:
    kind: str  # "Covered" | "FailSafe"
    reason: str | None  # FailSafe only: "outside_regions" | "uncertain"
    region_id: str | None
    guarantee: LabelIs | LabelNotIn | None
    label: str          # network's actual classification, always reported
    uncertainty: float
    action: str | None = None  # fail-safe action when kind == "FailSafe"


def build_guard(contract: DnnContract, fail_safe_action: str = "fail_safe",
                uncertainty_threshold: float | None = None) -> Guard:
    """Deterministic guard over all contract regions (duplicate ids rejected
    by the contract type itself)."""
    return Guard(contract, fail_safe_action, uncertainty_threshold)


def _uncertainty_from_scores(scores: np.ndarray, score_order: str) -> float:
    good = -scores if score_order == "min_best" else scores
    good = good - np.max(good)  # overflow guard; softmax is shift-invariant
    probs = np.exp(good)
    probs /= probs.sum()
    return float(1.0 - np.max(probs))


def uncertainty(net: Network, x) -> float:
    """Softmax-margin uncertainty proxy in [0, 1 - 1/k].

    Scores are oriented so that larger means better (negated under min_best),
    softmaxed at temperature 1; uncertainty is one minus the top probability.
    """
    return _uncertainty_from_scores(evaluate(net, x), net.score_order)


def guard_eval(guard: Guard, net: Network, x) -> GuardDecision:
    """Pure decision: covered by the lowest-id containing region, or fail-safe
    because the input is outside every region or the network is too unsure."""
    x = np.asarray(x, dtype=np.float64)
    scores = evaluate(net, x)
    best = np.argmin(scores) if net.score_order == "min_best" else np.argmax(scores)
    label = net.labels[int(best)]
    u = _uncertainty_from_scores(scores, net.score_order)
    containing = None
    for rc in sorted(guard.contract.regions, key=lambda r: r.id):
        if rc.contains(x):
            containing = rc
            break
    if containing is None:
        return GuardDecision("FailSafe", "outside_regions", None, None, label, u,
                             action=guard.fail_safe_action)
    if guard.uncertainty_threshold is not None and u > guard.uncertainty_threshold:
        return GuardDecision("FailSafe", "uncertain", containing.id, None, label, u,
                             action=guard.fail_safe_action)
    return GuardDecision("Covered", None, containing.id, containing.guarantee, label, u)


def decision_to_json(decision: GuardDecision) -> dict:
    obj: dict = {
        "kind": decision.kind,
        "region": decision.region_id,
        "label": decision.label,
        "uncertainty": decision.uncertainty,
    }
    if decision.reason is not None:
        obj["reason"] = decision.reason
    if decision.action is not None:
        obj["action"] = decision.action
    if decision.guarantee is not None:
        obj["guarantee"] = _guarantee_to_json(decision.guarantee)
    return obj


def stream_guard(guard: Guard, net: Network, rows, out):
    """Evaluate CSV-style rows (iterables of floats) and write JSON lines."""
    count = 0
    for row in rows:
        x = np.asarray([float(v) for v in row], dtype=np.float64)
        decision = guard_eval(guard, net, x)
        out.write(json.dumps(decision_to_json(decision), sort_keys=True) + "\n")
        count += 1
    return count
