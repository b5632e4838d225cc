"""Runtime guards synthesized from a DNN contract.

Inputs inside a proved region, and inside the network's input domain that
the verifier clipped the region to, are answered with the region's
guarantee. Anything else fails safe, with one of four reasons:

- ``invalid_input``: the row is not `input_dim` finite numbers;
- ``outside_regions``: no region contains the row;
- ``outside_domain``: a region contains the row, but it lies outside
  ``net.normalized_domain()``, where nothing was proved;
- ``uncertain``: the network's uncertainty exceeds the guard's threshold or
  the containing region's ``uncertainty_max``, whichever is lower.

The guard never actuates: it reports a decision and leaves the reaction to
the surrounding system. Rows are decided in arrays, a block at a time; a
row's decision does not depend on the rows decided with it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .contracts import DnnContract, LabelIs, LabelNotIn, _guarantee_to_json
from .network import Network, _forward, evaluate

# rows stream_guard reads, decides and writes at a time
BLOCK_ROWS = 1024

_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class Guard:
    contract: DnnContract
    fail_safe_action: str = "fail_safe"
    uncertainty_threshold: float | None = None
    # per region in id order: the uncertainty above which a covered row fails safe
    _caps: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        u = self.uncertainty_threshold
        if u is not None and not 0 < u <= 1:
            raise ValueError("uncertainty threshold must lie in (0, 1]")
        caps = np.minimum(self.contract.uncertainty_caps, np.inf if u is None else u)
        # the trailing inf is read for rows that no region contains
        object.__setattr__(self, "_caps", np.append(caps, np.inf))


@dataclass(frozen=True)
class GuardDecision:
    kind: str  # "Covered" | "FailSafe"
    # FailSafe only: "invalid_input" | "outside_regions" | "outside_domain" | "uncertain"
    reason: str | None
    region_id: str | None
    guarantee: LabelIs | LabelNotIn | None
    label: str | None   # network's actual classification; None only for invalid input
    uncertainty: float | None
    action: str | None = None  # fail-safe action when kind == "FailSafe"


def build_guard(contract: DnnContract, fail_safe_action: str = "fail_safe",
                uncertainty_threshold: float | None = None) -> Guard:
    """Deterministic guard over all contract regions (duplicate ids rejected
    by the contract type itself)."""
    return Guard(contract, fail_safe_action, uncertainty_threshold)


def _uncertainties(good: np.ndarray) -> np.ndarray:
    """Row-wise softmax-margin uncertainty of an (n, k) array of scores
    already turned by Network.oriented, so that larger is better."""
    # shift the best score to 0 (softmax is shift-invariant; this guards
    # against overflow): then the top probability is exactly 1 / sum(exp)
    shifted = good - np.maximum.reduce(good, axis=-1, keepdims=True)
    return 1.0 - 1.0 / np.add.reduce(np.exp(shifted), axis=-1)


def uncertainty(net: Network, x) -> float:
    """Softmax-margin uncertainty proxy in [0, 1 - 1/k].

    Scores are turned by net.oriented so that larger means better, softmaxed
    at temperature 1; uncertainty is one minus the top probability.
    """
    return float(_uncertainties(net.oriented(evaluate(net, x))))


def check_network(guard: Guard, net: Network) -> None:
    """Raise ValueError unless the contract names the network and its regions
    have the network's input width."""
    if guard.contract.network != net.name:
        raise ValueError(f"contract is for network {guard.contract.network!r}, "
                         f"not {net.name!r}")
    guard.contract.check_width(net.input_dim, f"network {net.name!r}")


def _floats(row) -> list[float] | None:
    try:
        return [float(v) for v in row]
    except (TypeError, ValueError):
        return None


def _decide(guard: Guard, net: Network, rows) -> list[GuardDecision]:
    """Decisions for a sequence of rows, in order, in one pass of array work.
    The caller has run check_network."""
    action = guard.fail_safe_action
    parsed = [_floats(row) for row in rows]
    valid = [i for i, values in enumerate(parsed) if values is not None and len(values) == net.input_dim]
    xs = np.array([parsed[i] for i in valid], dtype=np.float64).reshape(len(valid), net.input_dim)
    lo, hi = net.normalized_domain()
    in_domain = ((xs >= lo) & (xs <= hi)).all(axis=1)
    if not in_domain.all():  # NaN and inf lie outside the domain
        finite = np.isfinite(xs).all(axis=1)
        valid = [i for i, ok in zip(valid, finite) if ok]
        xs, in_domain = xs[finite], in_domain[finite]
    in_domain = in_domain.tolist()
    invalid = (GuardDecision("FailSafe", "invalid_input", None, None, None, None, action)
               if len(valid) < len(parsed) else None)
    decisions = [invalid] * len(parsed)
    if not valid:
        return decisions
    good = net.oriented(_forward(net, xs))  # rows are finite and of the network's width
    best = good.argmax(axis=1).tolist()
    u = _uncertainties(good)
    first = guard.contract.first_containing(xs)
    uncertain = (u > guard._caps[first]).tolist()
    first, u = first.tolist(), u.tolist()
    regions = guard.contract.ordered
    for j, i in enumerate(valid):
        label, k = net.labels[best[j]], first[j]
        if k == len(regions):
            decision = GuardDecision("FailSafe", "outside_regions", None, None, label, u[j],
                                     action)
        elif not in_domain[j]:
            decision = GuardDecision("FailSafe", "outside_domain", None, None, label, u[j],
                                     action)
        elif uncertain[j]:
            decision = GuardDecision("FailSafe", "uncertain", regions[k].id, None, label,
                                     u[j], action)
        else:
            decision = GuardDecision("Covered", None, regions[k].id, regions[k].guarantee, label,
                                     u[j])
        decisions[i] = decision
    return decisions


def guard_eval(guard: Guard, net: Network, x) -> GuardDecision:
    """Pure decision: covered by the lowest-id region that contains x, or
    fail-safe for one of the four reasons in the module docstring."""
    check_network(guard, net)
    return _decide(guard, net, [x])[0]


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


def stream_guard(guard: Guard, net: Network, rows, out) -> int:
    """Decide CSV-style rows (iterables of numbers or numeric strings), read
    lazily BLOCK_ROWS at a time, and write one JSON line per row to out after
    each block. A malformed row gets an invalid_input decision; only a
    contract/network width mismatch raises, before any row is read."""
    check_network(guard, net)
    rows = iter(rows)
    count = 0
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        out.write("".join(_ENCODER.encode(decision_to_json(d)) + "\n"
                          for d in _decide(guard, net, block)))
        count += len(block)
    return count
