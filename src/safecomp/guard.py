"""Runtime guards synthesized from a DNN contract.

Inputs inside a proved region, and inside the network's input domain that
the verifier clipped the region to, are answered with the region's
guarantee. Anything else fails safe, with one of four reasons:

- ``invalid_input``: the row is not `input_dim` finite numbers;
- ``outside_regions``: no region contains the row;
- ``outside_domain``: a region contains the row, but it lies outside
  ``net.normalized_domain()``, where nothing was proved;
- ``uncertain``: the network's uncertainty exceeds the guard's threshold or
  the containing region's ``uncertainty_max``, whichever is lower, or the
  forward pass overflowed, so that the scores are not all finite.

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
# evaluate stays importable from here: the benchmark's per-layer hooks wrap guard.evaluate
from .network import Network, _forward, evaluate  # noqa: F401

# rows stream_guard reads, decides and writes at a time
BLOCK_ROWS = 1024

_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class Guard:
    contract: DnnContract
    fail_safe_action: str = "fail_safe"
    uncertainty_threshold: float | None = None
    # per region in id order: the uncertainty above which a covered row fails
    # safe, as Python floats for the per-row comparison in _outcomes
    _caps: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        u = self.uncertainty_threshold
        if u is not None and not 0 < u <= 1:
            raise ValueError("uncertainty threshold must lie in (0, 1]")
        caps = np.minimum(self.contract.uncertainty_caps, np.inf if u is None else u)
        object.__setattr__(self, "_caps", caps.tolist())


@dataclass(frozen=True)
class GuardDecision:
    kind: str  # "Covered" | "FailSafe"
    # FailSafe only: "invalid_input" | "outside_regions" | "outside_domain" | "uncertain"
    reason: str | None
    region_id: str | None
    guarantee: LabelIs | LabelNotIn | None
    label: str | None   # network's actual classification; None for invalid input
    # and for a row whose scores are not all finite, as is uncertainty
    uncertainty: float | None
    action: str | None = None  # fail-safe action when kind == "FailSafe"


def build_guard(contract: DnnContract, fail_safe_action: str = "fail_safe",
                uncertainty_threshold: float | None = None) -> Guard:
    """Deterministic guard over all contract regions (duplicate ids rejected
    by the contract type itself)."""
    return Guard(contract, fail_safe_action, uncertainty_threshold)


def _softmax_sums(good: np.ndarray) -> np.ndarray:
    """Row-wise softmax denominators of an (n, k) array of scores already
    turned by Network.oriented, so that larger is better, after the best
    score is shifted to 0 (softmax is shift-invariant; this guards against
    overflow): the top probability is exactly 1 / sum."""
    shifted = good - np.maximum.reduce(good, axis=-1, keepdims=True)
    return np.add.reduce(np.exp(shifted), axis=-1)


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


def _outcomes(guard: Guard, net: Network, rows) -> tuple[list, list]:
    """Per row, in one pass of array work, its outcome key (reason, region,
    label) and its uncertainty. The reason is None for Covered; the region is
    an index into contract.ordered, None where the decision names none; the
    label index and the uncertainty are None for an invalid row and for one
    whose scores are not all finite. The caller has run check_network."""
    parsed = [_floats(row) for row in rows]
    valid = [i for i, values in enumerate(parsed) if values is not None and len(values) == net.input_dim]
    xs = np.array([parsed[i] for i in valid], dtype=np.float64).reshape(len(valid), net.input_dim)
    lo, hi = net.normalized_domain()
    in_domain = np.logical_and.reduce((xs >= lo) & (xs <= hi), axis=1).tolist()
    if not all(in_domain):  # NaN and inf lie outside the domain
        finite = np.isfinite(xs).all(axis=1)
        valid = [i for i, ok in zip(valid, finite) if ok]
        xs, in_domain = xs[finite], [d for d, ok in zip(in_domain, finite) if ok]
    keys, us = [("invalid_input", None, None)] * len(parsed), [None] * len(parsed)
    if not valid:
        return keys, us
    # rows are finite and of the network's width; a forward pass that
    # overflowed computed no label and no uncertainty, so its warnings are moot
    with np.errstate(over="ignore", invalid="ignore"):
        good = net.oriented(_forward(net, xs))
        sums = _softmax_sums(good).tolist()
    scored = np.logical_and.reduce(np.isfinite(good), axis=1).tolist()
    best = good.argmax(axis=1).tolist()
    first = guard.contract.first_containing(xs).tolist()
    n, caps = len(guard.contract.ordered), guard._caps
    for j, i in enumerate(valid):
        k = first[j]
        b, u = (best[j], 1.0 - 1.0 / sums[j]) if scored[j] else (None, None)
        if k == n:
            keys[i] = ("outside_regions", None, b)
        elif not in_domain[j]:
            keys[i] = ("outside_domain", None, b)
        elif b is None or u > caps[k]:
            keys[i] = ("uncertain", k, b)
        else:
            keys[i] = (None, k, b)
        us[i] = u
    return keys, us


def _decision(guard: Guard, net: Network, key, u) -> GuardDecision:
    """The decision an outcome key of _outcomes stands for, with uncertainty u."""
    reason, k, b = key
    label = None if b is None else net.labels[b]
    if reason is None:
        region = guard.contract.ordered[k]
        return GuardDecision("Covered", None, region.id, region.guarantee, label, u)
    region_id = None if k is None else guard.contract.ordered[k].id
    return GuardDecision("FailSafe", reason, region_id, None, label, u, guard.fail_safe_action)


def guard_eval(guard: Guard, net: Network, x) -> GuardDecision:
    """Pure decision: covered by the lowest-id region that contains x, or
    fail-safe for one of the four reasons in the module docstring."""
    check_network(guard, net)
    (key,), (u,) = _outcomes(guard, net, [x])
    return _decision(guard, net, key, u)


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
    # per outcome key, its line up to the uncertainty, which sorts last
    prefixes: dict = {}
    rows = iter(rows)
    count = 0
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        lines = []
        for key, u in zip(*_outcomes(guard, net, block)):
            prefix = prefixes.get(key)
            if prefix is None:
                template = _ENCODER.encode(decision_to_json(_decision(guard, net, key, 0.0)))
                prefix = prefixes[key] = template.removesuffix("0.0}")
            lines.append(prefix + ("null" if u is None else repr(u)) + "}\n")
        out.write("".join(lines))
        count += len(block)
    return count
